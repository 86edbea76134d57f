"""Conservation measurements, cross-integrator comparison, order fits.

Everything here is a pure function of trajectories or states; nothing
mutates and nothing steps in time.  The only physics baked in is the
canonical energy density (derivation in docs/derivation.md) and the
conserved current B^mu * Phi whose divergence defect the residual reports.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .kernel import (
    Array,
    FullState,
    Params,
    ReducedState,
    SimulationError,
    Trajectory,
    deriv_x,
)
from .reduced import reconstruct_phi, reconstruct_phi_dot

__all__ = [
    "CompareReport",
    "DegenerateInput",
    "GridMismatch",
    "compare",
    "conservation_defects",
    "current_residual",
    "observed_order",
    "snapshot_extras",
    "total_energy",
]


class GridMismatch(SimulationError):
    """Trajectories live on different grids or snapshot combs."""


class DegenerateInput(SimulationError):
    """Not enough information to fit anything."""


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def _intensity(s: ReducedState, p: Params) -> tuple[Array, Array]:
    """(Phi, Phidot) for either state flavor."""
    if isinstance(s, FullState):
        return s.phi * s.phi, 2.0 * s.phi * s.phidot
    Phi = reconstruct_phi(s, p)
    return Phi, reconstruct_phi_dot(s, Phi, p)


def total_energy(s: ReducedState, p: Params) -> float:
    """Grid total of the conserved canonical energy density.

    density = 1/2 phidot^2 + 1/2 (dphi/dx)^2 + 1/2 m^2 phi^2
            + 1/2 e^2 (B_0^2 + B_1^2 + B_2^2 + B_3^2) phi^2
            + 1/4 (dB_1/dt - dB_0/dx)^2
            + 1/4 (dB_2/dt)^2 + 1/4 (dB_3/dt)^2
            + 1/4 (dB_2/dx)^2 + 1/4 (dB_3/dx)^2

    All four field components enter the coupling term with a plus sign: the
    constraint has already been used to trade the indefinite time-component
    coupling for a definite one, which is what makes this the conserved
    positive quantity (see docs/derivation.md for the Legendre transform and
    the normalization; the field-strength terms carry 1/4, not 1/2, in the
    normalization where the current source is -2 e^2 B_mu phi^2).

    Accepts a reduced state as well, with phi^2 reconstructed; the quotient
    kinetic terms are floored to zero below phi_floor.  The grid sum uses
    exactly rounded summation so the result is independent of index origin.
    """
    return _energy(s, p, *_intensity(s, p))


def _energy(s: ReducedState, p: Params, Phi: Array, Phidot: Array) -> float:
    """total_energy given the state's (Phi, Phidot) from _intensity.

    Full states carry phi, so only a reduced state's energy reads the pair.
    """
    g = s.grid
    b0, b1, b2, b3 = s.B
    bd1, bd2, bd3 = s.Bdot[1], s.Bdot[2], s.Bdot[3]

    em = (
        0.25 * (bd1 - deriv_x(b0, g)) ** 2
        + 0.25 * (bd2**2 + bd3**2)
        + 0.25 * (deriv_x(b2, g) ** 2 + deriv_x(b3, g) ** 2)
    )

    coupling_sq = b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3
    if isinstance(s, FullState):
        matter = (
            0.5 * s.phidot**2
            + 0.5 * deriv_x(s.phi, g) ** 2
            + 0.5 * (p.m**2) * s.phi**2
            + 0.5 * (p.e**2) * coupling_sq * s.phi**2
        )
    else:
        low = np.abs(Phi) < p.phi_floor
        quot = np.zeros_like(Phi)
        np.divide(Phidot**2 + deriv_x(Phi, g) ** 2, 8.0 * Phi,
                  out=quot, where=~low)
        matter = quot + 0.5 * (p.m**2) * Phi + 0.5 * (p.e**2) * coupling_sq * Phi

    return math.fsum(em + matter) * g.h


# ---------------------------------------------------------------------------
# current conservation
# ---------------------------------------------------------------------------


def current_residual(traj: Trajectory, p: Params) -> Array:
    """Max-norm divergence defect of the conserved current, per snapshot.

    The time part of the divergence is differenced across snapshots
    (second-order interior and edge stencils, nonuniform-comb aware); the
    flux part is the spatial stencil at each snapshot.  With fewer than
    three snapshots there is no second-order time difference, so the
    state-carried time derivatives are used instead.
    """
    return _current_residual(traj, (_intensity(s, p) for s in traj.states))


def _current_residual(traj: Trajectory, intensities: Iterator[tuple[Array, Array]]) -> Array:
    """current_residual given each snapshot's (Phi, Phidot) from _intensity,
    in snapshot order; it reads each pair once."""
    states = traj.states
    K = len(states)
    g = traj.grid
    # q holds the charge, differenced across snapshots below; with fewer
    # than three snapshots it holds the state-carried rate instead
    q = np.empty((K, g.n))
    flux = np.empty((K, g.n))
    for k, (s, (Phi, Phidot)) in enumerate(zip(states, intensities)):
        q[k] = s.B[0] * Phi if K >= 3 else s.Bdot[0] * Phi + s.B[0] * Phidot
        flux[k] = s.B[1] * Phi
    dqdt = np.gradient(q, np.asarray(traj.times), axis=0, edge_order=2) if K >= 3 else q

    resid = np.empty(K)
    for k in range(K):
        resid[k] = float(np.max(np.abs(dqdt[k] - deriv_x(flux[k], g))))
    return resid


def conservation_defects(traj: Trajectory, p: Params) -> tuple[float, float]:
    """(relative energy drift, peak current_residual) of one run.

    The drift is max |E(t) - E(0)| / |E(0)| over the snapshots, from
    total_energy.  Both measures read the same (Phi, Phidot) per snapshot,
    so a reduced run reconstructs its intensity once per snapshot.
    """
    energies = []

    def intensities() -> Iterator[tuple[Array, Array]]:
        # one pair at a time, so no run's worth of intensities is held
        for s in traj.states:
            pair = _intensity(s, p)
            energies.append(_energy(s, p, *pair))
            yield pair

    resid = _current_residual(traj, intensities())
    drift = np.max(np.abs(np.subtract(energies, energies[0]))) / max(abs(energies[0]), 1e-300)
    return float(drift), float(np.max(resid))


# ---------------------------------------------------------------------------
# trajectory comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompareReport:
    """Per-snapshot, per-component distances between two trajectories.

    Relative norms divide by a per-component scale: the max-abs of that
    component over both trajectories (so the report is symmetric in its
    arguments).  A component that is identically zero in both runs gets
    scale 1 and thus zero relative error.
    """

    times: Array          # (K,)
    scales: Array         # (4,)  per-component denominators
    linf_abs: Array       # (K, 4)
    l2_abs: Array         # (K, 4)  grid-RMS
    linf_rel: Array       # (K, 4)
    l2_rel: Array         # (K, 4)

    @property
    def max_rel_linf(self) -> float:
        return float(np.max(self.linf_rel))

    def to_kv(self) -> dict[str, float]:
        """Flat machine-readable summary."""
        out = {"max_rel_linf": self.max_rel_linf,
               "snapshots": float(len(self.times))}
        for mu in range(4):
            out[f"max_rel_linf_b{mu}"] = float(np.max(self.linf_rel[:, mu]))
            out[f"max_rel_l2_b{mu}"] = float(np.max(self.l2_rel[:, mu]))
            out[f"scale_b{mu}"] = float(self.scales[mu])
        return out

    def to_text(self) -> str:
        lines = ["      t    " + "  ".join(f"relLinf_B{mu}" for mu in range(4))]
        for k, t in enumerate(self.times):
            cells = "  ".join(f"{self.linf_rel[k, mu]:11.4e}" for mu in range(4))
            lines.append(f"{t:8.4f}  {cells}")
        lines.append(f"max relative Linf over run: {self.max_rel_linf:.4e}")
        return "\n".join(lines)


def compare(traj_a: Trajectory, traj_b: Trajectory) -> CompareReport:
    """Distance report between two runs of the field components B_mu.

    Requires identical grids and snapshot combs; symmetric in arguments.
    """
    ga, gb = traj_a.grid, traj_b.grid
    if ga.n != gb.n or ga.length != gb.length:
        raise GridMismatch(f"grids differ: n={ga.n},L={ga.length} vs n={gb.n},L={gb.length}")
    ta = np.asarray(traj_a.times)
    tb = np.asarray(traj_b.times)
    if ta.shape != tb.shape or np.max(np.abs(ta - tb)) > 1e-9:
        raise GridMismatch("snapshot times differ")

    K = len(ta)
    scales = np.zeros(4)
    for traj in (traj_a, traj_b):
        for s in traj.states:
            scales = np.maximum(scales, np.max(np.abs(s.B), axis=1))
    denom = np.where(scales > 0.0, scales, 1.0)

    linf = np.zeros((K, 4))
    l2 = np.zeros((K, 4))
    for k, (sa, sb) in enumerate(zip(traj_a.states, traj_b.states)):
        diff = sa.B - sb.B
        linf[k] = np.max(np.abs(diff), axis=1)
        l2[k] = np.sqrt(np.mean(diff * diff, axis=1))

    return CompareReport(
        times=ta.copy(),
        scales=scales,
        linf_abs=linf,
        l2_abs=l2,
        linf_rel=linf / denom,
        l2_rel=l2 / denom,
    )


# ---------------------------------------------------------------------------
# convergence order
# ---------------------------------------------------------------------------


def observed_order(errors: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(h).

    Needs at least two distinct resolutions with positive errors; anything
    else raises DegenerateInput.
    """
    if len(errors) < 2:
        raise DegenerateInput("need at least two refinement levels")
    h = np.array([float(a) for a, _ in errors])
    e = np.array([float(b) for _, b in errors])
    if np.any(h <= 0.0) or np.any(e <= 0.0):
        raise DegenerateInput("spacings and errors must be positive")
    if float(np.max(h)) == float(np.min(h)):
        raise DegenerateInput("all resolutions equal; no trend to fit")
    slope, _ = np.polyfit(np.log(h), np.log(e), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# per-snapshot health summary
# ---------------------------------------------------------------------------


def snapshot_extras(s: ReducedState, p: Params) -> dict[str, float]:
    """Scalar diagnostics stored alongside each trajectory snapshot.

    constraint_residual is the unprojected time-0 equation defect for full
    states (second derivative as the composed stencil D(D .), matching the
    solver's operator) and the state-local current-divergence defect for
    reduced states (whose time-0 equation is satisfied identically by
    construction).
    """
    g = s.grid
    e2 = p.e**2
    Phi, Phidot = _intensity(s, p)
    if isinstance(s, FullState):
        gauss = (
            deriv_x(deriv_x(s.B[0], g), g)
            - deriv_x(s.Bdot[1], g)
            - 2.0 * e2 * (s.B[0] * Phi - s.charge_mean)
        )
        constraint = float(np.max(np.abs(gauss)))
        fallback = 0.0
    else:
        defect = s.Bdot[0] * Phi + s.B[0] * Phidot - deriv_x(s.B[1] * Phi, g)
        constraint = float(np.max(np.abs(defect)))
        fallback = float(np.mean(np.abs(Phi) < p.phi_floor))
    return {
        "t": float(s.t),
        "energy": _energy(s, p, Phi, Phidot),
        "constraint_residual": constraint,
        "min_abs_b0": float(np.min(np.abs(s.B[0]))),
        "min_phi": float(np.min(Phi)),
        "fallback_fraction": fallback,
        "charge_mean": float(s.charge_mean),
    }
