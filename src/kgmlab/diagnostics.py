"""Conservation measurements, cross-integrator comparison, order fits.

Everything here is a pure function of trajectories or states; nothing
mutates and nothing steps in time.  The only physics baked in is the
canonical energy density (derivation in docs/derivation.md) and the
conserved current B^mu * Phi whose divergence defect the residual reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import (
    Array,
    Fields,
    Params,
    ReducedState,
    SimulationError,
    Trajectory,
    deriv_x,
)
from .reduced import below_phi_floor, reconstruct_phi, reconstruct_phi_dot

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


def _intensity(s: ReducedState | Fields, p: Params) -> tuple[Array, Array]:
    """(Phi, Phidot) of a state or a block, for either flavor."""
    if s.phi is not None:
        return s.phi * s.phi, 2.0 * s.phi * s.phidot
    Phi = reconstruct_phi(s, p)
    return Phi, reconstruct_phi_dot(s, Phi)


def total_energy(s: ReducedState | Fields, p: Params) -> float | Array:
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
    kinetic terms are floored to zero below reduced.PHI_FLOOR.  The grid sum uses
    exactly rounded summation so the result is independent of index origin.
    A state gets a float; a block of K snapshots gets a (K,) array, each
    member's total bit-identical to its one-state call.
    """
    return _energy(s, p, *_intensity(s, p))


def _energy(s: ReducedState | Fields, p: Params, Phi: Array,
            Phidot: Array) -> float | Array:
    """total_energy of a state or a block, given its (Phi, Phidot) from
    _intensity.

    The mass and coupling terms read Phi for both flavors.  Full states carry
    phi, so only a reduced state's kinetic term reads the pair.  Each
    member's density row is summed exactly by itself, then times h.
    """
    g = s.grid
    b0, b1, b2, b3 = s.B
    bd1, bd2, bd3 = s.Bdot[1:]

    em = (
        0.25 * (bd1 - deriv_x(b0, g)) ** 2
        + 0.25 * (bd2**2 + bd3**2)
        + 0.25 * (deriv_x(b2, g) ** 2 + deriv_x(b3, g) ** 2)
    )

    coupling_sq = b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3
    if s.phi is not None:
        kinetic = 0.5 * s.phidot**2 + 0.5 * deriv_x(s.phi, g) ** 2
    else:
        kinetic = np.zeros_like(Phi)
        np.divide(Phidot**2 + deriv_x(Phi, g) ** 2, 8.0 * Phi,
                  out=kinetic, where=~below_phi_floor(Phi))
    matter = kinetic + 0.5 * (p.m**2) * Phi + 0.5 * (p.e**2) * coupling_sq * Phi

    density = em + matter
    totals = [math.fsum(row) * g.h for row in density.reshape(-1, g.n).tolist()]
    return totals[0] if density.ndim == 1 else np.array(totals)


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
    return _conservation(traj, p)[1]


def _conservation(traj: Trajectory, p: Params) -> tuple[Array, Array]:
    """(total_energy, current_residual) per snapshot.

    Both are evaluated on the stacked blocks of kernel.Trajectory.blocks,
    one numpy pass per block; a block's (Phi, Phidot) is dropped before the
    next block's is formed.  Every number is bit-identical to its one-state
    evaluation.
    """
    K = len(traj)
    g = traj.grid
    energy = np.empty(K)
    # q holds the charge, differenced across snapshots below; with fewer
    # than three snapshots it holds the state-carried rate instead
    q = np.empty((K, g.n))
    flux = np.empty((K, g.n))
    for members, f in traj.blocks():
        Phi, Phidot = _intensity(f, p)
        energy[members] = _energy(f, p, Phi, Phidot)
        q[members] = f.B[0] * Phi if K >= 3 else f.Bdot[0] * Phi + f.B[0] * Phidot
        flux[members] = f.B[1] * Phi
    dqdt = np.gradient(q, np.asarray(traj.times), axis=0, edge_order=2) if K >= 3 else q

    defect = deriv_x(flux, g)
    np.subtract(dqdt, defect, out=defect)
    return energy, np.max(np.abs(defect, out=defect), axis=-1)


def conservation_defects(traj: Trajectory, p: Params) -> tuple[float, float]:
    """(relative energy drift, peak current_residual) of one run.

    The drift is max |E(t) - E(0)| / |E(0)| over the snapshots, from
    total_energy.
    """
    energies, resid = _conservation(traj, p)
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
    scale 1 and thus zero relative error.  An absolute distance is its
    relative one times scales, up to rounding.
    """

    times: Array          # (K,)
    scales: Array         # (4,)  per-component denominators
    linf_rel: Array       # (K, 4)
    l2_rel: Array         # (K, 4)  grid-RMS

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
    linf = np.zeros((K, 4))
    l2 = np.zeros((K, 4))
    # one pass per pair of stacked blocks; B rows are (4, K, n)
    for (members, fa), (_, fb) in zip(traj_a.blocks("B"), traj_b.blocks("B")):
        for B in (fa.B, fb.B):
            scales = np.maximum(scales, np.max(np.abs(B), axis=(1, 2)))
        diff = fa.B - fb.B
        linf[members] = np.max(np.abs(diff), axis=-1).T
        l2[members] = np.sqrt(np.mean(diff * diff, axis=-1)).T
    denom = np.where(scales > 0.0, scales, 1.0)

    return CompareReport(times=ta.copy(), scales=scales,
                         linf_rel=linf / denom, l2_rel=l2 / denom)


# ---------------------------------------------------------------------------
# convergence order
# ---------------------------------------------------------------------------


def observed_order(errors: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(h).

    Needs at least two distinct resolutions, with positive finite spacings
    and errors; anything else raises DegenerateInput.
    """
    if len(errors) < 2:
        raise DegenerateInput("need at least two refinement levels")
    h = np.array([float(a) for a, _ in errors])
    e = np.array([float(b) for _, b in errors])
    if not np.all(np.isfinite(h) & np.isfinite(e) & (h > 0.0) & (e > 0.0)):
        raise DegenerateInput("spacings and errors must be positive and finite")
    if float(np.max(h)) == float(np.min(h)):
        raise DegenerateInput("all resolutions equal; no trend to fit")
    slope, _ = np.polyfit(np.log(h), np.log(e), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# per-snapshot health summary
# ---------------------------------------------------------------------------


def snapshot_extras(s: ReducedState | Fields, p: Params) -> dict[str, float | Array]:
    """Scalar diagnostics stored alongside each trajectory snapshot.

    constraint_residual is the unprojected time-0 equation defect for full
    states (second derivative as the composed stencil D(D .), matching the
    solver's operator) and the state-local current-divergence defect for
    reduced states (whose time-0 equation is satisfied identically by
    construction).

    A state gets floats; a block of K snapshots gets (K,) arrays, each
    member's values bit-identical to its one-state call.
    """
    g = s.grid
    e2 = p.e**2
    Phi, Phidot = _intensity(s, p)
    if s.phi is not None:
        defect = (
            deriv_x(deriv_x(s.B[0], g), g)
            - deriv_x(s.Bdot[1], g)
            - 2.0 * e2 * (s.B[0] * Phi - s.charge_mean)
        )
        fallback = np.zeros(np.shape(s.t))
    else:
        defect = s.Bdot[0] * Phi + s.B[0] * Phidot - deriv_x(s.B[1] * Phi, g)
        fallback = np.mean(below_phi_floor(Phi), axis=-1)
    extras = {
        "t": s.t,
        "energy": _energy(s, p, Phi, Phidot),
        "constraint_residual": np.max(np.abs(defect), axis=-1),
        "min_abs_b0": np.min(np.abs(s.B[0]), axis=-1),
        "min_phi": np.min(Phi, axis=-1),
        "fallback_fraction": fallback,
        "charge_mean": np.reshape(s.charge_mean, np.shape(s.t)),
    }
    if np.ndim(s.t) == 0:
        return {key: float(v) for key, v in extras.items()}
    return extras
