"""Acceptance gate: every release-blocking property as a named callable.

Each entry in CRITERIA is a (name, check) pair; a check takes no arguments
and returns (passed, detail) where detail carries the measured numbers.
The `kgmlab check` subcommand prints one PASS/FAIL line per entry, and the
acceptance test module asserts each entry individually.

The matter-packet refinement ladder (three grids, both integrators, shared
by the equivalence, conservation, drift, and identity checks) is computed
once and cached.  Tolerances with calibrated constants were measured on
solution trajectories and frozen with headroom; they are regression bounds,
not error estimates.
"""

from __future__ import annotations

import math
import tempfile
import warnings
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import run
from .carleman import (
    FockBasis,
    coherent_vector,
    fock_readout,
    ladder_matrices,
    linear_system,
    readout_errors,
    reciprocal_drift,
    riccati_system,
    tiny_reduced_embedding,
)
from .diagnostics import observed_order
from .kernel import Grid1D, SimulationError
from .reduced import reconstruct_phi
from .scenarios import default_scenario

__all__ = ["CRITERIA"]


# ---------------------------------------------------------------------------
# shared matter-packet refinement ladder
# ---------------------------------------------------------------------------

_T_END = 1.0


@lru_cache(maxsize=None)
def _ladder_level(n: int) -> dict[str, float]:
    # each level runs on its own comb step, as `kgmlab convergence` does.
    # every=1 keeps the snapshot comb uniform through the endpoint; a
    # stride that does not divide the step count leaves a short final
    # interval whose one-sided time difference pollutes the charge-balance
    # residual unevenly across levels (measured order 1.64 vs 1.96)
    return run.ladder_level(run.RunConfig(grid=Grid1D(n=n), t_end=_T_END, every=1))


def _order(metric: str) -> float:
    pairs = [(_ladder_level(n)["h"], _ladder_level(n)[metric]) for n in run.LADDER_SIZES]
    return observed_order(pairs)


# ---------------------------------------------------------------------------
# integrator criteria
# ---------------------------------------------------------------------------


def _shrinks(metric: str, label: str, bound: float, shown: str) -> tuple[bool, str]:
    """The metric at n = 256 is at most bound (printed as shown) and shrinks
    2.6-5.4x from n = 256 to n = 512."""
    coarse = _ladder_level(256)[metric]
    ratio = coarse / _ladder_level(512)[metric]
    ok = coarse <= bound and 2.6 <= ratio <= 5.4
    return ok, (f"n=256 {label} {coarse:.3e} (need <= {shown}); "
                f"256->512 shrink {ratio:.2f} (need [2.6, 5.4])")


def _check_equivalence_order() -> tuple[bool, str]:
    order = _order("equivalence")
    return abs(order - 2.0) <= 0.3, f"observed order {order:.3f} (need 2.0 +- 0.3)"


def _orders_both(metric: str, label: str) -> tuple[bool, str]:
    """The metric's observed orders on the full and the reduced runs are
    both at least 1.7."""
    o_full = _order(f"{metric}_full")
    o_red = _order(f"{metric}_reduced")
    ok = o_full >= 1.7 and o_red >= 1.7
    return ok, (f"{label} orders: full {o_full:.3f}, "
                f"reduced {o_red:.3f} (need >= 1.7)")


def _check_gauge_wave_regression() -> tuple[bool, str]:
    # one full period of the traveling free wave; measured 1.047 (h^2 + dt^4)
    # return distance and 5.279e-14 peak reconstructed intensity, frozen with
    # headroom at 1.5 and 0.01 h^2
    cfg = run.RunConfig(grid=Grid1D(n=64), scenario=default_scenario("pure-gauge-wave"),
                        t_end=2.0 * np.pi, every=8)
    traj = run.integrate(cfg, "reduced")
    g, p, dt, s0 = cfg.grid, cfg.params, cfg.resolved_dt(), traj.states[0]

    final = traj.states[-1]
    dist = max(float(np.max(np.abs(final.B - s0.B))),
               float(np.max(np.abs(final.Bdot - s0.Bdot))))
    bound = 1.5 * (g.h**2 + dt**4)

    phi_peak = max(float(np.max(np.abs(reconstruct_phi(f, p)))) for _, f in traj.blocks())
    phi_bound = 0.01 * g.h**2
    ok = dist <= bound and phi_peak <= phi_bound
    return ok, (f"period return distance {dist:.3e} (need <= {bound:.3e}); "
                f"peak reconstructed intensity {phi_peak:.3e} "
                f"(need <= {phi_bound:.3e})")


# ---------------------------------------------------------------------------
# linearization criteria
# ---------------------------------------------------------------------------


def _check_riccati_ladder() -> tuple[bool, str]:
    sys_ = riccati_system()
    xi0, t_end = 0.5, 1.0
    exact = xi0 / (1.0 + xi0 * t_end)
    errs = []
    for cutoff in (4, 6, 8, 10, 12, 14, 16):
        with warnings.catch_warnings():
            # the low end of the sweep sits below the coherent tail bound
            # on purpose: the ladder shows the error those tails cause
            warnings.simplefilter("ignore", RuntimeWarning)
            _, got = fock_readout(sys_, np.array([xi0]), t_end, cutoff)
        errs.append(abs(float(got[0].real) - exact))
    monotone = all(b <= a for a, b in zip(errs, errs[1:]))
    ok = monotone and errs[-1] <= 1.0e-4
    return ok, (f"errors over cutoffs 4..16: {errs[0]:.2e} -> {errs[-1]:.2e}, "
                f"monotone={monotone} (need nonincreasing, final <= 1e-4)")


def _check_ladder_structure() -> tuple[bool, str]:
    # like-operator commutators and adjointness are exact in floats; the
    # mixed commutator inherits sqrt roundoff (fl(sqrt(2))^2 != 2), so
    # "exact" on the sub-shell means a few ulp here
    basis = FockBasis(k=2, cutoff=6)
    lower, upper = ladder_matrices(basis)
    sub = np.flatnonzero(basis.states.sum(axis=1) < basis.cutoff)

    like = 0.0
    adjoint = 0.0
    mixed = 0.0
    for i in range(2):
        adjoint = max(adjoint, float(np.max(np.abs(
            (upper[i] - lower[i].T).toarray()))))
        for j in range(2):
            comm = (lower[i] @ lower[j] - lower[j] @ lower[i]).toarray()
            like = max(like, float(np.max(np.abs(comm))))
            canon = (lower[i] @ upper[j] - upper[j] @ lower[i]).toarray()
            canon[np.arange(basis.dim), np.arange(basis.dim)] -= float(i == j)
            mixed = max(mixed, float(np.max(np.abs(canon[np.ix_(sub, sub)]))))
    structure_ok = like == 0.0 and adjoint == 0.0 and mixed <= 1.0e-14

    cbasis = FockBasis(k=2, cutoff=8)
    clower, _ = ladder_matrices(cbasis)
    xi = np.array([0.3, -0.2])
    v = coherent_vector(xi, cbasis)
    csub = np.flatnonzero(cbasis.states.sum(axis=1) < cbasis.cutoff)
    eig = max(float(np.max(np.abs((clower[i] @ v - xi[i] * v)[csub])))
              for i in range(2))
    eig_ok = eig <= 1.0e-14

    rate = -0.7
    _, lr = fock_readout(linear_system(rate), np.array([0.4]), 1.0, 12)
    lin = abs(float(lr[0].real) - 0.4 * math.exp(rate))
    lin_ok = lin <= 1.0e-8

    ok = structure_ok and eig_ok and lin_ok
    return ok, (f"like-commutators {like:.1e} (exact), adjoint gap {adjoint:.1e} "
                f"(exact), mixed sub-shell defect {mixed:.1e} (<= 1e-14); "
                f"coherent eigen-defect {eig:.1e} (<= 1e-14); "
                f"linear readout error {lin:.1e} (<= 1e-8)")


def _check_reduced_embedding() -> tuple[bool, str]:
    _, sys_, x0 = tiny_reduced_embedding()

    # reciprocal-product invariants along the classical polynomial flow
    drift = reciprocal_drift(sys_, x0, 0.5)
    drift_ok = drift <= 1.0e-8

    # Fock readout converges toward the classical oracle as the cutoff grows
    errs = [err for _, err in readout_errors(sys_, x0, 0.05, (1, 2, 3))]
    conv_ok = all(b < a for a, b in zip(errs, errs[1:])) and errs[-1] <= 1.0e-5

    ok = drift_ok and conv_ok
    return ok, (f"reciprocal invariant drift {drift:.2e} over t<=0.5 "
                f"(need <= 1e-8); readout errors over cutoffs 1..3: "
                + " -> ".join(f"{e:.2e}" for e in errs)
                + " (need decreasing, final <= 1e-5)")


# ---------------------------------------------------------------------------
# persistence criterion
# ---------------------------------------------------------------------------


def _check_determinism_persistence() -> tuple[bool, str]:
    with tempfile.TemporaryDirectory() as tmp:
        dirs = (Path(tmp) / "a", Path(tmp) / "b")
        try:
            for d in dirs:
                cfg = run.RunConfig(grid=Grid1D(n=64), t_end=0.2, every=2, out_dir=str(d))
                run.write_run_outputs(cfg, run.integrate(cfg, "reduced"))
        except (SimulationError, OSError) as err:
            return False, f"run failed: {type(err).__name__}: {err}"
        names = sorted(f.name for f in dirs[0].iterdir() if f.name.startswith("snap"))
        identical = all(
            (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            for name in names)

        state, _ = run.read_snapshot(dirs[0] / names[-2].removesuffix(".json"))
        path = Path(tmp) / "roundtrip.bin"
        run.write_snapshot(path, state)
        again, _ = run.read_snapshot(path)
        bit_exact = (again.B.tobytes() == state.B.tobytes()
                     and again.Bdot.tobytes() == state.Bdot.tobytes()
                     and again.t == state.t
                     and again.charge_mean == state.charge_mean)

    ok = identical and bit_exact
    return ok, (f"{len(names)} snapshot files byte-identical across repeated "
                f"runs: {identical}; write/read round trip bit-exact: {bit_exact}")


# the identity's two reconstruction routes agree to O(h^2) on solution
# snapshots; measured 0.43 h^2 with ratio 4.0, frozen at 1.0 h^2
_IDENTITY_BOUND = 1.0 * Grid1D(n=256).h ** 2

CRITERIA: list = [
    ("oracle-equivalence",
     partial(_shrinks, "equivalence", "max rel Linf", 1.0e-3, "1e-3")),
    ("equivalence-order", _check_equivalence_order),
    ("current-conservation-order",
     partial(_orders_both, "current_residual", "charge-balance residual")),
    ("energy-drift-order", partial(_orders_both, "energy_drift", "relative energy drift")),
    ("gauge-wave-regression", _check_gauge_wave_regression),
    ("intensity-identity",
     partial(_shrinks, "identity_residual", "max identity residual", _IDENTITY_BOUND,
             f"{_IDENTITY_BOUND:.3e}")),
    ("riccati-ladder", _check_riccati_ladder),
    ("ladder-structure", _check_ladder_structure),
    ("reduced-embedding", _check_reduced_embedding),
    ("determinism-persistence", _check_determinism_persistence),
]
