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

import contextlib
import io
import math
import tempfile
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import cli
from .carleman import (
    FockBasis,
    build_m,
    coherent_vector,
    evolve,
    ladder_matrices,
    linear_system,
    readout,
    readout_errors,
    reciprocal_drift,
    riccati_system,
    tiny_reduced_embedding,
)
from .diagnostics import compare, current_residual, observed_order, total_energy
from .full import run_full
from .kernel import Grid1D, Params
from .reduced import (
    accel_reduced,
    phi_identity_check,
    reconstruct_phi,
    run_reduced,
)
from .scenarios import default_scenario, make_scenario

Array = np.ndarray

__all__ = ["CRITERIA"]


# ---------------------------------------------------------------------------
# shared matter-packet refinement ladder
# ---------------------------------------------------------------------------

_LADDER = (128, 256, 512)
_T_END = 1.0
# Step counts double with the grid so dt halves exactly level to level;
# the coarsest count is the largest dt <= 0.5 h comb for n = 128.
_BASE_STEPS = math.ceil(_T_END / (0.5 * (2.0 * np.pi / _LADDER[0])))


@lru_cache(maxsize=None)
def _ladder_level(n: int) -> dict[str, float]:
    g = Grid1D(n=n)
    p = Params()
    dt = _T_END / (_BASE_STEPS * n // _LADDER[0])
    s0 = make_scenario(default_scenario("matter-packet"), p, g)
    # every=1 keeps the snapshot comb uniform through the endpoint; a
    # stride that does not divide the step count leaves a short final
    # interval whose one-sided time difference pollutes the charge-balance
    # residual unevenly across levels (measured order 1.64 vs 1.96)
    traj_full = run_full(s0, dt, _T_END, p, every=1)
    traj_red = run_reduced(s0.to_reduced(), dt, _T_END, p, every=1)

    out: dict[str, float] = {"h": g.h, "dt": dt}
    out["equivalence"] = compare(traj_full, traj_red).max_rel_linf
    for tag, traj in (("full", traj_full), ("reduced", traj_red)):
        energies = np.array([total_energy(s, p) for s in traj.states])
        out[f"energy_{tag}"] = float(
            np.max(np.abs(energies - energies[0])) / abs(energies[0]))
        out[f"current_{tag}"] = float(np.max(np.abs(current_residual(traj, p))))

    identity = 0.0
    for s in traj_red.states:
        b_ddot, _ = accel_reduced(s, p)
        identity = max(identity, float(np.max(phi_identity_check(s, b_ddot, p))))
    out["identity"] = identity
    return out


def _order(metric: str) -> float:
    pairs = [(_ladder_level(n)["h"], _ladder_level(n)[metric]) for n in _LADDER]
    return observed_order(pairs)


# ---------------------------------------------------------------------------
# integrator criteria
# ---------------------------------------------------------------------------


def _check_oracle_equivalence() -> tuple[bool, str]:
    err_a = _ladder_level(256)["equivalence"]
    err_b = _ladder_level(512)["equivalence"]
    ratio = err_a / err_b
    ok = err_a <= 1.0e-3 and 2.6 <= ratio <= 5.4
    return ok, (f"n=256 max rel Linf {err_a:.3e} (need <= 1e-3); "
                f"256->512 shrink {ratio:.2f} (need [2.6, 5.4])")


def _check_equivalence_order() -> tuple[bool, str]:
    order = _order("equivalence")
    return abs(order - 2.0) <= 0.3, f"observed order {order:.3f} (need 2.0 +- 0.3)"


def _check_current_conservation() -> tuple[bool, str]:
    o_full = _order("current_full")
    o_red = _order("current_reduced")
    ok = o_full >= 1.7 and o_red >= 1.7
    return ok, (f"charge-balance residual orders: full {o_full:.3f}, "
                f"reduced {o_red:.3f} (need >= 1.7)")


def _check_energy_drift() -> tuple[bool, str]:
    o_full = _order("energy_full")
    o_red = _order("energy_reduced")
    ok = o_full >= 1.7 and o_red >= 1.7
    return ok, (f"relative energy drift orders: full {o_full:.3f}, "
                f"reduced {o_red:.3f} (need >= 1.7)")


def _check_gauge_wave_regression() -> tuple[bool, str]:
    # one full period of the traveling free wave; measured 1.047 (h^2 + dt^4)
    # return distance and 4.8e-14 peak reconstructed intensity, frozen with
    # headroom at 1.5 and 0.01 h^2
    g = Grid1D(n=64)
    p = Params()
    s0 = make_scenario(default_scenario("pure-gauge-wave"), p, g).to_reduced()
    period = 2.0 * np.pi
    dt = period / math.ceil(period / (0.5 * g.h))
    traj = run_reduced(s0, dt, period, p, every=8)

    final = traj.states[-1]
    dist = max(float(np.max(np.abs(final.B - s0.B))),
               float(np.max(np.abs(final.Bdot - s0.Bdot))))
    bound = 1.5 * (g.h**2 + dt**4)

    phi_peak = max(float(np.max(np.abs(reconstruct_phi(s, p)))) for s in traj.states)
    phi_bound = 0.01 * g.h**2
    ok = dist <= bound and phi_peak <= phi_bound
    return ok, (f"period return distance {dist:.3e} (need <= {bound:.3e}); "
                f"peak reconstructed intensity {phi_peak:.3e} "
                f"(need <= {phi_bound:.3e})")


def _check_intensity_identity() -> tuple[bool, str]:
    # independent reconstruction routes agree to O(h^2) on solution
    # snapshots; measured 0.43 h^2 with ratio 4.0, frozen at 1.0 h^2
    r_a = _ladder_level(256)["identity"]
    r_b = _ladder_level(512)["identity"]
    h = _ladder_level(256)["h"]
    ratio = r_a / r_b
    ok = r_a <= 1.0 * h**2 and 2.6 <= ratio <= 5.4
    return ok, (f"n=256 max identity residual {r_a:.3e} "
                f"(need <= {1.0 * h**2:.3e}); 256->512 shrink {ratio:.2f} "
                f"(need [2.6, 5.4])")


# ---------------------------------------------------------------------------
# linearization criteria
# ---------------------------------------------------------------------------


def _check_riccati_ladder() -> tuple[bool, str]:
    sys_ = riccati_system()
    xi0, t_end = 0.5, 1.0
    exact = xi0 / (1.0 + xi0 * t_end)
    errs = []
    for cutoff in (4, 6, 8, 10, 12, 14, 16):
        basis = FockBasis(k=1, cutoff=cutoff)
        with warnings.catch_warnings():
            # the low end of the sweep sits below the coherent tail bound
            # on purpose: the ladder shows the error those tails cause
            warnings.simplefilter("ignore", RuntimeWarning)
            v0 = coherent_vector(np.array([xi0]), basis)
        v = evolve(build_m(sys_, basis), v0, t_end)
        errs.append(abs(float(readout(v, basis)[0].real) - exact))
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
    sub = [i for i, occ in enumerate(basis.states) if sum(occ) < basis.cutoff]

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
    csub = [i for i, occ in enumerate(cbasis.states) if sum(occ) < cbasis.cutoff]
    eig = max(float(np.max(np.abs((clower[i] @ v - xi[i] * v)[csub])))
              for i in range(2))
    eig_ok = eig <= 1.0e-14

    lbasis = FockBasis(k=1, cutoff=12)
    rate = -0.7
    lv = evolve(build_m(linear_system(rate), lbasis),
                coherent_vector(np.array([0.4]), lbasis), 1.0)
    lin = abs(float(readout(lv, lbasis)[0].real) - 0.4 * math.exp(rate))
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
        for d in dirs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run-reduced", "--n", "64", "--t-end", "0.2",
                                 "--every", "2", "--out", str(d)])
            if code != 0:
                return False, f"run exited {code}"
        names = sorted(f.name for f in dirs[0].iterdir() if f.name.startswith("snap"))
        identical = all(
            (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            for name in names)

        state, _ = cli.read_snapshot(dirs[0] / names[-2].removesuffix(".json"))
        path = Path(tmp) / "roundtrip.bin"
        cli.write_snapshot(path, state)
        again, _ = cli.read_snapshot(path)
        bit_exact = (again.B.tobytes() == state.B.tobytes()
                     and again.Bdot.tobytes() == state.Bdot.tobytes()
                     and again.t == state.t
                     and again.charge_mean == state.charge_mean)

    ok = identical and bit_exact
    return ok, (f"{len(names)} snapshot files byte-identical across repeated "
                f"runs: {identical}; write/read round trip bit-exact: {bit_exact}")


CRITERIA: list = [
    ("oracle-equivalence", _check_oracle_equivalence),
    ("equivalence-order", _check_equivalence_order),
    ("current-conservation-order", _check_current_conservation),
    ("energy-drift-order", _check_energy_drift),
    ("gauge-wave-regression", _check_gauge_wave_regression),
    ("intensity-identity", _check_intensity_identity),
    ("riccati-ladder", _check_riccati_ladder),
    ("ladder-structure", _check_ladder_structure),
    ("reduced-embedding", _check_reduced_embedding),
    ("determinism-persistence", _check_determinism_persistence),
]
