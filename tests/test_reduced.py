"""Electromagnetic-only integrator: reconstruction and closure oracles.

The reconstruction formulas have closed forms for hand-built slices (the
2 + cos(x) example below was re-derived symbolically before freezing the
expected value).  Everything dynamical is judged against the full-system
integrator, which evolves the matter field it eliminates.  Measured
calibration constants are noted inline next to each frozen tolerance.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose, assert_array_equal

from kgmlab.diagnostics import (
    compare,
    conservation_defects,
    current_residual,
    snapshot_extras,
)
from kgmlab.full import run_full, step_full
from kgmlab.kernel import (
    B0_FLOOR,
    Grid1D,
    GuardViolation,
    NonFinite,
    Params,
    ReducedState,
    Trajectory,
    comb_dt,
)
from kgmlab.reduced import (
    DegenerateClosure,
    accel_reduced,
    phi_identity_check,
    reconstruct_phi,
    reconstruct_phi_dot,
    run_reduced,
    step_reduced,
)
from kgmlab.scenarios import default_scenario, make_scenario


def em_state(g: Grid1D, B=None, Bdot=None, charge_mean=0.0) -> ReducedState:
    return ReducedState(
        t=0.0,
        B=np.zeros((4, g.n)) if B is None else B,
        Bdot=np.zeros((4, g.n)) if Bdot is None else Bdot,
        grid=g,
        charge_mean=charge_mean,
    )


def reduced_distance(a: ReducedState, b: ReducedState) -> float:
    return max(float(np.max(np.abs(a.B - b.B))), float(np.max(np.abs(a.Bdot - b.Bdot))))


# ---------------------------------------------------------------------------
# intensity reconstruction
# ---------------------------------------------------------------------------


def test_reconstruct_phi_constant_slice_is_zero():
    g = Grid1D(n=64)
    B = np.zeros((4, g.n))
    B[0] = 3.0
    s = em_state(g, B=B)
    assert np.max(np.abs(reconstruct_phi(s, Params()))) == 0.0


def test_reconstruct_phi_cosine_slice_closed_form():
    # B_0 = 2 + cos(x), everything else zero, e = 1:
    #   Phi = B_0'' / (2 B_0) = -cos(x) / (2 (2 + cos(x))),  so -1/6 at x=0.
    # the composed stencil evaluates this with error h^2/18; measured
    # 0.0555 h^2 at n = 64 and 128
    p = Params()
    for n in (64, 128):
        g = Grid1D(n=n)
        B = np.zeros((4, g.n))
        B[0] = 2.0 + np.cos(g.x())
        Phi = reconstruct_phi(em_state(g, B=B), p)
        exact = -np.cos(g.x()) / (2.0 * (2.0 + np.cos(g.x())))
        assert abs(Phi[0] - (-1.0 / 6.0)) <= 0.1 * g.h**2
        assert np.max(np.abs(Phi - exact)) <= 0.5 * g.h**2


def test_reconstruct_phi_gauge_wave_slice_is_vacuum():
    # solver-built wave data: the reconstruction inverts the same stencil
    # relation the constraint solve imposed, so the intensity vanishes to
    # solver precision rather than stencil order (measured 1.3e-14)
    g = Grid1D(n=64)
    p = Params()
    s = make_scenario(default_scenario("pure-gauge-wave"), p, g).to_reduced()
    assert np.max(np.abs(reconstruct_phi(s, p))) <= 1e-12


def test_reconstruct_phi_guards_b0_floor():
    g = Grid1D(n=32)
    p = Params()
    B = np.zeros((4, g.n))
    B[0] = 0.5 * B0_FLOOR
    with pytest.raises(GuardViolation):
        reconstruct_phi(em_state(g, B=B), p)


def test_reconstruct_phi_matches_full_snapshots():
    # along a full-system run the solved slices satisfy the very relation
    # the reconstruction inverts: agreement is roundoff, not stencil order
    # (measured 2.5e-14 at n=128)
    g = Grid1D(n=128)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g)
    traj = run_full(s0, comb_dt(0.5, g), 0.5, p, every=8)
    for st in traj.states:
        Phi = reconstruct_phi(st.to_reduced(), p)
        assert np.max(np.abs(Phi - st.phi**2)) <= 1e-11


def test_reconstruct_phi_dot_trivial_cases():
    g = Grid1D(n=32)
    p = Params()
    B = np.zeros((4, g.n))
    B[0] = 2.0
    s = em_state(g, B=B)
    Phi = np.zeros(g.n)
    assert np.max(np.abs(reconstruct_phi_dot(s, Phi))) == 0.0  # Phi == 0
    Phi = np.full(g.n, 0.3)  # static uniform slice: every term differentiates
    assert np.max(np.abs(reconstruct_phi_dot(s, Phi))) == 0.0


def test_reconstruct_phi_dot_matches_full_snapshots():
    # measured 0.008 h^2 against the 2 phi phidot oracle
    g = Grid1D(n=128)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g)
    traj = run_full(s0, comb_dt(1.0, g), 1.0, p, every=8)
    worst = 0.0
    for st in traj.states:
        r = st.to_reduced()
        Phi = reconstruct_phi(r, p)
        Phidot = reconstruct_phi_dot(r, Phi)
        worst = max(worst, float(np.max(np.abs(Phidot - 2.0 * st.phi * st.phidot))))
    assert worst <= 0.1 * g.h**2


# ---------------------------------------------------------------------------
# closure accelerations
# ---------------------------------------------------------------------------


def test_accel_gauge_wave_b0_closed_form():
    # B_0 = 2 + cos(x - t) gives Bddot_0 = -cos(x) at t=0;
    # measured dispersion error 0.167 h^2
    g = Grid1D(n=128)
    p = Params()
    s = make_scenario(default_scenario("pure-gauge-wave"), p, g).to_reduced()
    B_ddot = accel_reduced(s, p)
    assert np.max(np.abs(B_ddot[0] - (-np.cos(g.x())))) <= 0.5 * g.h**2
    assert np.max(np.abs(B_ddot[1] - np.cos(g.x()))) <= 0.5 * g.h**2
    # whole-grid vacuum: the closure fallback owns every point
    assert np.max(np.abs(reconstruct_phi(s, p))) <= 1e-12


def test_accel_matches_full_system_time_differences():
    # centered second time differences of the full-system B rows are an
    # independent oracle for the closure's accelerations
    g = Grid1D(n=128)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g)
    delta = 1e-3
    fwd = step_full(s0, delta, p)
    bwd = step_full(s0, -delta, p)
    fd = (fwd.B - 2.0 * s0.B + bwd.B) / delta**2
    B_ddot = accel_reduced(s0.to_reduced(), p)
    scale = float(np.max(np.abs(fd)))
    assert np.max(np.abs(B_ddot - fd)) <= 0.5 * (g.h**2 + delta**2) * scale


def test_accel_degenerate_closure_raises():
    # a slice whose reconstructed intensity oscillates through zero while
    # the charge bracket stays O(1) cannot satisfy the closure: loud error
    g = Grid1D(n=64)
    p = Params()
    B = np.zeros((4, g.n))
    B[0] = 1.0
    Bdot = np.zeros((4, g.n))
    Bdot[1] = np.sin(g.x())  # reconstructed Phi ~ -cos(x)/2: crosses zero
    s = em_state(g, B=B, Bdot=Bdot)
    with pytest.raises(DegenerateClosure, match="closure"):
        accel_reduced(s, p)


# ---------------------------------------------------------------------------
# stepping and runs
# ---------------------------------------------------------------------------


def test_run_vacuum_constant_trajectory():
    g = Grid1D(n=32)
    p = Params()
    s0 = make_scenario(default_scenario("vacuum-offset"), p, g).to_reduced()
    traj = run_reduced(s0, 0.01, 0.2, p, every=5)
    for st in traj.states:
        assert reduced_distance(st, s0) <= 1e-12


def test_run_gauge_wave_full_period():
    # free sector: both integrators run the same scheme; measured C = 1.048
    g = Grid1D(n=64)
    p = Params()
    s0 = make_scenario(default_scenario("pure-gauge-wave"), p, g).to_reduced()
    T = 2.0 * np.pi
    dt = comb_dt(T, g)
    traj = run_reduced(s0, dt, T, p, every=10**9)
    assert reduced_distance(traj.states[-1], s0) <= 1.5 * (g.h**2 + dt**4)


def test_run_matches_full_system_headline():
    # the central claim at smoke scale: n=128 measured 2.4e-4 (the
    # acceptance gate runs the N=256 version of this bound)
    g = Grid1D(n=128)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g)
    dt = comb_dt(1.0, g)
    full = run_full(s0, dt, 1.0, p, every=8)
    reduced = run_reduced(s0.to_reduced(), dt, 1.0, p, every=8)
    assert compare(full, reduced).max_rel_linf <= 1e-3


def test_run_matter_energy_drift_and_positivity():
    # measured drift 0.0131 h^2; reconstructed intensity stays at the
    # packet's pedestal (minimum 0.0357, never negative)
    g = Grid1D(n=128)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g).to_reduced()
    dt = comb_dt(1.0, g)
    traj = run_reduced(s0, dt, 1.0, p, every=4)
    extras = [snapshot_extras(s, p) for s in traj.states]
    energies = [ex["energy"] for ex in extras]
    drift = (max(energies) - min(energies)) / abs(energies[0])
    assert drift <= 0.1 * g.h**2
    assert min(ex["min_phi"] for ex in extras) >= -1.0 * g.h**2


@pytest.mark.parametrize("run, flavor", [
    (run_full, lambda s: s),
    (run_reduced, lambda s: s.to_reduced()),
], ids=["run_full", "run_reduced"])
def test_run_drivers_reject_bad_arguments(run, flavor):
    g = Grid1D(n=32)
    p = Params()
    s0 = flavor(make_scenario(default_scenario("vacuum-offset"), p, g))
    with pytest.raises(ValueError, match="not reachable"):
        run(s0, 0.01, 0.015, p)
    with pytest.raises(ValueError, match="every"):
        run(s0, 0.01, 0.1, p, every=0)
    with pytest.raises(ValueError, match="dt"):
        run(s0, 0.0, 0.1, p)


@pytest.mark.parametrize("run, flavor", [
    (run_full, lambda s: s),
    (run_reduced, lambda s: s.to_reduced()),
], ids=["run_full", "run_reduced"])
@pytest.mark.parametrize("dt, t_end, t0, name", [
    (math.inf, 1.0, 0.0, "dt"), (-math.inf, 1.0, 0.0, "dt"), (math.nan, 1.0, 0.0, "dt"),
    (0.01, math.nan, 0.0, "t_end"), (0.01, math.inf, 0.0, "t_end"),
    (0.01, -math.inf, 0.0, "t_end"),
    (0.01, 1.0, math.nan, "t"), (0.01, 1.0, math.inf, "t"), (0.01, 1.0, -math.inf, "t"),
], ids=["dt-inf", "dt-minus-inf", "dt-nan", "t_end-nan", "t_end-inf", "t_end-minus-inf",
        "t-nan", "t-inf", "t-minus-inf"])
def test_run_drivers_refuse_non_finite_step_or_horizon(run, flavor, dt, t_end, t0, name):
    # an infinite dt used to return the initial snapshot alone, as if it had
    # reached t_end; a NaN or an infinite horizon or start time failed in the
    # step count without naming it
    s0 = flavor(make_scenario(default_scenario("vacuum-offset"), Params(), Grid1D(n=32)))
    s0.t = t0
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        run(s0, dt, t_end, Params())


def test_run_attaches_failing_time():
    g = Grid1D(n=32)
    p = Params()
    B = np.zeros((4, g.n))
    B[0] = 1.0 + 0.5 * np.cos(g.x())
    Bdot = np.zeros((4, g.n))
    Bdot[1] = 1e160 * np.sin(g.x())  # quotient term overflows
    s0 = em_state(g, B=B, Bdot=Bdot)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises((NonFinite, DegenerateClosure), match=r"t="):
            run_reduced(s0, 0.01, 0.1, p)


def test_run_from_a_full_state_snapshots_reduced_states():
    # a FullState starts the run as its to_reduced(), so the diagnostics
    # read every snapshot, the first included, as from the reduced start
    g, p = Grid1D(n=64), Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g)
    dt = comb_dt(0.2, g)
    traj = run_reduced(s0, dt, 0.2, p, every=2)
    ref = run_reduced(s0.to_reduced(), dt, 0.2, p, every=2)
    assert all(type(s) is ReducedState for s in traj.states)
    assert_array_equal(current_residual(traj, p), current_residual(ref, p))
    assert conservation_defects(traj, p) == conservation_defects(ref, p)
    # a trajectory refuses a second flavor or grid, naming the first such snapshot
    for odd in (s0, em_state(Grid1D(n=32))):
        with pytest.raises(ValueError, match="^snapshot 2 is a "):
            Trajectory(states=(*ref.states[:2], odd, s0))


@pytest.mark.parametrize("step, scenario", [(step_full, "matter-packet"),
                                            (step_full, "pure-gauge-wave"),
                                            (step_reduced, "matter-packet")],
                         ids=["full-matter", "full-free", "reduced"])
def test_step_validates_only_its_result(monkeypatch, step, scenario):
    # the RK4 stages are unchecked kernel.Fields: one state is built per step
    g, p = Grid1D(n=64), Params()
    s = make_scenario(default_scenario(scenario), p, g)
    if step is step_reduced:
        s = s.to_reduced()
    built = []
    check = ReducedState.__post_init__
    monkeypatch.setattr(ReducedState, "__post_init__",
                        lambda state: built.append(state) or check(state))
    out = step(s, comb_dt(0.1, g), p)
    assert len(built) == 1 and built[0] is out


@pytest.mark.parametrize("n, bound_b, bound_bdot", [
    (128, 4e-11, 1.2e-9),
    (256, 3e-10, 1.1e-8),
])
def test_run_keeps_a_longdouble_state(n, bound_b, bound_bdot):
    # The matter packet to t = 0.5 on the comb step, in np.longdouble and in
    # float64.  Their distance is the float64 run's rounding floor: measured
    # 3.8e-12 (B) and 1.2e-10 (Bdot) at n = 128, 2.9e-11 and 1.1e-9 at
    # n = 256, bounded at 10x.
    g, p = Grid1D(n=n), Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g).to_reduced()
    wide0 = ReducedState(t=s0.t, B=s0.B.astype(np.longdouble),
                         Bdot=s0.Bdot.astype(np.longdouble), grid=g,
                         charge_mean=s0.charge_mean)
    dt = comb_dt(0.5, g)
    narrow = run_reduced(s0, dt, 0.5, p).states[-1]
    wide = run_reduced(wide0, dt, 0.5, p, every=8).states
    assert all(s.B.dtype == s.Bdot.dtype == np.longdouble for s in wide)
    dist_b = float(np.max(np.abs(wide[-1].B - narrow.B)))
    dist_bdot = float(np.max(np.abs(wide[-1].Bdot - narrow.Bdot)))
    assert 0.0 < dist_b <= bound_b
    assert 0.0 < dist_bdot <= bound_bdot


FIELD_DTYPES = {"int": np.int64, "float64": np.float64, "longdouble": np.longdouble}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(b_kind=st.sampled_from(sorted(FIELD_DTYPES)),
       bdot_kind=st.sampled_from(sorted(FIELD_DTYPES)), seed=st.integers(0, 2**32 - 1))
def test_state_steps_in_its_fields_common_dtype(b_kind, bdot_kind, seed):
    # Integer-valued fields, so every kind holds the same values.  A state
    # built from mixed kinds holds one dtype and steps to the same values as
    # the state built from arrays already in it; rates formed in a float64
    # B's dtype put one step of the n = 64 matter packet 7.8e-14 from the
    # all-longdouble step.  Longdouble compares by value: its padding bytes
    # are undefined.
    g, p = Grid1D(n=16), Params()
    rng = np.random.default_rng(seed)
    B = rng.integers(-1, 2, size=(4, g.n))
    B[0] = rng.integers(3, 5, size=g.n)
    Bdot = rng.integers(-1, 2, size=(4, g.n))
    dtype = np.dtype(np.longdouble if "longdouble" in (b_kind, bdot_kind) else np.float64)

    def state(b, bdot):
        return ReducedState(t=0.0, B=b, Bdot=bdot, grid=g, charge_mean=20.0)

    mixed = state(B.astype(FIELD_DTYPES[b_kind]), Bdot.astype(FIELD_DTYPES[bdot_kind]))
    assert mixed.B.dtype == mixed.Bdot.dtype == dtype
    got = step_reduced(mixed, 0.5 * g.h, p)
    want = step_reduced(state(B.astype(dtype), Bdot.astype(dtype)), 0.5 * g.h, p)
    for name, arr in got.field_arrays():
        assert arr.dtype == dtype, name
        assert np.array_equal(arr, getattr(want, name)), name


def test_step_reversal_returns_to_start():
    g = Grid1D(n=128)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g).to_reduced()
    for dt in (0.01, 0.005):
        back = step_reduced(step_reduced(s0, dt, p), -dt, p)
        assert reduced_distance(back, s0) <= 1.0 * dt**5


@pytest.mark.parametrize("run, flavor, steps",
                         [(run_full, "full", 64), (run_reduced, "reduced", 32)],
                         ids=["full", "reduced"])
def test_step_has_temporal_order_four(run, flavor, steps):
    # the matter packet at n = 128 to t = 0.5 in N, 2N and 4N steps: on one
    # grid the spatial error cancels from the differences, whose ratio is
    # 2^order.  Measured 3.999 (full, N = 64) and 4.012 (reduced, N = 32);
    # from N = 64 the reduced differences meet its float64 rounding floor
    # (order 3.38 there)
    g = Grid1D(n=128)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g)
    if flavor == "reduced":
        s0 = s0.to_reduced()
    ends = [run(s0, 0.5 / k, 0.5, p, every=10**9).states[-1] for k in (steps, 2 * steps, 4 * steps)]
    diffs = [max(float(np.max(np.abs(arr - getattr(b, name)))) for name, arr in a.field_arrays())
             for a, b in zip(ends, ends[1:])]
    assert math.log2(diffs[0] / diffs[1]) == pytest.approx(4.0, abs=0.2)


def test_step_leaves_its_input_unmodified():
    # the RK4 stages are formed in place, and the first B rate is s.Bdot
    g = Grid1D(n=64)
    p = Params()
    s = make_scenario(default_scenario("matter-packet"), p, g).to_reduced()
    before = s.copy()
    out = step_reduced(s, comb_dt(0.1, g), p)
    for name, arr in before.field_arrays():
        assert_array_equal(getattr(s, name), arr)
        assert not np.shares_memory(getattr(out, name), getattr(s, name))


def test_step_and_run_bit_identical_under_reference_stencils(use_roll_stencils):
    g = Grid1D(n=64)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g).to_reduced()
    dt = comb_dt(0.1, g)
    step = step_reduced(s0, dt, p)
    traj = run_reduced(s0, dt, 0.1, p, every=3)
    extras = [snapshot_extras(s, p) for s in traj.states]
    use_roll_stencils()
    ref_step = step_reduced(s0, dt, p)
    ref_traj = run_reduced(s0, dt, 0.1, p, every=3)
    ref_extras = [snapshot_extras(s, p) for s in ref_traj.states]
    assert_array_equal(step.B, ref_step.B)
    assert_array_equal(step.Bdot, ref_step.Bdot)
    assert len(traj) == len(ref_traj)
    for a, b in zip(traj.states, ref_traj.states):
        assert_array_equal(a.B, b.B)
        assert_array_equal(a.Bdot, b.Bdot)
    assert extras == ref_extras


# ---------------------------------------------------------------------------
# the two-route intensity identity
# ---------------------------------------------------------------------------


def test_identity_check_vacuum_exact():
    g = Grid1D(n=64)
    p = Params()
    B = np.zeros((4, g.n))
    B[0] = 1.0
    s = em_state(g, B=B)
    B_ddot = accel_reduced(s, p)
    assert np.max(phi_identity_check(s, B_ddot, p)) == 0.0


def test_identity_check_on_solution_snapshots():
    # measured 0.208 h^2 at t=0.5, quartering cleanly under refinement
    p = Params()
    res = {}
    for n in (128, 256):
        g = Grid1D(n=n)
        s0 = make_scenario(default_scenario("matter-packet"), p, g).to_reduced()
        st = run_reduced(s0, comb_dt(0.5, g), 0.5, p, every=10**9).states[-1]
        B_ddot = accel_reduced(st, p)
        res[n] = float(np.max(phi_identity_check(st, B_ddot, p)))
        assert res[n] <= 0.5 * g.h**2
    assert 2.6 <= res[128] / res[256] <= 5.4


def test_identity_check_flags_corruption():
    # rough noise on Bdot_1 breaks the equation-of-motion route while
    # leaving the direct reconstruction mostly alone: the residual must
    # jump well above the solution-trajectory baseline (measured 8x)
    g = Grid1D(n=256)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g).to_reduced()
    st = run_reduced(s0, comb_dt(0.5, g), 0.5, p, every=10**9).states[-1]
    B_ddot = accel_reduced(st, p)
    clean = float(np.max(phi_identity_check(st, B_ddot, p)))

    rng = np.random.default_rng(7)
    bad = st.copy()
    bad.Bdot[1] += 1e-2 * rng.standard_normal(g.n)
    corrupted = float(np.max(phi_identity_check(bad, B_ddot, p)))
    assert corrupted > 5.0 * clean


# ---------------------------------------------------------------------------
# cross-snapshot reconstruction consistency
# ---------------------------------------------------------------------------


def test_reconstruction_consistency_order():
    # centered time differences of the reconstructed intensity across
    # snapshots converge to the reconstructed rate at second order
    p = Params()
    errs = []
    for n in (64, 128):
        g = Grid1D(n=n)
        s0 = make_scenario(default_scenario("matter-packet"), p, g).to_reduced()
        dt = comb_dt(0.5, g)
        traj = run_reduced(s0, dt, 0.5, p, every=1)
        Phis = [reconstruct_phi(st, p) for st in traj.states]
        worst = 0.0
        for k in range(1, len(traj.states) - 1):
            st = traj.states[k]
            dPhi = (Phis[k + 1] - Phis[k - 1]) / (traj.states[k + 1].t - traj.states[k - 1].t)
            Phidot = reconstruct_phi_dot(st, Phis[k])
            worst = max(worst, float(np.max(np.abs(dPhi - Phidot))))
        errs.append(worst)
    ratio = errs[0] / errs[1]
    assert ratio >= 3.0  # order >= 2 would give 4; allow metric noise
