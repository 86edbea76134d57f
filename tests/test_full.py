"""Reference-integrator oracles.

Closed forms first (vacuum, gauge wave), then self-consistency probes
(finite differences of the stepper against accel_full, step reversal),
then the conservation ladder on the matter packet.  Tolerance constants
were calibrated once on the ladder n = 64..512 and frozen with margin;
the measured values are noted inline.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from kgmlab import kernel, scenarios
from kgmlab.diagnostics import snapshot_extras
from kgmlab.full import accel_full, run_full, step_full
from kgmlab.kernel import (
    B0_FLOOR,
    FullState,
    Grid1D,
    GuardViolation,
    NonFinite,
    Params,
    comb_dt,
    deriv_x,
)
from kgmlab.reduced import DegenerateClosure, run_reduced, step_reduced
from kgmlab.scenarios import (
    ScenarioSpec,
    default_scenario,
    make_scenario,
    solve_gauss_constraint,
    solve_gauss_rate,
)


def state_distance(a: FullState, b: FullState) -> float:
    return max(
        float(np.max(np.abs(a.B - b.B))),
        float(np.max(np.abs(a.Bdot - b.Bdot))),
        float(np.max(np.abs(a.phi - b.phi))),
        float(np.max(np.abs(a.phidot - b.phidot))),
    )


# ---------------------------------------------------------------------------
# accelerations
# ---------------------------------------------------------------------------


def test_accel_vacuum_offset_all_zero():
    g = Grid1D(n=32)
    p = Params()
    s = make_scenario(default_scenario("vacuum-offset"), p, g)
    phi_ddot, b_ddot = accel_full(s, p)
    assert np.max(np.abs(phi_ddot)) == 0.0
    assert b_ddot.shape == (4, g.n)
    assert_array_equal(b_ddot[0], deriv_x(s.Bdot[1], g))
    assert np.max(np.abs(b_ddot)) == 0.0


def test_accel_uniform_phi_mass_oscillation():
    # constant phi, no vector field: phi_ddot = -m^2 phi0 pointwise
    g = Grid1D(n=32)
    p = Params()
    phi0 = 0.7
    s = FullState(
        t=0.0,
        B=np.zeros((4, g.n)),
        Bdot=np.zeros((4, g.n)),
        grid=g,
        charge_mean=0.0,
        phi=np.full(g.n, phi0),
        phidot=np.zeros(g.n),
    )
    phi_ddot, b_ddot = accel_full(s, p)
    assert_allclose(phi_ddot, -p.m**2 * phi0, rtol=0, atol=1e-15)
    assert b_ddot.shape == (4, g.n)
    assert_array_equal(b_ddot[0], deriv_x(s.Bdot[1], g))
    assert np.max(np.abs(b_ddot)) == 0.0


def test_accel_matches_finite_difference_of_stepper():
    # centered second difference of two tiny steps recovers the
    # accelerations; measured relative error 2.3e-8 at delta=2e-4.  Row 0
    # of the block is the matter-free closure D(Bdot_1), which a step with
    # matter replaces by its solve
    g = Grid1D(n=128)
    p = Params()
    s = make_scenario(default_scenario("matter-packet"), p, g)
    delta = 2e-4
    fwd = step_full(s, delta, p)
    bwd = step_full(s, -delta, p)
    phi_ddot, b_ddot = accel_full(s, p)
    assert_array_equal(b_ddot[0], deriv_x(s.Bdot[1], g))
    b_ddot_i = b_ddot[1:]

    fd_phi = (fwd.phi - 2.0 * s.phi + bwd.phi) / delta**2
    fd_b = (fwd.B[1:] - 2.0 * s.B[1:] + bwd.B[1:]) / delta**2
    num = max(np.max(np.abs(fd_phi - phi_ddot)), np.max(np.abs(fd_b - b_ddot_i)))
    den = max(np.max(np.abs(phi_ddot)), np.max(np.abs(b_ddot_i)))
    assert num <= 1e-6 * den


@pytest.mark.parametrize("scenario", ["matter-packet", "pure-gauge-wave"])
def test_accel_on_a_block_is_bit_identical_to_one_state_calls(scenario, monkeypatch):
    # blocks of two members, so that five snapshots end on a block of one
    g, p = Grid1D(n=64), Params()
    s0 = make_scenario(default_scenario(scenario), p, g)
    dt = 0.5 * g.h
    traj = run_full(s0, dt, 4 * dt, p)
    assert len(traj) == 5
    monkeypatch.setattr(kernel, "BLOCK_POINTS", 2 * g.n)
    for members, f in traj.blocks():
        phi_ddot, b_ddot = accel_full(f, p)
        assert b_ddot.shape == f.B.shape
        for m, s in enumerate(traj.states[members]):
            one_phi, one_b = accel_full(s, p)
            assert phi_ddot[m].tobytes() == one_phi.tobytes()
            assert b_ddot[:, m].tobytes() == one_b.tobytes()


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def test_step_vacuum_is_static():
    g = Grid1D(n=64)
    p = Params()
    s = make_scenario(default_scenario("vacuum-offset"), p, g)
    s1 = step_full(s, 0.01, p)
    assert s1.t == pytest.approx(0.01, abs=0)
    assert state_distance(s1, s) <= 1e-12  # measured exactly 0.0


def test_step_gauge_wave_matches_closed_form():
    # translating wave: one step lands on the closed form at t+dt within
    # stencil dispersion; measured C = 0.167 (the D(D .) operator's h^2/6)
    g = Grid1D(n=128)
    p = Params()
    s0 = make_scenario(default_scenario("pure-gauge-wave"), p, g)
    dt = 0.5 * g.h
    s1 = step_full(s0, dt, p)
    x = g.x()
    err = max(
        float(np.max(np.abs(s1.B[0] - (2.0 + np.cos(x - dt))))),
        float(np.max(np.abs(s1.B[1] - (-np.cos(x - dt))))),
        float(np.max(np.abs(s1.Bdot[0] - np.sin(x - dt)))),
        float(np.max(np.abs(s1.Bdot[1] - (-np.sin(x - dt))))),
    )
    assert err <= 0.5 * (g.h**2 + dt**4)


def test_step_reversal_returns_to_start():
    # dt then -dt cancels through local truncation order; measured 0.078*dt^5
    g = Grid1D(n=128)
    p = Params()
    s = make_scenario(default_scenario("matter-packet"), p, g)
    for dt in (0.01, 0.005):
        back = step_full(step_full(s, dt, p), -dt, p)
        assert state_distance(back, s) <= 1.0 * dt**5


@pytest.mark.parametrize("scenario", ["matter-packet", "pure-gauge-wave"])
def test_step_bit_identical_under_reference_stencils(scenario, use_roll_stencils):
    # matter-packet solves its rows 0, the matter-free gauge wave keeps the
    # ones RK4 forms
    g = Grid1D(n=64)
    p = Params()
    s = make_scenario(default_scenario(scenario), p, g)
    dt = 0.5 * g.h
    fast = step_full(s, dt, p)
    use_roll_stencils()
    ref = step_full(s, dt, p)
    for name, arr in fast.field_arrays():
        assert_array_equal(arr, getattr(ref, name))
    assert fast.charge_mean == ref.charge_mean


@pytest.mark.parametrize("scenario, scale",
                         [("matter-packet", None), ("matter-packet", (1.0 + 1e-3, 1.0 - 1e-3)),
                          ("pure-gauge-wave", None)],
                         ids=["matter-packet", "matter-packet-off-surface", "pure-gauge-wave"])
def test_step_leaves_its_input_unmodified(scenario, scale):
    # with matter or without, the step goes through the in-place RK4, whose
    # first rates are the state's own phidot and Bdot rows.  The matter
    # packet's B_0 is its projected solve, about one ulp off the pinned one;
    # scaling B_0 and Bdot_0 puts the input well off the pinned surface, so
    # a solve written into stage 1 would show in every row 0
    g = Grid1D(n=64)
    p = Params()
    s = make_scenario(default_scenario(scenario), p, g)
    if scale is not None:
        s.B[0] *= scale[0]
        s.Bdot[0] *= scale[1]
    before = s.copy()
    out = step_full(s, 0.5 * g.h, p)
    for name, arr in before.field_arrays():
        assert_array_equal(getattr(s, name), arr)
        assert not np.shares_memory(getattr(out, name), getattr(s, name))


@pytest.mark.parametrize("scenario, constraints, rates, stencils",
                         [("matter-packet", 2, 8, 38), ("pure-gauge-wave", 0, 0, 16)],
                         ids=["matter-packet", "pure-gauge-wave"])
def test_step_projects_the_constraint_once_per_step(rebind, scenario, constraints, rates,
                                                    stencils):
    # stage 1 is the incoming state, already projected: with matter, stages
    # 2-4 keep the B_0 that RK4 forms and solve only its rate, and the
    # result is projected once, 1 constraint and 4 rate solves per step; the
    # matter-free step makes none.  Each stage makes 2 deriv_x calls in
    # accel_full, each rate 2 and the constraint solve 3: 19 per step with
    # matter, 8 without.  Every namespace holding a counted function is
    # patched, so a caller importing it by name counts
    g = Grid1D(n=64)
    p = Params()
    s = make_scenario(default_scenario(scenario), p, g)
    calls = {"solve_gauss_constraint": 0, "solve_gauss_rate": 0, "deriv_x": 0}

    def counted(func):
        def wrapper(*args, **kwargs):
            calls[func.__name__] += 1
            return func(*args, **kwargs)
        return wrapper

    for func in (scenarios.solve_gauss_constraint, scenarios.solve_gauss_rate, kernel.deriv_x):
        rebind(func, counted(func))
    for _ in range(2):
        s = step_full(s, 0.5 * g.h, p)
    assert calls == {"solve_gauss_constraint": constraints, "solve_gauss_rate": rates,
                     "deriv_x": stencils}


def test_step_ends_on_the_pinned_constraint_surface():
    # after many steps the result is its own pinned solve, bit for bit, and
    # its rate the rate balance's; the charge mean it holds stays within a
    # few ulps of the carried one (measured 1 ulp after 500 steps)
    g = Grid1D(n=64)
    p = Params()
    s = make_scenario(default_scenario("matter-packet"), p, g)
    qbar = s.charge_mean
    for _ in range(500):
        s = step_full(s, 0.5 * g.h, p)
    assert s.charge_mean == qbar
    assert_array_equal(s.B[0], solve_gauss_constraint(s.phi, s.Bdot[1:], p, g, charge_mean=qbar))
    assert_array_equal(s.Bdot[0], solve_gauss_rate(s.phi, s.phidot, s.B[0], s.B[1], p, g))
    assert abs(np.mean(s.B[0] * s.phi * s.phi) - qbar) <= 4 * np.spacing(qbar)


def widened(s: FullState) -> FullState:
    return replace(s, **{name: arr.astype(np.longdouble) for name, arr in s.field_arrays()})


def test_full_state_refuses_a_float_other_than_float64():
    # the B_0 solve is float64 LAPACK: a longdouble state with matter would
    # step in mixed precision, its B_0 within 1.1e-16 of the float64 step,
    # and a float32 phi or phidot would step every stage in float32, one
    # step leaving B_0 4.4e-8 (phi) and 5.8e-9 (phidot) from the float64
    # step.  The state refuses such a field when built, by the name given
    g, p = Grid1D(n=64), Params()
    s = make_scenario(default_scenario("matter-packet"), p, g)
    cases = [("phi", lambda: replace(s, phi=s.phi.astype(np.float32)), np.float32),
             ("phidot", lambda: replace(s, phidot=s.phidot.astype(np.float32)), np.float32)]
    # the longdouble cases only where longdouble is wider than float64; a
    # longdouble Bdot beside a float64 B is named as Bdot, not as the B the
    # two would promote to
    if np.dtype(np.longdouble) != np.float64:
        cases += [("B", lambda: widened(s), np.longdouble),
                  ("Bdot", lambda: replace(s, Bdot=s.Bdot.astype(np.longdouble)),
                   np.longdouble)]
    for name, build, dtype in cases:
        with pytest.raises(ValueError, match=f"{name} of dtype {np.dtype(dtype)}"):
            build()


def test_step_runs_below_the_b0_floor_the_reduced_step_refuses():
    # no full-system equation divides by B_0, so a full step runs on a slice
    # the reduced step, which reconstructs Phi through a division by B_0,
    # refuses
    g = Grid1D(n=32)
    p = Params()
    B = np.zeros((4, g.n))
    B[0] = 0.5 * B0_FLOOR
    s = FullState(t=0.0, B=B, Bdot=np.zeros((4, g.n)), grid=g, charge_mean=0.0,
                  phi=np.zeros(g.n), phidot=np.zeros(g.n))
    assert_array_equal(step_full(s, 0.01, p).B, B)
    with pytest.raises(GuardViolation):
        step_reduced(s.to_reduced(), 0.01, p)


def test_step_nonfinite_detection():
    g = Grid1D(n=32)
    p = Params()
    s = make_scenario(default_scenario("vacuum-offset"), p, g)
    s.B[1] = 1e307  # wave operator overflows within one stage
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite):
            step_full(s, 0.01, p)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def test_run_zero_span_single_snapshot():
    g = Grid1D(n=32)
    p = Params()
    s = make_scenario(default_scenario("vacuum-offset"), p, g)
    traj = run_full(s, 0.01, 0.0, p)
    assert len(traj.states) == 1
    assert state_distance(traj.states[0], s) == 0.0


def test_run_gauge_wave_full_period():
    # period 2*pi returns the wave to its starting data; measured C = 1.048
    g = Grid1D(n=64)
    p = Params()
    s0 = make_scenario(default_scenario("pure-gauge-wave"), p, g)
    T = 2.0 * np.pi
    dt = comb_dt(T, g)
    traj = run_full(s0, dt, T, p, every=10**9)
    assert state_distance(traj.states[-1], s0) <= 1.5 * (g.h**2 + dt**4)


def test_run_matter_packet_conservation():
    # one matter run checks three books at once: canonical energy drift
    # (measured 0.019 h^2), the emitted slice-equation residual (near
    # roundoff by construction), and the charge mean, which every step
    # carries bit for bit, as does the reduced view of each snapshot
    g = Grid1D(n=128)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g)
    dt = comb_dt(1.0, g)
    traj = run_full(s0, dt, 1.0, p, every=4)
    extras = [snapshot_extras(s, p) for s in traj.states]

    energies = [ex["energy"] for ex in extras]
    drift = (max(energies) - min(energies)) / abs(energies[0])
    assert drift <= 0.1 * g.h**2

    scale = float(np.max(np.abs(2.0 * p.e**2 * s0.B[0] * s0.phi**2)))
    assert max(ex["constraint_residual"] for ex in extras) <= 1e-9 * scale

    charges = [ex["charge_mean"] for ex in extras]
    assert charges == [s0.charge_mean] * len(traj)
    assert all(s.to_reduced().charge_mean == s0.charge_mean for s in traj.states)


@pytest.mark.parametrize("n", [128, 256])
def test_run_narrow_packet_through_a_b0_sign_change(n):
    # a narrow packet drives B_0 through zero (min B_0 reached -1.09 and
    # -1.56 by t = 1.5); the full run steps through the crossing with its
    # charge carried and held to a few ulps (measured 2), while the reduced
    # run's closure fails near t = 0.5
    g = Grid1D(n=n)
    p = Params()
    s0 = make_scenario(ScenarioSpec("matter-packet", amplitude=0.3, width=0.2), p, g)
    assert np.min(s0.B[0]) > 0.0
    dt = comb_dt(1.5, g)
    traj = run_full(s0, dt, 1.5, p)
    assert min(float(np.min(s.B[0])) for s in traj.states) < 0.0
    qbar = s0.charge_mean
    for s in traj.states:
        assert s.charge_mean == qbar
        assert abs(np.mean(s.B[0] * s.phi * s.phi) - qbar) <= 4 * np.spacing(qbar)
    with pytest.raises(DegenerateClosure):
        run_reduced(s0.to_reduced(), dt, 1.5, p)


def test_run_attaches_failing_time():
    g = Grid1D(n=32)
    p = Params()
    s = make_scenario(default_scenario("vacuum-offset"), p, g)
    s.B[1] = 1e307
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite, match=r"step to t="):
            run_full(s, 0.01, 0.1, p)


def test_run_snapshot_cadence():
    g = Grid1D(n=32)
    p = Params()
    s = make_scenario(default_scenario("vacuum-offset"), p, g)
    traj = run_full(s, 0.01, 0.1, p, every=3)
    # steps 3, 6, 9 plus forced endpoints 0 and 10
    times = [st.t for st in traj.states]
    assert_allclose(times, [0.0, 0.03, 0.06, 0.09, 0.1], atol=1e-12)
