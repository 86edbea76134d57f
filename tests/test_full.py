"""Reference-integrator oracles.

Closed forms first (vacuum, gauge wave), then self-consistency probes
(finite differences of the stepper against accel_full, step reversal),
then the conservation ladder on the matter packet.  Tolerance constants
were calibrated once on the ladder n = 64..512 and frozen with margin;
the measured values are noted inline.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from kgmlab.full import accel_full, run_full, step_full
from kgmlab.kernel import FullState, Grid1D, GuardViolation, NonFinite, Params
from kgmlab.scenarios import default_scenario, make_scenario


def comb_dt(t_end: float, h: float) -> float:
    """Largest dt <= h/2 that lands exactly on t_end."""
    return t_end / math.ceil(t_end / (0.5 * h))


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
    phi_ddot, b_ddot_i = accel_full(s, p)
    assert np.max(np.abs(phi_ddot)) == 0.0
    assert np.max(np.abs(b_ddot_i)) == 0.0


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
    phi_ddot, b_ddot_i = accel_full(s, p)
    assert_allclose(phi_ddot, -p.m**2 * phi0, rtol=0, atol=1e-15)
    assert np.max(np.abs(b_ddot_i)) == 0.0


def test_accel_matches_finite_difference_of_stepper():
    # centered second difference of two tiny steps recovers the
    # accelerations; measured relative error 2.3e-8 at delta=2e-4
    g = Grid1D(n=128)
    p = Params()
    s = make_scenario(default_scenario("matter-packet"), p, g)
    delta = 2e-4
    fwd = step_full(s, delta, p)
    bwd = step_full(s, -delta, p)
    phi_ddot, b_ddot_i = accel_full(s, p)

    fd_phi = (fwd.phi - 2.0 * s.phi + bwd.phi) / delta**2
    fd_b = (fwd.B[1:] - 2.0 * s.B[1:] + bwd.B[1:]) / delta**2
    num = max(np.max(np.abs(fd_phi - phi_ddot)), np.max(np.abs(fd_b - b_ddot_i)))
    den = max(np.max(np.abs(phi_ddot)), np.max(np.abs(b_ddot_i)))
    assert num <= 1e-6 * den


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
    # matter-packet takes the constrained branch, the matter-free gauge wave
    # the free one
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


def test_step_guard_violation_below_floor():
    g = Grid1D(n=32)
    p = Params()
    s = FullState(
        t=0.0,
        B=np.full((4, g.n), 0.0) + np.vstack([np.full(g.n, 0.5 * p.b0_floor), np.zeros((3, g.n))]),
        Bdot=np.zeros((4, g.n)),
        grid=g,
        charge_mean=0.0,
        phi=np.zeros(g.n),
        phidot=np.zeros(g.n),
    )
    with pytest.raises(GuardViolation):
        step_full(s, 0.01, p)
    # soft mode steps through and reports instead of aborting
    soft = Params(soft_guards=True)
    out = step_full(s, 0.01, soft)
    assert out.t == pytest.approx(0.01)


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
    dt = comb_dt(T, g.h)
    traj = run_full(s0, dt, T, p, every=10**9)
    assert state_distance(traj.states[-1], s0) <= 1.5 * (g.h**2 + dt**4)


def test_run_matter_packet_conservation():
    # one matter run checks three books at once: canonical energy drift
    # (measured 0.019 h^2), the emitted slice-equation residual, and the
    # conserved charge mean (both near roundoff by construction)
    g = Grid1D(n=128)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g)
    dt = comb_dt(1.0, g.h)
    traj = run_full(s0, dt, 1.0, p, every=4)

    energies = [ex["energy"] for ex in traj.extras]
    drift = (max(energies) - min(energies)) / abs(energies[0])
    assert drift <= 0.1 * g.h**2

    scale = float(np.max(np.abs(2.0 * p.e**2 * s0.B[0] * s0.phi**2)))
    assert max(ex["constraint_residual"] for ex in traj.extras) <= 1e-9 * scale

    charges = [ex["charge_mean"] for ex in traj.extras]
    assert max(abs(q - charges[0]) for q in charges) <= 1e-10


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
