"""Energy, current-conservation, comparison, and convergence diagnostics."""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose, assert_array_equal

from kgmlab import diagnostics, kernel
from kgmlab.diagnostics import (
    CompareReport,
    DegenerateInput,
    GridMismatch,
    compare,
    current_residual,
    observed_order,
    snapshot_extras,
    total_energy,
)
from kgmlab.full import run_full, step_full
from kgmlab.kernel import (
    FullState,
    Grid1D,
    GuardViolation,
    Params,
    ReducedState,
    Trajectory,
    comb_dt,
    deriv_x,
)
from kgmlab.reduced import (
    PHI_FLOOR,
    DegenerateClosure,
    accel_reduced,
    phi_identity_check,
    reconstruct_phi,
    reconstruct_phi_dot,
    run_reduced,
)
from kgmlab.scenarios import default_scenario, make_scenario


def full_zeros(g: Grid1D) -> FullState:
    return FullState(
        t=0.0,
        B=np.zeros((4, g.n)),
        Bdot=np.zeros((4, g.n)),
        phi=np.zeros(g.n),
        phidot=np.zeros(g.n),
        grid=g,
    )


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_empty_state_is_zero():
    assert total_energy(full_zeros(Grid1D(n=32)), Params()) == 0.0


def test_energy_uniform_field_closed_form():
    # constant phi = A with all else zero: only the mass term survives,
    # density m^2 A^2 / 2, total = density * domain length
    g = Grid1D(n=64)
    p = Params(m=1.3)
    s = full_zeros(g)
    s.phi[:] = 0.7
    assert_allclose(total_energy(s, p), 0.5 * p.m**2 * 0.7**2 * g.length, rtol=1e-13)


def test_energy_translation_invariant_exactly():
    # shifting every field by a whole number of cells permutes the density
    # addends; exactly rounded summation makes the total literally equal
    g = Grid1D(n=128)
    p = Params()
    s = make_scenario(default_scenario("matter-packet"), p, g)
    base = total_energy(s, p)
    rolled = s.copy()
    rolled.B = np.roll(s.B, 13, axis=1)
    rolled.Bdot = np.roll(s.Bdot, 13, axis=1)
    rolled.phi = np.roll(s.phi, 13)
    rolled.phidot = np.roll(s.phidot, 13)
    assert total_energy(rolled, p) == base


def test_energy_agrees_across_state_flavors():
    # the reduced evaluation rebuilds the matter terms from reconstructed
    # intensity; agreement is stencil-order (measured 0.002 h^2)
    g = Grid1D(n=128)
    p = Params()
    s = make_scenario(default_scenario("matter-packet"), p, g)
    gap = abs(total_energy(s, p) - total_energy(s.to_reduced(), p))
    assert gap <= 0.05 * g.h**2


# ---------------------------------------------------------------------------
# current conservation
# ---------------------------------------------------------------------------


def test_current_residual_vacuum_is_zero():
    g = Grid1D(n=32)
    p = Params()
    s0 = make_scenario(default_scenario("vacuum-offset"), p, g)
    traj = run_full(s0, 0.01, 0.05, p, every=1)
    assert np.max(current_residual(traj, p)) == 0.0


def test_current_residual_two_snapshot_path():
    # with only endpoints the time part falls back to the state-carried
    # rates, which satisfy the balance pointwise: roundoff, not h^2
    g = Grid1D(n=128)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g)
    traj = run_full(s0, comb_dt(0.5, g), 0.5, p, every=10**9)
    assert len(traj.states) == 2
    assert np.max(current_residual(traj, p)) <= 1e-13


def test_current_residual_second_order():
    # snapshot differencing dominates; measured 0.124 h^2 at both sizes
    p = Params()
    res = {}
    for n in (256, 512):
        g = Grid1D(n=n)
        s0 = make_scenario(default_scenario("matter-packet"), p, g)
        traj = run_full(s0, comb_dt(0.5, g), 0.5, p, every=4)
        res[n] = float(np.max(current_residual(traj, p)))
        assert res[n] <= 0.2 * g.h**2
    assert 2.0 <= res[256] / res[512] <= 9.0


def test_current_residual_flags_corrupted_snapshot():
    # a point bump in the matter field at one snapshot must stand out, and
    # the spike must sit at that snapshot or a differencing neighbor
    # (measured 70x at the neighbor)
    g = Grid1D(n=256)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g)
    traj = run_full(s0, comb_dt(0.5, g), 0.5, p, every=4)
    clean = float(np.max(current_residual(traj, p)))
    k0 = len(traj.states) // 2
    traj.states[k0].phi[17] += 0.05
    spiked = current_residual(traj, p)
    assert np.max(spiked) > 5.0 * clean
    assert abs(int(np.argmax(spiked)) - k0) <= 1


# ---------------------------------------------------------------------------
# trajectory comparison
# ---------------------------------------------------------------------------


def test_compare_self_is_zero():
    g = Grid1D(n=64)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g)
    traj = run_full(s0, comb_dt(0.2, g), 0.2, p, every=4)
    rep = compare(traj, traj)
    assert rep.max_rel_linf == 0.0
    assert np.all(rep.linf_rel == 0.0)
    assert np.all(rep.l2_rel == 0.0)


def test_compare_symmetric_and_scaled():
    g = Grid1D(n=64)
    p = Params()
    s0 = make_scenario(default_scenario("matter-packet"), p, g)
    dt = comb_dt(0.2, g)
    a = run_full(s0, dt, 0.2, p, every=4)
    b = run_reduced(s0.to_reduced(), dt, 0.2, p, every=4)
    ab, ba = compare(a, b), compare(b, a)
    assert ab.max_rel_linf == ba.max_rel_linf
    assert np.all(ab.scales == ba.scales)
    assert np.all(ab.scales > 0.0)


def test_compare_rejects_mismatched_grids():
    p = Params()
    s32 = make_scenario(default_scenario("vacuum-offset"), p, Grid1D(n=32))
    s64 = make_scenario(default_scenario("vacuum-offset"), p, Grid1D(n=64))
    a = run_full(s32, 0.01, 0.05, p)
    b = run_full(s64, 0.01, 0.05, p)
    with pytest.raises(GridMismatch, match="grids differ"):
        compare(a, b)


def test_compare_rejects_mismatched_times():
    g = Grid1D(n=32)
    p = Params()
    s0 = make_scenario(default_scenario("vacuum-offset"), p, g)
    a = run_full(s0, 0.01, 0.05, p, every=1)
    b = run_full(s0, 0.01, 0.04, p, every=1)
    with pytest.raises(GridMismatch, match="times"):
        compare(a, b)


def test_compare_report_serializations():
    g = Grid1D(n=32)
    p = Params()
    s0 = make_scenario(default_scenario("pure-gauge-wave"), p, g)
    traj = run_full(s0, comb_dt(0.1, g), 0.1, p, every=2)
    rep = compare(traj, traj)
    kv = rep.to_kv()
    assert kv["max_rel_linf"] == 0.0
    assert {"max_rel_linf_b0", "max_rel_l2_b3", "scale_b1", "snapshots"} <= kv.keys()
    text = rep.to_text()
    assert "max relative Linf" in text
    assert len(text.splitlines()) == len(traj.times) + 2


# ---------------------------------------------------------------------------
# convergence order
# ---------------------------------------------------------------------------


def test_observed_order_exact_quadratic():
    errors = [(h, 3.7 * h**2) for h in (0.2, 0.1, 0.05, 0.025)]
    assert_allclose(observed_order(errors), 2.0, atol=1e-12)


def test_observed_order_tolerates_noise():
    rng = np.random.default_rng(11)
    errors = [(h, 2.0 * h**2 * (1.0 + 0.05 * rng.standard_normal()))
              for h in (0.2, 0.1, 0.05, 0.025)]
    assert 1.7 <= observed_order(errors) <= 2.3


def test_observed_order_rejects_degenerate_input():
    with pytest.raises(DegenerateInput, match="two refinement"):
        observed_order([(0.1, 1e-3)])
    with pytest.raises(DegenerateInput, match="no trend"):
        observed_order([(0.1, 1e-3), (0.1, 2e-3)])
    with pytest.raises(DegenerateInput, match="positive"):
        observed_order([(0.1, 1e-3), (0.05, 0.0)])


@pytest.mark.parametrize("h, err", [
    (np.inf, 1e-3), (np.nan, 1e-3), (0.05, np.inf), (0.05, np.nan),
], ids=["h-inf", "h-nan", "err-inf", "err-nan"])
def test_observed_order_refuses_non_finite_input(h, err):
    # a NaN or infinite error used to fit to nan, and an infinite spacing
    # to a RuntimeWarning
    with pytest.raises(DegenerateInput, match="positive and finite"):
        observed_order([(0.1, 1e-3), (h, err)])


# ---------------------------------------------------------------------------
# per-snapshot extras
# ---------------------------------------------------------------------------


def test_snapshot_extras_keys_and_fallback():
    g = Grid1D(n=64)
    p = Params()
    keys = {"t", "energy", "constraint_residual", "min_abs_b0", "min_phi",
            "fallback_fraction", "charge_mean"}

    matter = make_scenario(default_scenario("matter-packet"), p, g)
    ex = snapshot_extras(matter, p)
    assert set(ex) == keys
    # a state gets Python floats, not numpy scalars or 0-d arrays
    assert all(type(v) is float for v in ex.values())
    assert ex["fallback_fraction"] == 0.0  # full state carries phi directly
    assert ex["min_phi"] > 0.0

    wave = make_scenario(default_scenario("pure-gauge-wave"), p, g).to_reduced()
    ex = snapshot_extras(wave, p)
    assert set(ex) == keys
    assert all(type(v) is float for v in ex.values())
    assert ex["fallback_fraction"] == 1.0  # vacuum: every point below floor
    assert abs(ex["min_phi"]) <= 1e-12


# ---------------------------------------------------------------------------
# stacked blocks of snapshots
# ---------------------------------------------------------------------------


def loop_conservation(traj: Trajectory, p: Params) -> tuple[list[float], np.ndarray]:
    """(total_energy, current_residual) per snapshot, one state at a time
    through the one-state functions: the reference for the stacked blocks."""
    K, g = len(traj), traj.grid
    q, flux = np.empty((K, g.n)), np.empty((K, g.n))
    for k, s in enumerate(traj.states):
        if isinstance(s, FullState):
            Phi, Phidot = s.phi * s.phi, 2.0 * s.phi * s.phidot
        else:
            Phi = reconstruct_phi(s, p)
            Phidot = reconstruct_phi_dot(s, Phi)
        q[k] = s.B[0] * Phi if K >= 3 else s.Bdot[0] * Phi + s.B[0] * Phidot
        flux[k] = s.B[1] * Phi
    dqdt = np.gradient(q, traj.times, axis=0, edge_order=2) if K >= 3 else q
    resid = np.array([np.max(np.abs(dqdt[k] - deriv_x(flux[k], g))) for k in range(K)])
    return [total_energy(s, p) for s in traj.states], resid


def packet_members(amplitudes, g: Grid1D, p: Params) -> list[FullState]:
    """One matter packet per amplitude, a step past its start so that every
    rate is nonzero, at the distinct times 0.1 k."""
    members = []
    for k, a in enumerate(amplitudes):
        s0 = make_scenario(replace(default_scenario("matter-packet"), amplitude=a), p, g)
        members.append(replace(step_full(s0, 0.5 * g.h, p), t=0.1 * k))
    return members


@settings(derandomize=True, deadline=None, max_examples=12)
@given(amplitudes=st.sampled_from((1, 2, 16)).flatmap(
           lambda K: st.lists(st.floats(0.27, 0.33), min_size=K, max_size=K)),
       width=st.sampled_from((1, 3, 16)))
def test_blocks_are_bit_identical_to_one_state_calls(amplitudes, width):
    # each member of a block of `width` snapshots gets the bits of its own
    # one-state evaluation: energy, charge-balance residual, total_energy
    # and snapshot_extras for both flavors, and Phi, Phidot, the
    # acceleration and the identity residual
    g, p = Grid1D(n=32), Params()
    full = Trajectory(states=tuple(packet_members(amplitudes, g, p)))
    red = Trajectory(states=tuple(s.to_reduced() for s in full.states))
    with mock.patch.object(kernel, "BLOCK_POINTS", width * g.n):
        for traj in (full, red):
            energy, resid = diagnostics._conservation(traj, p)
            ref_energy, ref_resid = loop_conservation(traj, p)
            assert energy.tolist() == ref_energy
            assert_array_equal(resid, ref_resid)

            for members, f in traj.blocks():
                block_energy = total_energy(f, p)
                extras = snapshot_extras(f, p)
                assert block_energy.shape == (members.stop - members.start,)
                for m, s in enumerate(traj.states[members]):
                    assert block_energy[m] == total_energy(s, p)
                    assert {key: v[m] for key, v in extras.items()} == snapshot_extras(s, p)

        # the reduced members in reverse order, on the full members' times
        other = Trajectory(states=tuple(replace(s, t=a.t) for a, s in
                                        zip(full.states, reversed(red.states))))
        report = compare(full, other)
        for k, (a, b) in enumerate(zip(full.states, other.states)):
            diff = a.B - b.B
            assert_array_equal(report.linf_rel[k], np.max(np.abs(diff), axis=1)
                               / np.where(report.scales > 0.0, report.scales, 1.0))
            assert_array_equal(report.l2_rel[k], np.sqrt(np.mean(diff * diff, axis=1))
                               / np.where(report.scales > 0.0, report.scales, 1.0))

        for members, f in red.blocks():
            assert f.B.shape == (4, members.stop - members.start, g.n)
            Phi = reconstruct_phi(f, p)
            Phidot = reconstruct_phi_dot(f, Phi)
            acc = accel_reduced(f, p)
            ident = phi_identity_check(f, acc, p)
            for m, s in enumerate(red.states[members]):
                assert_array_equal(Phi[m], reconstruct_phi(s, p))
                assert_array_equal(Phidot[m], reconstruct_phi_dot(s, Phi[m]))
                assert_array_equal(acc[:, m], accel_reduced(s, p))
                assert_array_equal(ident[m], phi_identity_check(s, acc[:, m], p))


def vacuum_member(g: Grid1D, t: float, bdot1=0.0, charge_mean=0.0) -> ReducedState:
    """B_0 = 1, dB_1/dt = bdot1 and nothing else; with the defaults Phi = 0
    at every point, below PHI_FLOOR."""
    B, Bdot = np.zeros((4, g.n)), np.zeros((4, g.n))
    B[0] = 1.0
    Bdot[1] = bdot1
    return ReducedState(t=t, B=B, Bdot=Bdot, grid=g, charge_mean=charge_mean)


def test_block_with_a_member_below_the_phi_floor_keeps_the_others_bits():
    # the vacuum member sends the whole block down the masked divide; the
    # packets, which take the plain divide alone, keep every bit
    g, p = Grid1D(n=32), Params()
    packets = [s.to_reduced() for s in packet_members((0.28, 0.31), g, p)]
    states = (packets[0], vacuum_member(g, t=0.05), packets[1])
    assert np.all(reconstruct_phi(states[1], p) < PHI_FLOOR)
    assert not np.any(reconstruct_phi(packets[0], p) < PHI_FLOOR)
    (_, f), = Trajectory(states=states).blocks()
    acc = accel_reduced(f, p)
    ident = phi_identity_check(f, acc, p)
    energy, _ = diagnostics._conservation(Trajectory(states=states), p)
    fallback = snapshot_extras(f, p)["fallback_fraction"]
    for m, s in enumerate(states):
        assert_array_equal(acc[:, m], accel_reduced(s, p))
        assert_array_equal(ident[m], phi_identity_check(s, acc[:, m], p))
        assert energy[m] == total_energy(s, p)
        assert fallback[m] == snapshot_extras(s, p)["fallback_fraction"]
    assert fallback.tolist() == [0.0, 1.0, 0.0]


def test_block_guards_name_the_first_failing_member():
    # a block raises what the first failing member raises alone: its own
    # time and grid index, in the one-state words
    g, p = Grid1D(n=32), Params()
    packets = [s.to_reduced() for s in packet_members((0.3, 0.3, 0.3, 0.3), g, p)]
    for k, j in ((1, 5), (3, 20)):
        packets[k].B[0, j] = 1e-9
    with pytest.raises(GuardViolation) as alone:
        accel_reduced(packets[1], p)
    assert str(alone.value).endswith("at grid index 5, t=0.1")
    (_, f), = Trajectory(states=tuple(packets)).blocks()
    for call in (lambda: reconstruct_phi_dot(f, reconstruct_phi(f, p)),
                 lambda: accel_reduced(f, p),
                 lambda: current_residual(Trajectory(states=tuple(packets)), p)):
        with pytest.raises(GuardViolation) as err:
            call()
        assert str(err.value) == str(alone.value)

    # Phi ~ -cos(x)/2 crosses zero under an O(1) charge bracket: the closure
    # has no admissible fallback there.  The bright member, Phi = 6 - 5 cos(x)
    # with |D dB_1/dt| up to 10, would widen a fallback scale shared by the
    # block; each member's scale is its own
    bad = vacuum_member(g, t=0.3, bdot1=np.sin(g.x()))
    bright = vacuum_member(g, t=0.1, bdot1=10.0 * np.sin(g.x()), charge_mean=6.0)
    states = (packets[0], bright, vacuum_member(g, t=0.2), bad, packets[2])
    with pytest.raises(DegenerateClosure) as alone:
        accel_reduced(bad, p)
    assert "(t=0.3)" in str(alone.value)
    (_, f), = Trajectory(states=states).blocks()
    with pytest.raises(DegenerateClosure) as err:
        accel_reduced(f, p)
    assert str(err.value) == str(alone.value)
