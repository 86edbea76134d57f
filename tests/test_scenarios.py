"""Constraint-solver and initial-data oracles.

The residual oracles below recompute the slice equations with the same
stencils the solvers use, then project out the grid mean: on a periodic
grid the uniform part of the source is the conserved charge balance, not
an error term.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings
from conftest import reference_screened_solve
from numpy.testing import assert_allclose, assert_array_equal

from kgmlab import scenarios
from kgmlab.cli import main
from kgmlab.diagnostics import conservation_defects, observed_order
from kgmlab.full import run_full, step_full
from kgmlab.kernel import (
    B0_FLOOR,
    Grid1D,
    Params,
    SimulationError,
    comb_dt,
    deriv_x,
)
from kgmlab.reduced import PHI_FLOOR
from kgmlab.scenarios import (
    ScenarioSpec,
    SingularOperator,
    default_scenario,
    make_scenario,
    solve_gauss_constraint,
    solve_gauss_rate,
)


def projected_constraint_residual(state, p):
    """Mean-projected residual of the time-component slice equation.

    Second derivative as the composed central stencil, matching the solver.
    """
    g = state.grid
    r = (
        deriv_x(deriv_x(state.B[0], g), g)
        - deriv_x(state.Bdot[1], g)
        - 2.0 * p.e**2 * state.B[0] * state.phi**2
    )
    return r - r.mean()


def rate_balance_residual(state, p):
    """Residual of the differentiated slice equation.

    With composed stencils the elliptic parts cancel and what remains is
    the pointwise charge balance  Bdot_0 Phi + B_0 Phidot = D(B_1 Phi).
    """
    g = state.grid
    phi_sq = state.phi**2
    phi_sq_dot = 2.0 * state.phi * state.phidot
    return (
        state.Bdot[0] * phi_sq
        + state.B[0] * phi_sq_dot
        - deriv_x(state.B[1] * phi_sq, g)
    )


def test_gauss_solve_zero_data_returns_offset():
    g = Grid1D(n=64)
    p = Params()
    zero = np.zeros(g.n)
    bdot_i = np.zeros((3, g.n))
    assert_allclose(solve_gauss_constraint(zero, bdot_i, p, g), 0.0, atol=1e-15)
    assert_allclose(solve_gauss_constraint(zero, bdot_i, p, g, offset=1.0), 1.0, atol=1e-15)


def test_gauss_solve_screens_bare_bump_to_zero():
    # with no offset and no Bdot source the screened operator is invertible
    # and the only solution is identically zero
    g = Grid1D(n=64)
    p = Params()
    phi = 0.4 * np.exp(np.cos(g.x()) - 1.0)
    b0 = solve_gauss_constraint(phi, np.zeros((3, g.n)), p, g)
    assert np.max(np.abs(b0)) < 1e-12


def test_gauss_solve_residual_matter_data():
    g = Grid1D(n=128)
    p = Params()
    x = g.x()
    phi = 0.3 * (0.5 + np.exp(np.cos(x - np.pi) - 1.0))
    bdot_i = np.zeros((3, g.n))
    bdot_i[0] = 0.1 * np.sin(x) + 0.05 * np.cos(2 * x)
    bdot_i[1] = 0.2 * np.cos(x)  # must be ignored by the planar constraint
    b0 = solve_gauss_constraint(phi, bdot_i, p, g, offset=1.0)

    r = deriv_x(deriv_x(b0, g), g) - deriv_x(bdot_i[0], g) - 2.0 * p.e**2 * b0 * phi**2
    r -= r.mean()
    scale = max(np.max(np.abs(deriv_x(bdot_i[0], g))), np.max(np.abs(2 * p.e**2 * b0 * phi**2)))
    assert np.max(np.abs(r)) <= 1e-10 * scale
    # offset survives as the mean of the returned field
    assert b0.mean() == pytest.approx(1.0, abs=1e-12)


def test_gauss_solve_unscreened_path_matches_spectral_inverse():
    g = Grid1D(n=64)
    p = Params()
    x = g.x()
    bdot_i = np.zeros((3, g.n))
    bdot_i[0] = -1.0 * np.sin(x)
    b0 = solve_gauss_constraint(np.zeros(g.n), bdot_i, p, g, offset=2.0)
    r = deriv_x(deriv_x(b0, g), g) - deriv_x(bdot_i[0], g)
    assert np.max(np.abs(r - r.mean())) <= 1e-12
    assert b0.mean() == pytest.approx(2.0, abs=1e-12)


def test_rate_solve_static_data_is_zero():
    g = Grid1D(n=64)
    p = Params()
    phi = np.full(g.n, 0.3)
    b0 = solve_gauss_constraint(phi, np.zeros((3, g.n)), p, g, offset=1.0)
    assert_allclose(b0, 1.0, atol=1e-12)  # constant intensity leaves the offset intact
    bdot0 = solve_gauss_rate(phi, np.zeros(g.n), b0, np.zeros(g.n), p, g)
    assert np.max(np.abs(bdot0)) < 1e-13


def test_rate_solve_gauge_wave_closed_form():
    g = Grid1D(n=128)
    p = Params()
    x = g.x()
    w = 1.0
    b1 = -w * np.cos(w * x)
    b0 = solve_gauss_constraint(np.zeros(g.n), np.stack([-w**2 * np.sin(w * x), np.zeros(g.n), np.zeros(g.n)]), p, g, offset=2.0)
    bdot0 = solve_gauss_rate(np.zeros(g.n), np.zeros(g.n), b0, b1, p, g)
    # closed form Bdot_0 = w^2 sin(w x); the discrete answer lands within
    # the centered-stencil dispersion of that
    err = np.max(np.abs(bdot0 - w**2 * np.sin(w * x)))
    assert err <= w**4 * g.h**2 / 6.0 * (1.0 + 1e-6)
    assert err > 0.0


@pytest.mark.parametrize("power", [-530, 520])
def test_rate_solve_is_scale_free(power):
    # the balance is homogeneous of degree 2 in (phi, phidot): scaling both
    # by a power of two must leave every bit of the rate alone, also where
    # phi^2 would be subnormal (2^-530) or overflow (2^520) unscaled
    g = Grid1D(n=128)
    p = Params()
    s = make_scenario(default_scenario("matter-packet"), p, g)
    phidot = 0.2 * np.sin(g.x()) * s.phi
    want = solve_gauss_rate(s.phi, phidot, s.B[0], s.B[1], p, g)
    got = solve_gauss_rate(np.ldexp(s.phi, power), np.ldexp(phidot, power),
                           s.B[0], s.B[1], p, g)
    assert_array_equal(got, want)


@pytest.mark.parametrize("solve", ["constraint-projected", "constraint-pinned", "rate"])
def test_public_solves_leave_their_inputs_alone(solve):
    # the solves form their results with in-place arithmetic, none of it on
    # a caller's array; a stepped slice has a nonzero phidot
    g = Grid1D(n=64)
    p = Params()
    s = step_full(make_scenario(default_scenario("matter-packet"), p, g), 0.5 * g.h, p)
    qbar = s.charge_mean
    func, args, kwargs = {
        "constraint-projected": (solve_gauss_constraint, (s.phi, s.Bdot[1:]), dict(offset=1.0)),
        "constraint-pinned": (solve_gauss_constraint, (s.phi, s.Bdot[1:]), dict(charge_mean=qbar)),
        "rate": (solve_gauss_rate, (s.phi, s.phidot, s.B[0], s.B[1]), {}),
    }[solve]
    before = [arr.tobytes() for arr in args]
    func(*args, p, g, **kwargs)
    assert [arr.tobytes() for arr in args] == before


def test_make_scenario_vacuum_offset_exact():
    g = Grid1D(n=32)
    p = Params()
    s = make_scenario(default_scenario("vacuum-offset"), p, g)
    assert_allclose(s.B[0], 1.0, atol=1e-15)
    for arr in (s.B[1:], s.Bdot, s.phi, s.phidot):
        assert np.max(np.abs(arr)) == 0.0
    assert s.charge_mean == 0.0


def test_make_scenario_gauge_wave_matches_closed_form():
    g = Grid1D(n=256)
    p = Params()
    s = make_scenario(default_scenario("pure-gauge-wave"), p, g)
    x = g.x()
    # solver output converges to the analytic gradient data at stencil order
    assert np.max(np.abs(s.B[0] - (2.0 + np.cos(x)))) <= 0.5 * g.h**2
    assert np.max(np.abs(s.Bdot[0] - np.sin(x))) <= 0.5 * g.h**2
    assert_allclose(s.B[1], -np.cos(x), atol=1e-14)
    assert_allclose(s.Bdot[1], -np.sin(x), atol=1e-14)
    # the emitted slice satisfies the projected constraint to solver
    # precision, and the rate selection starts the divergence combination
    # Bdot_0 - D(B_1) at exactly zero
    assert np.max(np.abs(projected_constraint_residual(s, p))) <= 1e-11
    assert_allclose(s.Bdot[0], deriv_x(s.B[1], g), atol=1e-15)


def test_make_scenario_matter_packet_invariants():
    g = Grid1D(n=256)
    p = Params()
    s = make_scenario(default_scenario("matter-packet"), p, g)

    assert np.min(s.phi**2) > PHI_FLOOR  # pedestal keeps the closure healthy
    assert np.min(np.abs(s.B[0])) >= 2.0 * B0_FLOOR
    assert s.charge_mean > 0.0

    scale = max(np.max(np.abs(2 * p.e**2 * s.B[0] * s.phi**2)), 1e-300)
    assert np.max(np.abs(projected_constraint_residual(s, p))) <= 1e-10 * scale
    assert np.max(np.abs(rate_balance_residual(s, p))) <= 1e-13 * scale
    # screened response stays near the offset background
    assert np.max(np.abs(s.B[0] - 1.0)) < 0.5


def test_make_scenario_refinement_consistency():
    # same continuum data sampled at shared points should differ at stencil order
    p = Params()
    spec = default_scenario("matter-packet")
    coarse = make_scenario(spec, p, Grid1D(n=64))
    fine = make_scenario(spec, p, Grid1D(n=128))
    finest = make_scenario(spec, p, Grid1D(n=256))

    d1 = np.max(np.abs(coarse.B[0] - fine.B[0][::2]))
    d2 = np.max(np.abs(fine.B[0] - finest.B[0][::2]))
    assert d1 > 0
    assert 2.5 <= d1 / d2 <= 6.0  # second-order shrink per doubling

    r1 = np.max(np.abs(coarse.Bdot[0] - fine.Bdot[0][::2]))
    r2 = np.max(np.abs(fine.Bdot[0] - finest.Bdot[0][::2]))
    assert 2.5 <= r1 / r2 <= 6.0


def test_make_scenario_rejects_bad_input():
    g = Grid1D(n=32)
    p = Params()
    with pytest.raises(ValueError, match="unknown scenario"):
        make_scenario(ScenarioSpec(name="warp-core"), p, g)


# ---------------------------------------------------------------------------
# the screened solve against a dense reference


def dense_screened_operator(phi_sq, p, g):
    """K = D(D .) - 2 e^2 Phi as a dense matrix, one column per unit vector."""
    dd = np.column_stack([deriv_x(deriv_x(col, g), g) for col in np.eye(g.n)])
    return dd - 2.0 * p.e**2 * np.diag(phi_sq)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), n=st.sampled_from((2, 4, 8, 16, 64)), projected=st.booleans())
def test_screened_solve_matches_dense_reference(data, n, projected):
    g = Grid1D(n=n)
    p = Params()
    # nonzero intensities stay >= 0.05 so the forward-error bound below
    # stays informative; the backward-error gate holds at any conditioning
    phi_sq = data.draw(hnp.arrays(float, n, elements=st.one_of(
        st.just(0.0), st.floats(0.05, 2.0))))
    # D(D .) never couples even and odd points, so a sublattice without
    # screening leaves K a free constant there
    for b in data.draw(st.sampled_from([(), (0,), (1,)]), label="unscreened"):
        phi_sq[b::2] = 0.0
    assume(np.any(phi_sq))
    rhs = data.draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
    assume(np.max(np.abs(rhs)) >= 1e-3)

    K = dense_screened_operator(phi_sq, p, g)
    free = [b for b in (0, 1) if not np.any(phi_sq[b::2])]
    charge = None
    if projected:
        # bordered form: K b - c 1 = rhs with mean(b) = 0, nonsingular
        # while either sublattice is screened
        border, pin = -np.ones((n, 1)), np.ones((1, n)) / n
        total = rhs
    else:
        # the pinned right side is a flux divergence plus a constant; the
        # free constant exists only if that constant is 0, and then the
        # solve returns zero mean there
        rhs = deriv_x(rhs, g)
        if free and not data.draw(st.booleans(), label="balanced"):
            charge = data.draw(st.floats(-1.0, 1.0), label="charge")
            assume(abs(charge) > 1e-9 * np.max(np.abs(rhs)))
            with pytest.raises(SingularOperator):
                scenarios._screened_solve(phi_sq, rhs, p, g, charge)
            return
        charge = 0.0 if free else data.draw(st.floats(-1.0, 1.0), label="charge")
        border = np.zeros((n, len(free)))
        for col, b in enumerate(free):
            border[b::2, col] = 1.0
        pin = border.T / (n // 2)
        total = rhs + charge
    A = np.block([[K, border], [pin, np.zeros((len(pin), len(pin)))]])
    want = np.linalg.solve(A, np.append(total, np.zeros(len(pin))))[:n]
    got = scenarios._screened_solve(phi_sq, rhs, p, g, charge)

    # forward error of a backward-stable solve: eps |A^-1| (|A| |x| + |rhs|)
    inv_norm = np.linalg.norm(np.linalg.inv(A), np.inf)
    bound = 100.0 * np.finfo(float).eps * inv_norm * (
        np.linalg.norm(A, np.inf) * np.max(np.abs(want)) + np.max(np.abs(total)))
    assert np.max(np.abs(got - want)) <= bound


@settings(derandomize=True, deadline=None, max_examples=100)
@given(n=st.sampled_from((4, 16, 128, 1024, 4096)), log_scale=st.floats(-20.0, 1.0),
       projected=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_screened_solve_meets_gate_in_one_pass(n, log_scale, projected, seed):
    # the solve raises SimulationError past its 1e-14 backward-error gate;
    # a screening as faint as 1e-20 against ||K|| ~ 1/h^2 must not matter
    rng = np.random.default_rng(seed)
    phi_sq = 10.0**log_scale * rng.uniform(0.01, 1.0, n)
    rhs = rng.uniform(-1.0, 1.0, n)
    charge = None
    if not projected:
        # the pinned right side: a flux divergence plus a constant
        rhs, charge = deriv_x(rhs, Grid1D(n=n)), rng.uniform(-1.0, 1.0)
    x = scenarios._screened_solve(phi_sq, rhs, Params(), Grid1D(n=n), charge)
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("case", ["bright", "faint", "half-dark"])
@pytest.mark.parametrize("projected", [False, True], ids=["pinned", "projected"])
@pytest.mark.parametrize("n", [2, 4, 64, 4096])
def test_screened_solve_bit_identical_to_banded_reference(n, projected, case):
    # the direct gtsv call, reshaped sublattices and sum / m must reproduce
    # the fancy-indexed solve_banded form to the last bit, on every branch:
    # "half-dark" leaves the odd sublattice unscreened with a balanced
    # right-hand side, so its constant is the free one; the pinned right
    # side is a flux divergence plus a constant, 0 when half-dark
    rng = np.random.default_rng(n)
    g = Grid1D(n=n)
    p = Params()
    phi_sq = (1e-9 if case == "faint" else 1.0) * rng.uniform(0.01, 1.0, n)
    rhs = rng.uniform(-1.0, 1.0, n)
    charge = None
    if not projected:
        rhs, charge = deriv_x(rhs, g), (0.0 if case == "half-dark" else rng.uniform(-1.0, 1.0))
    if case == "half-dark":
        phi_sq[1::2] = 0.0
        if projected:
            rhs[1::2] -= rhs[1::2].mean()
    assert_array_equal(scenarios._screened_solve(phi_sq, rhs, p, g, charge),
                       reference_screened_solve(phi_sq, rhs, p, g, charge))


def test_zero_pivot_is_a_singular_operator():
    # at n = 2 each block is one point with diagonal -3a - S; a (negative)
    # screening of exactly -3a zeroes the even point's pivot
    g = Grid1D(n=2)
    a = 0.25 / (g.h * g.h)
    phi_sq = np.array([-1.5 * a, 1.0])
    with pytest.raises(SingularOperator, match="zero pivot"):
        scenarios._screened_solve(phi_sq, np.array([1.0, -1.0]), Params(), g, charge=0.0)


@pytest.mark.parametrize("charge_mean", [None, 0.1], ids=["projected", "pinned"])
@pytest.mark.parametrize("field, j", [("phi", 0), ("phi", 37), ("bdot1", 0), ("bdot1", 63)])
def test_nan_input_is_a_simulation_error(field, j, charge_mean):
    # a NaN must end in the solver's own gate (exit 1), not in a bare
    # ValueError that the command would report as a config error
    g = Grid1D(n=64)
    p = Params()
    phi = 0.3 * (0.5 + np.exp(np.cos(g.x() - np.pi) - 1.0))
    bdot_i = np.zeros((3, g.n))
    bdot_i[0] = 0.1 * np.sin(g.x())
    (phi if field == "phi" else bdot_i[0])[j] = np.nan
    with pytest.raises(SimulationError, match="residual"):
        solve_gauss_constraint(phi, bdot_i, p, g, charge_mean=charge_mean)


# ---------------------------------------------------------------------------
# the residual gate and the fine-grid envelope


@pytest.mark.parametrize("amplitude, n", [
    *((amplitude, n) for amplitude in (0.27, 0.33) for n in (4096, 8192, 16384)),
    (1e-6, 4096),
])
def test_make_scenario_passes_gate_on_fine_grids(amplitude, n):
    # 0.27 and 0.33 are the ends of the amplitude range a fine reduced run
    # draws from; 1e-6 screens each sublattice's constant mode by 1e-12
    # against ||K|| ~ 1/h^2.  The check is the solver's own gate, a
    # normwise backward error of 1e-14 that these solves meet with about
    # 100x to spare at every n; make_scenario raises SimulationError past it.
    spec = replace(default_scenario("matter-packet"), amplitude=amplitude)
    make_scenario(spec, Params(), Grid1D(n=n))


@pytest.mark.parametrize("n", [2048, 4096])
def test_pinned_solve_and_full_step_pass_gate_on_fine_grids(n):
    p = Params()
    g = Grid1D(n=n)
    s = make_scenario(default_scenario("matter-packet"), p, g)
    b0 = solve_gauss_constraint(s.phi, s.Bdot[1:], p, g, charge_mean=s.charge_mean)
    assert_allclose(b0, s.B[0], rtol=0.0, atol=1e-9)
    assert np.all(np.isfinite(step_full(s, 0.5 * g.h, p).B))


@pytest.mark.parametrize("charge_mean", [None, 0.1])
def test_perturbed_solve_trips_residual_gate(monkeypatch, charge_mean):
    g = Grid1D(n=64)
    p = Params()
    phi = 0.3 * (0.5 + np.exp(np.cos(g.x() - np.pi) - 1.0))
    bdot_i = np.zeros((3, g.n))
    bdot_i[0] = 0.1 * np.sin(g.x())
    gtsv = scenarios.dgtsv

    def perturbed(*args, **kwargs):
        *factors, x, info = gtsv(*args, **kwargs)
        return (*factors, x * (1.0 + 1e-3), info)

    # a relative error of 1e-3 in the banded solve leaves a backward error
    # of 1e-5 to 1e-3, far past the gate
    monkeypatch.setattr(scenarios, "dgtsv", perturbed)
    with pytest.raises(SimulationError, match="residual"):
        solve_gauss_constraint(phi, bdot_i, p, g, charge_mean=charge_mean)


@pytest.mark.parametrize("amplitude", [1e-9, 1e-8, 1e-7, 1e-20, 1e-40, 1e-80])
@pytest.mark.parametrize("n", [128, 1024, 4096])
def test_faint_packet_steps_b0_as_a_brighter_one_does(n, amplitude):
    # each sublattice block of K has a near-null constant mode, eigenvalue
    # about -mean(2 e^2 Phi); one step must move B_0 as much at amplitudes
    # 1e-80 to 1e-7 as at 1e-6, without a float warning.  Measured moves 6.493e-5,
    # 1.015e-6, 6.35e-8 at n = 128, 1024, 4096, equal across amplitudes to 0.2%.
    # Below about 1e-17 the charge term 2 e^2 qbar ~ amplitude^2 is smaller
    # than the rounding of the flux divergence's block mean, which is exactly
    # 0, so the pinned solve must take the charge term on its own.
    p = Params()
    g = Grid1D(n=n)

    def b0_move(amp):
        s = make_scenario(replace(default_scenario("matter-packet"), amplitude=amp), p, g)
        return np.max(np.abs(step_full(s, 0.5 * g.h, p).B[0] - s.B[0]))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert b0_move(amplitude) == pytest.approx(b0_move(1e-6), rel=0.02)


# Phi spans 2.4e-4 to 2.0e-3 at n = 256: most points sit below the closure's
# intensity floor, which the full system's B_0 rate must not see
FAINT_PACKET = ScenarioSpec("matter-packet", amplitude=0.03, width=1.0)


def test_faint_packet_rate_holds_the_balance():
    # on the initial slice and on a stepped one, where phidot is nonzero.  A
    # rate floored to D(B_1) below Phi = 1e-3 missed the balance by 3.2e-6
    # on the initial slice, the size of its terms.
    g = Grid1D(n=256)
    p = Params()
    s0 = make_scenario(FAINT_PACKET, p, g)
    for s in (s0, step_full(s0, comb_dt(1.0, g), p)):
        scale = float(np.max(np.abs(2 * p.e**2 * s.B[0] * s.phi**2)))
        assert np.max(np.abs(rate_balance_residual(s, p))) <= 1e-13 * scale


def test_faint_packet_charge_balance_converges():
    # the charge-balance residual of the faint packet is second order
    # (measured 5.0e-7, 1.3e-7, 3.3e-8 at t = 0.5); with the floored rate
    # it stalled at 2.9e-4 on every grid
    p = Params()
    levels = []
    for n in (128, 256, 512):
        g = Grid1D(n=n)
        traj = run_full(make_scenario(FAINT_PACKET, p, g), comb_dt(0.5, g), 0.5, p)
        levels.append((g.h, conservation_defects(traj, p)[1]))
    assert observed_order(levels) >= 1.7


def test_faintest_packet_runs_full(tmp_path):
    # at amplitude 1e-160 the intensity is subnormal; the pinned solve used to
    # overflow there, with a RuntimeWarning (an error in this suite), and
    # then fail its gate
    config = tmp_path / "faint.cfg"
    config.write_text("scenario.amplitude = 1e-160\n")
    assert main(["run-full", "--config", str(config), "--n", "64", "--t-end", "0.05",
                 "--out", str(tmp_path / "out")]) == 0
