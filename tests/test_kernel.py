"""Stencil and container behavior, pinned against analytic derivatives."""

from __future__ import annotations

from dataclasses import fields

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose, assert_array_equal

from kgmlab.kernel import (
    FullState,
    Grid1D,
    GuardViolation,
    Params,
    ReducedState,
    deriv_x,
    deriv_xx,
    guard_b0_floor,
    lorentz_dot,
    rk4,
    step_count,
)


def test_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        Grid1D(n=48)
    with pytest.raises(ValueError):
        Grid1D(n=1)
    with pytest.raises(ValueError):
        Grid1D(n=16, length=-1.0)
    assert Grid1D(n=2).h == pytest.approx(np.pi)


def test_params_validation():
    # the couplings are the only fields, and each refuses what it cannot use
    assert [f.name for f in fields(Params)] == ["e", "m"]
    for bad in (dict(e=0.0), dict(e=float("nan")), dict(m=float("inf"))):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))}: "):
            Params(**bad)


def test_deriv_x_spike_column():
    # Applying the antisymmetric centered stencil to a unit spike at j
    # returns the j-th matrix column: +1/(2h) one cell left, -1/(2h) one
    # cell right of the spike.
    g = Grid1D(n=16)
    j = 5
    f = np.zeros(g.n)
    f[j] = 1.0
    out = deriv_x(f, g)
    expected = np.zeros(g.n)
    expected[j - 1] = +1.0 / (2.0 * g.h)
    expected[j + 1] = -1.0 / (2.0 * g.h)
    assert_array_equal(out, expected)


def test_deriv_xx_spike_column():
    g = Grid1D(n=16)
    j = 0  # wrap case on purpose
    f = np.zeros(g.n)
    f[j] = 1.0
    out = deriv_xx(f, g)
    expected = np.zeros(g.n)
    expected[j] = -2.0 / g.h**2
    expected[j - 1] = expected[(j + 1) % g.n] = 1.0 / g.h**2
    assert_array_equal(out, expected)


@pytest.mark.parametrize("length", [2.0 * np.pi, 3.0])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_unit_vector_weights_are_exact_reciprocal_multiples(n, length):
    # A unit spike at j returns the j-th matrix column: +1 one cell left
    # and -1 one cell right for deriv_x, 1, -2, 1 for deriv_xx, legs that
    # land on one point summed (n = 2), times the scale fl(1/(2h)) or
    # fl(1/(h*h)).  polynomialize_reduced reads its weights off these
    # columns; the products are exact, so they equal the weights divided by
    # the spacing as well, and the Carleman layer keeps its bits.
    g = Grid1D(n=n, length=length)
    for op, legs, span in ((deriv_x, {-1: 1, 1: -1}, 2.0 * g.h),
                           (deriv_xx, {-1: 1, 0: -2, 1: 1}, g.h * g.h)):
        for j in range(n):
            f = np.zeros(n)
            f[j] = 1.0
            weights = np.zeros(n)
            for shift, w in legs.items():
                weights[(j + shift) % n] += w
            out = op(f, g)
            assert_array_equal(out, weights * (1.0 / span))
            assert_array_equal(out, weights / span)


def test_step_count_refuses_past_two_to_the_53():
    # the largest count at which a float still holds every integer
    assert step_count(2.0**53, 1.0) == 2.0**53
    assert step_count(-(2.0**53), 1.0) == -(2.0**53)
    for bad in (2.0**53 + 2, -(2.0**53) - 2, 1e300, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=r"^t_end=1\.0 "):
            step_count(bad, 1.0)


def test_deriv_x_linear_interior_exact():
    g = Grid1D(n=32, length=4.0)
    f = 0.75 * g.x() - 2.0
    out = deriv_x(f, g)
    # periodic wrap corrupts the first and last point only
    assert_allclose(out[1:-1], 0.75, rtol=0, atol=1e-13)


def test_deriv_x_sine_error_bound():
    g = Grid1D(n=64)
    k = 2.0 * np.pi / g.length
    f = np.sin(k * g.x())
    err = np.max(np.abs(deriv_x(f, g) - k * np.cos(k * g.x())))
    assert err <= k**3 * g.h**2 / 6.0 * (1.0 + 1e-9)
    assert err > 0.0


def test_deriv_xx_sine_error_bound():
    g = Grid1D(n=64)
    k = 2.0 * np.pi / g.length
    f = np.sin(k * g.x())
    err = np.max(np.abs(deriv_xx(f, g) + k**2 * np.sin(k * g.x())))
    assert err <= k**4 * g.h**2 / 12.0 * (1.0 + 1e-9)


def test_stencils_commute_with_shifts():
    rng = np.random.default_rng(7)
    g = Grid1D(n=32)
    f = rng.standard_normal(g.n)
    for op in (deriv_x, deriv_xx):
        assert_array_equal(op(np.roll(f, 5), g), np.roll(op(f, g), 5))


@pytest.mark.parametrize("n", [2, 4, 8, 16, 256, 4096])
def test_slice_stencils_bit_identical_to_periodic_shift(n, roll_stencils):
    # n = 2 and 4 are the sizes where both stencil legs hit the same points
    rng = np.random.default_rng(n)
    g = Grid1D(n=n, length=3.0)
    floats = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    ints = rng.integers(-1000, 1000, n)
    before = floats.copy()
    for op, ref in zip((deriv_x, deriv_xx), roll_stencils):
        assert_array_equal(op(floats, g), ref(floats, g))
        assert_array_equal(floats, before)  # input left untouched
        out = op(ints, g)
        assert out.dtype == np.float64
        assert_array_equal(out, ref(ints, g))
        assert_array_equal(op(list(floats), g), ref(floats, g))


LAYOUTS = ["stack", "head", "tail", "strided", "transposed"]


def _layout(big: np.ndarray, m: int, layout: str) -> np.ndarray:
    """m rows of big as a contiguous copy, a leading or trailing row slice,
    every other row, or a transposed stack whose rows are strided."""
    return {"stack": big[:m].copy(), "head": big[:m], "tail": big[-m:],
            "strided": big[::2][:m], "transposed": np.ascontiguousarray(big[:m].T).T}[layout]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(log_n=st.integers(1, 12), m=st.integers(1, 4),
       layout=st.sampled_from(LAYOUTS), seed=st.integers(0, 2**32 - 1))
def test_stencils_on_row_stacks_equal_row_by_row_calls(log_n, m, layout, seed):
    # one call on an (m, n) stack must give each row's 1-D result bit for
    # bit, on any view: B[:2] and B[2:] style row slices, every other row,
    # and a transposed stack whose rows are strided
    n = 2**log_n
    g = Grid1D(n=n, length=3.0)
    rng = np.random.default_rng(seed)
    big = rng.standard_normal((2 * m + 2, n)) * 10.0 ** rng.uniform(-8, 8, (2 * m + 2, n))
    stack = _layout(big, m, layout)
    before = big.copy()
    for op in (deriv_x, deriv_xx):
        out = op(stack, g)
        assert out.shape == (m, n)
        for row, got in zip(stack, out):
            assert_array_equal(got, op(row.copy(), g))
    assert_array_equal(big, before)


@pytest.mark.parametrize("n", [2, 16, 4096])
def test_stencils_keep_a_floating_dtype(n):
    # np.longdouble in, np.longdouble out, agreeing with float64 to 1e-15
    # relative; integer input is still cast to float64
    g = Grid1D(n=n, length=3.0)
    f = np.random.default_rng(n).standard_normal((2, n))
    for op in (deriv_x, deriv_xx):
        wide = op(f.astype(np.longdouble), g)
        assert wide.dtype == np.longdouble
        ref = op(f, g)
        assert ref.dtype == np.float64
        assert float(np.max(np.abs(wide - ref))) <= 1e-15 * float(np.max(np.abs(ref)))
        assert op(np.arange(n), g).dtype == np.float64


def test_rk4_writes_neither_state_nor_rates():
    # the rates alias the state (k1 of y0 is y1 itself) and a held array;
    # the step must leave all of them as they were
    y = (np.array([1.0, -2.0, 0.5]), np.array([0.25, 0.5, -1.0]))
    held = np.array([3.0, 1.0, -2.0])
    kept = [a.copy() for a in (*y, held)]

    def rhs(t, a, b):
        return b, held

    out = rk4(rhs, 0.0, y, 0.1)
    for arr, want in zip((*y, held), kept):
        assert_array_equal(arr, want)
    assert not any(np.shares_memory(o, a) for o in out for a in (*y, held))


def test_rk4_hands_rhs_new_stage_arrays():
    # stages 2-4 get arrays that are new and rhs's own: none shares memory
    # with y or with a rate rhs returned earlier, so rhs may write them (as
    # the full step writes its solved Bdot_0) and nothing rk4 reads moves
    y = (np.array([1.0, -2.0, 0.5]), np.array([0.25, 0.5, -1.0]))
    kept = [a.copy() for a in y]
    returned = []

    def rhs(t, a, b):
        if a is not y[0]:
            for arr in (a, b):
                assert not any(np.shares_memory(arr, old) for old in (*y, *returned))
            a[0] = 7.0
        rates = (b, -a)
        returned.extend(rates)
        return rates

    rk4(rhs, 0.0, y, 0.1)
    assert len(returned) == 8
    for arr, want in zip(y, kept):
        assert_array_equal(arr, want)


def test_stencil_convergence_order_two():
    errs = []
    for n in (64, 128, 256):
        g = Grid1D(n=n)
        f = np.exp(np.sin(g.x()))
        exact = np.cos(g.x()) * f
        errs.append(np.max(np.abs(deriv_x(f, g) - exact)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert 1.9 <= o <= 2.1


@pytest.mark.parametrize("dt", [0.1, -0.1])
def test_rk4_one_step_is_fourth_order_taylor_polynomial(dt):
    # y' = lam y over a tuple of a real and a complex array: one step is
    # R(z) y with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 and z = lam dt
    lam_re, lam_c = -1.3, 0.4 + 2.0j
    y = (np.array([1.0, -2.0, 0.5]), np.array([1.0 + 1.0j, -0.25j]))

    stage_times = []

    def rhs(t, a, b):
        stage_times.append(t)
        return lam_re * a, lam_c * b

    out = rk4(rhs, 1.0, y, dt)
    assert stage_times == [1.0, 1.0 + 0.5 * dt, 1.0 + 0.5 * dt, 1.0 + dt]
    assert out[0].dtype == np.float64 and out[1].dtype == np.complex128
    for lam, y0, y1 in zip((lam_re, lam_c), y, out):
        z = lam * dt
        r = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
        assert_allclose(y1, r * y0, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_lorentz_dot_signature():
    g = Grid1D(n=8)
    e0 = np.zeros((4, g.n))
    e0[0] = 1.0
    assert_array_equal(lorentz_dot(e0, e0), np.ones(g.n))
    for i in (1, 2, 3):
        ei = np.zeros((4, g.n))
        ei[i] = 1.0
        assert_array_equal(lorentz_dot(ei, ei), -np.ones(g.n))
    # symmetry and bilinearity on random data
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, 4, g.n))
    assert_allclose(lorentz_dot(u, v), lorentz_dot(v, u), rtol=1e-14)
    assert_allclose(
        lorentz_dot(2.0 * u + v, v),
        2.0 * lorentz_dot(u, v) + lorentz_dot(v, v),
        rtol=1e-13,
        atol=1e-15,
    )


def test_lorentz_dot_gauge_wave_norm():
    # B_0 = c + w*cos(w x), B_1 = -w*cos(w x) at t=0: the squared norm
    # collapses algebraically to c^2 + 2 c w cos(w x).
    g = Grid1D(n=64)
    c, w = 2.0, 1.0
    B = np.zeros((4, g.n))
    B[0] = c + w * np.cos(w * g.x())
    B[1] = -w * np.cos(w * g.x())
    assert_allclose(lorentz_dot(B, B), c**2 + 2.0 * c * w * np.cos(w * g.x()), rtol=1e-14)


def test_state_shape_validation():
    g = Grid1D(n=8)
    with pytest.raises(ValueError):
        ReducedState(t=0.0, B=np.zeros((3, g.n)), Bdot=np.zeros((4, g.n)), grid=g)
    with pytest.raises(ValueError):
        FullState(
            t=0.0, B=np.zeros((4, g.n)), Bdot=np.zeros((4, g.n)), grid=g,
            phi=np.zeros(4), phidot=np.zeros(g.n),
        )
    with pytest.raises(ValueError):
        FullState(t=0.0, B=np.zeros((4, g.n)), Bdot=np.zeros((4, g.n)), grid=g)


def test_states_keep_a_floating_dtype():
    # a reduced state holds B and Bdot in their common floating dtype, with
    # integer rows as float64; a full state holds float64, integers included
    g = Grid1D(n=8)
    wide, ints = np.ones((4, g.n), dtype=np.longdouble), np.ones((4, g.n), dtype=int)
    s = ReducedState(t=0.0, B=ints, Bdot=wide, grid=g)
    assert s.B.dtype == s.Bdot.dtype == np.longdouble
    assert ReducedState(t=0.0, B=ints, Bdot=ints, grid=g).B.dtype == np.float64
    full = FullState(t=0.0, B=ints, Bdot=ints, grid=g, phi=ints[0], phidot=ints[0])
    assert all(arr.dtype == np.float64 for _, arr in full.field_arrays())
    assert full.to_reduced().Bdot.dtype == np.float64


def test_b0_floor_guard_reports_location():
    g = Grid1D(n=8)
    B = np.ones((4, g.n))
    B[0, 3] = 1e-9
    with pytest.raises(GuardViolation, match="index 3, t=0.25"):
        guard_b0_floor(B[0], 0.25)
    guard_b0_floor(B[0], 0.25, 1e-9)  # a floor of exactly min |B_0| passes


def test_full_state_round_trip_to_reduced():
    g = Grid1D(n=8)
    rng = np.random.default_rng(11)
    s = FullState(
        t=1.5,
        B=rng.standard_normal((4, g.n)),
        Bdot=rng.standard_normal((4, g.n)),
        grid=g,
        charge_mean=0.25,
        phi=rng.standard_normal(g.n),
        phidot=rng.standard_normal(g.n),
    )
    r = s.to_reduced()
    assert r.t == s.t
    assert r.charge_mean == 0.25  # carried, not formed from the dropped phi
    assert_array_equal(r.B, s.B)
    r.B[0, 0] = 99.0  # detached copy
    assert s.B[0, 0] != 99.0
