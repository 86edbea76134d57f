"""Stencil and container behavior, pinned against analytic derivatives."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from kgmlab.kernel import (
    FullState,
    Grid1D,
    GuardViolation,
    Params,
    ReducedState,
    deriv_x,
    deriv_xx,
    lorentz_dot,
    rk4,
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
    with pytest.raises(ValueError):
        Params(e=0.0)
    with pytest.raises(ValueError):
        Params(b0_floor=0.0)
    with pytest.raises(ValueError):
        Params(phi_floor=-1.0)


def test_deriv_x_spike_column():
    # Applying the antisymmetric centered stencil to a unit spike at j
    # returns the j-th matrix column: +1/(2h) one cell left, -1/(2h) one
    # cell right of the spike.
    g = Grid1D(n=16)
    j = 5
    f = g.zeros()
    f[j] = 1.0
    out = deriv_x(f, g)
    expected = g.zeros()
    expected[j - 1] = +1.0 / (2.0 * g.h)
    expected[j + 1] = -1.0 / (2.0 * g.h)
    assert_array_equal(out, expected)


def test_deriv_xx_spike_column():
    g = Grid1D(n=16)
    j = 0  # wrap case on purpose
    f = g.zeros()
    f[j] = 1.0
    out = deriv_xx(f, g)
    expected = g.zeros()
    expected[j] = -2.0 / g.h**2
    expected[j - 1] = expected[(j + 1) % g.n] = 1.0 / g.h**2
    assert_array_equal(out, expected)


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


def test_b0_floor_guard_reports_location():
    g = Grid1D(n=8)
    B = np.ones((4, g.n))
    B[0, 3] = 1e-9
    s = ReducedState(t=0.25, B=B, Bdot=np.zeros((4, g.n)), grid=g)
    with pytest.raises(GuardViolation, match="index 3"):
        s.check_b0_floor(Params())


def test_full_state_round_trip_to_reduced():
    g = Grid1D(n=8)
    rng = np.random.default_rng(11)
    s = FullState(
        t=1.5,
        B=rng.standard_normal((4, g.n)),
        Bdot=rng.standard_normal((4, g.n)),
        grid=g,
        phi=rng.standard_normal(g.n),
        phidot=rng.standard_normal(g.n),
    )
    r = s.to_reduced()
    assert r.t == s.t
    assert_array_equal(r.B, s.B)
    r.B[0, 0] = 99.0  # detached copy
    assert s.B[0, 0] != 99.0
