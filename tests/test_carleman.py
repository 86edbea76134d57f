"""Truncated-ladder linearization: structure, closed-form flows, convergence.

Closed forms used as oracles: the logistic-free Riccati solution
x0/(1 + x0 t), the complex exponential for linear flows, plane rotation,
and coherent-state amplitude ratios.  The quadratic demo systems without
closed forms are judged against a high-accuracy classical integration of
the same polynomial system.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from numpy.testing import assert_allclose

from kgmlab.carleman import (
    CutoffTooSmall,
    FockBasis,
    PolySystem,
    UnsupportedGrid,
    VacuumOrthogonal,
    build_m,
    classical_flow,
    coherent_vector,
    evolve,
    ladder_matrices,
    lift_reduced_state,
    linear_system,
    lotka_system,
    polynomialize_reduced,
    readout,
    readout_errors,
    recenter,
    riccati_system,
    rotation_system,
    tiny_reduced_embedding,
)
from kgmlab.kernel import Grid1D, GuardViolation, NonFinite, Params, ReducedState
from kgmlab.reduced import accel_reduced, reconstruct_phi, reconstruct_phi_dot


def silent_coherent(xi0, basis):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return coherent_vector(np.asarray(xi0, dtype=complex), basis)


# ---------------------------------------------------------------------------
# basis and ladder structure
# ---------------------------------------------------------------------------


def test_basis_enumeration_and_index_maps():
    basis = FockBasis(k=3, cutoff=3)
    assert basis.dim == math.comb(6, 3)
    assert basis.states[0] == (0, 0, 0)
    assert basis.states == tuple(sorted(basis.states))
    assert all(sum(occ) <= 3 for occ in basis.states)
    for i, occ in enumerate(basis.states):
        assert basis.index[occ] == i


def test_ladder_single_mode_textbook_matrix():
    basis = FockBasis(k=1, cutoff=2)
    low, high = ladder_matrices(basis)
    expected = np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, math.sqrt(2.0)],
        [0.0, 0.0, 0.0],
    ])
    assert np.array_equal(low[0].toarray(), expected)
    assert np.array_equal(high[0].toarray(), expected.T)  # exact adjoint


def test_ladder_commutators():
    # lowering (and raising) operators commute exactly even in floats: the
    # two product orders multiply identical factors.  The mixed commutator
    # is the identity below the top shell up to the ulp-level defect of
    # squaring a rounded square root ((sqrt 2)^2 != 2 in doubles).
    for k, cutoff in ((1, 16), (2, 6), (3, 4)):
        basis = FockBasis(k=k, cutoff=cutoff)
        low, high = ladder_matrices(basis)
        sub = [i for i, occ in enumerate(basis.states) if sum(occ) < cutoff]
        eye = np.eye(basis.dim)
        for i in range(k):
            for j in range(k):
                assert np.all((low[i] @ low[j] - low[j] @ low[i]).toarray() == 0.0)
                assert np.all((high[i] @ high[j] - high[j] @ high[i]).toarray() == 0.0)
                mixed = (low[i] @ high[j] - high[j] @ low[i]).toarray()
                expected = eye if i == j else np.zeros_like(eye)
                assert np.max(np.abs((mixed - expected)[:, sub])) <= 8e-15


# ---------------------------------------------------------------------------
# generator assembly
# ---------------------------------------------------------------------------


def test_build_m_riccati_is_minus_raise_lower_squared():
    basis = FockBasis(k=1, cutoff=6)
    low, high = ladder_matrices(basis)
    m = build_m(riccati_system(), basis)
    assert np.array_equal(m.toarray(), (-high[0] @ (low[0] @ low[0])).toarray())


def test_build_m_monomial_order_immaterial():
    # x1*x2 assembled in either factor order gives the same matrix exactly
    basis = FockBasis(k=2, cutoff=4)
    low, high = ladder_matrices(basis)
    sys = PolySystem(k=2, terms=(((1.0, (1, 1)),), ()))
    m = build_m(sys, basis)
    assert np.array_equal(m.toarray(), (high[0] @ (low[1] @ low[0])).toarray())


def test_build_m_rejects_tiny_cutoff_and_mode_mismatch():
    with pytest.raises(CutoffTooSmall):
        build_m(riccati_system(), FockBasis(k=1, cutoff=0))
    with pytest.raises(ValueError, match="modes"):
        build_m(riccati_system(), FockBasis(k=2, cutoff=4))


def test_build_m_rotation_antihermitian_norm_preserving():
    basis = FockBasis(k=2, cutoff=10)
    m = build_m(rotation_system(), basis)
    dense = m.toarray()
    assert np.max(np.abs(dense + dense.conj().T)) == 0.0
    v0 = silent_coherent([0.4, 0.1], basis)
    vt = evolve(m, v0, 10.0)
    assert abs(np.linalg.norm(vt) - np.linalg.norm(v0)) <= 1e-9
    # readout follows the plane rotation (measured 2.8e-16)
    c, s = math.cos(10.0), math.sin(10.0)
    expected = np.array([0.4 * c + 0.1 * s, -0.4 * s + 0.1 * c])
    assert np.max(np.abs(readout(vt, basis) - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# coherent vectors and readout
# ---------------------------------------------------------------------------


def test_coherent_amplitudes_closed_form():
    # cutoff 8 sits right at the tail threshold (8.4e-12 of the weight
    # beyond the shell), so build quietly; the amplitudes are unaffected
    basis = FockBasis(k=1, cutoff=8)
    v = silent_coherent([0.5], basis)
    assert_allclose(v[0], math.exp(-0.125), rtol=1e-15)
    for n in range(8):
        assert_allclose(v[n + 1] / v[n], 0.5 / math.sqrt(n + 1), rtol=1e-13)


def test_coherent_vacuum_case():
    basis = FockBasis(k=2, cutoff=3)
    v = coherent_vector(np.zeros(2), basis)
    assert v[0] == 1.0
    assert np.all(v[1:] == 0.0)
    assert np.all(readout(v, basis) == 0.0)


def test_coherent_tail_warning_threshold():
    with pytest.warns(RuntimeWarning, match="tail"):
        coherent_vector(np.array([2.0]), FockBasis(k=1, cutoff=4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coherent_vector(np.array([0.5]), FockBasis(k=1, cutoff=16))


def test_coherent_lowering_eigenproperty():
    # a_i v = xi_i v except on the top occupation shell, where truncation
    # drops the inflow from the missing shell above
    basis = FockBasis(k=2, cutoff=8)
    xi = np.array([0.4, 0.1])
    v = silent_coherent(xi, basis)
    low, _ = ladder_matrices(basis)
    top = np.array([sum(occ) == 8 for occ in basis.states])
    for i in range(2):
        defect = low[i] @ v - xi[i] * v
        assert np.max(np.abs(defect[~top])) <= 1e-15
        assert np.max(np.abs(defect[top])) <= abs(xi[i]) * np.max(np.abs(v[top]))


def test_readout_coherent_round_trip_and_vacuum_orthogonal():
    basis = FockBasis(k=2, cutoff=10)
    xi = np.array([0.3 + 0.1j, -0.2])
    v = silent_coherent(xi, basis)
    assert np.max(np.abs(readout(v, basis) - xi)) <= 1e-13
    bad = np.zeros(basis.dim, dtype=complex)
    bad[3] = 1.0
    with pytest.raises(VacuumOrthogonal, match="vacuum"):
        readout(bad, basis)


def test_readout_zero_vector_is_vacuum_orthogonal():
    # 0 amplitude against 0 norm: raise instead of dividing 0/0 into NaN
    basis = FockBasis(k=2, cutoff=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VacuumOrthogonal, match="vacuum"):
            readout(np.zeros(basis.dim, dtype=complex), basis)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_evolve_zero_generator_is_identity():
    basis = FockBasis(k=1, cutoff=5)
    v = silent_coherent([0.3], basis)
    m = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    assert np.array_equal(evolve(m, v, 3.0), v)
    assert np.array_equal(evolve(m, v, 0.0), v)


def test_evolve_linear_flow_matches_exponential():
    rate = -0.3 + 0.2j
    basis = FockBasis(k=1, cutoff=16)
    m = build_m(linear_system(rate), basis)
    v = coherent_vector(np.array([0.5]), basis)
    xi = readout(evolve(m, v, 1.0), basis)[0]
    assert abs(xi - 0.5 * np.exp(rate)) <= 1e-8  # measured 5.6e-17


@pytest.mark.parametrize("system, cutoff, x0", [
    (riccati_system, 8, [0.5]),
    (lotka_system, 10, [0.3, 0.2]),
], ids=["riccati", "lotka"])
def test_evolve_matches_dense_expm(system, cutoff, x0):
    # non-normal generators, both directions (measured <= 1.7e-16)
    basis = FockBasis(k=len(x0), cutoff=cutoff)
    m = build_m(system(), basis)
    v = silent_coherent(x0, basis)
    for t in (0.5, -0.5):
        exact = la.expm(t * m.toarray()) @ v
        assert np.max(np.abs(evolve(m, v, t) - exact)) <= 1e-14


def test_evolve_backward_round_trip():
    # exp(-tM) exp(tM) = 1 on the anti-Hermitian rotation generator
    # (measured 2.2e-16 at t = 10)
    basis = FockBasis(k=2, cutoff=10)
    m = build_m(rotation_system(), basis)
    v = silent_coherent([0.4, 0.1], basis)
    for t in (1.0, 10.0):
        assert np.max(np.abs(evolve(m, evolve(m, v, t), -t) - v)) <= 1e-13


def test_evolve_overflow_raises():
    basis = FockBasis(k=1, cutoff=8)
    m = build_m(linear_system(1e4), basis)
    v = silent_coherent([0.5], basis)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite):
            evolve(m, v, 1.0)


# ---------------------------------------------------------------------------
# demo flows against oracles
# ---------------------------------------------------------------------------


def test_riccati_cutoff_ladder():
    # truncation error falls monotonically with cutoff; closed-form oracle
    # (measured: 2.1e-2 at N=4 down to 5.1e-6 at N=16)
    exact = 0.5 / 1.5
    errs = []
    for cutoff in (4, 6, 8, 10, 12, 14, 16):
        basis = FockBasis(k=1, cutoff=cutoff)
        m = build_m(riccati_system(), basis)
        v = silent_coherent([0.5], basis)
        xi = readout(evolve(m, v, 1.0), basis)[0]
        errs.append(abs(xi - exact))
    assert all(b <= a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-4
    assert errs[-1] <= 2e-5  # regression margin over the measured value


def test_lotka_cutoff_ladder():
    # no closed form; oracle is a high-accuracy classical integration of
    # the same polynomial system (measured: 2.2e-4 at N=4 to 4.8e-14 at 16)
    sys = lotka_system()
    x0 = np.array([0.3, 0.2])
    ref = classical_flow(sys, x0, 1.0, 1e-4)
    errs = []
    for cutoff in (4, 6, 8, 10, 12, 14, 16):
        basis = FockBasis(k=2, cutoff=cutoff)
        m = build_m(sys, basis)
        v = silent_coherent(x0, basis)
        xi = readout(evolve(m, v, 1.0), basis)
        errs.append(float(np.max(np.abs(xi - ref))))
    assert all(b <= a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-10


def test_classical_flow_riccati_endpoint():
    out = classical_flow(riccati_system(), np.array([0.5]), 1.0, 1e-3)
    assert abs(out[0] - 1.0 / 3.0) <= 1e-11
    still = classical_flow(riccati_system(), np.array([0.5]), 0.0, 1e-3)
    assert still[0] == 0.5


# ---------------------------------------------------------------------------
# polynomial-system plumbing
# ---------------------------------------------------------------------------


def test_poly_system_validation():
    with pytest.raises(ValueError, match="length-k"):
        PolySystem(k=2, terms=(((1.0, (1,)),), ()))
    with pytest.raises(ValueError, match="finite"):
        PolySystem(k=1, terms=(((float("inf"), (1,)),),))
    with pytest.raises(ValueError, match="one entry per variable"):
        PolySystem(k=2, terms=(((1.0, (1, 0)),),))


def test_poly_serialization_round_trip():
    sys = lotka_system()
    text = sys.to_text()
    assert "0 0.5 1 0" in text
    back = PolySystem.from_text(text)
    assert back.k == sys.k
    assert back.names == sys.names
    for a, b in zip(sys.terms, back.terms):
        assert dict((e, c) for c, e in a) == dict((e, c) for c, e in b)
    assert PolySystem.from_text(riccati_system().to_text()).max_degree == 2


def test_recenter_expands_binomially():
    cen = recenter(riccati_system(), np.array([0.5]))
    got = {exps: coef for coef, exps in cen.terms[0]}
    assert got == {(2,): -1.0, (1,): -1.0, (0,): -0.25}
    # same flow in shifted coordinates
    a = classical_flow(riccati_system(), np.array([0.5]), 1.0, 1e-3)
    b = classical_flow(cen, np.array([0.0]), 1.0, 1e-3) + 0.5
    assert abs(a[0] - b[0]) <= 1e-12


# ---------------------------------------------------------------------------
# the polynomialized electromagnetic closure
# ---------------------------------------------------------------------------


def em_test_state(n: int) -> ReducedState:
    g = Grid1D(n=n)
    x = g.x()
    B = np.stack([
        2.0 + 0.3 * np.cos(x), 0.1 * np.cos(x),
        0.05 * np.sin(x), 0.02 * np.cos(x),
    ])
    Bdot = np.stack([
        0.03 * np.sin(x), 0.2 * np.sin(x),
        0.01 * np.cos(x), 0.04 * np.sin(x),
    ])
    return ReducedState(t=0.0, B=B, Bdot=Bdot, grid=g, charge_mean=1.0)


def test_polynomialize_rejects_large_grid():
    with pytest.raises(UnsupportedGrid, match="n <= 4"):
        polynomialize_reduced(Grid1D(n=8), Params())


def test_polynomialize_reciprocal_equation_shape():
    # the 1/b0 auxiliary obeys  d/dt inv_b0 = -(bdot0) * inv_b0^2:
    # one monomial, coefficient -1, exponent 1 on bdot0 and 2 on inv_b0
    g = Grid1D(n=4)
    sys = polynomialize_reduced(g, Params())
    names = list(sys.names)
    for j in range(4):
        terms = sys.terms[names.index(f"inv_b0[{j}]")]
        assert len(terms) == 1
        coef, exps = terms[0]
        assert coef == -1.0
        expected = {names.index(f"bdot0[{j}]"): 1, names.index(f"inv_b0[{j}]"): 2}
        assert {l: e for l, e in enumerate(exps) if e} == expected
    assert sys.max_degree == 4


def test_polynomialize_matches_integrator_pointwise():
    # cross-module oracle: on the lift manifold the polynomial right-hand
    # sides reproduce the integrator's accelerations (measured 7e-15)
    p = Params()
    s = em_test_state(4)
    sys = polynomialize_reduced(s.grid, p)
    x0 = lift_reduced_state(s, p)
    rhs = sys.rhs(x0)
    assert np.max(np.abs(rhs.imag)) == 0.0
    rhs = rhs.real
    acc, _ = accel_reduced(s, p)
    assert np.max(np.abs(rhs[:16].reshape(4, 4) - s.Bdot)) == 0.0
    assert np.max(np.abs(rhs[16:32].reshape(4, 4) - acc)) <= 1e-12
    Phi = reconstruct_phi(s, p)
    assert np.max(np.abs(rhs[32:36] - reconstruct_phi_dot(s, Phi, p))) <= 1e-13


def test_polynomialize_manifold_invariant():
    # the reciprocal constraints are invariant manifolds of the emitted
    # flow; classical integration must not drift off (measured 4e-12)
    p = Params()
    s = em_test_state(4)
    sys = polynomialize_reduced(s.grid, p)
    xt = classical_flow(sys, lift_reduced_state(s, p), 0.5, 1e-3).real
    assert np.max(np.abs(xt[36:40] * xt[0:4] - 1.0)) <= 1e-8
    assert np.max(np.abs(xt[40:44] * xt[32:36] - 1.0)) <= 1e-8


def test_lift_requires_intensity_above_floor():
    g = Grid1D(n=4)
    B = np.zeros((4, g.n))
    B[0] = 2.0
    s = ReducedState(t=0.0, B=B, Bdot=np.zeros((4, g.n)), grid=g, charge_mean=0.0)
    with pytest.raises(GuardViolation, match="Phi"):
        lift_reduced_state(s, Params())


def test_reduced_tiny_fock_convergence():
    # the embedding of the n=2 closure, recentered at the initial point so
    # the coherent start is the vacuum; readout must approach the classical
    # trajectory as the cutoff grows (measured 8.0e-3 / 4.0e-5 / 1.6e-7)
    _, sys, z0 = tiny_reduced_embedding()
    dims, errs = zip(*readout_errors(sys, z0, 0.05, (1, 2, 3)))
    assert dims == (27, 378, 3654)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-5
