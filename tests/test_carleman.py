"""Truncated-ladder linearization: structure, closed-form flows, convergence.

Closed forms used as oracles: the logistic-free Riccati solution
x0/(1 + x0 t), the complex exponential for linear flows, plane rotation,
and coherent-state amplitude ratios.  The quadratic demo systems without
closed forms are judged against a high-accuracy classical integration of
the same polynomial system.
"""

from __future__ import annotations

import math
import tracemalloc
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from conftest import (
    raise_rows,
    reference_build_m,
    reference_ladder,
    reference_rhs,
    reference_states,
)
from hypothesis import example, given, settings
from numpy.testing import assert_allclose

from kgmlab import carleman
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
    fock_readout,
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
    assert basis.states.shape == (basis.dim, 3)
    states = [tuple(occ) for occ in basis.states.tolist()]
    assert states[0] == (0, 0, 0)
    assert states == sorted(set(states))  # lexicographic, each state once
    assert all(sum(occ) <= 3 for occ in states)
    # each map lands on the row holding the shifted state, so every row is
    # reachable by its position, as a dict index would give it; the raise is
    # down's inverse
    up = raise_rows(basis)
    for l in range(3):
        for i, occ in enumerate(states):
            lower, upper = basis.down[l, i], up[l, i]
            assert (lower >= 0) == (occ[l] > 0)
            assert (upper >= 0) == (sum(occ) < 3)
            if lower >= 0:
                assert states[lower] == occ[:l] + (occ[l] - 1,) + occ[l + 1:]
                assert up[l, lower] == i
            if upper >= 0:
                assert states[upper] == occ[:l] + (occ[l] + 1,) + occ[l + 1:]
                assert basis.down[l, upper] == i


ENUMERATED = [
    (1, 0), (1, 1), (1, 16), (2, 0), (2, 5), (3, 4), (4, 3), (6, 2), (9, 1),
    (12, 3), (24, 2), (48, 2),
]


@pytest.mark.parametrize("k, cutoff", ENUMERATED)
def test_basis_and_ladder_match_itertools_enumeration(k, cutoff):
    basis = FockBasis(k=k, cutoff=cutoff)
    states = reference_states(k, cutoff)
    index = {occ: i for i, occ in enumerate(states)}
    assert [tuple(occ) for occ in basis.states.tolist()] == states
    for l in range(k):
        step = tuple(int(j == l) for j in range(k))
        for shift, maps in ((-1, basis.down), (1, raise_rows(basis))):
            expected = [index.get(tuple(n + shift * e for n, e in zip(occ, step)), -1)
                        for occ in states]
            assert maps[l].tolist() == expected
    if cutoff:
        for got, ref in zip(ladder_matrices(basis), reference_ladder(k, cutoff)):
            for a, b in zip(got, ref):
                assert np.array_equal(a.toarray(), b.toarray())


@pytest.mark.parametrize("k, cutoff", ENUMERATED)
def test_readout_reads_each_modes_single_quantum_row(k, cutoff):
    # a distinct amplitude in every row: each mode reads its own
    # single-quantum row of the enumeration, and nothing at cutoff 0
    basis = FockBasis(k=k, cutoff=cutoff)
    states = reference_states(k, cutoff)
    v = 1.0 + np.arange(basis.dim) * (0.5 - 0.25j)
    expected = [v[states.index(tuple(int(j == l) for j in range(k)))] if cutoff else 0.0
                for l in range(k)]
    assert readout(v, basis).tolist() == expected


@pytest.mark.parametrize("k, cutoff", [
    (1, 16), (2, 6), (3, 5), (24, 4), (48, 2), (5, 0), (7, 1), (1, 300),
])
def test_basis_arrays_keep_their_shapes_dtypes_and_read_only_flags(k, cutoff):
    basis = FockBasis(k=k, cutoff=cutoff)
    dim = math.comb(cutoff + k, k)
    assert basis.dim == dim
    assert basis.states.shape == (dim, k)
    assert basis.states.dtype == np.min_scalar_type(cutoff)
    assert basis.states.T.flags.c_contiguous  # one contiguous row per mode
    assert not hasattr(basis, "up")  # a raise is down's inverse, built where it is used
    assert basis.down.shape == (k, dim)
    assert basis.down.dtype == np.int32
    for arr in (basis.states, basis.states.T, basis.states.base, basis.down):
        assert arr is not None and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


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
    sys = PolySystem(k=2, terms=(((1.0, (0, 1)),), ()))
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


@st.composite
def poly_systems(draw, max_degree):
    """Small systems with complex, constant and repeated monomials (a
    repeat may cancel the first exactly)."""
    k = draw(st.integers(1, 3))
    coef = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
    factors = st.lists(st.integers(0, k - 1), max_size=max_degree).map(lambda f: tuple(sorted(f)))
    monomial = st.tuples(coef, factors)
    terms = []
    for _ in range(k):
        var_terms = draw(st.lists(monomial, max_size=5))
        if var_terms and draw(st.booleans()):
            first_coef, first_factors = var_terms[0]
            var_terms.append((draw(st.one_of(coef, st.just(-first_coef))), first_factors))
        terms.append(tuple(var_terms))
    return PolySystem(k=k, terms=tuple(terms)), draw(st.integers(1, 5))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(poly_systems(max_degree=6))
# factor prefixes shared across variables and degrees, and a repeat that
# cancels its first monomial
@example((PolySystem(k=3, terms=(
    ((1.5 + 0j, ()), (0.5 - 1j, (0, 1))),
    ((2 + 0j, (0,)), (-0.75 + 0.25j, (0, 1, 1))),
    ((1j, (0, 1, 2)), (-1.25 + 0j, (0, 1)), (-1j, (0, 1, 2))),
)), 4))
def test_build_m_matches_sparse_product_reference(case):
    # each entry sums the same products as the power-chain construction, in
    # another order and association, so they agree to a few ulp of the largest
    sys_, cutoff = case
    m = build_m(sys_, FockBasis(k=sys_.k, cutoff=cutoff))
    assert np.all(m.data != 0.0)  # exact zeros dropped
    got = m.toarray()
    ref = reference_build_m(sys_, cutoff).toarray()
    assert np.max(np.abs(got - ref)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(ref))


def test_basis_and_build_m_hold_each_array_once():
    # the basis holds its occupations and `down` (plus a few KB of Python
    # objects), no raise map, and peaks within 2.25 times what it holds
    # (1.79 measured; ranking the raises through nine (k, rows below the top
    # shell) arrays reached 3.18); build_m's peak above the basis stays
    # within 2.75 times the CSR it returns (2.29 measured), where holding
    # the per-monomial maps beside their joins reached 3.54
    _, sys_, x0 = tiny_reduced_embedding()
    centered = recenter(sys_, x0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        basis = FockBasis(k=sys_.k, cutoff=4)
        held, basis_peak = (value - start for value in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        m = build_m(centered, basis)
        peak = tracemalloc.get_traced_memory()[1] - start - held
    finally:
        tracemalloc.stop()
    assert held <= basis.states.base.nbytes + basis.down.nbytes + 64 * 1024
    assert basis_peak <= 2.25 * held
    assert peak <= 2.75 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


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


def test_coherent_amplitude_past_float_range_is_refused():
    # |xi0|^2 and xi0^2 overflow a float: refused by name before any vector
    # is formed, without a numpy warning
    with pytest.raises(NonFinite, match="coherent amplitude"):
        coherent_vector(np.array([1e200]), FockBasis(k=1, cutoff=4))


def test_coherent_amplitudes_past_factorial_overflow():
    # 171! does not fit a float; the amplitudes must still come out finite
    # and match the closed form evaluated in logarithms
    xi = 1.5
    basis = FockBasis(k=1, cutoff=200)
    v = coherent_vector(np.array([xi]), basis)
    n = np.arange(201)
    want = np.exp(-0.5 * xi**2 + n * math.log(xi)
                  - 0.5 * np.array([math.lgamma(j + 1) for j in n]))
    assert np.all(np.isfinite(v.view(np.float64)))
    assert_allclose(v.real, want, rtol=1e-12, atol=0.0)
    assert np.all(v.imag == 0.0)


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


def test_readout_at_cutoff_zero_is_zero():
    # no single-occupation state survives the cutoff, so nothing is read out
    basis = FockBasis(k=3, cutoff=0)
    assert basis.dim == 1
    assert np.all(readout(np.array([0.7 - 0.2j]), basis) == 0.0)


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


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
def test_evolve_rejects_non_finite_horizon(t_end):
    # the piece count used to fail inside math.ceil without naming t_end
    basis = FockBasis(k=1, cutoff=4)
    m = build_m(riccati_system(), basis)
    with pytest.raises(ValueError, match="t_end must be finite"):
        evolve(m, silent_coherent([0.5], basis), t_end)


def test_evolve_decay_at_overflow_norm_stays_finite():
    # the same ||tM||_1 as the overflowing flow above, but every excited
    # amplitude decays: the vacuum amplitude is untouched and the rest
    # underflow to zero, so the norm alone cannot decide an overflow
    basis = FockBasis(k=1, cutoff=8)
    m = build_m(linear_system(-1e4), basis)
    v = silent_coherent([0.5], basis)
    vt = evolve(m, v, 1.0)
    assert np.all(np.isfinite(vt))
    assert abs(vt[0] - v[0]) <= 1e-15
    assert np.max(np.abs(vt[1:])) <= 1e-300
    assert readout(vt, basis)[0] == 0.0


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


def test_spectator_variable_leaves_readout_unchanged():
    # lotka plus a third variable that no other rate reads: every term of M
    # that involves it ends in its raising operator, so the sector where it
    # is empty, which holds the vacuum and the shared single occupations,
    # evolves exactly as plain lotka does (measured <= 7e-17)
    lotka = lotka_system()
    spectator = PolySystem(k=3, terms=(*lotka.terms, ((-1.0, (0, 2, 2)),)))
    x0 = np.array([0.3, 0.2])
    plain, wide = recenter(lotka, x0), recenter(spectator, np.append(x0, 0.5))
    for cutoff in (4, 8, 12):
        _, want = fock_readout(plain, np.zeros(2), 1.0, cutoff)
        _, got = fock_readout(wide, np.zeros(3), 1.0, cutoff)
        assert np.max(np.abs(got[:2] - want)) <= 1e-15


@pytest.mark.parametrize("make, cutoff", [
    (lambda: (riccati_system(), [0.5]), 16),
    (lambda: (lotka_system(), [0.4, 0.2]), 10),
    (lambda: tiny_reduced_embedding()[1:], 4),
], ids=["riccati", "lotka", "reduced-tiny"])
def test_generator_is_rhs_on_coherent_states(make, cutoff):
    # the embedding is equivalent to the system on its solutions: on a
    # coherent |x>, M|x> = sum_i F_i(x) raise_i |x>.  Truncation spoils it
    # only where a monomial of degree d lowers past the cutoff, so it holds
    # on every shell <= cutoff - d + 1 (measured 2.8e-17, 2.1e-17, 3.5e-18;
    # 2.4e-11, 1.1e-7, 4.3e-2 on the shells above)
    sys_, x = make()
    basis = FockBasis(k=sys_.k, cutoff=cutoff)
    v = silent_coherent(x, basis)
    _, high = ladder_matrices(basis)
    want = sum(f * (up @ v) for f, up in zip(sys_.rhs(np.asarray(x)), high))
    degree = max(len(factors) for var_terms in sys_.terms for _, factors in var_terms)
    exact = basis.states.sum(axis=1) <= cutoff - degree + 1
    defect = np.abs(build_m(sys_, basis) @ v - want)[exact]
    assert np.max(defect) <= 1e-14 * np.max(np.abs(v))


def test_classical_flow_riccati_endpoint():
    out = classical_flow(riccati_system(), np.array([0.5]), 1.0, 1e-3)
    assert abs(out[0] - 1.0 / 3.0) <= 1e-11
    still = classical_flow(riccati_system(), np.array([0.5]), 0.0, 1e-3)
    assert still[0] == 0.5


@pytest.mark.parametrize("t_end, dt, name", [
    (1.0, 0.0, "dt"), (1.0, -0.0, "dt"), (1.0, math.nan, "dt"), (1.0, math.inf, "dt"),
    (math.inf, 1e-3, "t_end"), (-math.inf, 1e-3, "t_end"), (math.nan, 1e-3, "t_end"),
    (0.0, 0.0, "dt"),
])
def test_classical_flow_rejects_unusable_horizon_or_step(t_end, dt, name):
    with pytest.raises(ValueError, match=name):
        classical_flow(riccati_system(), np.array([0.5]), t_end, dt)


def test_classical_flow_leaves_its_input_unmodified():
    _, sys_, x0 = tiny_reduced_embedding()
    x0 = np.asarray(x0, dtype=complex)
    before = x0.copy()
    out = classical_flow(sys_, x0, 0.01, 1e-3)
    assert np.array_equal(x0, before)
    assert not np.shares_memory(out, x0)


# ---------------------------------------------------------------------------
# polynomial-system plumbing
# ---------------------------------------------------------------------------


def test_poly_system_validation():
    for factors in ((2,), (-1,), (1, 0)):  # out of range, negative, unsorted
        with pytest.raises(ValueError, match="nondecreasing variable indices below k"):
            PolySystem(k=2, terms=(((1.0, factors),), ()))
    with pytest.raises(ValueError, match="finite"):
        PolySystem(k=1, terms=(((float("inf"), (0,)),),))
    with pytest.raises(ValueError, match="one entry per variable"):
        PolySystem(k=2, terms=(((1.0, (0, 1)),),))


def test_recenter_expands_binomially():
    cen = recenter(riccati_system(), np.array([0.5]))
    got = {factors: coef for coef, factors in cen.terms[0]}
    assert got == {(0, 0): -1.0, (0,): -1.0, (): -0.25}
    # same flow in shifted coordinates
    a = classical_flow(riccati_system(), np.array([0.5]), 1.0, 1e-3)
    b = classical_flow(cen, np.array([0.0]), 1.0, 1e-3) + 0.5
    assert abs(a[0] - b[0]) <= 1e-12


def summed(var_terms):
    out = {}
    for coef, factors in var_terms:
        out[factors] = out.get(factors, 0.0) + coef
    return out


@settings(derandomize=True, deadline=None, max_examples=200)
@given(poly_systems(max_degree=3),
       st.lists(st.complex_numbers(max_magnitude=math.sqrt(2.0)), min_size=3, max_size=3))
# a repeat that cancels its first monomial sums to 0 but rounds like 1.9
@example((PolySystem(k=1, terms=((((1.9+0j), (0, 0, 0)), ((-1.9-0j), (0, 0, 0))),)), 1),
         [1 + 0j, 0j, 0j])
def test_recenter_round_trip_restores_coefficients(case, center):
    # shifting to x0 and back reproduces every coefficient up to the
    # rounding of the expansion (worst measured 26 eps of the variable's
    # largest monomial coefficient over 2,000 random systems of this shape)
    sys_, _ = case
    x0 = np.array(center[:sys_.k])
    back = recenter(recenter(sys_, x0), -x0)
    for var_terms, after in zip(sys_.terms, map(summed, back.terms)):
        before = summed(var_terms)
        largest = max((abs(coef) for coef, _ in var_terms), default=0.0)
        for factors in before.keys() | after.keys():
            err = abs(before.get(factors, 0.0) - after.get(factors, 0.0))
            assert err <= 64 * np.finfo(float).eps * largest


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
    # the 1/Phi auxiliary obeys  d/dt inv_intensity = -log_rate * inv_intensity:
    # one monomial, coefficient -1, exponent 1 on log_rate and on inv_intensity
    g = Grid1D(n=4)
    sys = polynomialize_reduced(g, Params())
    names = list(sys.names)
    for j in range(4):
        terms = sys.terms[names.index(f"inv_intensity[{j}]")]
        assert len(terms) == 1
        coef, factors = terms[0]
        assert coef == -1.0
        assert factors == (names.index(f"inv_intensity[{j}]"), names.index(f"log_rate[{j}]"))
    assert max(len(factors) for var_terms in sys.terms for _, factors in var_terms) == 4


@pytest.mark.parametrize("n", [2, 4])
def test_polynomialize_every_variable_feeds_another_rate(n):
    # a variable that only its own rate reads is a spectator: it enlarges
    # every truncated space and changes no readout
    sys = polynomialize_reduced(Grid1D(n=n), Params())
    unread = [name for l, name in enumerate(sys.names)
              if not any(l in factors for i, var_terms in enumerate(sys.terms) if i != l
                         for _, factors in var_terms)]
    assert unread == []


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
    acc = accel_reduced(s, p)
    assert np.max(np.abs(rhs[:16].reshape(4, 4) - s.Bdot)) == 0.0
    assert np.max(np.abs(rhs[16:32].reshape(4, 4) - acc)) <= 1e-12
    Phi = reconstruct_phi(s, p)
    assert np.max(np.abs(rhs[32:36] - reconstruct_phi_dot(s, Phi))) <= 1e-13


@settings(derandomize=True, deadline=None, max_examples=200)
@given(poly_systems(max_degree=6), st.data())
def test_rhs_is_the_scatter_product_bit_for_bit(case, data):
    # each variable sums its monomials from zero in table order, as the CSR
    # matvec of the 0/1 scatter matrix did, so the bytes agree exactly
    sys_, _ = case
    value = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    x = np.array(data.draw(st.lists(value, min_size=sys_.k, max_size=sys_.k)), dtype=complex)
    got = sys_.rhs(x)
    assert got.dtype == complex and got.shape == (sys_.k,)
    assert got.tobytes() == reference_rhs(sys_, x).tobytes()


def test_rhs_refuses_a_point_of_the_wrong_shape():
    # a scalar or length-1 point would otherwise broadcast into every slot
    sys = polynomialize_reduced(Grid1D(n=2), Params())
    for x in (0.5, np.ones(1), np.ones(sys.k + 1), np.ones((sys.k, 1))):
        with pytest.raises(ValueError, match=f"shape \\({sys.k},\\)"):
            sys.rhs(x)


def test_polynomialize_manifold_invariant():
    # the reciprocal constraint is an invariant manifold of the emitted
    # flow; classical integration must not drift off (measured 1.6e-12)
    p = Params()
    s = em_test_state(4)
    sys = polynomialize_reduced(s.grid, p)
    xt = classical_flow(sys, lift_reduced_state(s, p), 0.5, 1e-3).real
    assert np.max(np.abs(xt[36:40] * xt[32:36] - 1.0)) <= 1e-8


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
    assert dims == (25, 325, 2925)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-5


def test_reciprocal_drift_samples_either_horizon_sign(monkeypatch):
    _, sys, x0 = tiny_reduced_embedding()
    flow = carleman.classical_flow
    samples = []
    monkeypatch.setattr(carleman, "classical_flow",
                        lambda *args: samples.append(args[2]) or flow(*args))
    for t_end in (0.05, -0.05):
        samples.clear()
        carleman.reciprocal_drift(sys, x0, t_end)
        assert len(samples) == 50
        assert sum(samples) == pytest.approx(t_end, rel=1e-12)
