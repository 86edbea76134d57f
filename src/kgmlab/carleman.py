"""Linearization of polynomial flows on a truncated boson ladder.

A polynomial ODE system dx_i/dt = F_i(x) is lifted to a linear equation
dv/dt = M v on the span of occupation states |n_1..n_k>, with

    M = sum_i  raise_i * F_i(lower_1 .. lower_k),

where lower_i / raise_i are the truncated ladder matrices.  A classical
configuration x enters as the coherent vector with eigenvalue x and is read
back out as the ratio of single-occupation to vacuum amplitude.  The linear
flow is propagated by the action of its exponential, v(t) = exp(tM) v(0),
never by time steps.  On the set of trajectories of the original system the
two descriptions agree up to truncation, which is the property the demo
systems and the tests measure: readout error falls monotonically as the
occupation cutoff grows.

The electromagnetic closure of `reduced` is rational, not polynomial, so
`polynomialize_reduced` rewrites it on a tiny periodic grid with reciprocal
auxiliary variables (1/B_0 and 1/Phi, plus the logarithmic rate and slope of
Phi), after which every right-hand side is a polynomial of degree at most
four.  Truncated-Fock dimensions grow combinatorially in grid points, so the
embedding itself is only exercised on n = 2 (`tiny_reduced_embedding`); the
polynomial system is exact for any n <= 4 and is integrated classically as
its own oracle.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .kernel import (
    Array,
    Grid1D,
    GuardViolation,
    NonFinite,
    Params,
    ReducedState,
    SimulationError,
    deriv_x,
    rk4,
)
from .reduced import reconstruct_phi, reconstruct_phi_dot

__all__ = [
    "CutoffTooSmall",
    "FockBasis",
    "PolySystem",
    "UnsupportedGrid",
    "VacuumOrthogonal",
    "build_m",
    "classical_flow",
    "coherent_vector",
    "evolve",
    "ladder_matrices",
    "lift_reduced_state",
    "linear_system",
    "lotka_system",
    "polynomialize_reduced",
    "readout",
    "readout_errors",
    "recenter",
    "reciprocal_drift",
    "riccati_system",
    "rotation_system",
    "tiny_reduced_embedding",
]


class CutoffTooSmall(SimulationError):
    """The occupation cutoff cannot represent the requested operator."""


class VacuumOrthogonal(SimulationError):
    """Readout denominator <vacuum|v> vanished."""


class UnsupportedGrid(SimulationError):
    """Polynomialization is restricted to tiny grids."""


# ---------------------------------------------------------------------------
# polynomial systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolySystem:
    """First-order ODE system with polynomial right-hand sides.

    terms[i] lists the monomials of dx_i/dt as (coefficient, exponents),
    where exponents is a length-k multi-index.  Coefficients may be complex.
    `names`, when present, documents the variable ordering.
    """

    k: int
    terms: tuple[tuple[tuple[complex, tuple[int, ...]], ...], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.k < 1 or len(self.terms) != self.k:
            raise ValueError("terms must list one entry per variable")
        if self.names is not None and len(self.names) != self.k:
            raise ValueError("names must match the variable count")
        for var_terms in self.terms:
            for coef, exps in var_terms:
                if len(exps) != self.k or any(e < 0 for e in exps):
                    raise ValueError("exponent vectors must be length-k and nonnegative")
                if not (math.isfinite(coef.real) and math.isfinite(coef.imag)):
                    raise ValueError("coefficients must be finite")

    @property
    def max_degree(self) -> int:
        degrees = [sum(e) for var_terms in self.terms for _, e in var_terms]
        return max(degrees, default=0)

    def rhs(self, x: Array) -> Array:
        """Evaluate all right-hand sides at the point x (complex output)."""
        return _eval_compiled(_compile_terms(self), np.asarray(x, dtype=complex), self.k)

    def to_text(self) -> str:
        """One monomial per line: target variable, coefficient, exponent vector."""
        lines = [f"# poly k={self.k} degree={self.max_degree}"]
        if self.names is not None:
            lines.append("# variables: " + " ".join(self.names))
        for i, var_terms in enumerate(self.terms):
            for coef, exps in var_terms:
                c = complex(coef)
                cs = f"{c.real:.17g}" if c.imag == 0.0 else f"{c.real:.17g}{c.imag:+.17g}j"
                lines.append(f"{i} {cs} " + " ".join(str(e) for e in exps))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> PolySystem:
        names = None
        rows: list[tuple[int, complex, tuple[int, ...]]] = []
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("# variables:"):
                names = tuple(line.removeprefix("# variables:").split())
            if not line or line.startswith("#"):
                continue
            cells = line.split()
            rows.append((int(cells[0]), complex(cells[1]),
                         tuple(int(e) for e in cells[2:])))
        if not rows:
            raise ValueError("no monomials found")
        k = len(rows[0][2])
        terms: list[list[tuple[complex, tuple[int, ...]]]] = [[] for _ in range(k)]
        for i, coef, exps in rows:
            terms[i].append((coef, exps))
        return cls(k=k, terms=tuple(tuple(t) for t in terms), names=names)


def _compile_terms(sys: PolySystem):
    """Group monomials by degree into gather-index form for fast evaluation."""
    by_degree: dict[int, tuple[list, list, list]] = {}
    for i, var_terms in enumerate(sys.terms):
        for coef, exps in var_terms:
            flat: list[int] = []
            for l, e in enumerate(exps):
                flat.extend([l] * e)
            rows, coefs, idx = by_degree.setdefault(len(flat), ([], [], []))
            rows.append(i)
            coefs.append(coef)
            idx.append(flat)
    out = []
    for d, (rows, coefs, idx) in sorted(by_degree.items()):
        out.append((np.array(rows), np.array(coefs, dtype=complex),
                    np.array(idx, dtype=np.intp).reshape(len(rows), d)))
    return out


def _eval_compiled(compiled, x: Array, k: int) -> Array:
    out = np.zeros(k, dtype=complex)
    for rows, coefs, idx in compiled:
        vals = coefs if idx.shape[1] == 0 else coefs * np.prod(x[idx], axis=1)
        np.add.at(out, rows, vals)
    return out


def classical_flow(sys: PolySystem, x0: Array, t_end: float, dt: float) -> Array:
    """Endpoint of a classical four-stage integration of the system.

    The step is shrunk so an integer number of steps lands exactly on t_end;
    used as the high-accuracy oracle for the Fock-space readout.
    """
    compiled = _compile_terms(sys)
    x = np.asarray(x0, dtype=complex).copy()
    if t_end == 0.0:
        return x
    n_steps = max(1, math.ceil(abs(t_end) / abs(dt)))
    step = t_end / n_steps

    def rhs(t, x):
        return (_eval_compiled(compiled, x, sys.k),)

    for _ in range(n_steps):
        (x,) = rk4(rhs, 0.0, (x,), step)
    if not np.all(np.isfinite(x.view(np.float64))):
        raise NonFinite("classical polynomial flow overflowed")
    return x


def recenter(sys: PolySystem, x0: Array) -> PolySystem:
    """Rewrite the system in deviation variables y = x - x0.

    Binomial expansion of every monomial about x0; degrees never grow.
    Centering at the initial condition puts the coherent start at the
    vacuum, which is where the truncated ladder is most accurate.
    """
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (sys.k,):
        raise ValueError("center must have one entry per variable")
    new_terms = []
    for var_terms in sys.terms:
        acc: dict[tuple[int, ...], complex] = {}
        for coef, exps in var_terms:
            active = [l for l, e in enumerate(exps) if e > 0]
            choices = [range(exps[l] + 1) for l in active]
            for picks in product(*choices):
                c = complex(coef)
                out = [0] * sys.k
                for l, m in zip(active, picks):
                    e = exps[l]
                    c *= math.comb(e, m) * x0[l] ** (e - m)
                    out[l] = m
                key = tuple(out)
                acc[key] = acc.get(key, 0.0) + c
        new_terms.append(tuple((c, e) for e, c in acc.items() if c != 0.0))
    return PolySystem(k=sys.k, terms=tuple(new_terms), names=sys.names)


# ---------------------------------------------------------------------------
# truncated Fock space
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FockBasis:
    """All occupation vectors of k modes with total occupation <= cutoff.

    Enumeration is lexicographic in the occupation tuple, so the vacuum is
    index 0.  The dimension is C(cutoff + k, k).
    """

    k: int
    cutoff: int
    states: tuple[tuple[int, ...], ...] = field(init=False)
    index: dict[tuple[int, ...], int] = field(init=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one mode")
        if self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        states = tuple(_occupations(self.k, self.cutoff))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "index", {n: i for i, n in enumerate(states)})
        assert len(states) == math.comb(self.cutoff + self.k, self.k)

    @property
    def dim(self) -> int:
        return len(self.states)


def _occupations(modes: int, budget: int):
    if modes == 0:
        yield ()
        return
    for head in range(budget + 1):
        for tail in _occupations(modes - 1, budget - head):
            yield (head, *tail)


def ladder_matrices(basis: FockBasis) -> tuple[tuple[sp.csr_matrix, ...], tuple[sp.csr_matrix, ...]]:
    """Lowering and raising matrices per mode, with exact mutual adjointness.

    Matrix elements are the standard sqrt(occupation) ladder entries; the
    raising matrix is the transpose of the lowering one (entries are real),
    so adjointness holds exactly, not to roundoff.  Truncation only removes
    transitions out of the top occupation shell.
    """
    dim = basis.dim
    lower = []
    for i in range(basis.k):
        rows, cols, vals = [], [], []
        for col, occ in enumerate(basis.states):
            if occ[i] == 0:
                continue
            below = list(occ)
            below[i] -= 1
            rows.append(basis.index[tuple(below)])
            cols.append(col)
            vals.append(math.sqrt(occ[i]))
        lower.append(sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim)))
    raise_ = tuple(m.T.tocsr() for m in lower)
    return tuple(lower), raise_


def build_m(sys: PolySystem, basis: FockBasis) -> sp.csr_matrix:
    """Evolution generator: sum over variables of raise_i * F_i(lowering ops).

    Each monomial becomes a product of lowering matrices; they commute
    exactly on the truncated space, so the factor order inside a monomial is
    immaterial (ascending mode order is used).
    """
    if basis.cutoff < 1:
        raise CutoffTooSmall("occupation cutoff must be at least 1 to carry any dynamics")
    if sys.k != basis.k:
        raise ValueError(f"system has {sys.k} variables but basis has {basis.k} modes")
    lower, raise_ = ladder_matrices(basis)
    dim = basis.dim
    eye = sp.identity(dim, format="csr", dtype=complex)

    # powers of each lowering matrix, filled on demand
    powers: list[list[sp.csr_matrix]] = [[eye, lower[i].astype(complex)] for i in range(sys.k)]

    def power(i: int, e: int) -> sp.csr_matrix:
        while len(powers[i]) <= e:
            powers[i].append((powers[i][-1] @ lower[i]).tocsr())
        return powers[i][e]

    m = sp.csr_matrix((dim, dim), dtype=complex)
    for i, var_terms in enumerate(sys.terms):
        f_i = sp.csr_matrix((dim, dim), dtype=complex)
        for coef, exps in var_terms:
            op = eye
            for l, e in enumerate(exps):
                if e:
                    op = (op @ power(l, e)).tocsr()
            f_i = f_i + complex(coef) * op
        m = m + raise_[i] @ f_i
    return m.tocsr()


def coherent_vector(xi0: Array, basis: FockBasis) -> Array:
    """Normalized coherent amplitudes over the truncated basis.

    amplitude(n) = exp(-|xi0|^2 / 2) * prod_i xi0_i^{n_i} / sqrt(n_i!).
    The untruncated vector has unit norm, so the weight missing from the
    truncated one measures the tail; more than 1e-12 of it draws a warning.
    """
    xi0 = np.asarray(xi0, dtype=complex)
    if xi0.shape != (basis.k,):
        raise ValueError("need one amplitude per mode")
    norm_fac = math.exp(-0.5 * float(np.sum(np.abs(xi0) ** 2)))
    v = np.empty(basis.dim, dtype=complex)
    for idx, occ in enumerate(basis.states):
        amp = norm_fac
        for l, n_l in enumerate(occ):
            if n_l:
                amp *= xi0[l] ** n_l / math.sqrt(math.factorial(n_l))
        v[idx] = amp
    tail = max(0.0, 1.0 - float(np.sum(np.abs(v) ** 2)))
    if tail > 1e-12:
        warnings.warn(
            f"coherent tail beyond cutoff {basis.cutoff} carries {tail:.3e} "
            "of the weight; readout accuracy degrades accordingly",
            RuntimeWarning,
            stacklevel=2,
        )
    return v


def evolve(m: sp.spmatrix, v0: Array, t_end: float) -> Array:
    """Propagate dv/dt = M v to t_end (t_end < 0 propagates backward).

    Returns exp(t_end M) v0 from scipy's expm_multiply (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 2011), the action of the matrix exponential
    without forming it; its work grows with the 1-norm of t_end M.  The
    generator is assumed time-independent.
    """
    out = expm_multiply(t_end * m, np.asarray(v0, dtype=complex))
    if not np.all(np.isfinite(out.view(np.float64))):
        raise NonFinite("Fock-space evolution produced non-finite amplitudes")
    return out


def readout(v: Array, basis: FockBasis) -> Array:
    """Classical trajectory point encoded in a Fock vector.

    Per mode, the ratio of the single-occupation amplitude to the vacuum
    amplitude.  The ratio form makes the overall scale of v irrelevant,
    which is what permits non-norm-preserving generators.
    """
    v = np.asarray(v, dtype=complex)
    vac = v[basis.index[(0,) * basis.k]]
    scale = float(np.linalg.norm(v))
    if abs(vac) <= 1e-14 * scale:
        raise VacuumOrthogonal(
            f"vacuum amplitude {abs(vac):.3e} below 1e-14 of the vector norm {scale:.3e}"
        )
    out = np.zeros(basis.k, dtype=complex)
    for i in range(basis.k):
        single = tuple(1 if l == i else 0 for l in range(basis.k))
        idx = basis.index.get(single)
        if idx is not None:
            out[i] = v[idx] / vac
    return out


# ---------------------------------------------------------------------------
# named demo systems
# ---------------------------------------------------------------------------


def riccati_system() -> PolySystem:
    """dx/dt = -x^2; closed form x(t) = x0 / (1 + x0 t)."""
    return PolySystem(k=1, terms=(((-1.0, (2,)),),), names=("x",))


def rotation_system() -> PolySystem:
    """dx1/dt = x2, dx2/dt = -x1; generator is anti-Hermitian."""
    return PolySystem(
        k=2,
        terms=(((1.0, (0, 1)),), ((-1.0, (1, 0)),)),
        names=("x1", "x2"),
    )


def linear_system(rate: complex) -> PolySystem:
    """dx/dt = rate * x; coherent states stay coherent under this flow."""
    return PolySystem(k=1, terms=(((complex(rate), (1,)),),), names=("x",))


def lotka_system(growth: float = 0.5, predation: float = 1.0,
                 decay: float = 0.5, conversion: float = 1.0) -> PolySystem:
    """Two-species predator-prey flow (quadratic couplings)."""
    return PolySystem(
        k=2,
        terms=(
            ((growth, (1, 0)), (-predation, (1, 1))),
            ((-decay, (0, 1)), (conversion, (1, 1))),
        ),
        names=("prey", "predator"),
    )


# ---------------------------------------------------------------------------
# polynomialization of the electromagnetic closure
# ---------------------------------------------------------------------------

_POLY_FIELDS = (
    "b0", "b1", "b2", "b3",
    "bdot0", "bdot1", "bdot2", "bdot3",
    "intensity", "inv_b0", "inv_intensity", "log_rate", "log_slope",
)

_Term = tuple[float, dict[int, int]]


def _pmul(a: list[_Term], b: list[_Term]) -> list[_Term]:
    out = []
    for ca, ea in a:
        for cb, eb in b:
            exps = dict(ea)
            for var, e in eb.items():
                exps[var] = exps.get(var, 0) + e
            out.append((ca * cb, exps))
    return out


def _pscale(a: list[_Term], c: float) -> list[_Term]:
    return [(c * coef, exps) for coef, exps in a]


def polynomialize_reduced(g: Grid1D, p: Params) -> PolySystem:
    """Electromagnetic closure on a tiny grid as a polynomial first-order system.

    Variables, field-major with the grid index inside each block:

        b0..b3        the four field components
        bdot0..bdot3  their time derivatives
        intensity     Phi, promoted from reconstructed quantity to state
        inv_b0        1/b0,   rate -inv_b0^2 * bdot0
        inv_intensity 1/Phi,  rate -log_rate * inv_intensity
        log_rate      Phidot/Phi
        log_slope     (d Phi/dx)/Phi

    The rates are the integrator's accelerations with every division
    replaced by a reciprocal variable and every quotient of Phi-derivatives
    by a logarithmic variable.  Three reductions use the constraint
    manifold identities (inv_b0*b0 = 1, inv_intensity*intensity = 1) to
    keep the total degree at four; off the manifold the two systems differ,
    which is why the manifold drift is a reported invariant.  On the
    manifold the right-hand sides agree with accel_reduced to roundoff.

    The composed second difference of b1 inside its wave operator cancels
    exactly against the matching piece of the divergence gradient, so the
    b1 rate is emitted in the collapsed form  D(bdot0) - 2 e^2 b1 Phi.

    On n = 2 the centered first difference vanishes identically (the two
    neighbors coincide), which silently removes every transport term; the
    result is still the faithful transcription of the integrator on that
    grid, and it is the only size whose Fock embedding is affordable.
    """
    n = g.n
    if n > 4:
        raise UnsupportedGrid(f"polynomialization supports n <= 4 grid points, got {n}")
    h = g.h
    e2 = p.e**2
    msq = p.m**2

    def var(fieldname: str, j: int) -> int:
        return _POLY_FIELDS.index(fieldname) * n + (j % n)

    def stencil1(j: int) -> list[tuple[int, float]]:
        acc: dict[int, float] = {}
        acc[(j + 1) % n] = acc.get((j + 1) % n, 0.0) + 1.0 / (2.0 * h)
        acc[(j - 1) % n] = acc.get((j - 1) % n, 0.0) - 1.0 / (2.0 * h)
        return [(l, c) for l, c in acc.items() if c != 0.0]

    def stencil2(j: int) -> list[tuple[int, float]]:
        acc: dict[int, float] = {}
        for l, c in (((j + 1) % n, 1.0), (j % n, -2.0), ((j - 1) % n, 1.0)):
            acc[l] = acc.get(l, 0.0) + c / (h * h)
        return [(l, c) for l, c in acc.items() if c != 0.0]

    def lin(fieldname: str, j: int, c: float = 1.0) -> list[_Term]:
        return [(c, {var(fieldname, j): 1})]

    def diff1(fieldname: str, j: int) -> list[_Term]:
        return [(c, {var(fieldname, l): 1}) for l, c in stencil1(j)]

    def diff2(fieldname: str, j: int) -> list[_Term]:
        return [(c, {var(fieldname, l): 1}) for l, c in stencil2(j)]

    rates: dict[int, list[_Term]] = {var(f, j): [] for f in _POLY_FIELDS for j in range(n)}

    for j in range(n):
        b0, b1 = lin("b0", j), lin("b1", j)
        phi_ = lin("intensity", j)
        v_ = lin("inv_intensity", j)
        eta = lin("log_rate", j)
        zeta = lin("log_slope", j)

        # field positions move with their stored rates
        for mu in range(4):
            rates[var(f"b{mu}", j)] = lin(f"bdot{mu}", j)

        # b0 / Phi, with Phi * inv_intensity = 1 absorbed where it appears:
        # v * Phiddot = v*Lap(Phi) + (log_rate^2 - log_slope^2)/2
        #             + 2 e^2 (b0^2 - b1^2 - b2^2 - b3^2) - 2 m^2
        bsq = [
            (1.0, {var("b0", j): 2}), (-1.0, {var("b1", j): 2}),
            (-1.0, {var("b2", j): 2}), (-1.0, {var("b3", j): 2}),
        ]
        v_phiddot = (
            _pmul(v_, diff2("intensity", j))
            + [(0.5, {var("log_rate", j): 2}), (-0.5, {var("log_slope", j): 2})]
            + _pscale(bsq, 2.0 * e2)
            + [(-2.0 * msq, {})]
        )

        # d/dx of (log_rate * intensity) = d/dx Phidot, per stencil point
        d_rate_phi = [
            (c, {var("log_rate", l): 1, var("intensity", l): 1})
            for l, c in stencil1(j)
        ]

        # divergence of the field: bdot0 - D(b1)
        div_b = lin("bdot0", j) + _pscale(diff1("b1", j), -1.0)

        # closure for the b0 acceleration: D(bdot1) - bracket/Phi, with every
        # 1/Phi written through the logarithmic variables
        bracket_over_phi = (
            _pmul(div_b, eta)
            + _pmul(lin("bdot0", j), eta)
            + _pscale(_pmul(lin("bdot1", j), zeta), -1.0)
            + _pmul(b0, v_phiddot)
            + _pscale(_pmul(b1, _pmul(v_, d_rate_phi)), -1.0)
        )
        rates[var("bdot0", j)] = diff1("bdot1", j) + _pscale(bracket_over_phi, -1.0)

        rates[var("bdot1", j)] = diff1("bdot0", j) + _pscale(_pmul(b1, phi_), -2.0 * e2)
        rates[var("bdot2", j)] = diff2("b2", j) + _pscale(_pmul(lin("b2", j), phi_), -2.0 * e2)
        rates[var("bdot3", j)] = diff2("b3", j) + _pscale(_pmul(lin("b3", j), phi_), -2.0 * e2)

        rates[var("intensity", j)] = _pmul(eta, phi_)
        rates[var("inv_b0", j)] = [(-1.0, {var("bdot0", j): 1, var("inv_b0", j): 2})]
        rates[var("inv_intensity", j)] = _pscale(_pmul(eta, lin("inv_intensity", j)), -1.0)
        rates[var("log_rate", j)] = (
            _pmul(v_, diff2("intensity", j))
            + [(-0.5, {var("log_rate", j): 2}), (-0.5, {var("log_slope", j): 2})]
            + _pscale(bsq, 2.0 * e2)
            + [(-2.0 * msq, {})]
        )
        rates[var("log_slope", j)] = (
            _pmul(v_, d_rate_phi) + _pscale(_pmul(zeta, eta), -1.0)
        )

    k = 13 * n
    names = tuple(f"{f}[{j}]" for f in _POLY_FIELDS for j in range(n))
    terms = []
    for i in range(k):
        acc: dict[tuple[int, ...], float] = {}
        for coef, exps in rates[i]:
            key = tuple(exps.get(l, 0) for l in range(k))
            acc[key] = acc.get(key, 0.0) + coef
        terms.append(tuple((c, e) for e, c in acc.items() if c != 0.0))
    return PolySystem(k=k, terms=tuple(terms), names=names)


def lift_reduced_state(s: ReducedState, p: Params) -> Array:
    """Initial polynomial-system point for a reduced electromagnetic state.

    Reconstructs the intensity and its rate, then fills the auxiliary
    reciprocal and logarithmic variables; ordering matches
    polynomialize_reduced.  The reciprocals require the intensity to clear
    the guard floor everywhere (a polynomial system has no fallback branch).
    """
    g = s.grid
    Phi = reconstruct_phi(s, p)
    if float(np.min(np.abs(Phi))) < p.phi_floor:
        raise GuardViolation(
            f"reciprocal intensity needs |Phi| >= {p.phi_floor:g} everywhere; "
            f"min |Phi| = {float(np.min(np.abs(Phi))):.3e}"
        )
    Phidot = reconstruct_phi_dot(s, Phi, p)
    return np.concatenate([
        s.B.ravel(),
        s.Bdot.ravel(),
        Phi,
        1.0 / s.B[0],
        1.0 / Phi,
        Phidot / Phi,
        deriv_x(Phi, g) / Phi,
    ])


# ---------------------------------------------------------------------------
# the two-point embedding shared by the demo and the acceptance gate
# ---------------------------------------------------------------------------


def tiny_reduced_embedding() -> tuple[ReducedState, PolySystem, Array]:
    """Two-point electromagnetic state (the smallest field theory the
    embedding can afford), its polynomial system and its lifted point."""
    s = ReducedState(
        t=0.0,
        B=np.array([[2.2, 1.8], [0.1, -0.1], [0.05, 0.05], [0.02, -0.02]]),
        Bdot=np.array([[0.05, -0.05], [-0.1, 0.1], [0.03, 0.03], [0.01, -0.01]]),
        grid=Grid1D(n=2),
        charge_mean=1.0,
    )
    p = Params()
    return s, polynomialize_reduced(s.grid, p), lift_reduced_state(s, p).astype(complex)


def reciprocal_drift(sys: PolySystem, x0: Array, t_end: float) -> float:
    """Largest defect of b0*inv_b0 = 1 and intensity*inv_intensity = 1
    along the classical flow of polynomialize_reduced's system, sampled
    at steps of at most 1e-3 up to t_end."""
    n = sys.k // len(_POLY_FIELDS)
    pairs = [(_POLY_FIELDS.index(a) * n, _POLY_FIELDS.index(b) * n)
             for a, b in (("inv_b0", "b0"), ("inv_intensity", "intensity"))]
    drift = 0.0
    x = x0
    steps = max(1, math.ceil(t_end / 1.0e-3))
    for _ in range(steps):
        x = classical_flow(sys, x, t_end / steps, 1.0e-3)
        for i, j in pairs:
            drift = max(drift, float(np.max(np.abs(x[i:i + n] * x[j:j + n] - 1.0))))
    return drift


def readout_errors(sys: PolySystem, x0: Array, t_end: float,
                   cutoffs: Iterable[int]) -> list[tuple[int, float]]:
    """(Fock dimension, max readout error against the classical oracle at
    t_end) per cutoff, for the system recentered at x0 so that the
    coherent start is the vacuum."""
    oracle = classical_flow(sys, x0, t_end, 1.0e-4)
    centered = recenter(sys, x0)
    out = []
    for cutoff in cutoffs:
        basis = FockBasis(k=sys.k, cutoff=cutoff)
        v = evolve(build_m(centered, basis), coherent_vector(np.zeros(sys.k), basis), t_end)
        out.append((basis.dim, float(np.max(np.abs(readout(v, basis) + x0 - oracle)))))
    return out
