"""Linearization of polynomial flows on a truncated boson ladder.

A polynomial ODE system dx_i/dt = F_i(x) is lifted to a linear equation
dv/dt = M v on the span of occupation states |n_1..n_k>, with

    M = sum_i  raise_i * F_i(lower_1 .. lower_k),

where lower_i / raise_i are the truncated ladder matrices.  Each monomial
of F_i is a coefficient and a factor tuple, the nondecreasing variable
indices with each index repeated by its power (x_0^2 x_3 is (0, 0, 3), a
constant is ()); products of monomials concatenate and sort their
factors.  A classical configuration x enters as the coherent vector with
eigenvalue x and is read back out as the ratio of single-occupation to
vacuum amplitude.  The linear flow is propagated by the action of its
exponential, v(t) = exp(tM) v(0), never by time steps.  On the set of
trajectories of the original system the two descriptions agree up to
truncation, which is the property the demo systems and the tests measure:
readout error falls monotonically as the occupation cutoff grows.

`FockBasis` stores the truncated space once: the occupation states in
lexicographic order (vacuum first), held mode-major as one contiguous
occupation row per mode, and one index map per mode, `down`, giving the
state one quantum lower (-1 where there is none); a raise is its inverse.
Every operator is read off these rows: a monomial of F_i followed by
raise_i sends each state to at most one state, so `build_m` assembles M as
one row map per monomial, gathered from the per-mode rows, and the
coherent vector and the readout are array expressions over them.

The electromagnetic closure of `reduced` is rational, not polynomial, so
`polynomialize_reduced` rewrites it on a tiny periodic grid with the
intensity Phi, its reciprocal and its logarithmic rate and slope as extra
variables, twelve per grid point, after which every right-hand side is a
polynomial of degree at most four.  The system is exact for any n <= 4 and
is integrated classically as its own oracle.  Truncated-Fock dimensions grow
combinatorially in grid points: the n = 2 embedding (`tiny_reduced_embedding`,
the one the acceptance gate and the demo run) has dimension 20,475 at cutoff
4, and an n = 4 system 20,825 at cutoff 3 and 270,725 at cutoff 4.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .kernel import (
    Array,
    Grid1D,
    GuardViolation,
    NonFinite,
    Params,
    ReducedState,
    SimulationError,
    deriv_x,
    deriv_xx,
    rk4,
    step_count,
)
from .reduced import PHI_FLOOR, below_phi_floor, reconstruct_phi, reconstruct_phi_dot

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
    "fock_readout",
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


# one monomial, (coefficient, factors) as PolySystem describes it
_Term = tuple[complex, tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class PolySystem:
    """First-order ODE system with polynomial right-hand sides.

    terms[i] lists the monomials of dx_i/dt as (coefficient, factors),
    where factors is the nondecreasing tuple of variable indices of the
    monomial, each repeated by its power: x_0^2 x_3 is (0, 0, 3) and a
    constant is ().  Coefficients may be complex.  `names`, when present,
    documents the variable ordering.  The monomials are compiled once, at
    construction, into the table `rhs` evaluates: one row per monomial,
    by degree and then by appearance, and `rhs` adds each monomial's value
    into its variable in that table order, starting from zero.
    """

    k: int
    terms: tuple[tuple[_Term, ...], ...]
    names: tuple[str, ...] | None = None
    _table: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.k < 1 or len(self.terms) != self.k:
            raise ValueError("terms must list one entry per variable")
        if self.names is not None and len(self.names) != self.k:
            raise ValueError("names must match the variable count")
        for var_terms in self.terms:
            for coef, factors in var_terms:
                if any(not 0 <= l < self.k for l in factors) or list(factors) != sorted(factors):
                    raise ValueError("factors must be nondecreasing variable indices below k")
                if not (math.isfinite(coef.real) and math.isfinite(coef.imag)):
                    raise ValueError("coefficients must be finite")
        # one row per monomial, by degree and then by appearance, the order
        # in which each variable's sum adds them; factors are padded to the
        # top degree with index k, where rhs puts 1
        table = sorted(((i, coef, factors) for i, var_terms in enumerate(self.terms)
                        for coef, factors in var_terms), key=lambda row: len(row[2]))
        top = max((len(factors) for _, _, factors in table), default=0)
        rows = np.array([i for i, _, _ in table], dtype=np.intp)
        coefs = np.array([coef for _, coef, _ in table], dtype=complex)
        factors = np.array([f + (self.k,) * (top - len(f)) for _, _, f in table],
                           dtype=np.intp).reshape(len(table), top)
        object.__setattr__(self, "_table", (rows, coefs, factors))

    def rhs(self, x: Array) -> Array:
        """Evaluate all right-hand sides at the point x (complex output)."""
        if np.shape(x) != (self.k,):
            raise ValueError(f"x must have shape ({self.k},), got {np.shape(x)}")
        rows, coefs, factors = self._table
        padded = np.empty(self.k + 1, dtype=complex)
        padded[:-1] = x
        padded[-1] = 1.0
        out = np.zeros(self.k, dtype=complex)
        np.add.at(out, rows, coefs * np.multiply.reduce(padded[factors], axis=1))
        return out


def classical_flow(sys: PolySystem, x0: Array, t_end: float, dt: float) -> Array:
    """Endpoint of a classical four-stage integration of the system.

    The step is shrunk so an integer number of steps lands exactly on t_end;
    used as the high-accuracy oracle for the Fock-space readout.  Raises
    ValueError unless t_end is finite, dt finite and nonzero, and the step
    count finite.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if not math.isfinite(dt) or dt == 0.0:
        raise ValueError(f"dt must be finite and nonzero, got {dt!r}")
    x = np.asarray(x0, dtype=complex).copy()
    if t_end == 0.0:
        return x
    n_steps = max(1, math.ceil(step_count(abs(t_end) / abs(dt), t_end)))
    step = t_end / n_steps

    def rhs(t, x):
        return (sys.rhs(x),)

    for _ in range(n_steps):
        (x,) = rk4(rhs, 0.0, (x,), step)
    if not np.all(np.isfinite(x.view(np.float64))):
        raise NonFinite("classical polynomial flow overflowed")
    return x


def recenter(sys: PolySystem, x0: Array) -> PolySystem:
    """Rewrite the system in deviation variables y = x - x0.

    Every monomial is expanded as the product of (x0_l + y_l) over its
    factors; degrees never grow.  Centering at the initial condition puts
    the coherent start at the vacuum, which is where the truncated ladder
    is most accurate.
    """
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (sys.k,):
        raise ValueError("center must have one entry per variable")
    new_terms = []
    for var_terms in sys.terms:
        expanded: list[_Term] = []
        for coef, factors in var_terms:
            poly = [(complex(coef), ())]
            for l in factors:
                poly = _pmul(poly, [(x0[l], ()), (1.0, (l,))])
            expanded += poly
        new_terms.append(_merged(expanded))
    return PolySystem(k=sys.k, terms=tuple(new_terms), names=sys.names)


def _pmul(a: list[_Term], b: list[_Term]) -> list[_Term]:
    return [(ca * cb, tuple(sorted(fa + fb))) for ca, fa in a for cb, fb in b]


def _merged(terms: Iterable[_Term]) -> tuple[_Term, ...]:
    """Like monomials summed in first-appearance order, exact zeros dropped."""
    acc: dict[tuple[int, ...], complex] = {}
    for coef, factors in terms:
        acc[factors] = acc.get(factors, 0.0) + coef
    return tuple((c, f) for f, c in acc.items() if c != 0.0)


# ---------------------------------------------------------------------------
# truncated Fock space
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FockBasis:
    """All occupation vectors of k modes with total occupation <= cutoff.

    `states` holds one occupation vector per row, in lexicographic order,
    so the vacuum is row 0; the dimension is C(cutoff + k, k).  It is a
    (dim, k) view of mode-major storage, so `states.T[l]` is mode l's
    occupations as one contiguous row.  `down[l]` maps each row to the row
    with one quantum less in mode l, -1 where mode l is empty; a raise is
    its inverse, ranked only to fill it, by one suffix sum of shell counts.
    Both are read-only.  The occupation rows are built from links: each
    state is its first mode's occupation and a link to its tail, a state
    of the later modes, so mode l's row is one 1-D gather per level down
    that chain.
    """

    k: int
    cutoff: int
    states: np.ndarray = field(init=False, repr=False)
    down: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one mode")
        if self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        k, cutoff = self.k, self.cutoff
        occupation, total = _occupations(k, cutoff)
        dim = len(total)
        assert dim == math.comb(cutoff + k, k)

        # a row's rank is its index, and raising mode l of a row n below the
        # top shell lands at n + sum_{j>=l} count[j, A_j] - count[j+1, A_j], with
        # A_j = n_0 + .. + n_j (`after`) and count[k] = 0; by Pascal's rule each
        # term is count[j, A_j + 1], so one suffix sum ranks all k raises
        count = _shell_counts(k, cutoff)
        modes = np.arange(k)[:, None]
        down = np.full((k, dim), -1, dtype=np.int32 if dim <= 2**31 - 1 else np.int64)
        below = np.flatnonzero(total < cutoff)
        after = np.cumsum(occupation[:, below], axis=0, dtype=np.intp)
        to = np.cumsum(count[modes, after + 1][::-1], axis=0)[::-1]
        to += below
        down[modes, to] = below
        occupation.flags.writeable = False
        for name, arr in (("states", occupation.T), ("down", down)):
            arr.flags.writeable = False  # frozen like the basis itself
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return len(self.states)


def _shell_counts(k: int, cutoff: int) -> np.ndarray:
    """count[j, p], the number of states of modes j..k-1 with total exactly
    cutoff - p: FockBasis ranks its raises from it, and readout its quanta."""
    return np.array([[math.comb(cutoff - p + k - j - 1, k - j - 1) for p in range(cutoff + 1)]
                     for j in range(k)], dtype=np.int64)


def _occupations(k: int, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """FockBasis(k, cutoff)'s occupations, mode-major (one row of dim per
    mode), and each state's total occupation.  The per-level links die
    with the call, before the basis ranks its index maps."""
    # prepend one mode at a time: the rows of head h are the rows of the
    # level before (the later modes) with total <= cutoff - h, which stay in
    # lexicographic order, so a row is its head and a link to its tail row
    # there; the row totals travel with the rows, for the next mode
    dtype = np.min_scalar_type(cutoff)
    total = np.zeros(1, dtype=np.intp)
    levels = []
    for _ in range(k):
        tails = [np.flatnonzero(total <= cutoff - h) for h in range(cutoff + 1)]
        levels.append((np.repeat(np.arange(cutoff + 1, dtype=dtype), [len(t) for t in tails]),
                       np.concatenate(tails)))
        total = np.concatenate([total[t] + h for h, t in enumerate(tails)])
    # mode l's column is each row's head l levels down its chain of links
    occupation = np.empty((k, len(total)), dtype=dtype)
    occupation[0], row = levels.pop()
    for l in range(1, k):
        head, link = levels.pop()
        occupation[l] = head.take(row)
        row = link.take(row)
    return occupation, total


def ladder_matrices(basis: FockBasis) -> tuple[tuple[sp.csr_matrix, ...], tuple[sp.csr_matrix, ...]]:
    """Lowering and raising matrices per mode, with exact mutual adjointness.

    Matrix elements are the standard sqrt(occupation) ladder entries; the
    raising matrix is the transpose of the lowering one (entries are real),
    so adjointness holds exactly, not to roundoff.  Truncation only removes
    transitions out of the top occupation shell.
    """
    dim = basis.dim
    sqrt_n = np.sqrt(np.arange(basis.cutoff + 1))
    lower = []
    for l in range(basis.k):
        cols = np.flatnonzero(basis.down[l] >= 0)
        lower.append(sp.csr_matrix((sqrt_n[basis.states[cols, l]], (basis.down[l, cols], cols)),
                                   shape=(dim, dim)))
    raise_ = tuple(m.T.tocsr() for m in lower)
    return tuple(lower), raise_


def build_m(sys: PolySystem, basis: FockBasis) -> sp.csr_matrix:
    """Evolution generator: sum over variables of raise_i * F_i(lowering ops).

    A monomial of F_i, coef times the lowering operators of its factors,
    followed by raise_i, sends each basis row to at most one row, so it is
    one row map: the rows are followed through `basis.down` once per factor
    and down[i]'s inverse for the raise, the sqrt(occupation) amplitudes
    multiplied along the way.  Monomials share factor prefixes ((0,), (0, 1),
    (0, 1, 1) ...), so each prefix is followed once per call, from its
    parent's rows, and kept until the last monomial through it; each
    monomial applies only its raise, in the order of `sys.terms`.  All maps
    are assembled as one sparse matrix, duplicates summed and exact zeros
    dropped; their rows, columns and values are joined in turn, each list
    freed as its array replaces it.  Lowering operators commute exactly on
    the truncated space, so the factor order inside a monomial is immaterial
    (the nondecreasing factor order is used).
    """
    if basis.cutoff < 1:
        raise CutoffTooSmall("occupation cutoff must be at least 1 to carry any dynamics")
    if sys.k != basis.k:
        raise ValueError(f"system has {sys.k} variables but basis has {basis.k} modes")
    rows, cols, vals = _row_maps(sys, basis)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    m = sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim)).tocsr()
    m.eliminate_zeros()
    return m


def _row_maps(sys: PolySystem, basis: FockBasis) -> tuple[list, list, list]:
    """Rows, columns and values of build_m's row maps, one array each per
    monomial in the order of `sys.terms`, behind one empty array each.  The
    prefix chains and raise rows die with the call, before the assembly."""
    sqrt_n = np.sqrt(np.arange(basis.cutoff + 1))
    occupation = basis.states.T
    empty = np.empty(0, dtype=basis.down.dtype)
    rows, cols, vals = [empty], [empty], [np.empty(0, dtype=complex)]
    monomials = [(i, coef, factors) for i, var_terms in enumerate(sys.terms)
                 for coef, factors in var_terms]
    # factor prefix -> (rows reached, rows started from, amplitudes), each
    # freed after the last monomial that passes through it
    every = np.arange(basis.dim, dtype=basis.down.dtype)
    chains = {(): (every, every, np.ones(basis.dim))}
    last = {factors[:depth]: n for n, (_, _, factors) in enumerate(monomials)
            for depth in range(len(factors) + 1)}

    # raise_i, down[i]'s inverse, in one row refilled as the monomials come by variable
    raised, up = None, np.empty(basis.dim, dtype=basis.down.dtype)
    for n, (i, coef, factors) in enumerate(monomials):
        if i != raised:
            raised, lowered = i, np.flatnonzero(basis.down[i] >= 0)
            up.fill(-1)
            up[basis.down[i].take(lowered)] = lowered
        prefixes = [factors[:depth] for depth in range(len(factors) + 1)]
        for head in prefixes:
            if head not in chains:
                at, src, amp = chains[head[:-1]]
                l = head[-1]
                to = basis.down[l].take(at)
                live = np.flatnonzero(to >= 0)
                chains[head] = (to.take(live), src.take(live), amp.take(live)
                                * sqrt_n.take(occupation[l].take(at.take(live))))
        at, src, amp = chains[factors]
        to = up.take(at)
        live = np.flatnonzero(to >= 0)
        at, src = to.take(live), src.take(live)
        rows.append(at)
        cols.append(src)
        vals.append(complex(coef) * amp.take(live) * sqrt_n.take(occupation[i].take(at)))
        for head in prefixes:
            if last[head] == n:
                del chains[head]
    return rows, cols, vals


def coherent_vector(xi0: Array, basis: FockBasis) -> Array:
    """Normalized coherent amplitudes over the truncated basis.

    amplitude(n) = exp(-|xi0|^2 / 2) * prod_i xi0_i^{n_i} / sqrt(n_i!).
    The untruncated vector has unit norm, so the weight missing from the
    truncated one measures the tail; more than 1e-12 of it draws a warning.
    An amplitude whose weight |xi0|^2 or powers up to the cutoff are not
    finite floats raises NonFinite.
    """
    xi0 = np.asarray(xi0, dtype=complex)
    if xi0.shape != (basis.k,):
        raise ValueError("need one amplitude per mode")
    # xi0^n / sqrt(n!) by recurrence: n! itself overflows a float past n = 170
    factor = np.ones((basis.k, basis.cutoff + 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, basis.cutoff + 1):
            factor[:, n] = factor[:, n - 1] * xi0 / math.sqrt(n)
        weight = float(np.sum(np.abs(xi0) ** 2))
    if not (math.isfinite(weight) and np.isfinite(factor).all()):
        raise NonFinite(f"coherent amplitude {xi0} has no finite coherent vector at cutoff "
                        f"{basis.cutoff}: |xi0|^2 or a power xi0^n / sqrt(n!) is not finite")
    v = np.full(basis.dim, math.exp(-0.5 * weight), dtype=complex)
    for l, occ in enumerate(basis.states.T):
        v *= factor[l].take(occ)
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
    horizon is cut into the fewest equal pieces with ||(t_end/pieces) M||_1
    <= 1000 and the amplitudes are checked after each, so a flow that
    overflows stops at the first piece that does instead of after the
    whole horizon's work.  The generator is assumed time-independent.
    Raises ValueError unless t_end and the piece count are finite.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    pieces = max(1, math.ceil(step_count(abs(t_end) * float(spla.norm(m, 1)) / 1000.0, t_end)))
    step = (t_end / pieces) * m
    v = np.asarray(v0, dtype=complex)
    for _ in range(pieces):
        v = spla.expm_multiply(step, v)
        if not np.all(np.isfinite(v.view(np.float64))):
            raise NonFinite("Fock-space evolution produced non-finite amplitudes")
    return v


def readout(v: Array, basis: FockBasis) -> Array:
    """Classical trajectory point encoded in a Fock vector.

    Per mode, the ratio of the single-occupation amplitude to the vacuum
    amplitude, zero at cutoff 0.  The ratio form makes the overall scale of
    v irrelevant, which is what permits non-norm-preserving generators.
    """
    v = np.asarray(v, dtype=complex)
    vac = v[0]
    scale = float(np.linalg.norm(v))
    if abs(vac) <= 1e-14 * scale:
        raise VacuumOrthogonal(
            f"vacuum amplitude {abs(vac):.3e} below 1e-14 of the vector norm {scale:.3e}"
        )
    out = np.zeros(basis.k, dtype=complex)
    if basis.cutoff:
        # one quantum in mode l follows the count[l, 0] states of modes l+1..k-1 alone
        out[:] = v[_shell_counts(basis.k, basis.cutoff)[:, 0]] / vac
    return out


def fock_readout(sys: PolySystem, x0: Array, t_end: float, cutoff: int) -> tuple[int, Array]:
    """(Fock dimension, readout at t_end) of the coherent state at x0
    evolved under the system's generator at the given cutoff."""
    basis = FockBasis(k=sys.k, cutoff=cutoff)
    v0 = coherent_vector(x0, basis)
    return basis.dim, readout(evolve(build_m(sys, basis), v0, t_end), basis)


# ---------------------------------------------------------------------------
# named demo systems
# ---------------------------------------------------------------------------


def riccati_system() -> PolySystem:
    """dx/dt = -x^2; closed form x(t) = x0 / (1 + x0 t)."""
    return PolySystem(k=1, terms=(((-1.0, (0, 0)),),), names=("x",))


def rotation_system() -> PolySystem:
    """dx1/dt = x2, dx2/dt = -x1; generator is anti-Hermitian."""
    return PolySystem(
        k=2,
        terms=(((1.0, (1,)),), ((-1.0, (0,)),)),
        names=("x1", "x2"),
    )


def linear_system(rate: complex) -> PolySystem:
    """dx/dt = rate * x; coherent states stay coherent under this flow."""
    return PolySystem(k=1, terms=(((complex(rate), (0,)),),), names=("x",))


def lotka_system() -> PolySystem:
    """Two-species predator-prey flow (quadratic couplings)."""
    return PolySystem(
        k=2,
        terms=(
            ((0.5, (0,)), (-1.0, (0, 1))),
            ((-0.5, (1,)), (1.0, (0, 1))),
        ),
        names=("prey", "predator"),
    )


# ---------------------------------------------------------------------------
# polynomialization of the electromagnetic closure
# ---------------------------------------------------------------------------

_POLY_FIELDS = (
    "b0", "b1", "b2", "b3",
    "bdot0", "bdot1", "bdot2", "bdot3",
    "intensity", "inv_intensity", "log_rate", "log_slope",
)


def _pscale(a: list[_Term], c: float) -> list[_Term]:
    return [(c * coef, factors) for coef, factors in a]


def polynomialize_reduced(g: Grid1D, p: Params) -> PolySystem:
    """Electromagnetic closure on a tiny grid as a polynomial first-order system.

    Variables, field-major with the grid index inside each block:

        b0..b3        the four field components
        bdot0..bdot3  their time derivatives
        intensity     Phi, promoted from reconstructed quantity to state
        inv_intensity 1/Phi,  rate -log_rate * inv_intensity
        log_rate      Phidot/Phi
        log_slope     (d Phi/dx)/Phi

    The rates are the integrator's accelerations with every division
    replaced by the reciprocal variable and every quotient of
    Phi-derivatives by a logarithmic variable.  Two reductions use the
    manifold identity inv_intensity*intensity = 1 to keep the total degree
    at four: the inv_intensity rate itself, and the screening and mass
    terms of inv_intensity*Phiddot, which the bdot0 and log_rate rates
    share.  Off the manifold the two systems differ, which is why the
    manifold drift is a reported invariant.  On the manifold the
    right-hand sides agree with accel_reduced to roundoff.

    The composed second difference of b1 inside its wave operator cancels
    exactly against the matching piece of the divergence gradient, so the
    b1 rate is emitted in the collapsed form  D(bdot0) - 2 e^2 b1 Phi.

    The difference weights are read off kernel's deriv_x and deriv_xx.  On
    n = 2 the centered first difference vanishes identically (the two
    neighbors coincide), which silently removes every transport term; the
    result is still the faithful transcription of the integrator on that
    grid.
    """
    n = g.n
    if n > 4:
        raise UnsupportedGrid(f"polynomialization supports n <= 4 grid points, got {n}")
    e2 = p.e**2
    msq = p.m**2

    def var(fieldname: str, j: int) -> int:
        return _POLY_FIELDS.index(fieldname) * n + (j % n)

    def taps(stencil) -> list[list[tuple[int, float]]]:
        # per output point j, the nonzero weights of kernel's stencil on the
        # points j+1, j, j-1 (fewer where they alias), one unit vector a call
        w = np.column_stack([stencil(unit, g) for unit in np.eye(n)])
        return [[(l, float(w[j, l])) for l in dict.fromkeys(((j + 1) % n, j, (j - 1) % n))
                 if w[j, l] != 0.0] for j in range(n)]

    d1, d2 = taps(deriv_x), taps(deriv_xx)

    def lin(fieldname: str, j: int) -> list[_Term]:
        return [(1.0, (var(fieldname, j),))]

    def diff(weights: list[list[tuple[int, float]]], fieldname: str, j: int) -> list[_Term]:
        return [(c, (var(fieldname, l),)) for l, c in weights[j]]

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
        bsq = [(c, (var(f"b{mu}", j),) * 2) for mu, c in enumerate((1.0, -1.0, -1.0, -1.0))]
        v_phiddot = (
            _pmul(v_, diff(d2, "intensity", j))
            + [(0.5, (var("log_rate", j),) * 2), (-0.5, (var("log_slope", j),) * 2)]
            + _pscale(bsq, 2.0 * e2)
            + [(-2.0 * msq, ())]
        )

        # d/dx of (log_rate * intensity) = d/dx Phidot, per stencil point
        d_rate_phi = [(c, (var("intensity", l), var("log_rate", l))) for l, c in d1[j]]

        # divergence of the field: bdot0 - D(b1)
        div_b = lin("bdot0", j) + _pscale(diff(d1, "b1", j), -1.0)

        # closure for the b0 acceleration: D(bdot1) - bracket/Phi, with every
        # 1/Phi written through the logarithmic variables
        bracket_over_phi = (
            _pmul(div_b, eta)
            + _pmul(lin("bdot0", j), eta)
            + _pscale(_pmul(lin("bdot1", j), zeta), -1.0)
            + _pmul(b0, v_phiddot)
            + _pscale(_pmul(b1, _pmul(v_, d_rate_phi)), -1.0)
        )
        rates[var("bdot0", j)] = diff(d1, "bdot1", j) + _pscale(bracket_over_phi, -1.0)

        rates[var("bdot1", j)] = diff(d1, "bdot0", j) + _pscale(_pmul(b1, phi_), -2.0 * e2)
        rates[var("bdot2", j)] = diff(d2, "b2", j) + _pscale(_pmul(lin("b2", j), phi_), -2.0 * e2)
        rates[var("bdot3", j)] = diff(d2, "b3", j) + _pscale(_pmul(lin("b3", j), phi_), -2.0 * e2)

        rates[var("intensity", j)] = _pmul(eta, phi_)
        rates[var("inv_intensity", j)] = _pscale(_pmul(eta, lin("inv_intensity", j)), -1.0)
        # d/dt (Phidot/Phi) = v * Phiddot - log_rate^2
        rates[var("log_rate", j)] = v_phiddot + [(-1.0, (var("log_rate", j),) * 2)]
        rates[var("log_slope", j)] = (
            _pmul(v_, d_rate_phi) + _pscale(_pmul(zeta, eta), -1.0)
        )

    k = len(_POLY_FIELDS) * n
    names = tuple(f"{f}[{j}]" for f in _POLY_FIELDS for j in range(n))
    return PolySystem(k=k, terms=tuple(_merged(rates[i]) for i in range(k)), names=names)


def lift_reduced_state(s: ReducedState, p: Params) -> Array:
    """Initial polynomial-system point for a reduced electromagnetic state.

    Reconstructs the intensity and its rate, then fills the auxiliary
    reciprocal and logarithmic variables; ordering matches
    polynomialize_reduced.  The reciprocal requires |Phi| to clear
    PHI_FLOOR everywhere (a polynomial system has no fallback branch).
    """
    g = s.grid
    Phi = reconstruct_phi(s, p)
    if np.any(below_phi_floor(Phi)):
        raise GuardViolation(
            f"reciprocal intensity needs |Phi| >= {PHI_FLOOR:g} everywhere; "
            f"min |Phi| = {float(np.min(np.abs(Phi))):.3e}"
        )
    Phidot = reconstruct_phi_dot(s, Phi)
    return np.concatenate([
        s.B.ravel(),
        s.Bdot.ravel(),
        Phi,
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
    """Largest defect of intensity*inv_intensity = 1 along the classical
    flow of polynomialize_reduced's system, sampled at steps of at most
    1e-3 up to t_end."""
    n = sys.k // len(_POLY_FIELDS)
    phi = _POLY_FIELDS.index("intensity") * n
    inv = _POLY_FIELDS.index("inv_intensity") * n
    drift = 0.0
    x = x0
    steps = max(1, math.ceil(step_count(abs(t_end) / 1.0e-3, t_end)))
    for _ in range(steps):
        x = classical_flow(sys, x, t_end / steps, 1.0e-3)
        drift = max(drift, float(np.max(np.abs(x[inv:inv + n] * x[phi:phi + n] - 1.0))))
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
        dim, got = fock_readout(centered, np.zeros(sys.k), t_end, cutoff)
        out.append((dim, float(np.max(np.abs(got + x0 - oracle)))))
    return out
