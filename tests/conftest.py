"""Shared fixtures and reference implementations.

The package's stencils are slice forms that promise bit-identical output to
the textbook periodic-shift definitions below.  Tests compare against these
references directly, or swap them into the package to check that whole
integrator steps come out the same to the last bit.

The screened constraint solve keeps its earlier form as a reference too:
fancy-indexed sublattices, `.mean()` and scipy's `solve_banded`, which the
package's direct LAPACK call must match bit for bit.

The truncated Fock space is referenced the same way: an `itertools`
enumeration with a dict index, per-state ladder loops, and the generator
built as sparse products of cached lowering-matrix powers.  A polynomial
system's right-hand side keeps its earlier form, the monomial values
summed into their variables by a sparse 0/1 scatter matrix, which the
package's scatter-free sum must match bit for bit.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_banded

import kgmlab.kernel
from kgmlab.scenarios import SingularOperator


def roll_deriv_x(f, g):
    """(f[j+1] - f[j-1]) / (2h) along the last axis, built from two
    shifted copies."""
    return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * g.h)


def roll_deriv_xx(f, g):
    """((f[j+1] - 2 f[j]) + f[j-1]) / (h*h) along the last axis, built from
    two shifted copies."""
    return (np.roll(f, -1, axis=-1) - 2.0 * f + np.roll(f, 1, axis=-1)) / (g.h * g.h)


@pytest.fixture
def roll_stencils():
    """The reference pair (deriv_x, deriv_xx)."""
    return roll_deriv_x, roll_deriv_xx


@pytest.fixture
def rebind(monkeypatch):
    """Callable rebind(obj, new) that puts new, for the rest of the test,
    under every name holding obj in a loaded kgmlab namespace.

    The modules import what they use by name, so patching the module that
    defines obj alone would leave every other caller on obj.
    """

    def install(obj, new) -> None:
        held = False
        for key, module in list(sys.modules.items()):
            if module is None or not (key == "kgmlab" or key.startswith("kgmlab.")):
                continue
            for attr, val in list(vars(module).items()):
                if val is obj:
                    monkeypatch.setattr(module, attr, new)
                    held = True
        assert held, f"no kgmlab namespace holds {obj!r}"

    return install


@pytest.fixture
def use_roll_stencils(rebind):
    """Callable that rebinds the reference stencils in place of the
    package's own, in every kgmlab namespace, for the rest of the test."""

    def install() -> None:
        rebind(kgmlab.kernel.deriv_x, roll_deriv_x)
        rebind(kgmlab.kernel.deriv_xx, roll_deriv_xx)

    return install


def reference_screened_solve(phi_sq, rhs, p, g, charge=None):
    """x of scenarios._screened_solve, through np.r_ sublattices and
    solve_banded; the backward-error gate is left out."""
    n, m = g.n, g.n // 2
    projected = charge is None
    a = 0.25 / (g.h * g.h)
    screen = 2.0 * p.e**2 * phi_sq
    order = np.r_[0:n:2, 1:n:2]
    r, s = rhs[order].reshape(2, m), screen[order].reshape(2, m)
    ends = np.zeros((2, m))
    ends[:, [0, -1]] = 1.0
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = a
    ab[0, m] = ab[2, m - 1] = 0.0
    ab[1] = (-2.0 * a - s - a * ends).ravel()
    cols = np.stack([r - r.mean(1, keepdims=True), s - s.mean(1, keepdims=True),
                     ends, np.ones((2, m))])
    z = solve_banded((1, 1), ab, cols.reshape(4, n).T).T.reshape(4, 2, m).transpose(1, 2, 0)
    wz = np.stack([a * ends, (s - a) / m], axis=1) @ z
    y = z[..., :2] - z[..., 2:] @ np.linalg.solve(np.eye(2) + wz[..., 2:], wz[..., :2])
    y0, y1 = y[..., 0], y[..., 1]
    f = (r.mean(1) if projected else charge) + (s * y0).mean(1)
    gain = s.mean(1) + (s * y1).mean(1)
    if projected:
        f, gain = f[:1] - f[1:], gain.sum(keepdims=True)
    free = gain == 0.0
    if np.any(np.abs(f[free]) > 1e-12 * float(np.max(np.abs(rhs + (charge or 0.0))))):
        raise SingularOperator("unbalanced unscreened sublattice")
    c = np.zeros_like(f)
    np.divide(-f, gain, out=c, where=~free)
    if projected:
        c = np.r_[c, -c]
    x = np.empty(n)
    x[order] = (y0 + c[:, None] * (1.0 + y1)).ravel()
    return x


def reference_states(k, cutoff):
    """Occupation tuples of k modes with total <= cutoff, lexicographic.

    A state of total t is a multiset of t modes, so the states are counted
    out of `combinations_with_replacement` and sorted; the work grows with
    the dimension, not with (cutoff + 1)^k, and never uses a rank formula.
    """
    return sorted(tuple(modes.count(l) for l in range(k))
                  for total in range(cutoff + 1)
                  for modes in itertools.combinations_with_replacement(range(k), total))


def reference_ladder(k, cutoff):
    """Per-mode lowering matrices and their transposes, one state at a time."""
    states = reference_states(k, cutoff)
    index = {occ: i for i, occ in enumerate(states)}
    lower = []
    for i in range(k):
        rows, cols, vals = [], [], []
        for col, occ in enumerate(states):
            if occ[i] == 0:
                continue
            below = list(occ)
            below[i] -= 1
            rows.append(index[tuple(below)])
            cols.append(col)
            vals.append(math.sqrt(occ[i]))
        lower.append(sp.csr_matrix((vals, (rows, cols)), shape=(len(states),) * 2))
    return tuple(lower), tuple(m.T.tocsr() for m in lower)


def reference_build_m(sys_, cutoff):
    """sum_i raise_i F_i(lower), each monomial a product of cached powers."""
    lower, raise_ = reference_ladder(sys_.k, cutoff)
    dim = lower[0].shape[0]
    eye = sp.identity(dim, format="csr", dtype=complex)
    powers = [[eye, low.astype(complex)] for low in lower]

    def power(i, e):
        while len(powers[i]) <= e:
            powers[i].append((powers[i][-1] @ lower[i]).tocsr())
        return powers[i][e]

    m = sp.csr_matrix((dim, dim), dtype=complex)
    for i, var_terms in enumerate(sys_.terms):
        f_i = sp.csr_matrix((dim, dim), dtype=complex)
        for coef, factors in var_terms:
            op = eye
            for l in sorted(set(factors)):
                op = (op @ power(l, factors.count(l))).tocsr()
            f_i = f_i + complex(coef) * op
        m = m + raise_[i] @ f_i
    return m.tocsr()


def reference_rhs(sys_, x):
    """PolySystem.rhs as a CSR matvec: one 0/1 column per monomial, ordered
    by degree and then by appearance, summed into its variable's row."""
    table = sorted(((i, coef, factors) for i, var_terms in enumerate(sys_.terms)
                    for coef, factors in var_terms), key=lambda row: len(row[2]))
    top = max((len(factors) for _, _, factors in table), default=0)
    rows = np.array([i for i, _, _ in table], dtype=np.intp)
    coefs = np.array([coef for _, coef, _ in table], dtype=complex)
    factors = np.array([f + (sys_.k,) * (top - len(f)) for _, _, f in table],
                       dtype=np.intp).reshape(len(table), top)
    scatter = sp.csr_matrix((np.ones(len(table), dtype=complex),
                             (rows, np.arange(len(table)))), shape=(sys_.k, len(table)))
    padded = np.append(np.asarray(x, dtype=complex), 1.0)
    return scatter @ (coefs * np.multiply.reduce(padded[factors], axis=1))
