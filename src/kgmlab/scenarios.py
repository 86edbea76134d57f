"""Constraint-consistent initial data for both integrators.

The time-component field equation contains no second time derivative: on a
time slice it reads

    (D(D B_0) - 2 e^2 Phi) B_0-part = D(Bdot_1)      with Phi = phi^2,

an elliptic problem for B_0.  D is the centered first-derivative stencil
and the second derivative acting on B_0 is the composed D(D .), matching
the operator the evolution equations use wherever a repeated x-derivative
arises by composition.  Discretizing that pair consistently is what makes
the differentiated constraint close exactly (see solve_gauss_rate) and
keeps the evolved data on the same discrete constraint surface the solver
defines.

On a periodic grid every stencil output averages to zero, so the equation
determines B_0 only together with the charge balance

    mean(B_0 Phi) = charge_mean,

a number the slice data cannot pin down and the evolution cannot change
(the mean of a flux divergence vanishes identically).  Two solve modes
cover the two callers: scenario construction projects out the grid mean
and applies a caller-chosen additive offset, while stepping re-solves the
unprojected screened system whose unique solution automatically carries
the conserved charge mean.  Both go through one screened solve: D(D .)
skips a point, so the even and odd points form two periodic tridiagonal
blocks; each block's constant, nearly null under faint screening, is split
off its mean-zero part and fixed by the block mean of the equation.

Rate construction: differentiating the constraint in time and eliminating
Bddot_1 through the x-component field equation cancels the stencils
exactly, leaving the pointwise balance

    Bdot_0 Phi = D(B_1 Phi) - B_0 Phidot,

so the rate is algebraic wherever the intensity is nonzero: no second
elliptic solve exists in the planar reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .kernel import (
    Array,
    FullState,
    Grid1D,
    Params,
    SimulationError,
    deriv_x,
    square,
)

# Matter-packet shape constants.  The pedestal keeps phi (hence Phi) bounded
# away from zero everywhere so the reduced closure never divides by a small
# intensity; the spatial-potential fractions keep the B_i wiggles gentle
# relative to the offset background.
PACKET_PEDESTAL = 0.5
PACKET_B_FRACTIONS = (0.10, 0.06, 0.04)

# Tuned per-scenario defaults: amplitudes gentle enough that grid
# resolutions from 128 up sit in the asymptotic stencil regime.  The gauge
# wave's offset 2 with unit amplitude keeps B_0 in [1, 3].
_DEFAULTS = {
    "matter-packet": dict(amplitude=0.3, width=1.4, wavenumber=1, offset=1.0),
    "pure-gauge-wave": dict(amplitude=1.0, width=1.0, wavenumber=1, offset=2.0),
    "vacuum-offset": dict(amplitude=0.0, width=1.0, wavenumber=0, offset=1.0),
}
SCENARIO_NAMES = tuple(_DEFAULTS)


class SingularOperator(SimulationError):
    """The screened elliptic operator has no solution for this right side."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Name plus shape parameters for initial data.

    offset is the additive constant c applied to B_0.  The full system runs
    any offset; a reduced run needs |B_0| to clear 2*kernel.B0_FLOOR
    everywhere on the assembled slice, and reduced.run_reduced refuses its
    start state otherwise.
    """

    name: str
    amplitude: float = 1.0
    width: float = 1.0
    wavenumber: int = 1
    offset: float = 1.0

    def __post_init__(self) -> None:
        # each message starts with the field name, as in kernel.Params
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"name: unknown scenario {self.name!r}; "
                             f"expected one of {SCENARIO_NAMES}")
        checks = (("amplitude", True, "finite"), ("offset", True, "finite"),
                  ("width", self.width > 0.0, "finite and positive"))
        for name, ok, need in checks:
            if not (ok and np.isfinite(getattr(self, name))):
                raise ValueError(f"{name}: must be {need}, got {getattr(self, name)!r}")


def default_scenario(name: str) -> ScenarioSpec:
    """The tuned defaults of a named scenario; an unknown name raises."""
    return ScenarioSpec(name=name, **_DEFAULTS.get(name, {}))


# ---------------------------------------------------------------------------
# the screened solve


def _screened_solve(phi_sq: Array, rhs: Array, p: Params, g: Grid1D,
                    charge: float | None = None) -> Array:
    """Solve K x = rhs + charge, K = D(D .) - S with S = 2 e^2 Phi, or with
    charge None the mean-projected form of K x = rhs.

    D(D .) couples j only to j +- 2 and S is diagonal, so the even and the
    odd points form two blocks L_s - S_s of m = n/2 points, L_s periodic
    tridiagonal (a = 1/(4 h^2) off the diagonal) with the constants as its
    kernel, nearly null under faint screening.  Each block is therefore
    split as x_s = c_s + y_s with mean(y_s) = 0: y_s = y0_s + c_s y1_s
    solves (L_s - P S_s) y = P (r_s + c_s S_s), P removing the block mean,
    which is conditioned like L_s.  One tridiagonal solve of both blocks
    (LAPACK gtsv; a zero pivot raises SingularOperator), S on the diagonal
    and no wrap corners, takes the right sides [P r, P S, ends, 1]; a 2 x 2
    Woodbury step per block adds back the corners and the rank-one term
    1 (S - a)^T / m, which turns -S into -P S and pins mean(y).

    With r = rhs + charge (rhs in projected mode), the block means of
    K x = r fix the constants: with gain_s = mean(S_s) + mean(S_s y1_s)
    and f_s = mean(r_s) + mean(S_s y0_s), pinned mode solves
    c_s gain_s = -f_s; projected mode (the zero-mean x with P K x = P rhs,
    P removing the grid mean) has c_e = -c_o, and the difference of the
    block equations gives c_e (gain_e + gain_o) = f_o - f_e.
    In pinned mode rhs is a flux divergence, whose block means are exactly
    0, so mean(r_s) is charge itself: summing rhs would only add the
    rounding of that 0, which outweighs a faint matter's charge.  A block
    without screening (gain 0) has a free constant, set to 0 when its mean
    equation holds to 1e-12 max|r|; otherwise SingularOperator is raised.
    The solve is accepted when |K x - r| <= 1e-14 (||K|| |x| + |r|) in the
    max norm, the residual mean-removed in projected mode.
    """
    n, m = g.n, g.n // 2
    a = 0.25 / (g.h * g.h)
    projected = charge is None
    screen = 2.0 * p.e**2 * phi_sq
    # [r, s], each with rows the even points, then the odd ones, copied
    # contiguous because a sum over a strided view rounds differently
    rs = np.empty((2, 2, m))
    rs[0] = rhs.reshape(m, 2).T
    rs[1] = screen.reshape(m, 2).T
    s = rs[1]
    means = rs.sum(2) / m
    r_mean, s_mean = means
    ends = np.zeros((2, m))
    ends[:, 0] = ends[:, -1] = 1.0
    # the tridiagonal of both blocks, which do not couple; gtsv overwrites
    # all four arguments, so dl and du are separate arrays
    du = np.full(n - 1, a)
    du[m - 1] = 0.0
    dl = du.copy()
    d = (-2.0 * a - s - a * ends).ravel()
    cols = np.empty((4, 2, m))
    np.subtract(rs, means[..., None], out=cols[:2])
    cols[2] = ends
    cols[3] = 1.0
    # z[b, k, j]: block b, point k, right side j
    _, _, _, z, info = dgtsv(dl, d, du, cols.reshape(4, n).T, overwrite_dl=1,
                             overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info > 0:
        raise SingularOperator(f"the tridiagonal block solve hit a zero pivot at row {info}")
    z = z.T.reshape(4, 2, m).transpose(1, 2, 0)
    wz = np.stack([a * ends, (s - a) / m], axis=1) @ z
    y = z[..., :2] - z[..., 2:] @ np.linalg.solve(np.eye(2) + wz[..., 2:], wz[..., :2])
    y0, y1 = y[..., 0], y[..., 1]

    f = (r_mean if projected else charge) + (s * y0).sum(1) / m
    gain = s_mean + (s * y1).sum(1) / m
    if projected:
        f, gain = f[:1] - f[1:], gain.sum(keepdims=True)
    if not projected:
        rhs = rhs + charge
    r_max = np.abs(rhs).max()
    free = gain == 0.0
    if free.any() and (np.abs(f[free]) > 1e-12 * r_max).any():
        raise SingularOperator("the screening vanishes on the even or the odd points and "
                               "the right-hand side breaks that block's mean equation; "
                               "no periodic solution exists")
    c = np.zeros_like(f)
    np.divide(-f, gain, out=c, where=~free)
    if projected:
        c = np.concatenate([c, -c])
    x = (y0 + c[:, None] * (1.0 + y1)).T.ravel()

    # normwise backward error: forming K x alone costs about eps ||K|| ||x||,
    # and ||K||_inf = 1/h^2 (D(D .), absent at n = 2) + max(screen) grows
    # like n^2, so a gate scaled to rhs alone fails sound solves on fine grids
    resid = deriv_x(deriv_x(x, g), g)
    resid -= screen * x
    resid -= rhs
    if projected:
        resid -= resid.mean()
    k_norm = (0.0 if n == 2 else 1.0 / (g.h * g.h)) + screen.max()
    scale = max(k_norm * np.abs(x).max() + r_max, 1e-300)
    backward = np.abs(resid).max() / scale
    if not (np.isfinite(x).all() and backward <= 1e-14):
        label = "projected constraint residual" if projected else "screened solve residual"
        raise SimulationError(f"{label}: normwise backward error {backward:.3e} exceeds 1e-14")
    return x


# ---------------------------------------------------------------------------
# public solves


def solve_gauss_constraint(
    phi: Array,
    bdot_i: Array,
    p: Params,
    g: Grid1D,
    offset: float = 0.0,
    charge_mean: float | None = None,
) -> Array:
    """B_0 on the initial slice from the time-0 field equation.

    bdot_i stacks the spatial rows (Bdot_1, Bdot_2, Bdot_3); in the planar
    reduction only the x-row enters.

    Default mode (charge_mean None): mean-projected solve.  Returns offset
    plus the zero-mean screened response, so the trivial right side returns
    the offset itself and a caller that wants the bare response passes
    offset 0.  Used at scenario construction, where the additive constant
    is a free datum and the compensating uniform charge background follows
    from it.

    Pinned mode (charge_mean = qbar): solves the unprojected equation

        (D(D .) - 2 e^2 Phi) B_0 = D(Bdot_1) - 2 e^2 qbar

    whose unique solution automatically satisfies mean(B_0 Phi) = qbar
    (take grid means: every stencil output has zero mean).  This is what
    stepping uses; it keeps the conserved charge mean without any offset
    bookkeeping.  offset must stay 0 in this mode.  With Phi identically
    zero the mean of B_0 is not determined by the equation; the zero-mean
    response is returned and the caller owns the mean.
    """
    phi = np.asarray(phi, dtype=float)
    phi_sq = phi * phi
    d_bdot1 = deriv_x(np.asarray(bdot_i[0], dtype=float), g)

    if charge_mean is None:
        return offset + _screened_solve(phi_sq, d_bdot1 + 2.0 * p.e**2 * phi_sq * offset, p, g)
    if offset != 0.0:
        raise ValueError("offset and charge_mean are mutually exclusive")
    return _screened_solve(phi_sq, d_bdot1, p, g, charge=-2.0 * p.e**2 * charge_mean)


def solve_gauss_rate(
    phi: Array,
    phidot: Array,
    b0: Array,
    b1: Array,
    p: Params,
    g: Grid1D,
) -> Array:
    """Bdot_0 making the time-differentiated constraint hold on the slice.

    Differentiating the constraint brings in D(Bddot_1); substituting the
    x-component field equation for Bddot_1 cancels the composed stencils
    exactly (D(D(D B_1)) against itself), leaving the pointwise balance

        Bdot_0 Phi = D(B_1 Phi) - B_0 Phidot

    with Phidot = 2 phi phidot: the planar reduction has no second elliptic
    problem, only a division by the intensity.  Taking grid means shows the
    returned rate conserves mean(B_0 Phi) automatically.

    phi and phidot are first scaled by the power of two that brings max |phi|
    into [1/2, 1): exact, bit-neutral, and max Phi then sits in [1/4, 1).
    Wherever the scaled Phi is 0, phi identically zero included, the slice
    data do not determine the rate (with no matter at all the constraint
    is exactly transported whatever Bdot_0 does).  Those points take
    Bdot_0 = D(B_1), which starts the divergence combination
    Bdot_0 - D(B_1) at zero.
    """
    phi = np.asarray(phi, dtype=float)
    shift = -np.frexp(np.abs(phi).max())[1]
    phi, phidot = np.ldexp(phi, shift), np.ldexp(np.asarray(phidot, dtype=float), shift)
    phi_sq = phi * phi
    b1 = np.asarray(b1, dtype=float)
    # D(B_1 Phi) - B_0 Phidot, formed in place
    numer = deriv_x(b1 * phi_sq, g)
    term = 2.0 * phi
    term *= phidot
    term *= np.asarray(b0, dtype=float)
    numer -= term
    out = deriv_x(b1, g)
    np.divide(numer, phi_sq, out=out, where=phi_sq != 0.0)
    return out


# ---------------------------------------------------------------------------
# scenario assembly


def packet_exponent(spec: ScenarioSpec, g: Grid1D) -> float:
    """The matter packet's beta = 2 (length / (2 pi width))**2, which makes
    the exponent beta (cos(theta) - 1) read -(x - x0)^2 / width^2 near the
    center; inf where the square overflows."""
    return 2.0 * square(g.length / (2.0 * np.pi * spec.width))


def _packet_fields(spec: ScenarioSpec, g: Grid1D) -> tuple[Array, Array]:
    """(phi, B_i rows) for the matter packet."""
    x = g.x()
    theta = 2.0 * np.pi * (x - 0.5 * g.length) / g.length
    bump = np.exp(packet_exponent(spec, g) * (np.cos(theta) - 1.0))
    phi = spec.amplitude * (PACKET_PEDESTAL + bump)

    k = spec.wavenumber * 2.0 * np.pi / g.length
    b_i = np.zeros((3, g.n))
    f1, f2, f3 = PACKET_B_FRACTIONS
    b_i[0] = spec.amplitude * f1 * np.sin(k * x)
    b_i[1] = spec.amplitude * f2 * np.cos(k * x)
    b_i[2] = spec.amplitude * f3 * np.sin(2.0 * k * x)
    return phi, b_i


def make_scenario(spec: ScenarioSpec, p: Params, g: Grid1D) -> FullState:
    """Assemble a constraint-consistent FullState at t = 0.

    Rows 1..3 come from the spec; rows 0 are the projected solve with the
    spec's offset and its rate, and the charge mean is the one that solve
    holds, mean(B_0 Phi).
    """
    n = g.n
    B = np.zeros((4, n))
    Bdot = np.zeros((4, n))
    phi = np.zeros(n)
    phidot = np.zeros(n)

    if spec.name == "pure-gauge-wave":
        # gradient of the gauge function c*t - (a/w) sin(w(x - t)): an exact
        # solution of the sourceless system with vanishing field strength
        x = g.x()
        w = spec.wavenumber * 2.0 * np.pi / g.length
        a = spec.amplitude * w
        B[1] = -a * np.cos(w * x)
        Bdot[1] = -a * w * np.sin(w * x)
    elif spec.name == "matter-packet":
        phi, B[1:] = _packet_fields(spec, g)
    # vacuum-offset keeps every field zero but B_0

    B[0] = solve_gauss_constraint(phi, Bdot[1:], p, g, offset=spec.offset)
    Bdot[0] = solve_gauss_rate(phi, phidot, B[0], B[1], p, g)
    return FullState(t=0.0, B=B, Bdot=Bdot, grid=g,
                     charge_mean=float(np.mean(B[0] * phi * phi)), phi=phi, phidot=phidot)
