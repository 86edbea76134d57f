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
systems, and the projected mode superposes two solutions of the same
system instead of bordering it with the charge defect as an unknown.

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
from scipy.linalg import solve_banded

from .kernel import (
    Array,
    FullState,
    Grid1D,
    GuardViolation,
    Params,
    SimulationError,
    deriv_x,
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

    offset is the additive constant c applied to B_0; it must be chosen so
    |B_0| clears 2*b0_floor everywhere on the assembled slice.
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
# periodic stencil solves


def _fourier_solve(rhs: Array, g: Grid1D) -> Array:
    """Solve D(D x) = rhs with zero mean for the unscreened case.

    The composed stencil kills the constant and the alternating (Nyquist)
    mode, so rhs must be (numerically) orthogonal to both or no periodic
    solution exists; the returned x has both components zeroed.
    """
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    n, h = g.n, g.h
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    bad_mean = abs(float(np.mean(rhs))) > 1e-12 * scale
    bad_nyquist = abs(float(np.mean(rhs * signs))) > 1e-12 * scale
    if bad_mean or bad_nyquist:
        raise SingularOperator(
            "screening intensity is identically zero and the right-hand side "
            "has content in the stencil kernel (constant or alternating "
            "mode); no periodic solution exists"
        )
    theta = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    symbol = -((np.sin(theta) / h) ** 2)
    rhat = np.fft.rfft(rhs)
    out = np.zeros_like(rhat)
    out[1:] = rhat[1:] / symbol[1:]
    out[-1] = 0.0  # Nyquist index: sin(pi) is 1e-16 in floats, not 0
    return np.fft.irfft(out, n=n)


def _screened_solve(phi_sq: Array, rhs: Array, p: Params, g: Grid1D, projected: bool) -> Array:
    """Solve K x = rhs, K = D(D .) - 2 e^2 Phi, or its mean-projected form.

    D(D .) couples j only to j +- 2 and the screening is diagonal, so the
    even and odd points form two periodic tridiagonal systems, a = 1/(4 h^2)
    off the diagonal.  They are the two blocks of one banded T that drops
    each block's wrap corners and takes a off its two end diagonal entries;
    per block K = T + a e e^T, e the indicator of the ends, which a
    Sherman-Morrison step adds back.  A block without screening is singular;
    with none at all, the spectral solve returns the zero-mean response.

    Projected mode returns the zero-mean b with P K b = P rhs (P removes
    the grid mean) by superposition: with K u = P rhs and K w = 1,
    b = u - (mean u / mean w) w.  K is conditioned like n^2; one refinement
    step, its residual taken through the composed stencil, keeps the
    verified residual near roundoff on fine grids.  The solve is accepted
    when |K x - rhs| <= 1e-14 (||K|| |x| + |rhs|) in the max norm, the
    residual mean-removed in projected mode.
    """
    if not np.any(phi_sq):
        return _fourier_solve(rhs, g)
    n, m = g.n, g.n // 2
    a = 0.25 / (g.h * g.h)
    screen = 2.0 * p.e**2 * phi_sq
    if not (np.any(screen[0::2]) and np.any(screen[1::2])):
        raise SingularOperator("screening intensity vanishes on every even or "
                               "every odd point; the screened operator is singular")
    order = np.r_[0:n:2, 1:n:2]  # even points, then odd
    first, last = [0, m], [m - 1, n - 1]
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = a
    ab[0, m] = ab[2, m - 1] = 0.0  # the two blocks do not couple
    ab[1] = -2.0 * a - screen[order]
    ab[1, first + last] -= a
    corners = np.zeros((n, 2))
    corners[first, [0, 1]] = corners[last, [0, 1]] = 1.0

    def inverse(r: Array) -> Array:
        # b ignores the mean of r; removing it first keeps u and w small
        # enough that their roundoff does not swamp the zero-mean answer
        cols = np.column_stack([r - r.mean(), np.ones(n)]) if projected else r[:, None]
        if n == 2:  # D vanishes identically: only the screening is left
            sol = -cols / screen[:, None]
        else:
            yz = solve_banded((1, 1), ab, np.column_stack([cols[order], corners]))
            y, z = yz[:, :-2], yz[:, -2:]
            ez = np.diag(z[first] + z[last])
            y -= z @ (a * (y[first] + y[last]) / (1.0 + a * ez)[:, None])
            sol = np.empty_like(y)
            sol[order] = y
        if projected:
            return sol[:, 0] - (sol[:, 0].mean() / sol[:, 1].mean()) * sol[:, 1]
        return sol[:, 0]

    def apply(x: Array) -> Array:
        return deriv_x(deriv_x(x, g), g) - screen * x

    # a block screened by next to nothing is singular in floats: its
    # Sherman-Morrison denominator rounds to zero
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = inverse(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularOperator("the screened operator is numerically singular: "
                               "the screening intensity is too weak for this grid")
    x += inverse(rhs - apply(x))

    # normwise backward error: forming K x alone costs about eps ||K|| ||x||,
    # and ||K||_inf = 1/h^2 (D(D .), absent at n = 2) + max(screen) grows
    # like n^2, so a gate scaled to rhs alone fails sound solves on fine grids
    resid = apply(x) - rhs
    if projected:
        resid -= resid.mean()
    k_norm = (0.0 if n == 2 else 1.0 / (g.h * g.h)) + float(np.max(screen))
    scale = max(k_norm * float(np.max(np.abs(x))) + float(np.max(np.abs(rhs))), 1e-300)
    backward = float(np.max(np.abs(resid))) / scale
    if not (np.all(np.isfinite(x)) and backward <= 1e-14):
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
        rhs = d_bdot1 + 2.0 * p.e**2 * phi_sq * offset
    elif offset != 0.0:
        raise ValueError("offset and charge_mean are mutually exclusive")
    else:
        rhs = d_bdot1 - 2.0 * p.e**2 * charge_mean
    return offset + _screened_solve(phi_sq, rhs, p, g, projected=charge_mean is None)


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

    Wherever Phi is below phi_floor, identically zero included, the slice
    data do not determine the rate (with no matter at all the constraint
    is exactly transported whatever Bdot_0 does).  Those points take
    Bdot_0 = D(B_1), which starts the divergence combination
    Bdot_0 - D(B_1) at zero.
    """
    phi = np.asarray(phi, dtype=float)
    phi_sq = phi * phi
    d_b1 = deriv_x(np.asarray(b1, dtype=float), g)
    phi_sq_dot = 2.0 * phi * np.asarray(phidot, dtype=float)
    numer = deriv_x(b1 * phi_sq, g) - np.asarray(b0, dtype=float) * phi_sq_dot
    low = phi_sq < p.phi_floor
    out = d_b1.copy()
    np.divide(numer, phi_sq, out=out, where=~low)
    return out


# ---------------------------------------------------------------------------
# scenario assembly


def _packet_fields(spec: ScenarioSpec, g: Grid1D) -> tuple[Array, Array]:
    """(phi, B_i rows) for the matter packet."""
    x = g.x()
    theta = 2.0 * np.pi * (x - 0.5 * g.length) / g.length
    # near the center the exponent is -(x - x0)^2 / width^2
    beta = 2.0 * (g.length / (2.0 * np.pi * spec.width)) ** 2
    bump = np.exp(beta * (np.cos(theta) - 1.0))
    phi = spec.amplitude * (PACKET_PEDESTAL + bump)

    k = spec.wavenumber * 2.0 * np.pi / g.length
    b_i = np.zeros((3, g.n))
    f1, f2, f3 = PACKET_B_FRACTIONS
    b_i[0] = spec.amplitude * f1 * np.sin(k * x)
    b_i[1] = spec.amplitude * f2 * np.cos(k * x)
    b_i[2] = spec.amplitude * f3 * np.sin(2.0 * k * x)
    return phi, b_i


def make_scenario(spec: ScenarioSpec, p: Params, g: Grid1D) -> FullState:
    """Assemble a constraint-consistent FullState at t = 0."""
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
    # The algebraic rate conserves the charge mean by construction, so the
    # emitted time derivative agrees pointwise with what stepping
    # recomputes internally; without matter it is D(B_1).
    Bdot[0] = solve_gauss_rate(phi, phidot, B[0], B[1], p, g)

    state = FullState(
        t=0.0,
        B=B,
        Bdot=Bdot,
        grid=g,
        charge_mean=float(np.mean(B[0] * phi * phi)),
        phi=phi,
        phidot=phidot,
    )
    mag = np.abs(state.B[0])
    j = int(np.argmin(mag))
    if mag[j] < 2.0 * p.b0_floor:
        raise GuardViolation(
            f"assembled B_0 magnitude {mag[j]:.3e} at grid index {j} is below "
            f"2*b0_floor = {2.0 * p.b0_floor:.3e}; raise the scenario offset"
        )
    return state
