"""Self-contained electromagnetic integrator.

The matter field never appears as an evolved variable here.  Its intensity
Phi = phi^2 is reconstructed pointwise from the time-0 component of the
vector-field wave equation, which contains no second time derivative of B_0
and can therefore be solved for Phi algebraically wherever |B_0| is bounded
away from zero.  Charge conservation then yields Phi's time derivative, the
spatial wave equations yield the spatial accelerations, the matter wave
equation (rewritten in Phi) yields Phi's second derivative, and finally the
time derivative of the charge-conservation identity closes the system by
determining the acceleration of B_0.  Each elimination step is a separate
function so each can be tested against the full-system oracle on its own.

Where the reconstructed intensity vanishes the closure degenerates: every
term of the differentiated conservation identity carries Phi or one of its
derivatives, so B_0's acceleration is not determined there.  Those points
fall back to divergence-freezing (d/dt of the field divergence set to zero,
the source-free propagation of the gauge slice), and the affected fraction
is reported per snapshot.  A fallback point whose dropped closure term is
large compared to the kept one signals data that left the solution manifold;
that raises DegenerateClosure rather than silently integrating nonsense.

On a periodic grid the reconstruction needs one extra scalar: the grid mean
of B_0*Phi is invisible to the stencil derivatives (every stencil output has
zero mean) but is a conserved quantity of the flow.  ReducedState carries it
as ``charge_mean``; reconstruction adds it back.  See kernel.ReducedState.

Every function here takes a state, an RK4 stage or a stacked block of
snapshots (kernel.Fields) alike.  Each operation is elementwise or a stencil
along the last axis, so a block member's rows are bit-identical to its own
one-state call.
"""

from __future__ import annotations

import numpy as np

from .kernel import (
    B0_FLOOR,
    Array,
    Fields,
    Params,
    ReducedState,
    SimulationError,
    Trajectory,
    deriv_x,
    deriv_xx,
    guard_b0_floor,
    lorentz_dot,
    rk4,
    run_trajectory,
    spatial_accel,
)

__all__ = [
    "DegenerateClosure",
    "PHI_FLOOR",
    "accel_reduced",
    "below_phi_floor",
    "phi_identity_check",
    "reconstruct_phi",
    "reconstruct_phi_dot",
    "run_reduced",
    "step_reduced",
]


class DegenerateClosure(SimulationError):
    """The acceleration of B_0 is undetermined on part of the grid."""


PHI_FLOOR = 1.0e-3


def below_phi_floor(Phi: Array) -> Array:
    """Mask of |Phi| < PHI_FLOOR: there the closure and the energy drop their
    quotients by Phi, and the polynomial lift refuses the state."""
    return np.abs(Phi) < PHI_FLOOR


# ---------------------------------------------------------------------------
# reconstruction chain
# ---------------------------------------------------------------------------


def reconstruct_phi(s: ReducedState | Fields, p: Params) -> Array:
    """Matter intensity from the time-0 wave equation.

    That component reads (in this module's sign conventions)

        d2/dx2(B_0) - d/dx(dB_1/dt) = 2 e^2 B_0 phi^2 - 2 e^2 qbar,

    where qbar is the conserved grid mean of B_0*phi^2 (the uniform
    neutralizing background that a periodic domain forces on the charge
    density).  Solving for phi^2 is pointwise division by B_0.

    The repeated x-derivative here is the composed central difference
    D(D(.)), not the compact three-point stencil.  The closure feeds this
    expression back into the evolution, and stability of the constraint-
    violation branch requires the operator identity d2/dx2 = D o D to hold
    exactly at the discrete level: with a compact stencil the mismatch
    4 sin^4(theta/2)/h^2 turns that branch into a grid-scale beam mode
    (frequency ~ 1/h^2) that no explicit step at dt ~ h can resolve.  The
    composed form keeps every branch inside the wave cone.
    """
    g = s.grid
    guard_b0_floor(s.B[0], s.t)
    return _phi(s, p, deriv_x(deriv_x(s.B[0], g), g), deriv_x(s.Bdot[1], g))


def _phi(s: ReducedState | Fields, p: Params, dd_b0: Array, d_bd1: Array) -> Array:
    """reconstruct_phi past the B_0 floor scan, given D(D B_0) and
    D(dB_1/dt)."""
    Phi = dd_b0 - d_bd1
    Phi /= 2.0 * p.e**2
    Phi += s.charge_mean
    Phi /= s.B[0]
    return Phi


def reconstruct_phi_dot(s: ReducedState | Fields, Phi: Array) -> Array:
    """Time derivative of the intensity from charge conservation.

    The conserved current is B^mu * Phi; vanishing divergence isolates the
    Phi-dot term, whose coefficient is B_0:

        Phidot = (B_1 * dPhi/dx - (dB_0/dt - dB_1/dx) * Phi) / B_0

    The two spatial terms are kept separate (no product-rule regrouping):
    this is the form whose coefficient structure the closure differentiates,
    and diagnostics measure the Leibniz defect of exactly this choice.
    """
    g = s.grid
    guard_b0_floor(s.B[0], s.t)
    return _phi_dot(s, Phi, s.Bdot[0] - deriv_x(s.B[1], g), deriv_x(Phi, g))


def _phi_dot(s: ReducedState | Fields, Phi: Array, div_b: Array, dPhi: Array) -> Array:
    """reconstruct_phi_dot past the B_0 floor scan, given div B and D(Phi)."""
    Phidot = s.B[1] * dPhi
    Phidot -= div_b * Phi
    Phidot /= s.B[0]
    return Phidot


def accel_reduced(s: ReducedState | Fields, p: Params) -> Array:
    """Second time derivatives of all four field components, shaped like
    s.B.

    Elimination order: Phi, then Phidot, then the three spatial
    accelerations (kernel.spatial_accel with the reconstructed Phi), then
    Phiddot, and last the B_0 acceleration from the differentiated
    conservation identity.

    The stencils run by dependency level, each call taking every row that
    is ready: D of [B_0, B_1] and of dB_1/dt, then D of [D B_0, D B_1,
    div B], then D Phi, D Phidot and the Laplacians.  The spatial rows
    write straight into their rows of the result; products go through one
    scratch row, in the operation order of the formulas below.

    The two quotients by Phi take numpy's masked divide only when some
    point of some member is below PHI_FLOOR; otherwise a plain divide gives
    the same bits.  The divergence-freezing fallback is judged per member,
    and DegenerateClosure names the first failing member's t.
    """
    e2 = p.e**2
    g, B, t = s.grid, s.B, s.t
    b0, b1 = B[0], B[1]
    bd0, bd1 = s.Bdot[0], s.Bdot[1]

    guard_b0_floor(b0, t)
    # first = [D B_0, D B_1, div B], second = D of each row
    first = np.empty((3,) + B.shape[1:], dtype=B.dtype)
    first[:2] = deriv_x(B[:2], g)
    div_b = np.subtract(bd0, first[1], out=first[2])
    d_bd1 = deriv_x(bd1, g)
    second = deriv_x(first, g)

    Phi = _phi(s, p, second[0], d_bd1)
    dPhi = deriv_x(Phi, g)
    Phidot = _phi_dot(s, Phi, div_b, dPhi)
    dPhidot = deriv_x(Phidot, g)

    acc = np.empty_like(B)
    spatial_accel(B, second[1:], Phi, p, g, out=acc[1:])

    # Matter wave equation in Phi.  The quotient term is bounded on the
    # solution manifold (numerator is O(Phi) near zeros of Phi), so below
    # the floor it is replaced by its limiting value 0.
    low = below_phi_floor(Phi)
    any_low = bool(low.any())
    w = np.multiply(dPhi, dPhi)
    quot = np.multiply(Phidot, Phidot)
    quot -= w
    np.multiply(2.0, Phi, out=w)
    if any_low:
        quot = np.divide(quot, w, out=np.zeros_like(Phi), where=~low)
    else:
        quot /= w
    # 2 (e^2 B^mu B_mu - m^2) Phi
    mass = lorentz_dot(B, B)
    mass *= e2
    mass -= p.m**2
    mass *= 2.0
    mass *= Phi
    Phiddot = deriv_xx(Phi, g)
    Phiddot += quot
    Phiddot += mass

    # Closure: d/dt of [div(B) Phi + B^mu d_mu Phi] = 0, solved for the
    # B_0 acceleration.  Grouping the remaining terms as `bracket`,
    #   b_ddot_0 = d/dx(dB_1/dt) - bracket / Phi,
    # with the quotient left at 0 wherever Phi is below the floor:
    #   bracket = div_b Phidot + bd0 Phidot - bd1 dPhi + b0 Phiddot - b1 dPhidot
    bracket = div_b * Phidot
    bracket += np.multiply(bd0, Phidot, out=w)
    bracket -= np.multiply(bd1, dPhi, out=w)
    bracket += np.multiply(b0, Phiddot, out=w)
    bracket -= np.multiply(b1, dPhidot, out=w)
    if any_low:
        closure = np.divide(bracket, Phi, out=np.zeros_like(Phi), where=~low)
    else:
        closure = np.divide(bracket, Phi, out=w)
    np.subtract(d_bd1, closure, out=acc[0])

    if any_low:
        # Divergence-freezing fallback is only admissible where the dropped
        # term is small next to the kept one; otherwise the data is outside
        # the regime the closure can represent.  Each member is judged on
        # its own rows.
        dropped = np.abs(np.where(low, bracket, 0.0))
        worst = np.max(dropped, axis=-1)
        scale = PHI_FLOOR * (1.0 + np.max(np.abs(d_bd1), axis=-1))
        over = worst > scale
        if over.any():
            if over.ndim:
                k = int(np.argmax(over))
                dropped, worst, scale, t = dropped[k], worst[k], scale[k], t[k]
            j = int(np.argmax(dropped))
            raise DegenerateClosure(
                f"B_0 acceleration undetermined at index {j} (t={t:g}): "
                f"closure term {worst:.3e} exceeds fallback scale {scale:.3e}"
            )
    return acc


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def step_reduced(s: ReducedState, dt: float, p: Params) -> ReducedState:
    """Advance one step of size dt (dt < 0 steps backward).

    Pure explicit integration: no elliptic solve is performed, which is the
    point of the reduced formulation.  The conserved charge mean rides along
    unchanged.  The stages are Fields; only the result is a state.
    """

    def rhs(t: float, B: Array, Bdot: Array) -> tuple[Array, Array]:
        stage = Fields(t=t, grid=s.grid, B=B, Bdot=Bdot, charge_mean=s.charge_mean)
        return Bdot, accel_reduced(stage, p)

    B, Bdot = rk4(rhs, s.t, (s.B, s.Bdot), dt)
    out = ReducedState(t=s.t + dt, B=B, Bdot=Bdot, grid=s.grid,
                       charge_mean=s.charge_mean)
    out.require_finite()
    guard_b0_floor(out.B[0], out.t)
    return out


def run_reduced(s0: ReducedState, dt: float, t_end: float, p: Params,
                every: int = 1) -> Trajectory:
    """Integrate to t_end, snapshotting every `every` steps (plus endpoints);
    see kernel.run_trajectory for the step comb and error reporting.  The
    run starts from s0.to_reduced(), so a FullState's snapshots are reduced
    too.  Each step divides by B_0: a start state with |B_0| < 2*B0_FLOOR
    anywhere raises GuardViolation before the first step, for every caller."""
    guard_b0_floor(s0.B[0], s0.t, 2.0 * B0_FLOOR)
    return run_trajectory(step_reduced, s0.to_reduced(), dt, t_end, p, every)


# ---------------------------------------------------------------------------
# independent identity check
# ---------------------------------------------------------------------------


def phi_identity_check(s: ReducedState | Fields, B_ddot: Array, p: Params) -> Array:
    """Pointwise disagreement between two independent intensity formulas,
    given the accelerations B_ddot, shaped like s.B.

    Contracting the full vector wave equation with B^mu gives
    Phi = -B^mu (box B_mu - grad_mu div B) / (2 e^2 B^nu B_nu), valid
    wherever the Lorentz square B^nu B_nu is away from zero.  This evaluator
    assembles that contraction from the supplied accelerations and compares
    with the divergence-based reconstruction.  The two discretize the
    repeated x-derivative differently (a compact second-difference here, a
    composed first-difference inside the accelerations), so on a solution
    the result is a genuine O(h^2) measurement, not an algebraic zero.

    Points where B^nu B_nu is exactly 0 are masked to 0 and excluded from
    any meaningful reading; callers needing the mask can reform it from the
    state.  The background charge mean enters exactly as in reconstruction.
    """
    e2 = p.e**2
    g, B = s.grid, s.B
    b0, b1, b2, b3 = B

    guard_b0_floor(b0, s.t)
    # Time component: the acceleration cancels against the differentiated
    # divergence, leaving a constraint expression with no second derivative.
    d_bdot = deriv_x(s.Bdot[:2], g)
    w0 = d_bdot[1] - deriv_xx(b0, g)
    # Spatial x-component: the compact Laplacian absorbs the repeated
    # x-derivative of the divergence gradient.
    w1 = B_ddot[1] - d_bdot[0]
    lap = deriv_xx(B[2:], g)
    w2 = B_ddot[2] - lap[0]
    w3 = B_ddot[3] - lap[1]

    contracted = b0 * w0 - b1 * w1 - b2 * w2 - b3 * w3
    bsq = lorentz_dot(B, B)
    low = bsq == 0.0

    phi_from_eom = np.zeros_like(bsq)
    np.divide(-contracted / (2.0 * e2) + b0 * s.charge_mean, bsq,
              out=phi_from_eom, where=~low)

    resid = np.abs(phi_from_eom - _phi(s, p, deriv_x(deriv_x(b0, g), g), d_bdot[1]))
    resid[low] = 0.0
    return resid
