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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import (
    Array,
    Params,
    ReducedState,
    SimulationError,
    Trajectory,
    deriv_x,
    deriv_xx,
    lorentz_dot,
    rk4,
    run_trajectory,
)

__all__ = [
    "DegenerateClosure",
    "ReconstructionBundle",
    "accel_reduced",
    "phi_identity_check",
    "reconstruct_phi",
    "reconstruct_phi_dot",
    "run_reduced",
    "step_reduced",
]


class DegenerateClosure(SimulationError):
    """The acceleration of B_0 is undetermined on part of the grid."""


# ---------------------------------------------------------------------------
# reconstruction chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconstructionBundle:
    """Matter intensity and its first two time derivatives, reconstructed
    from electromagnetic data alone."""

    Phi: Array
    Phidot: Array
    Phiddot: Array


def _guarded_b0(s: ReducedState, p: Params) -> Array:
    """B_0 as a safe denominator.

    Hard guards abort via check_b0_floor; soft guards clamp the magnitude at
    the floor, preserving sign (sign(0) would zero the denominator, so exact
    zeros clamp to +b0_floor).
    """
    b0 = s.B[0]
    if np.min(np.abs(b0)) >= p.b0_floor:
        return b0
    if not p.soft_guards:
        s.check_b0_floor(p)  # raises with location and time
    sign = np.where(b0 < 0.0, -1.0, 1.0)
    return sign * np.maximum(np.abs(b0), p.b0_floor)


def reconstruct_phi(s: ReducedState, p: Params) -> Array:
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
    b0 = _guarded_b0(s, p)
    return _phi(s, p, b0, deriv_x(s.Bdot[1], s.grid))


def _phi(s: ReducedState, p: Params, b0: Array, d_bd1: Array) -> Array:
    """reconstruct_phi given the guarded B_0 and D(dB_1/dt)."""
    g = s.grid
    gauss = deriv_x(deriv_x(s.B[0], g), g) - d_bd1
    return (gauss / (2.0 * p.e**2) + s.charge_mean) / b0


def reconstruct_phi_dot(s: ReducedState, Phi: Array, p: Params) -> Array:
    """Time derivative of the intensity from charge conservation.

    The conserved current is B^mu * Phi; vanishing divergence isolates the
    Phi-dot term, whose coefficient is B_0:

        Phidot = (B_1 * dPhi/dx - (dB_0/dt - dB_1/dx) * Phi) / B_0

    The two spatial terms are kept separate (no product-rule regrouping):
    this is the form whose coefficient structure the closure differentiates,
    and diagnostics measure the Leibniz defect of exactly this choice.
    """
    g = s.grid
    b0 = _guarded_b0(s, p)
    div_b = s.Bdot[0] - deriv_x(s.B[1], g)
    return _phi_dot(s, Phi, b0, div_b, deriv_x(Phi, g))


def _phi_dot(s: ReducedState, Phi: Array, b0: Array, div_b: Array,
             dPhi: Array) -> Array:
    """reconstruct_phi_dot given the guarded B_0, div B and D(Phi)."""
    return (s.B[1] * dPhi - div_b * Phi) / b0


def accel_reduced(s: ReducedState, p: Params) -> tuple[Array, ReconstructionBundle]:
    """Second time derivatives of all four field components.

    Elimination order: Phi, then Phidot, then the three spatial
    accelerations, then Phiddot, and last the B_0 acceleration from the
    differentiated conservation identity.  Returns the (4, n) acceleration
    block and the reconstruction bundle used to produce it.

    The derivatives those steps share (D B_1, D dB_1/dt, D Phi) and the
    guarded B_0 are formed once per call.
    """
    g = s.grid
    e2 = p.e**2
    b0, b1, b2, b3 = s.B
    bd0, bd1, bd2, bd3 = s.Bdot

    b0_safe = _guarded_b0(s, p)
    d_b1 = deriv_x(b1, g)
    d_bd1 = deriv_x(bd1, g)
    div_b = bd0 - d_b1

    Phi = _phi(s, p, b0_safe, d_bd1)
    dPhi = deriv_x(Phi, g)
    Phidot = _phi_dot(s, Phi, b0_safe, div_b, dPhi)
    dPhidot = deriv_x(Phidot, g)

    # Spatial components: box(B_i) - d/dx_i(div B) = -2 e^2 B_i Phi.  The
    # mixed term is the x-derivative of the divergence field.  B_1's own
    # second derivative is the composed D(D(.)) so that it cancels the
    # matching piece inside the mixed term at the stencil level (same
    # operator-pairing requirement as in reconstruct_phi); the transverse
    # components have no mixed term and use the compact stencil.
    d_div = deriv_x(div_b, g)
    bsq = lorentz_dot(s.B, s.B)
    b_ddot_1 = deriv_x(d_b1, g) + d_div - 2.0 * e2 * b1 * Phi
    b_ddot_2 = deriv_xx(b2, g) - 2.0 * e2 * b2 * Phi
    b_ddot_3 = deriv_xx(b3, g) - 2.0 * e2 * b3 * Phi

    # Matter wave equation in Phi.  The quotient term is bounded on the
    # solution manifold (numerator is O(Phi) near zeros of Phi), so below
    # the floor it is replaced by its limiting value 0.
    low = np.abs(Phi) < p.phi_floor
    quot = np.zeros_like(Phi)
    np.divide(Phidot**2 - dPhi**2, 2.0 * Phi, out=quot, where=~low)
    Phiddot = deriv_xx(Phi, g) + quot + 2.0 * (e2 * bsq - p.m**2) * Phi

    # Closure: d/dt of [div(B) Phi + B^mu d_mu Phi] = 0, solved for the
    # B_0 acceleration.  Grouping the remaining terms as `bracket`,
    #   b_ddot_0 = d/dx(dB_1/dt) - bracket / Phi.
    bracket = (
        div_b * Phidot
        + bd0 * Phidot
        - bd1 * dPhi
        + b0 * Phiddot
        - b1 * dPhidot
    )
    b_ddot_0 = np.empty_like(Phi)
    np.divide(bracket, Phi, out=b_ddot_0, where=~low)
    b_ddot_0 = d_bd1 - np.where(low, 0.0, b_ddot_0)

    if np.any(low):
        # Divergence-freezing fallback is only admissible where the dropped
        # term is small next to the kept one; otherwise the data is outside
        # the regime the closure can represent.
        scale = p.phi_floor * (1.0 + float(np.max(np.abs(d_bd1))))
        worst = float(np.max(np.abs(bracket[low])))
        if worst > scale and not p.soft_guards:
            j = int(np.argmax(np.abs(np.where(low, bracket, 0.0))))
            raise DegenerateClosure(
                f"B_0 acceleration undetermined at index {j} (t={s.t:g}): "
                f"closure term {worst:.3e} exceeds fallback scale {scale:.3e}"
            )

    b_ddot = np.stack([b_ddot_0, b_ddot_1, b_ddot_2, b_ddot_3])
    return b_ddot, ReconstructionBundle(Phi=Phi, Phidot=Phidot, Phiddot=Phiddot)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def step_reduced(s: ReducedState, dt: float, p: Params) -> ReducedState:
    """Advance one step of size dt (dt < 0 steps backward).

    Pure explicit integration: no elliptic solve is performed, which is the
    point of the reduced formulation.  The conserved charge mean rides along
    unchanged.
    """

    def rhs(t: float, B: Array, Bdot: Array) -> tuple[Array, Array]:
        stage = ReducedState(t=t, B=B, Bdot=Bdot, grid=s.grid,
                             charge_mean=s.charge_mean)
        acc, _ = accel_reduced(stage, p)
        return Bdot, acc

    B, Bdot = rk4(rhs, s.t, (s.B, s.Bdot), dt)
    out = ReducedState(t=s.t + dt, B=B, Bdot=Bdot, grid=s.grid,
                       charge_mean=s.charge_mean)
    out.require_finite()
    if not p.soft_guards:
        out.check_b0_floor(p)
    return out


def run_reduced(s0: ReducedState, dt: float, t_end: float, p: Params,
                every: int = 1) -> Trajectory:
    """Integrate to t_end, snapshotting every `every` steps (plus endpoints);
    see kernel.run_trajectory for the step comb and error reporting."""
    from .diagnostics import snapshot_extras  # deferred: diagnostics imports this module

    return run_trajectory(step_reduced, snapshot_extras, s0, dt, t_end, p, every)


# ---------------------------------------------------------------------------
# independent identity check
# ---------------------------------------------------------------------------


def phi_identity_check(s: ReducedState, B_ddot: Array, p: Params) -> Array:
    """Pointwise disagreement between two independent intensity formulas.

    Contracting the full vector wave equation with B^mu gives
    Phi = -B^mu (box B_mu - grad_mu div B) / (2 e^2 B^nu B_nu), valid
    wherever the Lorentz square B^nu B_nu is away from zero.  This evaluator
    assembles that contraction from the supplied accelerations and compares
    with the divergence-based reconstruction.  The two discretize the
    repeated x-derivative differently (a compact second-difference here, a
    composed first-difference inside the accelerations), so on a solution
    the result is a genuine O(h^2) measurement, not an algebraic zero.

    Points where |B^nu B_nu| < phi_floor are masked to 0 and excluded from
    any meaningful reading; callers needing the mask can reform it from the
    state.  The background charge mean enters exactly as in reconstruction.
    """
    g = s.grid
    e2 = p.e**2
    b0, b1, b2, b3 = s.B

    # Time component: the acceleration cancels against the differentiated
    # divergence, leaving a constraint expression with no second derivative.
    w0 = deriv_x(s.Bdot[1], g) - deriv_xx(b0, g)
    # Spatial x-component: the compact Laplacian absorbs the repeated
    # x-derivative of the divergence gradient.
    w1 = B_ddot[1] - deriv_x(s.Bdot[0], g)
    w2 = B_ddot[2] - deriv_xx(b2, g)
    w3 = B_ddot[3] - deriv_xx(b3, g)

    contracted = b0 * w0 - b1 * w1 - b2 * w2 - b3 * w3
    bsq = lorentz_dot(s.B, s.B)
    low = np.abs(bsq) < p.phi_floor

    phi_from_eom = np.zeros_like(bsq)
    np.divide(-contracted / (2.0 * e2) + b0 * s.charge_mean, bsq,
              out=phi_from_eom, where=~low)

    resid = np.abs(phi_from_eom - reconstruct_phi(s, p))
    resid[low] = 0.0
    return resid
