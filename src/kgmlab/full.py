"""Full-system reference integrator.

Evolves the coupled matter + vector-field system directly, as the oracle
the electromagnetic-only integrator is judged against.  The time-0 field
component is never integrated hyperbolically while matter is present:
(phi, phidot, B_i, Bdot_i) advance with a classical four-stage explicit
scheme whose stage right-hand sides re-solve B_0 from the elliptic slice
equation pinned to the conserved charge mean, and Bdot_0 from the
algebraic rate balance.  That keeps
the constraint satisfied to solver precision at every snapshot and makes
the stage map a genuine function of the integrated variables, so the
scheme retains its full temporal order.

When the scalar field is identically zero the elliptic operator loses its
screening and the slice equations no longer determine the kernel modes of
B_0 and its rate.  That sector is free wave dynamics: all ten fields
advance hyperbolically (divergence-freezing closure for B_0's
acceleration).  Because every repeated x-derivative in the scheme is the
composed central stencil D(D .), the time derivative of the discrete
constraint vanishes identically along the free flow, so the constraint is
transported exactly and the re-solve step degenerates to the identity; it
is therefore skipped.  The branch choice is made once per step from the
incoming state.
"""

from __future__ import annotations

import numpy as np

from .kernel import (
    Array,
    FullState,
    Params,
    Trajectory,
    deriv_x,
    deriv_xx,
    lorentz_dot,
    rk4,
    run_trajectory,
    spatial_accel,
)
from .scenarios import solve_gauss_constraint, solve_gauss_rate

__all__ = ["accel_full", "run_full", "step_full"]


def accel_full(s: FullState, p: Params) -> tuple[Array, Array]:
    """(phi_ddot, B_ddot spatial rows) at the given state.

    The time component and its rate are taken from the state as carried;
    no elliptic solve happens here.

        phi_ddot = laplacian(phi) + (e^2 B^mu B_mu - m^2) phi

    The spatial rows are kernel.spatial_accel with Phi = phi^2.
    """
    g = s.grid
    phi_sq = s.phi * s.phi
    bsq = lorentz_dot(s.B, s.B)
    phi_ddot = deriv_xx(s.phi, g) + (p.e**2 * bsq - p.m**2) * s.phi

    d_b1 = deriv_x(s.B[1], g)
    div_b = s.Bdot[0] - d_b1
    return phi_ddot, spatial_accel(s.B, div_b, d_b1, phi_sq, p, g)


# ---------------------------------------------------------------------------
# constrained stepping (matter present)
# ---------------------------------------------------------------------------


def _solved_state(
    t: float,
    phi: Array,
    phidot: Array,
    b_i: Array,
    bdot_i: Array,
    qbar: float,
    p: Params,
    g,
) -> FullState:
    """FullState with (B_0, Bdot_0) from the charge-pinned slice equations."""
    b0 = solve_gauss_constraint(phi, bdot_i, p, g, charge_mean=qbar)
    bdot0 = solve_gauss_rate(phi, phidot, b0, b_i[0], p, g)
    B = np.concatenate([b0[None, :], b_i])
    Bdot = np.concatenate([bdot0[None, :], bdot_i])
    return FullState(t=t, B=B, Bdot=Bdot, grid=g, charge_mean=qbar,
                     phi=phi, phidot=phidot)


def _step_matter(s: FullState, dt: float, p: Params) -> FullState:
    g = s.grid
    qbar = float(np.mean(s.B[0] * s.phi * s.phi))

    def rhs(t, phi, phidot, b_i, bdot_i):
        stage = _solved_state(t, phi, phidot, b_i, bdot_i, qbar, p, g)
        phi_ddot, b_ddot_i = accel_full(stage, p)
        return phidot, phi_ddot, bdot_i, b_ddot_i

    y = rk4(rhs, s.t, (s.phi, s.phidot, s.B[1:], s.Bdot[1:]), dt)
    return _solved_state(s.t + dt, *y, qbar, p, g)


# ---------------------------------------------------------------------------
# free stepping (matter below floor everywhere)
# ---------------------------------------------------------------------------


def _step_free(s: FullState, dt: float, p: Params) -> FullState:
    g = s.grid

    def rhs(t, phi, phidot, B, Bdot):
        stage = FullState(t=t, B=B, Bdot=Bdot, grid=g, charge_mean=s.charge_mean,
                          phi=phi, phidot=phidot)
        phi_ddot, b_ddot_i = accel_full(stage, p)
        b_ddot = np.concatenate([deriv_x(Bdot[1], g)[None, :], b_ddot_i])
        return phidot, phi_ddot, Bdot, b_ddot

    phi, phidot, B, Bdot = rk4(rhs, s.t, (s.phi, s.phidot, s.B, s.Bdot), dt)

    # No re-solve: with phi identically zero the stage derivatives satisfy
    # d/dt [D(D B_0) - D(Bdot_1)] = 0 term by term (the composed stencils
    # cancel), so the RK4 update transports the constraint exactly and the
    # solver would return the incoming field back.
    return FullState(t=s.t + dt, B=B, Bdot=Bdot, grid=g,
                     charge_mean=float(np.mean(B[0] * phi * phi)),
                     phi=phi, phidot=phidot)


# ---------------------------------------------------------------------------
# public stepping
# ---------------------------------------------------------------------------


def step_full(s: FullState, dt: float, p: Params) -> FullState:
    """Advance one step of size dt (dt < 0 steps backward).

    Any nonzero scalar field routes through the constrained branch (the
    screened solve is nonsingular in floats whenever phi^2 > 0 somewhere on
    both the even and the odd points); the hyperbolic branch is reserved
    for the exactly matter-free sector where the slice equations cannot
    see B_0's kernel modes.
    """
    if np.any(s.phi):
        out = _step_matter(s, dt, p)
    else:
        out = _step_free(s, dt, p)
    out.require_finite()
    if not p.soft_guards:
        out.check_b0_floor(p)
    return out


def run_full(s0: FullState, dt: float, t_end: float, p: Params,
             every: int = 1) -> Trajectory:
    """Integrate to t_end, snapshotting every `every` steps (plus endpoints);
    see kernel.run_trajectory for the step comb and error reporting."""
    return run_trajectory(step_full, s0, dt, t_end, p, every)
