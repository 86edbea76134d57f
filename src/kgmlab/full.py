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

from .diagnostics import snapshot_extras
from .kernel import (
    Array,
    FullState,
    Params,
    SimulationError,
    Trajectory,
    deriv_x,
    deriv_xx,
    lorentz_dot,
)
from .scenarios import solve_gauss_constraint, solve_gauss_rate

__all__ = ["accel_full", "run_full", "step_full"]


def accel_full(s: FullState, p: Params) -> tuple[Array, Array]:
    """(phi_ddot, B_ddot spatial rows) at the given state.

    The time component and its rate are taken from the state as carried;
    no elliptic solve happens here.

        phi_ddot  = laplacian(phi) + (e^2 B^mu B_mu - m^2) phi
        B_ddot_1  = D(D B_1) + D(div B) - 2 e^2 B_1 phi^2
        B_ddot_2,3 = laplacian(B_2,3) - 2 e^2 B_2,3 phi^2

    with div B = dB_0/dt - D B_1 formed as a field and then differentiated.
    B_1's second derivative is the composed central stencil D(D .), not the
    compact laplacian: the same composition appears inside D(div B) and in
    the constraint solve, and using one discrete operator for all three is
    what makes the time-differentiated constraint close exactly (the
    mismatch would otherwise feed a grid-scale source into the B_0 sector).
    The transverse rows have no such pairing partner and keep the compact
    stencil.
    """
    g = s.grid
    e2 = p.e**2
    phi_sq = s.phi * s.phi
    bsq = lorentz_dot(s.B, s.B)

    phi_ddot = deriv_xx(s.phi, g) + (e2 * bsq - p.m**2) * s.phi

    d_b1 = deriv_x(s.B[1], g)
    div_b = s.Bdot[0] - d_b1
    b_ddot_i = np.empty((3, g.n))
    b_ddot_i[0] = (
        deriv_x(d_b1, g)
        + deriv_x(div_b, g)
        - 2.0 * e2 * s.B[1] * phi_sq
    )
    b_ddot_i[1] = deriv_xx(s.B[2], g) - 2.0 * e2 * s.B[2] * phi_sq
    b_ddot_i[2] = deriv_xx(s.B[3], g) - 2.0 * e2 * s.B[3] * phi_sq
    return phi_ddot, b_ddot_i


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

    y = (s.phi, s.phidot, s.B[1:], s.Bdot[1:])
    k1 = rhs(s.t, *y)
    k2 = rhs(s.t + 0.5 * dt, *(a + 0.5 * dt * b for a, b in zip(y, k1)))
    k3 = rhs(s.t + 0.5 * dt, *(a + 0.5 * dt * b for a, b in zip(y, k2)))
    k4 = rhs(s.t + dt, *(a + dt * b for a, b in zip(y, k3)))

    phi, phidot, b_i, bdot_i = (
        a + (dt / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
        for a, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)
    )
    return _solved_state(s.t + dt, phi, phidot, b_i, bdot_i, qbar, p, g)


# ---------------------------------------------------------------------------
# free stepping (matter below floor everywhere)
# ---------------------------------------------------------------------------


def _step_free(s: FullState, dt: float, p: Params) -> FullState:
    g = s.grid

    def rhs(state: FullState):
        phi_ddot, b_ddot_i = accel_full(state, p)
        b_ddot = np.concatenate([deriv_x(state.Bdot[1], g)[None, :], b_ddot_i])
        return state.phidot, phi_ddot, state.Bdot, b_ddot

    def shifted(t, coef, k):
        return FullState(
            t=t,
            B=s.B + coef * k[2],
            Bdot=s.Bdot + coef * k[3],
            grid=g,
            charge_mean=s.charge_mean,
            phi=s.phi + coef * k[0],
            phidot=s.phidot + coef * k[1],
        )

    k1 = rhs(s)
    k2 = rhs(shifted(s.t + 0.5 * dt, 0.5 * dt, k1))
    k3 = rhs(shifted(s.t + 0.5 * dt, 0.5 * dt, k2))
    k4 = rhs(shifted(s.t + dt, dt, k3))

    phi = s.phi + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    phidot = s.phidot + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    B = s.B + (dt / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    Bdot = s.Bdot + (dt / 6.0) * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])

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
    screened solves stay nonsingular whenever phi^2 > 0 somewhere); the
    hyperbolic branch is reserved for the exactly matter-free sector where
    the slice equations cannot see B_0's kernel modes.
    """
    if np.any(s.phi):
        out = _step_matter(s, dt, p)
    else:
        out = _step_free(s, dt, p)
    out.require_finite()
    if not p.soft_guards:
        out.check_b0_floor(p)
    return out


def run_full(
    s0: FullState,
    dt: float,
    t_end: float,
    p: Params,
    every: int = 1,
) -> Trajectory:
    """Integrate to t_end, snapshotting every `every` steps (plus endpoints).

    Snapshot times are s0.t + k*dt with exact integer step counts; t_end
    must sit on the step comb to within 1e-9.
    """
    if every < 1:
        raise ValueError("every must be >= 1")
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    span = t_end - s0.t
    n_steps = int(round(span / dt))
    if n_steps < 0 or abs(s0.t + n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"t_end={t_end!r} is not reachable from t={s0.t!r} in steps of {dt!r}")

    states = [s0.copy()]
    extras = [snapshot_extras(states[0], p)]
    s = s0
    for k in range(1, n_steps + 1):
        try:
            s = step_full(s, dt, p)
        except SimulationError as err:
            raise type(err)(f"step to t={s.t + dt:g} failed: {err}") from err
        if k % every == 0 or k == n_steps:
            states.append(s)
            extras.append(snapshot_extras(s, p))
    return Trajectory(states=tuple(states), extras=tuple(extras))
