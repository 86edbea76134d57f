"""Full-system reference integrator.

Evolves the coupled matter + vector-field system directly, as the oracle
the electromagnetic-only integrator is judged against.  All ten fields
(phi, phidot and the four rows of B and of Bdot) advance together through
one classical four-stage explicit scheme; with matter present, a solve
replaces the rows 0 of the step's result.

With matter, B_0 is projected onto the constraint surface once per step.
Stage 1 is the incoming state as it is; stages 2-4 keep the B_0 the
scheme integrates and solve only Bdot_0, from the algebraic rate balance,
so Bdot_0 is never integrated.  The result solves B_0 from the elliptic
slice equation pinned to the carried charge mean, then its rate: a
coordinate projection (Hairer, Lubich and Wanner, Geometric Numerical
Integration, IV.4) that removes the stages' truncation-sized drift and
keeps temporal order 4, as tests/test_reduced.py measures.  Each step
ends on its own pinned solve; the first starts from make_scenario's
projected one, about one ulp off it.

When the scalar field is identically zero the elliptic operator loses its
screening and the slice equations no longer determine the kernel modes of
B_0 and its rate.  That sector is free wave dynamics, and rows 0 keep what
the scheme forms: B_0's rate is Bdot_0 and Bdot_0's is D(Bdot_1), the
divergence-freezing closure, which accel_full puts in row 0 of the (4, n)
block of rates it returns.  Because every repeated x-derivative in the
scheme is the composed central stencil D(D .), the time derivative of the
discrete constraint vanishes identically along the free flow, so the
constraint is transported exactly and a solve would give back the field it
was handed; none is made.
"""

from __future__ import annotations

import numpy as np

from .kernel import (
    Array,
    Fields,
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


def accel_full(s: FullState | Fields, p: Params) -> tuple[Array, Array]:
    """(phi_ddot, B_ddot) at the given state, stage or block, B_ddot shaped
    like s.B: the four rows' rates.

    The time component and its rate are taken from the state as carried;
    no elliptic solve happens here.

        phi_ddot = laplacian(phi) + (e^2 B^mu B_mu - m^2) phi
        B_ddot_0 = D(Bdot_1)

    Row 0 is the divergence-freezing closure of the matter-free flow; with
    matter the step's solve replaces it.  Rows 1..3 are
    kernel.spatial_accel with Phi = phi^2.
    """
    g = s.grid
    phi_sq = s.phi * s.phi
    # (e^2 B^mu B_mu - m^2) phi, formed in place
    mass = lorentz_dot(s.B, s.B)
    mass *= p.e**2
    mass -= p.m**2
    mass *= s.phi
    phi_ddot = deriv_xx(s.phi, g)
    phi_ddot += mass

    # [D B_1, div B, Bdot_1], with div B = dB_0/dt - D B_1
    first = np.empty((3,) + s.B.shape[1:])
    first[0] = d_b1 = deriv_x(s.B[1], g)
    np.subtract(s.Bdot[0], d_b1, out=first[1])
    first[2] = s.Bdot[1]
    dd = deriv_x(first, g)
    b_ddot = np.empty_like(s.B)
    b_ddot[0] = dd[2]
    spatial_accel(s.B, dd[:2], phi_sq, p, g, out=b_ddot[1:])
    return phi_ddot, b_ddot


def step_full(s: FullState, dt: float, p: Params) -> FullState:
    """Advance one step of size dt (dt < 0 steps backward).

    All ten fields step through one rk4 call.  With matter, that is with
    phi nonzero anywhere in s (the screened solve is nonsingular in floats
    whenever phi^2 > 0 somewhere on both the even and the odd points), stages
    2-4 solve only Bdot_0, the result B_0 then Bdot_0; none divides by B_0.

    The stages are Fields; only the result is a state.  Every stage and the
    result carry s.charge_mean unchanged.  Stage 1 is s as given, so a
    hand-built s off the constraint surface (or with a charge mean its B_0
    and phi do not hold) feeds its own (B_0, Bdot_0) into the first stage;
    with matter, the solve that ends the step still puts the result on the
    surface pinned to s.charge_mean.
    """
    g, qbar = s.grid, s.charge_mean
    matter = bool(np.any(s.phi))

    def rhs(t, phi, phidot, B, Bdot):
        # rk4 passes s's own arrays to stage 1 and its own new arrays,
        # which the solve may write, to stages 2-4
        if matter and phi is not s.phi:
            Bdot[0] = solve_gauss_rate(phi, phidot, B[0], B[1], p, g)
        stage = Fields(t=t, grid=g, B=B, Bdot=Bdot, charge_mean=qbar,
                       phi=phi, phidot=phidot)
        phi_ddot, b_ddot = accel_full(stage, p)
        return phidot, phi_ddot, Bdot, b_ddot

    phi, phidot, B, Bdot = rk4(rhs, s.t, (s.phi, s.phidot, s.B, s.Bdot), dt)
    if matter:
        B[0] = solve_gauss_constraint(phi, Bdot[1:], p, g, charge_mean=qbar)
        Bdot[0] = solve_gauss_rate(phi, phidot, B[0], B[1], p, g)
    out = FullState(t=s.t + dt, B=B, Bdot=Bdot, grid=g, charge_mean=qbar,
                    phi=phi, phidot=phidot)
    out.require_finite()
    return out


def run_full(s0: FullState, dt: float, t_end: float, p: Params,
             every: int = 1) -> Trajectory:
    """Integrate to t_end, snapshotting every `every` steps (plus endpoints);
    see kernel.run_trajectory for the step comb and error reporting."""
    return run_trajectory(step_full, s0, dt, t_end, p, every)
