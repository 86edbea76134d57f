"""Conventions, grid, stencils, and state containers shared by all modules.

Fixed conventions, used without exception throughout the package:

* metric signature (+, -, -, -), natural units;
* fields depend on (t, x) only, but all four covariant components
  B_0..B_3 of the potential are carried;
* raising an index leaves the time component alone and flips the sign
  of spatial components, so B^0 = B_0 and B^i = -B_i;
* the wave operator is d_tt - d_xx and the divergence of the potential
  is dB_0/dt - dB_1/dx.

States hold covariant components and their first time derivatives on a
uniform periodic grid.  Second time derivatives are never state: they are
recomputed from the field equations wherever needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

Array = np.ndarray


class SimulationError(Exception):
    """Base class for physics-level failures (exit code 1 territory)."""


class GuardViolation(SimulationError):
    """A floor guard tripped: a division the scheme relies on lost its footing."""


class NonFinite(SimulationError):
    """A NaN or infinity appeared in evolved data."""


# ---------------------------------------------------------------------------
# grid and parameters


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [0, length).

    n must be a power of two, at least 2.  Production runs use n >= 16;
    the tiny sizes exist only for the polynomial embedding, whose state
    dimension grows combinatorially with n.
    """

    n: int
    length: float = 2.0 * np.pi

    def __post_init__(self) -> None:
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 2, got {self.n}")
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError(f"grid length must be positive and finite, got {self.length}")

    @property
    def h(self) -> float:
        return self.length / self.n

    def x(self) -> Array:
        return np.arange(self.n) * self.h

    def zeros(self) -> Array:
        return np.zeros(self.n)


@dataclass(frozen=True)
class Params:
    """Model couplings and the two floor guards.

    b0_floor guards divisions by B_0 in the reconstruction chain; phi_floor
    guards divisions by the scalar intensity in the closure.  soft_guards
    lets a run continue past both: |B_0| is clamped at b0_floor (sign kept)
    where the reconstruction divides by it, the reduced closure skips its
    DegenerateClosure raise, and both integrators skip the post-step B_0
    floor check.  Nothing counts these trips.
    """

    e: float = 1.0
    m: float = 1.0
    b0_floor: float = 1.0e-6
    phi_floor: float = 1.0e-3
    soft_guards: bool = False

    def __post_init__(self) -> None:
        if self.e == 0.0:
            raise ValueError("coupling e must be nonzero")
        if self.b0_floor <= 0.0 or self.phi_floor <= 0.0:
            raise ValueError("floor guards must be positive")


# ---------------------------------------------------------------------------
# stencils

# Both stencils are the classical second-order centered ones.  They are kept
# as free functions (not grid methods) because every hot loop in the package
# calls them and the call sites read better unqualified.
#
# They are written as slice stencils: the interior is one whole-slice
# operation and the two periodic wrap points are filled separately, so no
# shifted copy of the input is ever allocated.  Each output point is
# formed in the same IEEE operation order as the periodic-shift definition,
# (f[j+1] - f[j-1]) / (2h) and ((f[j+1] - 2 f[j]) + f[j-1]) / (h*h), so the
# results are bit-identical to it, including at n = 2 and n = 4 where the
# two stencil legs land on the same points.


def deriv_x(f: Array, g: Grid1D) -> Array:
    """Centered first derivative on the periodic grid.

    Second-order accurate; antisymmetric, so its output always sums to
    zero over the grid.  Exact for constants everywhere and for linear
    functions away from the periodic wrap.
    """
    f = np.asarray(f, dtype=float)
    out = np.empty_like(f)
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[0] = f[1] - f[-1]
    out[-1] = f[0] - f[-2]
    out /= 2.0 * g.h
    return out


def deriv_xx(f: Array, g: Grid1D) -> Array:
    """Centered second derivative (compact 3-point stencil), periodic."""
    f = np.asarray(f, dtype=float)
    out = np.multiply(f, 2.0)
    # f[j+1] - 2 f[j]; the last point still holds 2 f[-1] for its wrap
    np.subtract(f[1:], out[:-1], out=out[:-1])
    out[-1] = f[0] - out[-1]
    # ... + f[j-1]
    out[1:] += f[:-1]
    out[0] += f[-1]
    out /= g.h * g.h
    return out


def lorentz_dot(u: Array, v: Array) -> Array:
    """Invariant contraction of two sets of covariant 4-component fields.

    Inputs are stacked covariant components of shape (4, n); the result is
    u^mu v_mu = u_0 v_0 - u_1 v_1 - u_2 v_2 - u_3 v_3 pointwise.
    """
    return u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3]


# ---------------------------------------------------------------------------
# states


def _as_field_block(name: str, arr: Array, n: int) -> None:
    if arr.shape != (4, n):
        raise ValueError(f"{name} must have shape (4, {n}), got {arr.shape}")


@dataclass
class ReducedState:
    """Potential-only state: covariant B_mu and their first time derivatives.

    B and Bdot are arrays of shape (4, n); row 0 is the time component.

    charge_mean is the grid mean of B_0*Phi, the total charge density
    divided by the domain volume.  On a periodic domain the zero mode of
    the time-component equation is not captured by spatial stencils (every
    periodic derivative averages to zero), so this one scalar must ride
    along with the fields.  It is a constant of the motion: the mean of a
    spatial flux divergence vanishes identically.
    """

    t: float
    B: Array
    Bdot: Array
    grid: Grid1D
    charge_mean: float = 0.0

    def __post_init__(self) -> None:
        self.B = np.asarray(self.B, dtype=float)
        self.Bdot = np.asarray(self.Bdot, dtype=float)
        _as_field_block("B", self.B, self.grid.n)
        _as_field_block("Bdot", self.Bdot, self.grid.n)

    def copy(self) -> "ReducedState":
        return replace(self, B=self.B.copy(), Bdot=self.Bdot.copy())

    def field_arrays(self) -> Iterator[tuple[str, Array]]:
        yield "B", self.B
        yield "Bdot", self.Bdot

    def require_finite(self) -> None:
        for name, arr in self.field_arrays():
            if not np.all(np.isfinite(arr)):
                raise NonFinite(f"non-finite values in {name} at t={self.t:.6g}")

    def check_b0_floor(self, p: Params) -> None:
        """Raise unless |B_0| clears the floor everywhere.

        The reconstruction chain divides by B_0, so states that graze zero
        are outside the regime the scheme is built for.
        """
        mag = np.abs(self.B[0])
        j = int(np.argmin(mag))
        if mag[j] < p.b0_floor:
            raise GuardViolation(
                f"|B_0| = {mag[j]:.3e} < b0_floor = {p.b0_floor:.3e} "
                f"at grid index {j}, t={self.t:.6g}"
            )


@dataclass
class FullState(ReducedState):
    """Reduced state plus the explicit scalar field and its time derivative."""

    phi: Array = field(default=None)  # type: ignore[assignment]
    phidot: Array = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.phi is None or self.phidot is None:
            raise ValueError("FullState requires phi and phidot")
        self.phi = np.asarray(self.phi, dtype=float)
        self.phidot = np.asarray(self.phidot, dtype=float)
        for name, arr in (("phi", self.phi), ("phidot", self.phidot)):
            if arr.shape != (self.grid.n,):
                raise ValueError(f"{name} must have shape ({self.grid.n},), got {arr.shape}")

    def copy(self) -> "FullState":
        return replace(
            self,
            B=self.B.copy(),
            Bdot=self.Bdot.copy(),
            phi=self.phi.copy(),
            phidot=self.phidot.copy(),
        )

    def field_arrays(self) -> Iterator[tuple[str, Array]]:
        yield from super().field_arrays()
        yield "phi", self.phi
        yield "phidot", self.phidot

    def to_reduced(self) -> ReducedState:
        """Forget the scalar field; the reduced system must recover it.

        The charge mean is recomputed from the fields being dropped, since
        the intensity reconstruction can only ever see the zero-mean part
        of the source through spatial stencils.
        """
        return ReducedState(
            t=self.t,
            B=self.B.copy(),
            Bdot=self.Bdot.copy(),
            grid=self.grid,
            charge_mean=float(np.mean(self.B[0] * self.phi * self.phi)),
        )


@dataclass
class Trajectory:
    """Snapshots emitted by a run, plus per-snapshot diagnostics dictionaries."""

    states: list
    extras: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("a trajectory needs at least one snapshot")
        if self.extras and len(self.extras) != len(self.states):
            raise ValueError("extras must be empty or match states one to one")
        if not self.extras:
            self.extras = [{} for _ in self.states]

    @property
    def grid(self) -> Grid1D:
        return self.states[0].grid

    @property
    def times(self) -> Array:
        return np.array([s.t for s in self.states])

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)


# ---------------------------------------------------------------------------
# time stepping


def rk4(rhs: Callable, t: float, y: tuple[Array, ...], dt: float) -> tuple[Array, ...]:
    """One classical four-stage Runge-Kutta step of the arrays in y.

    rhs(t, *y) returns the rates of y as a tuple of the same length.  Every
    integrator in the package steps through here, so they all share one
    operation order: stages a + 0.5*dt*k, update a + (dt/6)*(k1+2k2+2k3+k4).
    """
    k1 = rhs(t, *y)
    k2 = rhs(t + 0.5 * dt, *(a + 0.5 * dt * k for a, k in zip(y, k1)))
    k3 = rhs(t + 0.5 * dt, *(a + 0.5 * dt * k for a, k in zip(y, k2)))
    k4 = rhs(t + dt, *(a + dt * k for a, k in zip(y, k3)))
    return tuple(
        a + (dt / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
        for a, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)
    )


def run_trajectory(step: Callable, extras: Callable, s0: ReducedState,
                   dt: float, t_end: float, p: Params, every: int) -> Trajectory:
    """Integrate with step(s, dt, p) to t_end, snapshotting every `every`
    steps (plus endpoints), each with its extras(s, p) dictionary.

    Snapshot times are s0.t + k*dt with exact integer step counts; t_end
    must sit on the step comb to within 1e-9.  A SimulationError from a
    step is re-raised as the same type, naming the time it was stepping to.
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
    snap_extras = [extras(states[0], p)]
    s = s0
    for k in range(1, n_steps + 1):
        try:
            s = step(s, dt, p)
        except SimulationError as err:
            raise type(err)(f"step to t={s.t + dt:g} failed: {err}") from err
        if k % every == 0 or k == n_steps:
            states.append(s)
            snap_extras.append(extras(s, p))
    return Trajectory(states=tuple(states), extras=tuple(snap_extras))
