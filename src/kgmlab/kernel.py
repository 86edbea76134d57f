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

A state is validated when it is built (shapes, dtypes, phi present for the
full flavor).  Fields carries the same attribute names without any check:
an RK4 stage inside a step, or a block of snapshots stacked by
Trajectory.blocks.  Every rate and reconstruction reads those names, so it
takes a state, a stage or a block alike; total_energy and snapshot_extras
measure one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Iterator, NamedTuple

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
        # each message starts with the field name, as in Params; the
        # stencils and the screened solve divide by h * h
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n: must be a power of two >= 2, got {self.n}")
        h = float(self.h)
        if not (self.length > 0.0 and _invertible(h * h)):
            raise ValueError(f"length: must be positive, with h * h and 1 / (h * h) finite "
                             f"and nonzero for h = length / n, got {self.length}")

    @property
    def h(self) -> float:
        return self.length / self.n

    def x(self) -> Array:
        return np.arange(self.n) * self.h


@dataclass(frozen=True)
class Params:
    """Model couplings: the charge e and the scalar mass m."""

    e: float = 1.0
    m: float = 1.0

    def __post_init__(self) -> None:
        # each message starts with the field name, for a config error to name;
        # the rates form e**2 and m**2 and divide by e**2
        checks = (("e", _invertible(square(self.e)), "e**2 and 1 / e**2 finite and nonzero"),
                  ("m", math.isfinite(square(self.m)), "m**2 finite"))
        for name, ok, need in checks:
            if not ok:
                raise ValueError(f"{name}: must have {need}, got {getattr(self, name)!r}")


def square(x: float) -> float:
    """float(x)**2 as the rates form e**2 and m**2, inf where it overflows."""
    try:
        return float(x) ** 2
    except OverflowError:
        return math.inf


def _invertible(sq: float) -> bool:
    """Whether a square is finite and nonzero with a finite reciprocal."""
    return sq != 0.0 and math.isfinite(sq) and math.isfinite(1.0 / sq)


# the reconstruction chain divides by B_0; below this anywhere a run stops
B0_FLOOR = 1.0e-6


# ---------------------------------------------------------------------------
# stencils

# Both stencils are the classical second-order centered ones.  They are kept
# as free functions (not grid methods) because every hot loop in the package
# calls them and the call sites read better unqualified.
#
# They act along the last axis, so one call differentiates every row of an
# (m, n) stack: the integrators batch the rows that are ready together and
# pay each call's fixed overhead once per stack.  Any view works as input,
# a row slice such as B[:2] or a transposed stack alike.
#
# They are written as slice stencils: the interior is one whole-slice
# operation and the two periodic wrap points, [..., 0] and [..., -1], are
# each one ufunc call into their place, so no shifted copy of the input and
# no temporary is ever allocated.  Each output point is formed in the same
# IEEE operation order as the periodic-shift definition,
# (f[j+1] - f[j-1]) * fl(1/(2h)) and ((f[j+1] - 2 f[j]) + f[j-1]) * fl(1/(h*h)),
# so the results are bit-identical to it, row by row, including at n = 2 and
# n = 4 where the two stencil legs land on the same points.
#
# The scale is a multiplication by a reciprocal formed once per call, not a
# division: a full-row division costs about three multiplications, and
# x * fl(1/c) is within about 2u of x / c.  On a unit vector the weights are
# exactly fl(1/(2h)), fl(1/(h*h)) and -2 fl(1/(h*h)), which is what the
# Carleman lift reads off the stencils.
#
# A floating input keeps its dtype (np.longdouble in, np.longdouble out);
# any other input is cast to float64 first.


def _floating(f: Array) -> Array:
    f = np.asarray(f)
    return f if f.dtype.kind == "f" else f.astype(float)


def deriv_x(f: Array, g: Grid1D) -> Array:
    """Centered first derivative on the periodic grid, along the last axis.

    Second-order accurate; antisymmetric, so each output row always sums
    to zero over the grid.  Exact for constants everywhere and for linear
    functions away from the periodic wrap.  Each point is
    (f[j+1] - f[j-1]) * fl(1/(2h)).
    """
    f = _floating(f)
    out = np.empty_like(f)
    np.subtract(f[..., 2:], f[..., :-2], out=out[..., 1:-1])
    np.subtract(f[..., 1], f[..., -1], out=out[..., 0])
    np.subtract(f[..., 0], f[..., -2], out=out[..., -1])
    out *= 1.0 / (2.0 * g.h)
    return out


def deriv_xx(f: Array, g: Grid1D) -> Array:
    """Centered second derivative (compact 3-point stencil), periodic, along
    the last axis.  Each point is ((f[j+1] - 2 f[j]) + f[j-1]) * fl(1/(h*h)).
    """
    f = _floating(f)
    out = np.multiply(f, 2.0)
    # f[j+1] - 2 f[j]; the last point still holds 2 f[-1] for its wrap
    np.subtract(f[..., 1:], out[..., :-1], out=out[..., :-1])
    np.subtract(f[..., 0], out[..., -1], out=out[..., -1])
    # ... + f[j-1]
    out[..., 1:] += f[..., :-1]
    np.add(out[..., 0], f[..., -1], out=out[..., 0])
    out *= 1.0 / (g.h * g.h)
    return out


def lorentz_dot(u: Array, v: Array) -> Array:
    """Invariant contraction of two sets of covariant 4-component fields.

    Inputs are stacked covariant components of shape (4, n); the result is
    u^mu v_mu = u_0 v_0 - u_1 v_1 - u_2 v_2 - u_3 v_3 pointwise, each
    spatial product formed in one scratch row.
    """
    out = u[0] * v[0]
    w = np.multiply(u[1], v[1])
    out -= w
    out -= np.multiply(u[2], v[2], out=w)
    out -= np.multiply(u[3], v[3], out=w)
    return out


def spatial_accel(B: Array, dd: Array, Phi: Array, p: Params, g: Grid1D,
                  out: Array) -> Array:
    """Spatial rows (3, n) of box(B_i) - d_i(div B) = -2 e^2 B_i Phi, the
    vector-field equation both integrators share:

        B_ddot_1   = D(D B_1) + D(div B) - 2 e^2 B_1 Phi
        B_ddot_2,3 = laplacian(B_2,3) - 2 e^2 B_2,3 Phi

    The caller passes dd, the (2, n) stack [D(D B_1), D(div B)] from one
    deriv_x call on [D B_1, div B] with div B = dB_0/dt - D B_1, and the
    intensity Phi = phi^2, carried (full) or reconstructed (reduced).

    The rows are written into out, a (3, n) array such as rows 1..3 of the
    caller's (4, n) block, and out is returned.

    B_1's second derivative is the composed stencil D(D .), not the compact
    laplacian: the same composition appears inside D(div B), in the
    constraint solve and in the intensity reconstruction, and one discrete
    operator for all of them is what makes the time-differentiated
    constraint close exactly (a mismatch feeds a grid-scale source into the
    B_0 sector).  The transverse rows have no such pairing partner and keep
    the compact stencil.
    """
    np.add(dd[0], dd[1], out=out[0])
    out[1:] = deriv_xx(B[2:], g)
    screen = np.multiply(2.0 * p.e**2, B[1:])
    screen *= Phi
    out -= screen
    return out


# ---------------------------------------------------------------------------
# states


def guard_b0_floor(b0: Array, t: float | Array, floor: float = B0_FLOOR) -> None:
    """Raise GuardViolation unless |B_0| clears floor at every point.

    b0 is one row (n,) at time t, or rows (K, n) of K members at times t of
    shape (K,).  The message names the first failing member's time and its
    grid index of least |B_0|, the same words for a member as for one state.
    """
    mag = np.abs(b0)
    low = np.minimum.reduce(mag, axis=-1) < floor
    if low.ndim:
        k = int(np.argmax(low))  # the first failing member, or else 0
        mag, t, low = mag[k], t[k], low[k]
    if low:
        j = int(np.argmin(mag))
        raise GuardViolation(
            f"|B_0| = {mag[j]:.3e} < floor {floor:.3e} "
            f"at grid index {j}, t={t:.6g}"
        )


class Fields(NamedTuple):
    """A state's attribute names, unchecked: an RK4 stage, or a block of K
    snapshots with B and Bdot (4, K, n), phi and phidot (K, n), t (K,) and
    charge_mean (K, 1).  phi and phidot are None for the reduced flavor."""

    t: float | Array
    grid: Grid1D
    B: Array
    Bdot: Array
    charge_mean: float | Array
    phi: Array | None = None
    phidot: Array | None = None


def _as_field_block(name: str, arr: Array, n: int) -> None:
    if arr.shape != (4, n):
        raise ValueError(f"{name} must have shape (4, {n}), got {arr.shape}")


@dataclass
class ReducedState:
    """Potential-only state: covariant B_mu and their first time derivatives.

    B and Bdot are arrays of shape (4, n); row 0 is the time component.
    They are cast to their common floating dtype (integers to float64) when
    the state is built, and every stage and rate of a step follows it.

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
    # no matter field; a FullState's fields of the same names replace these
    phi: ClassVar[None] = None
    phidot: ClassVar[None] = None

    def __post_init__(self) -> None:
        B, Bdot = _floating(self.B), _floating(self.Bdot)
        dtype = np.promote_types(B.dtype, Bdot.dtype)
        self.B, self.Bdot = B.astype(dtype, copy=False), Bdot.astype(dtype, copy=False)
        _as_field_block("B", self.B, self.grid.n)
        _as_field_block("Bdot", self.Bdot, self.grid.n)

    def copy(self) -> "ReducedState":
        return replace(self, **{name: arr.copy() for name, arr in self.field_arrays()})

    def field_arrays(self) -> Iterator[tuple[str, Array]]:
        yield "B", self.B
        yield "Bdot", self.Bdot

    def require_finite(self) -> None:
        for name, arr in self.field_arrays():
            if not np.all(np.isfinite(arr)):
                raise NonFinite(f"non-finite values in {name} at t={self.t:.6g}")

    def to_reduced(self) -> ReducedState:
        """A reduced copy: a FullState forgets its scalar field, which the
        reduced system must recover.

        The charge mean is carried as it is: the intensity reconstruction
        sees the source only through spatial stencils, which drop its grid
        mean, so this one number is all the reduced state keeps of it.
        """
        return ReducedState(t=self.t, B=self.B.copy(), Bdot=self.Bdot.copy(),
                            grid=self.grid, charge_mean=self.charge_mean)


@dataclass
class FullState(ReducedState):
    """Reduced state plus the explicit scalar field and its time derivative.

    Every field is float64 (integers are cast), the precision of the B_0
    solve; a field of another floating dtype raises ValueError naming it.
    """

    phi: Array = field(default=None)  # type: ignore[assignment]
    phidot: Array = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.phi is None or self.phidot is None:
            raise ValueError("FullState requires phi and phidot")
        for name, arr in self.field_arrays():
            arr = _floating(arr)
            if arr.dtype != np.float64:
                raise ValueError(f"a FullState is float64; got {name} of dtype {arr.dtype}")
            setattr(self, name, arr)
        super().__post_init__()
        for name, arr in (("phi", self.phi), ("phidot", self.phidot)):
            if arr.shape != (self.grid.n,):
                raise ValueError(f"{name} must have shape ({self.grid.n},), got {arr.shape}")

    def field_arrays(self) -> Iterator[tuple[str, Array]]:
        yield from super().field_arrays()
        yield "phi", self.phi
        yield "phidot", self.phidot


# Trajectory diagnostics stack this many grid points of snapshots per block,
# max(1, BLOCK_POINTS // n) members, and make one numpy pass per block.
# Measured over the acceptance ladder's diagnostics (energy and charge
# balance of both flavors, compare and the intensity identity at n = 128,
# 256 and 512; best of 9 in one process on a shared 2-core x86 VM): one
# snapshot at a time took 156-161 ms, blocks of 2048 points 70-79 ms, of
# 8192 points 59-61 ms and of 16384 points 55-59 ms, and whole-trajectory
# stacks 88-89 ms.  At 8192 a block's arrays stay near 2 MB at every n.
BLOCK_POINTS = 8192


@dataclass
class Trajectory:
    """Snapshots emitted by a run, all of one flavor on one grid."""

    states: tuple[ReducedState, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("a trajectory needs at least one snapshot")
        for k, s in enumerate(self.states):
            if (type(s), s.grid) != (type(self.states[0]), self.grid):
                raise ValueError(f"snapshot {k} is a {type(s).__name__} on {s.grid}, "
                                 f"unlike snapshot 0")

    @property
    def grid(self) -> Grid1D:
        return self.states[0].grid

    @property
    def times(self) -> Array:
        return np.array([s.t for s in self.states])

    def __len__(self) -> int:
        return len(self.states)

    def blocks(self, *names: str) -> Iterator[tuple[slice, Fields]]:
        """The snapshots in order, in stacked blocks of max(1, BLOCK_POINTS
        // n) members.

        Yields (members, fields): the block's slice of states, and a Fields
        of t, charge_mean and each array of field_arrays that names lists
        (all of them when it lists none), stacked along a member axis after
        the row axis; an array that names leaves out is None.
        """
        width = max(1, BLOCK_POINTS // self.grid.n)
        for k0 in range(0, len(self.states), width):
            block = self.states[k0:k0 + width]
            stacked = {name: np.stack([getattr(s, name) for s in block], axis=arr.ndim - 1)
                       if name in names or not names else None
                       for name, arr in block[0].field_arrays()}
            yield slice(k0, k0 + len(block)), Fields(
                t=np.array([s.t for s in block]), grid=self.grid,
                charge_mean=np.array([[s.charge_mean] for s in block]), **stacked)


# ---------------------------------------------------------------------------
# time stepping


def _axpy(a: Array, h: float, k: Array) -> Array:
    """a + h*k in a new array; neither input is written."""
    out = np.multiply(h, k)
    return np.add(a, out, out=out)


def rk4(rhs: Callable, t: float, y: tuple[Array, ...], dt: float) -> tuple[Array, ...]:
    """One classical four-stage Runge-Kutta step of the arrays in y.

    rhs(t, *y) returns the rates of y as a tuple of the same length.  Every
    integrator in the package steps through here, so they all share one
    operation order: stages a + 0.5*dt*k, update a + (dt/6)*(k1+2k2+2k3+k4).
    The first call gets the arrays of y themselves, so rhs can tell stage 1
    by identity.

    Each stage and the update are formed in place in arrays allocated here.
    The arrays of stages 2-4 are new at every call and belong to rhs, which
    may write them before it returns (the full step solves Bdot_0 there).
    A rate may be an array that rhs was given (the B rate of the reduced
    flow is its Bdot, so k1 is the caller's state), so rk4 never writes y
    or a returned rate.
    """
    half = 0.5 * dt
    k1 = rhs(t, *y)
    k2 = rhs(t + half, *[_axpy(a, half, k) for a, k in zip(y, k1)])
    k3 = rhs(t + half, *[_axpy(a, half, k) for a, k in zip(y, k2)])
    k4 = rhs(t + dt, *[_axpy(a, dt, k) for a, k in zip(y, k3)])
    out = []
    for a, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4):
        acc = _axpy(p1, 2.0, p2)
        np.add(acc, np.multiply(2.0, p3), out=acc)
        np.add(acc, p4, out=acc)
        out.append(np.add(a, np.multiply(dt / 6.0, acc, out=acc), out=acc))
    return tuple(out)


# the step comb's ceiling, as a fraction of the grid spacing h
COMB_FRACTION = 0.5


def step_count(count: float, t_end: float) -> float:
    """count, the number of steps (or pieces) a run to t_end takes, once it
    is known to be at most 2**53 in size; a ValueError naming t_end when it
    is larger or not finite.

    2**53 is the largest count at which a float still holds every integer,
    so a step count and the times s0.t + k*dt built from it stay exact; a
    larger one would also run without bound.
    """
    if not abs(count) <= 2.0**53:
        raise ValueError(f"t_end={t_end!r} takes more than 2**53 steps")
    return count


def comb_dt(t_end: float, g: Grid1D) -> float:
    """The stable step comb: the largest dt <= COMB_FRACTION * h that lands
    exactly on t_end (COMB_FRACTION * h itself when t_end = 0)."""
    if t_end == 0.0:
        return COMB_FRACTION * g.h
    return t_end / math.ceil(step_count(abs(t_end) / (COMB_FRACTION * g.h), t_end))


def run_trajectory(step: Callable, s0: ReducedState, dt: float, t_end: float,
                   p: Params, every: int) -> Trajectory:
    """Integrate with step(s, dt, p) to t_end, snapshotting every `every`
    steps (plus endpoints).

    Snapshot times are s0.t + k*dt with exact integer step counts; s0.t
    must be finite, t_end must be finite and sit on the step comb to within
    1e-9 at a step count of at most 2**53, and dt must be finite and
    nonzero.  A SimulationError from a step
    is re-raised as the same type, naming the time it was stepping to.
    """
    if every < 1:
        raise ValueError("every must be >= 1")
    if not math.isfinite(dt) or dt == 0.0:
        raise ValueError(f"dt must be finite and nonzero, got {dt!r}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if not math.isfinite(s0.t):
        raise ValueError(f"start time t must be finite, got {s0.t!r}")
    span = t_end - s0.t
    n_steps = int(round(step_count(span / dt, t_end)))
    if n_steps < 0 or abs(s0.t + n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"t_end={t_end!r} is not reachable from t={s0.t!r} in steps of {dt!r}")

    states = [s0.copy()]
    s = s0
    for k in range(1, n_steps + 1):
        try:
            s = step(s, dt, p)
        except SimulationError as err:
            raise type(err)(f"step to t={s.t + dt:g} failed: {err}") from err
        if k % every == 0 or k == n_steps:
            states.append(s)
    return Trajectory(states=tuple(states))
