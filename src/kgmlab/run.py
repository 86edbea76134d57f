"""Configured runs, below both the ``kgmlab`` command and the acceptance gate.

A RunConfig is read from flat ``key = value`` text.  ``integrate`` makes its
initial state and integrates one flavor; ``write_run_outputs`` writes raw
little-endian snapshots with JSON sidecars, a re-parseable echo of the
effective configuration, and per-snapshot diagnostics in ``extras.csv``.
``ladder_level`` runs both flavors of one configuration against each other.
``write_table`` writes every CSV table the package writes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .diagnostics import compare, conservation_defects, snapshot_extras
from .full import run_full
from .kernel import (
    FullState,
    Grid1D,
    Params,
    ReducedState,
    SimulationError,
    Trajectory,
    comb_dt,
)
from .reduced import accel_reduced, phi_identity_check, run_reduced
from .scenarios import ScenarioSpec, default_scenario, make_scenario, packet_exponent

__all__ = [
    "CONFIG_KEYS",
    "ConfigError",
    "FormatVersionMismatch",
    "LADDER_SIZES",
    "LEVEL_KEYS",
    "RunConfig",
    "SNAPSHOT_FORMAT",
    "TruncatedFile",
    "integrate",
    "ladder_level",
    "parse_pairs",
    "read_snapshot",
    "write_run_outputs",
    "write_snapshot",
    "write_table",
]

SNAPSHOT_FORMAT = "1"


class ConfigError(Exception):
    """Invalid configuration: unknown key, bad value, unknown scenario."""


class FormatVersionMismatch(SimulationError):
    """Snapshot sidecar declares a format this reader does not handle."""


class TruncatedFile(SimulationError):
    """Snapshot binary does not hold the bytes its sidecar promises."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
#
# One flat namespace of dotted keys.  CONFIG_KEYS is the one place a key is
# defined: it maps the key to the object that owns its field (a RunConfig
# attribute, or None for RunConfig itself), the field, and the type its
# value is cast to.  A command-line flag's dest is the key it overrides.
# config.txt echoes the keys in the table's order.  The defaults and range
# checks are those of the owning types.  time.dt = 0 means "derive the
# stable step comb" (kernel.comb_dt); any other value is taken literally.

CONFIG_KEYS: dict[str, tuple[str | None, str, type]] = {
    "grid.n": ("grid", "n", int),
    "grid.length": ("grid", "length", float),
    "params.e": ("params", "e", float),
    "params.m": ("params", "m", float),
    "time.dt": (None, "dt", float),
    "time.t_end": (None, "t_end", float),
    "scenario.name": ("scenario", "name", str),
    "scenario.amplitude": ("scenario", "amplitude", float),
    "scenario.width": ("scenario", "width", float),
    "scenario.wavenumber": ("scenario", "wavenumber", int),
    "scenario.offset": ("scenario", "offset", float),
    "output.every": (None, "every", int),
    "output.dir": (None, "out_dir", str),
}


def parse_pairs(text: str) -> dict[str, object]:
    """Key/value lines to a dict of typed values; full-line # comments and
    blanks skipped."""
    pairs: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            pairs[key] = CONFIG_KEYS[key][2](value.strip())
        except ValueError as err:
            raise ConfigError(f"{key}: {err}") from err
    return pairs


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration; immutable and value-comparable."""

    grid: Grid1D = Grid1D(n=256)
    params: Params = Params()
    scenario: ScenarioSpec = default_scenario("matter-packet")
    dt: float = 0.0
    t_end: float = 1.0
    every: int = 1
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ConfigError(f"output.every must be >= 1, got {self.every}")
        for key, value in (("time.dt", self.dt), ("time.t_end", self.t_end)):
            if not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value!r}")
        if (self.scenario.name == "matter-packet"
                and not math.isfinite(packet_exponent(self.scenario, self.grid))):
            raise ConfigError(f"scenario.width: must keep the packet exponent "
                              f"2 (length / (2 pi width))**2 finite at grid.length = "
                              f"{self.grid.length!r}, got {self.scenario.width!r}")

    @classmethod
    def from_pairs(cls, pairs: dict[str, object]) -> "RunConfig":
        """Config from typed key values.  Unset fields keep the defaults;
        explicit scenario.* keys land on that scenario's defaults."""
        fields: dict[str | None, dict[str, object]] = {
            None: {}, "grid": {}, "params": {}, "scenario": {}}
        for key, value in pairs.items():
            owner, name, _ = CONFIG_KEYS[key]
            fields[owner][name] = value
        parts = {}
        for owner in ("grid", "params", "scenario"):
            given = fields[owner]
            # the owners' messages start with the field name
            try:
                start = (default_scenario(given.get("name", cls.scenario.name))
                         if owner == "scenario" else getattr(cls, owner))
                parts[owner] = replace(start, **given)
            except ValueError as err:
                raise ConfigError(f"{owner}.{err}") from err
        return cls(**parts, **fields[None])

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        return cls.from_pairs(parse_pairs(text))

    def to_text(self) -> str:
        """Echo of the effective configuration; re-parses to an equal config.

        Floats are written with repr, which round-trips exactly; plain
        float() first so numpy scalars assigned programmatically echo in
        parseable form.
        """
        lines = ["# effective configuration"]
        for key, (owner, name, cast) in CONFIG_KEYS.items():
            value = cast(getattr(self if owner is None else getattr(self, owner), name))
            lines.append(f"{key} = {value!r}" if cast is float else f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def resolved_dt(self) -> float:
        """The literal time.dt, or the comb step when time.dt = 0."""
        return self.dt if self.dt != 0.0 else comb_dt(self.t_end, self.grid)


# ---------------------------------------------------------------------------
# snapshot persistence
# ---------------------------------------------------------------------------
#
# Binary layout, format "1": consecutive rows of little-endian float64 of
# grid length n, in the order B_0..B_3, Bdot_0..Bdot_3 and, for full states,
# phi, phidot.  All other data lives in a JSON sidecar at <path>.json.

_ROW_ORDER_REDUCED = 8
_ROW_ORDER_FULL = 10


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def write_snapshot(path: str | Path,
                   state: ReducedState,
                   scenario: ScenarioSpec | None = None) -> None:
    """Raw little-endian float64 rows + JSON sidecar; see the layout above.

    A state of a wider float dtype, such as np.longdouble, is rounded to
    float64 when written.
    """
    path = Path(path)
    rows = [*state.B, *state.Bdot]
    if isinstance(state, FullState):
        rows += [state.phi, state.phidot]
    meta = {
        "format": SNAPSHOT_FORMAT,
        "kind": "full" if isinstance(state, FullState) else "reduced",
        "rows": len(rows),
        "n": state.grid.n,
        "length": state.grid.length,
        "t": state.t,
        "charge_mean": state.charge_mean,
        "scenario": None if scenario is None else asdict(scenario),
    }
    blob = b"".join(np.ascontiguousarray(r, dtype="<f8").tobytes() for r in rows)
    path.write_bytes(blob)
    _sidecar(path).write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")


def _meta_field(meta: dict, key: str, cast: Callable[[object], object]):
    if key not in meta:
        raise FormatVersionMismatch(f"snapshot sidecar lacks the field {key!r}")
    try:
        return cast(meta[key])
    except (TypeError, ValueError, OverflowError) as err:
        raise FormatVersionMismatch(f"snapshot sidecar field {key!r}: {err}") from err


# JSON true and false load as bool, a subclass of int, which both casts refuse
def _integer(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"must be a JSON integer, got {value!r}")
    return value


def _number(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a JSON number, got {value!r}")
    return float(value)


def _finite(value: object) -> float:
    x = _number(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x!r}")
    return x


def read_snapshot(path: str | Path) -> tuple[ReducedState, dict]:
    """Inverse of write_snapshot; bit-exact on the field arrays."""
    path = Path(path)
    meta = json.loads(_sidecar(path).read_text())
    if not isinstance(meta, dict):
        raise FormatVersionMismatch(
            f"snapshot sidecar holds a JSON {type(meta).__name__}, not an object "
            "with a 'format' field")
    version = meta.get("format")
    if version != SNAPSHOT_FORMAT:
        raise FormatVersionMismatch(
            f"snapshot format {version!r} is not supported; this reader handles "
            f"format {SNAPSHOT_FORMAT!r}")
    n = _meta_field(meta, "n", _integer)
    rows = _meta_field(meta, "rows", _integer)
    kind = _meta_field(meta, "kind", lambda v: v)
    if kind not in ("full", "reduced"):
        raise FormatVersionMismatch(
            f"snapshot kind {kind!r} is not supported; this reader handles "
            "'full' and 'reduced'")
    expected_rows = _ROW_ORDER_FULL if kind == "full" else _ROW_ORDER_REDUCED
    if rows != expected_rows:
        raise FormatVersionMismatch(
            f"{kind} snapshot promises {rows} rows, expected {expected_rows}")
    length = _meta_field(meta, "length", _number)
    try:
        g = Grid1D(n=n, length=length)
    except ValueError as err:
        # Grid1D's messages start with the field name
        key, _, reason = str(err).partition(": ")
        raise FormatVersionMismatch(f"snapshot sidecar field {key!r}: {reason}") from err

    blob = path.read_bytes()
    expected = rows * n * 8
    if len(blob) != expected:
        raise TruncatedFile(
            f"snapshot binary holds {len(blob)} bytes but the sidecar promises "
            f"{expected} (rows={rows}, n={n})")
    data = np.frombuffer(blob, dtype="<f8").astype(np.float64).reshape(rows, n)

    common = dict(t=_meta_field(meta, "t", _finite), B=data[0:4].copy(),
                  Bdot=data[4:8].copy(), grid=g,
                  charge_mean=_meta_field(meta, "charge_mean", _finite))
    if kind == "full":
        state: ReducedState = FullState(phi=data[8].copy(), phidot=data[9].copy(),
                                        **common)
    else:
        state = ReducedState(**common)
    return state, meta


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def integrate(cfg: RunConfig, flavor: str) -> Trajectory:
    """Make cfg's initial state and integrate the "full" or "reduced"
    system from it to cfg.t_end, snapshotting every cfg.every steps; the
    integrator itself admits or refuses the start state."""
    integrator = {"full": run_full, "reduced": run_reduced}[flavor]
    s0 = make_scenario(cfg.scenario, cfg.params, cfg.grid)
    return integrator(s0, cfg.resolved_dt(), cfg.t_end, cfg.params, every=cfg.every)


def write_table(path: str | Path, header: Iterable[str],
                rows: Iterable[Iterable[object]]) -> str:
    """Write a CSV table to path and return its text.

    A float cell is written as the repr of a Python float, which reads back
    exactly; any other cell as the csv module writes it.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    Path(path).write_text(buf.getvalue(), newline="")
    return buf.getvalue()


def write_run_outputs(cfg: RunConfig, traj: Trajectory) -> None:
    """config.txt, one snapshot per state and extras.csv, whose columns are
    the keys of snapshot_extras (one call per block of traj.blocks()),
    under cfg.out_dir."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(cfg.to_text())
    for k, state in enumerate(traj.states):
        write_snapshot(out_dir / f"snap_{k:05d}.bin", state, scenario=cfg.scenario)
    blocks = [snapshot_extras(f, cfg.params) for _, f in traj.blocks()]
    extras = {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}
    write_table(out_dir / "extras.csv", list(extras), zip(*extras.values()))


# the grid sizes of the acceptance gate's ladder and of `kgmlab convergence`
LADDER_SIZES = (128, 256, 512)

# ladder_level keys: convergence.csv's column names after n
LEVEL_KEYS = ("h", "equivalence", "energy_drift_full", "energy_drift_reduced",
              "current_residual_full", "current_residual_reduced", "identity_residual")


def ladder_level(cfg: RunConfig) -> dict[str, float]:
    """Run both flavors of cfg; return their distance, per flavor the relative
    energy drift and peak charge-balance residual, and the peak residual of the
    intensity identity over the reduced snapshots, keyed by LEVEL_KEYS."""
    traj_full = integrate(cfg, "full")
    traj_red = integrate(cfg, "reduced")
    out = {"h": cfg.grid.h, "equivalence": compare(traj_full, traj_red).max_rel_linf}
    for tag, traj in (("full", traj_full), ("reduced", traj_red)):
        out[f"energy_drift_{tag}"], out[f"current_residual_{tag}"] = conservation_defects(
            traj, cfg.params)
    # free the full run before the identity pass, which reads only the reduced one
    del traj_full
    # the identity over stacked blocks of snapshots, one pass per block
    identity = 0.0
    for _, f in traj_red.blocks():
        resid = phi_identity_check(f, accel_reduced(f, cfg.params), cfg.params)
        identity = max(identity, float(np.max(resid)))
    out["identity_residual"] = identity
    return out
