"""Batch experiment driver.

Everything a run needs arrives through one flat plain-text configuration
(dotted keys, ``key = value`` lines) plus command-line overrides; everything
a run produces lands in an output directory as raw little-endian snapshots
with JSON sidecars, a re-parseable echo of the effective configuration, and
CSV diagnostics.  No plotting here: the reports are plain tables that any
downstream tool can consume.

Exit codes: 0 on success, 1 when a run trips a guard or a comparison
exceeds its tolerance, 2 on configuration errors (unknown keys, unknown
scenario names, malformed flags).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .carleman import (
    classical_flow,
    fock_readout,
    lotka_system,
    readout_errors,
    reciprocal_drift,
    riccati_system,
    rotation_system,
    tiny_reduced_embedding,
)
from .diagnostics import compare, conservation_defects, observed_order, snapshot_extras
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
from .reduced import run_reduced
from .scenarios import SCENARIO_NAMES, ScenarioSpec, default_scenario, make_scenario

Array = np.ndarray

__all__ = [
    "ConfigError",
    "FormatVersionMismatch",
    "RunConfig",
    "TruncatedFile",
    "ladder_level",
    "main",
    "read_snapshot",
    "write_snapshot",
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
# One flat namespace of dotted keys.  _CONFIG_KEYS is the one place a key is
# defined: it maps the key to the object that owns its field (a RunConfig
# attribute, or None for RunConfig itself), the field, and the type its
# value is cast to.  A command-line flag's dest is the key it overrides.
# config.txt echoes the keys in the table's order.  The defaults and range
# checks are those of the owning types.  time.dt = 0 means "derive the
# stable step comb" (kernel.comb_dt); any other value is taken literally,
# with a warning when it exceeds 0.5 h.

_CONFIG_KEYS: dict[str, tuple[str | None, str, type]] = {
    "grid.n": ("grid", "n", int),
    "grid.length": ("grid", "length", float),
    "params.e": ("params", "e", float),
    "params.m": ("params", "m", float),
    "params.b0_floor": ("params", "b0_floor", float),
    "params.phi_floor": ("params", "phi_floor", float),
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


def _parse_pairs(text: str) -> dict[str, object]:
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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            pairs[key] = _CONFIG_KEYS[key][2](value.strip())
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

    @classmethod
    def from_pairs(cls, pairs: dict[str, object]) -> "RunConfig":
        """Config from typed key values.  Unset fields keep the defaults;
        explicit scenario.* keys land on that scenario's defaults."""
        fields: dict[str | None, dict[str, object]] = {
            None: {}, "grid": {}, "params": {}, "scenario": {}}
        for key, value in pairs.items():
            owner, name, _ = _CONFIG_KEYS[key]
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
        return cls.from_pairs(_parse_pairs(text))

    def to_text(self) -> str:
        """Echo of the effective configuration; re-parses to an equal config.

        Floats are written with repr, which round-trips exactly; plain
        float() first so numpy scalars assigned programmatically echo in
        parseable form.
        """
        lines = ["# effective configuration"]
        for key, (owner, name, cast) in _CONFIG_KEYS.items():
            value = cast(getattr(self if owner is None else getattr(self, owner), name))
            lines.append(f"{key} = {value!r}" if cast is float else f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def resolved_dt(self) -> float:
        """The literal time.dt, or the comb step when time.dt = 0."""
        return self.dt if self.dt != 0.0 else comb_dt(self.t_end, self.grid)


def _load_config(args: argparse.Namespace) -> RunConfig:
    pairs: dict[str, object] = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config file {config_path!r}: {err}") from err
        pairs = _parse_pairs(text)
    # flags beat the file; --scenario picks the defaults the file's
    # scenario.* keys land on
    for key in _CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            pairs[key] = getattr(args, key)
    return RunConfig.from_pairs(pairs)


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


def _state_rows(state: ReducedState) -> list[Array]:
    rows = [state.B[mu] for mu in range(4)] + [state.Bdot[mu] for mu in range(4)]
    if isinstance(state, FullState):
        rows += [state.phi, state.phidot]
    return rows


def write_snapshot(path: str | Path,
                   state: ReducedState,
                   scenario: ScenarioSpec | None = None) -> None:
    """Raw little-endian float64 rows + JSON sidecar; see module docstring."""
    path = Path(path)
    rows = _state_rows(state)
    meta = {
        "format": SNAPSHOT_FORMAT,
        "kind": "full" if isinstance(state, FullState) else "reduced",
        "rows": len(rows),
        "n": state.grid.n,
        "length": state.grid.length,
        "t": state.t,
        "charge_mean": state.charge_mean,
        "scenario": None if scenario is None else {
            "name": scenario.name,
            "amplitude": scenario.amplitude,
            "width": scenario.width,
            "wavenumber": scenario.wavenumber,
            "offset": scenario.offset,
        },
    }
    blob = b"".join(np.ascontiguousarray(r, dtype="<f8").tobytes() for r in rows)
    path.write_bytes(blob)
    _sidecar(path).write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")


def read_snapshot(path: str | Path) -> tuple[ReducedState, dict]:
    """Inverse of write_snapshot; bit-exact on the field arrays."""
    path = Path(path)
    meta = json.loads(_sidecar(path).read_text())
    version = meta.get("format")
    if version != SNAPSHOT_FORMAT:
        raise FormatVersionMismatch(
            f"snapshot format {version!r} is not supported; this reader handles "
            f"format {SNAPSHOT_FORMAT!r}")
    n = int(meta["n"])
    rows = int(meta["rows"])
    kind = meta["kind"]
    expected_rows = {"full": _ROW_ORDER_FULL, "reduced": _ROW_ORDER_REDUCED}.get(kind)
    if expected_rows is None:
        raise FormatVersionMismatch(
            f"snapshot kind {kind!r} is not supported; this reader handles "
            "'full' and 'reduced'")
    if rows != expected_rows:
        raise FormatVersionMismatch(
            f"{kind} snapshot promises {rows} rows, expected {expected_rows}")

    blob = path.read_bytes()
    expected = rows * n * 8
    if len(blob) != expected:
        raise TruncatedFile(
            f"snapshot binary holds {len(blob)} bytes but the sidecar promises "
            f"{expected} (rows={rows}, n={n})")
    data = np.frombuffer(blob, dtype="<f8").astype(np.float64).reshape(rows, n)

    g = Grid1D(n=n, length=float(meta["length"]))
    common = dict(t=float(meta["t"]), B=data[0:4].copy(), Bdot=data[4:8].copy(),
                  grid=g, charge_mean=float(meta["charge_mean"]))
    if kind == "full":
        state: ReducedState = FullState(phi=data[8].copy(), phidot=data[9].copy(),
                                        **common)
    else:
        state = ReducedState(**common)
    return state, meta


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

_EXTRAS_FIELDS = ("t", "energy", "constraint_residual", "min_abs_b0",
                  "min_phi", "fallback_fraction", "charge_mean")


def _write_run_outputs(out_dir: Path, cfg: RunConfig, traj) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(cfg.to_text())
    for k, state in enumerate(traj.states):
        write_snapshot(out_dir / f"snap_{k:05d}.bin", state, scenario=cfg.scenario)
    with (out_dir / "extras.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_EXTRAS_FIELDS)
        for state in traj.states:
            extra = snapshot_extras(state, cfg.params)
            writer.writerow([repr(float(extra[f])) for f in _EXTRAS_FIELDS])


def _prepared_run(cfg: RunConfig) -> tuple[float, FullState]:
    g = cfg.grid
    dt = cfg.resolved_dt()
    if abs(dt) > 0.5 * g.h + 1e-15:
        print(f"warning: dt={dt:g} exceeds the stable comb 0.5*h={0.5 * g.h:g}; "
              "expect accuracy and stability loss", file=sys.stderr)
    return dt, make_scenario(cfg.scenario, cfg.params, g)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    dt, s0 = _prepared_run(cfg)
    if args.flavor == "reduced":
        traj = run_reduced(s0.to_reduced(), dt, cfg.t_end, cfg.params, every=cfg.every)
    else:
        traj = run_full(s0, dt, cfg.t_end, cfg.params, every=cfg.every)
    out_dir = Path(cfg.out_dir)
    _write_run_outputs(out_dir, cfg, traj)
    print(f"run-{args.flavor}: {cfg.scenario.name} n={cfg.grid.n} dt={dt:g} "
          f"t_end={cfg.t_end:g}; {len(traj)} snapshots -> {out_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    # a NaN tolerance would compare False and pass every run
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol!r}")
    cfg = _load_config(args)
    dt, s0 = _prepared_run(cfg)
    traj_full = run_full(s0, dt, cfg.t_end, cfg.params, every=cfg.every)
    traj_red = run_reduced(s0.to_reduced(), dt, cfg.t_end, cfg.params, every=cfg.every)
    report = compare(traj_full, traj_red)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(cfg.to_text())
    with (out_dir / "compare.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"]
                        + [f"linf_rel_b{mu}" for mu in range(4)]
                        + [f"l2_rel_b{mu}" for mu in range(4)])
        for k in range(len(report.times)):
            writer.writerow([repr(float(report.times[k]))]
                            + [repr(float(v)) for v in report.linf_rel[k]]
                            + [repr(float(v)) for v in report.l2_rel[k]])
    print(report.to_text())
    for key, value in sorted(report.to_kv().items()):
        print(f"{key} = {value:.6e}")
    if report.max_rel_linf > args.tol:
        print(f"compare: max relative Linf {report.max_rel_linf:.4e} exceeds "
              f"tolerance {args.tol:g}", file=sys.stderr)
        return 1
    return 0


# ladder_level keys in convergence.csv column order (after n)
_LEVEL_KEYS = ("h", "equivalence", "energy_full", "energy_reduced",
               "current_full", "current_reduced")


def ladder_level(s0: FullState, dt: float, t_end: float, p: Params,
                 every: int) -> tuple[dict[str, float], Trajectory]:
    """Run both integrators from s0; measure their distance and, per
    flavor, the relative energy drift and peak charge-balance residual.

    Returns the numbers (keys _LEVEL_KEYS and dt) and the reduced trajectory.
    """
    traj_full = run_full(s0, dt, t_end, p, every=every)
    traj_red = run_reduced(s0.to_reduced(), dt, t_end, p, every=every)
    out = {"h": s0.grid.h, "dt": dt,
           "equivalence": compare(traj_full, traj_red).max_rel_linf}
    for tag, traj in (("full", traj_full), ("reduced", traj_red)):
        out[f"energy_{tag}"], out[f"current_{tag}"] = conservation_defects(traj, p)
    return out, traj_red


def _cmd_convergence(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    try:
        grids = [replace(cfg.grid, n=int(v)) for v in args.levels.split(",")]
    except ValueError as err:
        raise ConfigError(f"--levels: {err}") from err
    if len(grids) < 2:
        raise ConfigError("--levels needs at least two grid sizes")

    results = []
    for g in grids:
        dt, s0 = _prepared_run(replace(cfg, grid=g, dt=0.0))
        results.append(ladder_level(s0, dt, cfg.t_end, cfg.params, cfg.every)[0])

    header = ("n", "h", "equivalence", "energy_drift_full",
              "energy_drift_reduced", "current_residual_full",
              "current_residual_reduced")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for g, level in zip(grids, results):
        writer.writerow([g.n] + [repr(float(level[key])) for key in _LEVEL_KEYS])
    csv_text = buf.getvalue()
    print(csv_text, end="")

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "convergence.csv").write_text(csv_text)

    for name in _LEVEL_KEYS[1:]:
        pairs = [(level["h"], level[name]) for level in results]
        try:
            order = observed_order(pairs)
        except SimulationError as err:
            print(f"observed_order[{name}] undefined: {err}")
            continue
        print(f"observed_order[{name}] = {order:.3f}")
    return 0


def _cmd_carleman(args: argparse.Namespace) -> int:
    if args.cutoff is None:
        # the grid embedding's state space grows combinatorially with the
        # cutoff, so its sweep stops far earlier than the toy systems do
        args.cutoff = 3 if args.system == "reduced-tiny" else 16
    if args.cutoff < 1:
        raise ConfigError(f"--cutoff must be >= 1, got {args.cutoff}")
    if args.t_end is None:
        # the 24-variable embedding only converges at affordable cutoffs
        # over a short horizon; default inside that window
        args.t_end = 0.05 if args.system == "reduced-tiny" else 1.0
    if args.xi0 is None:
        args.xi0 = 0.5
    elif args.system in ("lotka", "reduced-tiny"):
        raise ConfigError(f"--xi0 does not apply to {args.system}, which starts "
                          "from a fixed state")
    for flag, value in (("--t-end", args.t_end), ("--xi0", args.xi0)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value!r}")
    if args.system == "riccati":
        return _demo_riccati(args)
    if args.system == "rotation":
        return _demo_rotation(args)
    if args.system == "lotka":
        return _demo_lotka(args)
    return _demo_reduced_tiny(args)


def _demo_riccati(args: argparse.Namespace) -> int:
    got = fock_readout(riccati_system(), np.array([args.xi0]), args.t_end, args.cutoff)[1]
    value = float(got[0].real)
    exact = args.xi0 / (1.0 + args.xi0 * args.t_end)
    print(f"riccati: xi0={args.xi0:g} cutoff={args.cutoff} t={args.t_end:g}")
    print(f"readout = {value:.12e}")
    print(f"exact   = {exact:.12e}")
    print(f"error   = {abs(value - exact):.3e}")
    return 0


def _demo_rotation(args: argparse.Namespace) -> int:
    x0 = np.array([args.xi0, 0.0])
    got = fock_readout(rotation_system(), x0, args.t_end, args.cutoff)[1].real
    t = args.t_end
    exact = np.array([args.xi0 * np.cos(t), -args.xi0 * np.sin(t)])
    print(f"rotation: cutoff={args.cutoff} t={t:g}")
    print(f"readout = ({got[0]:.12e}, {got[1]:.12e})")
    print(f"exact   = ({exact[0]:.12e}, {exact[1]:.12e})")
    print(f"error   = {float(np.max(np.abs(got - exact))):.3e}")
    return 0


def _demo_lotka(args: argparse.Namespace) -> int:
    sys_ = lotka_system()
    x0 = np.array([0.4, 0.2])
    got = fock_readout(sys_, x0, args.t_end, args.cutoff)[1].real
    oracle = classical_flow(sys_, x0.astype(complex), args.t_end, 1.0e-4).real
    print(f"lotka: cutoff={args.cutoff} t={args.t_end:g} x0=({x0[0]:g}, {x0[1]:g})")
    print(f"readout = ({got[0]:.12e}, {got[1]:.12e})")
    print(f"oracle  = ({oracle[0]:.12e}, {oracle[1]:.12e})")
    print(f"error   = {float(np.max(np.abs(got - oracle))):.3e}")
    return 0


def _demo_reduced_tiny(args: argparse.Namespace) -> int:
    s0, sys_, x0 = tiny_reduced_embedding()
    drift = reciprocal_drift(sys_, x0, args.t_end)
    print(f"reduced-tiny: n={s0.grid.n} vars={sys_.k} t={args.t_end:g}")
    print(f"reciprocal manifold drift along classical flow = {drift:.3e}")
    cutoffs = range(1, args.cutoff + 1)
    for cutoff, (dim, err) in zip(cutoffs, readout_errors(sys_, x0, args.t_end, cutoffs)):
        print(f"cutoff={cutoff}  fock_dim={dim}  max_abs_error_vs_oracle={err:.3e}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from . import checks

    failures = 0
    for name, fn in checks.CRITERIA:
        ok, detail = fn()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1
    if failures:
        print(f"check: {failures} criterion(s) failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# run flag -> (the config key it overrides, help)
_RUN_FLAGS = {
    "--scenario": ("scenario.name", f"scenario name, one of {', '.join(SCENARIO_NAMES)} "
                                    "(default matter-packet)"),
    "--n": ("grid.n", "grid points (power of two, default 256)"),
    "--length": ("grid.length", "domain length (default 2*pi)"),
    "--dt": ("time.dt", "time step; 0 or omitted derives the 0.5*h comb step"),
    "--t-end": ("time.t_end", "end time (default 1.0)"),
    "--every": ("output.every", "snapshot stride in steps (default 1)"),
    "--out": ("output.dir", "output directory (default 'out')"),
}


def _add_config_flags(sub: argparse.ArgumentParser, omit: tuple[str, ...] = ()) -> None:
    sub.add_argument("--config", help="path to a key = value configuration file")
    for flag, (key, help_) in _RUN_FLAGS.items():
        if flag not in omit:
            sub.add_argument(flag, dest=key, type=_CONFIG_KEYS[key][2], help=help_,
                             metavar=flag[2:].upper().replace("-", "_"))


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads -1e-3, -inf and -nan as values, not options.

    Python 3.11's argparse matches only forms like -1 and -0.001 as negative
    numbers, so `--t-end -1e-1` or `--t-end -inf` would stop with "expected
    one argument" before the value checks.  The pattern takes every signed
    spelling float() accepts.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgmlab",
        description="Drive the coupled scalar/vector lattice integrators, their "
                    "potential-only reduction, and the truncated-ladder "
                    "linearization demos.")
    subs = parser.add_subparsers(dest="command", required=True)

    for flavor in ("full", "reduced"):
        sub = subs.add_parser(
            f"run-{flavor}",
            help=f"integrate the {flavor} system and write snapshots")
        _add_config_flags(sub)
        sub.set_defaults(func=_cmd_run, flavor=flavor)

    sub = subs.add_parser(
        "compare",
        help="run both integrators on one scenario and report the distance")
    _add_config_flags(sub)
    sub.add_argument("--tol", type=float, default=1.0e-3,
                     help="exit 1 when max relative Linf exceeds this "
                          "(default 1e-3)")
    sub.set_defaults(func=_cmd_compare)

    sub = subs.add_parser(
        "convergence",
        help="grid-refinement ladder: equivalence, energy drift, charge "
             "balance, and their observed orders")
    _add_config_flags(sub, omit=("--n", "--dt"))
    sub.add_argument("--levels", default="128,256,512",
                     help="comma-separated grid sizes (default 128,256,512); "
                          "each level replaces a config file's grid.n and "
                          "runs on the comb step, replacing its time.dt")
    sub.set_defaults(func=_cmd_convergence)

    sub = subs.add_parser(
        "carleman",
        help="truncated-ladder linearization demos with closed-form or "
             "high-accuracy oracles")
    sub.add_argument("system",
                     choices=("riccati", "rotation", "lotka", "reduced-tiny"),
                     help="demo system")
    sub.add_argument("--xi0", type=float, default=None,
                     help="initial amplitude of riccati and rotation "
                          "(default 0.5); lotka and reduced-tiny start from "
                          "fixed states")
    sub.add_argument("--cutoff", type=int, default=None,
                     help="total-occupation cutoff (default 16; reduced-tiny "
                          "sweeps 1..cutoff and defaults to 3)")
    sub.add_argument("--t-end", dest="t_end", type=float, default=None,
                     help="end time (default 1.0; reduced-tiny defaults to "
                          "0.05, its convergence window at small cutoffs)")
    sub.set_defaults(func=_cmd_carleman)

    sub = subs.add_parser("check", help="run the full acceptance-criteria suite")
    sub.set_defaults(func=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        # run-argument preconditions (unreachable t_end, bad every, ...)
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SimulationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
