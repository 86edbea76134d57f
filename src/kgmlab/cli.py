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
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .carleman import (
    FockBasis,
    build_m,
    classical_flow,
    coherent_vector,
    evolve,
    lotka_system,
    readout,
    readout_errors,
    reciprocal_drift,
    riccati_system,
    rotation_system,
    tiny_reduced_embedding,
)
from .diagnostics import compare, current_residual, observed_order, total_energy
from .full import run_full
from .kernel import FullState, Grid1D, Params, ReducedState, SimulationError
from .reduced import run_reduced
from .scenarios import SCENARIO_NAMES, ScenarioSpec, default_scenario, make_scenario

Array = np.ndarray

__all__ = [
    "ConfigError",
    "FormatVersionMismatch",
    "RunConfig",
    "TruncatedFile",
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
# One flat namespace of dotted keys.  time.dt = 0 means "derive the largest
# dt <= 0.5 h that lands exactly on t_end" (the stable step comb); any other
# value is taken literally, with a warning when it exceeds 0.5 h.

_CONFIG_KEYS: dict[str, Callable[[str], object]] = {
    "grid.n": int,
    "grid.length": float,
    "params.e": float,
    "params.m": float,
    "params.b0_floor": float,
    "params.phi_floor": float,
    "time.dt": float,
    "time.t_end": float,
    "scenario.name": str,
    "scenario.amplitude": float,
    "scenario.width": float,
    "scenario.wavenumber": int,
    "scenario.offset": float,
    "output.every": int,
    "output.dir": str,
}


def _parse_pairs(text: str) -> dict[str, str]:
    """Key/value lines to a dict; full-line # comments and blanks skipped."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        pairs[key] = value
    return pairs


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration; immutable and value-comparable."""

    n: int = 256
    length: float = 2.0 * np.pi
    e: float = 1.0
    m: float = 1.0
    b0_floor: float = 1.0e-6
    phi_floor: float = 1.0e-3
    dt: float = 0.0
    t_end: float = 1.0
    scenario: ScenarioSpec = None  # type: ignore[assignment]
    every: int = 1
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if self.scenario is None:
            object.__setattr__(self, "scenario", default_scenario("matter-packet"))

    @classmethod
    def from_pairs(cls, pairs: dict[str, str]) -> "RunConfig":
        typed: dict[str, object] = {}
        for key, raw in pairs.items():
            caster = _CONFIG_KEYS[key]
            try:
                typed[key] = caster(raw)
            except ValueError as err:
                raise ConfigError(f"{key}: {err}") from err

        name = typed.get("scenario.name", "matter-packet")
        try:
            spec = default_scenario(str(name))
        except ValueError as err:
            raise ConfigError(f"scenario.name: {err}") from err
        for field_name in ("amplitude", "width", "wavenumber", "offset"):
            key = f"scenario.{field_name}"
            if key in typed:
                spec = replace(spec, **{field_name: typed[key]})

        base = cls(scenario=spec)
        return replace(
            base,
            n=typed.get("grid.n", base.n),
            length=typed.get("grid.length", base.length),
            e=typed.get("params.e", base.e),
            m=typed.get("params.m", base.m),
            b0_floor=typed.get("params.b0_floor", base.b0_floor),
            phi_floor=typed.get("params.phi_floor", base.phi_floor),
            dt=typed.get("time.dt", base.dt),
            t_end=typed.get("time.t_end", base.t_end),
            every=typed.get("output.every", base.every),
            out_dir=typed.get("output.dir", base.out_dir),
        )

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        return cls.from_pairs(_parse_pairs(text))

    def to_text(self) -> str:
        """Echo of the effective configuration; re-parses to an equal config.

        Floats are written with repr, which round-trips exactly; plain
        float() first so numpy scalars assigned programmatically echo in
        parseable form.
        """
        def fmt(v: float) -> str:
            return repr(float(v))

        lines = [
            "# effective configuration",
            f"grid.n = {int(self.n)}",
            f"grid.length = {fmt(self.length)}",
            f"params.e = {fmt(self.e)}",
            f"params.m = {fmt(self.m)}",
            f"params.b0_floor = {fmt(self.b0_floor)}",
            f"params.phi_floor = {fmt(self.phi_floor)}",
            f"time.dt = {fmt(self.dt)}",
            f"time.t_end = {fmt(self.t_end)}",
            f"scenario.name = {self.scenario.name}",
            f"scenario.amplitude = {fmt(self.scenario.amplitude)}",
            f"scenario.width = {fmt(self.scenario.width)}",
            f"scenario.wavenumber = {int(self.scenario.wavenumber)}",
            f"scenario.offset = {fmt(self.scenario.offset)}",
            f"output.every = {int(self.every)}",
            f"output.dir = {self.out_dir}",
        ]
        return "\n".join(lines) + "\n"

    # -- derived objects ----------------------------------------------------

    def grid(self) -> Grid1D:
        try:
            return Grid1D(n=self.n, length=self.length)
        except ValueError as err:
            raise ConfigError(f"grid: {err}") from err

    def params(self) -> Params:
        try:
            return Params(e=self.e, m=self.m,
                          b0_floor=self.b0_floor, phi_floor=self.phi_floor)
        except ValueError as err:
            raise ConfigError(f"params: {err}") from err

    def resolved_dt(self, g: Grid1D) -> float:
        """The literal time.dt, or the 0.5 h comb step when time.dt = 0."""
        if self.dt != 0.0:
            return self.dt
        if self.t_end == 0.0:
            return 0.5 * g.h
        return self.t_end / math.ceil(abs(self.t_end) / (0.5 * g.h))


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config file {config_path!r}: {err}") from err
        cfg = RunConfig.parse(text)

    scenario = getattr(args, "scenario", None)
    if scenario is not None:
        try:
            cfg = replace(cfg, scenario=default_scenario(scenario))
        except ValueError as err:
            raise ConfigError(f"--scenario: {err}") from err
    overrides = {
        "n": getattr(args, "n", None),
        "length": getattr(args, "length", None),
        "dt": getattr(args, "dt", None),
        "t_end": getattr(args, "t_end", None),
        "every": getattr(args, "every", None),
        "out_dir": getattr(args, "out", None),
    }
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    if cfg.every < 1:
        raise ConfigError(f"output.every must be >= 1, got {cfg.every}")
    return cfg


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
    expected_rows = _ROW_ORDER_FULL if kind == "full" else _ROW_ORDER_REDUCED
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
        for extra in traj.extras:
            writer.writerow([repr(float(extra[f])) for f in _EXTRAS_FIELDS])


def _prepared_run(cfg: RunConfig) -> tuple[Grid1D, Params, float, FullState]:
    g = cfg.grid()
    p = cfg.params()
    dt = cfg.resolved_dt(g)
    if abs(dt) > 0.5 * g.h + 1e-15:
        print(f"warning: dt={dt:g} exceeds the stable comb 0.5*h={0.5 * g.h:g}; "
              "expect accuracy and stability loss", file=sys.stderr)
    s0 = make_scenario(cfg.scenario, p, g)
    return g, p, dt, s0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    g, p, dt, s0 = _prepared_run(cfg)
    if args.flavor == "reduced":
        traj = run_reduced(s0.to_reduced(), dt, cfg.t_end, p, every=cfg.every)
    else:
        traj = run_full(s0, dt, cfg.t_end, p, every=cfg.every)
    out_dir = Path(cfg.out_dir)
    _write_run_outputs(out_dir, cfg, traj)
    print(f"run-{args.flavor}: {cfg.scenario.name} n={g.n} dt={dt:g} "
          f"t_end={cfg.t_end:g}; {len(traj)} snapshots -> {out_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    g, p, dt, s0 = _prepared_run(cfg)
    traj_full = run_full(s0, dt, cfg.t_end, p, every=cfg.every)
    traj_red = run_reduced(s0.to_reduced(), dt, cfg.t_end, p, every=cfg.every)
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


def _cmd_convergence(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    try:
        levels = tuple(int(v) for v in args.levels.split(","))
    except ValueError as err:
        raise ConfigError(f"--levels: {err}") from err
    if len(levels) < 2:
        raise ConfigError("--levels needs at least two grid sizes")

    rows = []
    for n in levels:
        level_cfg = replace(cfg, n=n, dt=0.0)
        g, p, dt, s0 = _prepared_run(level_cfg)
        traj_full = run_full(s0, dt, cfg.t_end, p, every=cfg.every)
        traj_red = run_reduced(s0.to_reduced(), dt, cfg.t_end, p, every=cfg.every)
        equivalence = compare(traj_full, traj_red).max_rel_linf
        drift = {}
        residual = {}
        for tag, traj in (("full", traj_full), ("reduced", traj_red)):
            energies = np.array([total_energy(s, p) for s in traj.states])
            scale = max(abs(energies[0]), 1e-300)
            drift[tag] = float(np.max(np.abs(energies - energies[0])) / scale)
            residual[tag] = float(np.max(np.abs(current_residual(traj, p))))
        rows.append((n, g.h, equivalence, drift["full"], drift["reduced"],
                     residual["full"], residual["reduced"]))

    header = ("n", "h", "equivalence", "energy_drift_full",
              "energy_drift_reduced", "current_residual_full",
              "current_residual_reduced")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    csv_text = buf.getvalue()
    print(csv_text, end="")

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "convergence.csv").write_text(csv_text)

    for column, name in ((2, "equivalence"), (3, "energy_full"),
                         (4, "energy_reduced"), (5, "current_full"),
                         (6, "current_reduced")):
        pairs = [(row[1], row[column]) for row in rows]
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
        # the 26-variable embedding only converges at affordable cutoffs
        # over a short horizon; default inside that window
        args.t_end = 0.05 if args.system == "reduced-tiny" else 1.0
    if args.system == "riccati":
        return _demo_riccati(args)
    if args.system == "rotation":
        return _demo_rotation(args)
    if args.system == "lotka":
        return _demo_lotka(args)
    return _demo_reduced_tiny(args)


def _demo_riccati(args: argparse.Namespace) -> int:
    sys_ = riccati_system()
    basis = FockBasis(k=1, cutoff=args.cutoff)
    v = evolve(build_m(sys_, basis), coherent_vector(np.array([args.xi0]), basis),
               args.t_end)
    value = float(readout(v, basis)[0].real)
    exact = args.xi0 / (1.0 + args.xi0 * args.t_end)
    print(f"riccati: xi0={args.xi0:g} cutoff={args.cutoff} t={args.t_end:g}")
    print(f"readout = {value:.12e}")
    print(f"exact   = {exact:.12e}")
    print(f"error   = {abs(value - exact):.3e}")
    return 0


def _demo_rotation(args: argparse.Namespace) -> int:
    sys_ = rotation_system()
    basis = FockBasis(k=2, cutoff=args.cutoff)
    x0 = np.array([args.xi0, 0.0])
    v = evolve(build_m(sys_, basis), coherent_vector(x0, basis), args.t_end)
    got = readout(v, basis).real
    t = args.t_end
    exact = np.array([args.xi0 * np.cos(t), -args.xi0 * np.sin(t)])
    print(f"rotation: cutoff={args.cutoff} t={t:g}")
    print(f"readout = ({got[0]:.12e}, {got[1]:.12e})")
    print(f"exact   = ({exact[0]:.12e}, {exact[1]:.12e})")
    print(f"error   = {float(np.max(np.abs(got - exact))):.3e}")
    return 0


def _demo_lotka(args: argparse.Namespace) -> int:
    sys_ = lotka_system()
    basis = FockBasis(k=2, cutoff=args.cutoff)
    x0 = np.array([0.4, 0.2])
    v = evolve(build_m(sys_, basis), coherent_vector(x0, basis), args.t_end)
    got = readout(v, basis).real
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


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to a key = value configuration file")
    sub.add_argument("--scenario",
                     help=f"scenario name, one of {', '.join(SCENARIO_NAMES)} "
                          "(default matter-packet)")
    sub.add_argument("--n", type=int, help="grid points (power of two, default 256)")
    sub.add_argument("--length", type=float,
                     help="domain length (default 2*pi)")
    sub.add_argument("--dt", type=float,
                     help="time step; 0 or omitted derives the 0.5*h comb step")
    sub.add_argument("--t-end", dest="t_end", type=float,
                     help="end time (default 1.0)")
    sub.add_argument("--every", type=int,
                     help="snapshot stride in steps (default 1)")
    sub.add_argument("--out", help="output directory (default 'out')")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    _add_config_flags(sub)
    sub.add_argument("--levels", default="128,256,512",
                     help="comma-separated grid sizes (default 128,256,512)")
    sub.set_defaults(func=_cmd_convergence)

    sub = subs.add_parser(
        "carleman",
        help="truncated-ladder linearization demos with closed-form or "
             "high-accuracy oracles")
    sub.add_argument("system",
                     choices=("riccati", "rotation", "lotka", "reduced-tiny"),
                     help="demo system")
    sub.add_argument("--xi0", type=float, default=0.5,
                     help="initial amplitude (default 0.5)")
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
