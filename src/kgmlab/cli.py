"""The ``kgmlab`` command: argument parsing, printing and exit codes.

Runs take their configuration from a flat ``key = value`` file plus
command-line flags, each flag overriding the config key it names.  The
configuration language, the snapshot format and the run itself live in
``kgmlab.run``, and the run names in ``__all__`` are re-exported from
there.  No plotting here: the reports are plain tables that any downstream
tool can consume.

Exit codes: 0 on success, 1 when a run trips a guard or a comparison
exceeds its tolerance, 2 on configuration errors (unknown keys, unknown
scenario names, malformed flags).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import checks
from .carleman import (
    PolySystem,
    classical_flow,
    fock_readout,
    lotka_system,
    readout_errors,
    reciprocal_drift,
    riccati_system,
    rotation_system,
    tiny_reduced_embedding,
)
from .diagnostics import compare, observed_order
from .kernel import COMB_FRACTION, SimulationError
from .run import (
    CONFIG_KEYS,
    LADDER_SIZES,
    LEVEL_KEYS,
    ConfigError,
    FormatVersionMismatch,
    RunConfig,
    TruncatedFile,
    integrate,
    ladder_level,
    parse_pairs,
    read_snapshot,
    write_run_outputs,
    write_snapshot,
    write_table,
)
from .scenarios import SCENARIO_NAMES

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


def _load_config(args: argparse.Namespace) -> RunConfig:
    pairs: dict[str, object] = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config file {config_path!r}: {err}") from err
        pairs = parse_pairs(text)
    # flags beat the file; --scenario picks the defaults the file's
    # scenario.* keys land on
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            pairs[key] = getattr(args, key)
    return RunConfig.from_pairs(pairs)


def _warn_if_coarse(cfg: RunConfig) -> float:
    """cfg's step, after a warning on stderr when it exceeds COMB_FRACTION * h."""
    dt = cfg.resolved_dt()
    comb = COMB_FRACTION * cfg.grid.h
    if abs(dt) > comb + 1e-15:
        print(f"warning: dt={dt:g} exceeds the stable comb {COMB_FRACTION:g}*h={comb:g}; "
              "expect accuracy and stability loss", file=sys.stderr)
    return dt


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    dt = _warn_if_coarse(cfg)
    traj = integrate(cfg, args.flavor)
    write_run_outputs(cfg, traj)
    print(f"run-{args.flavor}: {cfg.scenario.name} n={cfg.grid.n} dt={dt:g} "
          f"t_end={cfg.t_end:g}; {len(traj)} snapshots -> {Path(cfg.out_dir)}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    # a NaN tolerance would compare False and pass every run
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol!r}")
    cfg = _load_config(args)
    _warn_if_coarse(cfg)
    report = compare(integrate(cfg, "full"), integrate(cfg, "reduced"))

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(cfg.to_text())
    write_table(out_dir / "compare.csv",
                ["t", *(f"{norm}_rel_b{mu}" for norm in ("linf", "l2") for mu in range(4))],
                ([t, *linf, *l2] for t, linf, l2
                 in zip(report.times, report.linf_rel, report.l2_rel)))
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
        grids = [replace(cfg.grid, n=int(v)) for v in args.levels.split(",")]
    except ValueError as err:
        raise ConfigError(f"--levels: {err}") from err
    if len(grids) < 2:
        raise ConfigError("--levels needs at least two grid sizes")
    sizes = [g.n for g in grids]
    for n in sizes:
        if sizes.count(n) > 1:
            # a repeated level would run twice and leave every order undefined
            raise ConfigError(f"--levels: grid size {n} appears more than once")

    # each level runs on its own comb step, which never exceeds COMB_FRACTION * h
    results = [ladder_level(replace(cfg, grid=g, dt=0.0)) for g in grids]

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = write_table(out_dir / "convergence.csv", ("n", *LEVEL_KEYS),
                        ([g.n, *(level[key] for key in LEVEL_KEYS)]
                         for g, level in zip(grids, results)))
    # the file keeps the csv module's \r\n rows; stdout ends every line in \n
    print(*table.splitlines(), sep="\n")

    for name in LEVEL_KEYS[1:]:
        pairs = [(level["h"], level[name]) for level in results]
        try:
            order = observed_order(pairs)
        except SimulationError as err:
            print(f"observed_order[{name}] undefined: {err}")
            continue
        print(f"observed_order[{name}] = {order:.3f}")
    return 0


def _cmd_carleman(args: argparse.Namespace) -> int:
    cutoff, t_end, start, demo = _CARLEMAN_DEMOS[args.system]
    if args.cutoff is None:
        args.cutoff = cutoff
    if args.cutoff < 1:
        raise ConfigError(f"--cutoff must be >= 1, got {args.cutoff}")
    if args.t_end is None:
        args.t_end = t_end
    if args.xi0 is None:
        args.xi0 = 0.5
    elif start is None:
        raise ConfigError(f"--xi0 does not apply to {args.system}, which starts "
                          "from a fixed state")
    for flag, value in (("--t-end", args.t_end), ("--xi0", args.xi0)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value!r}")
    return demo(args, None if start is None else start(args.xi0))


def _toy_demo(args: argparse.Namespace, title: str, sys_: PolySystem, x0: np.ndarray,
              label: str, reference: np.ndarray) -> int:
    """Readout at --t-end against the reference; two modes print as a pair."""
    got = fock_readout(sys_, x0, args.t_end, args.cutoff)[1].real
    fmt = "{:.12e}" if sys_.k == 1 else "({:.12e}, {:.12e})"
    print(title)
    print(f"readout = {fmt.format(*got)}")
    print(f"{label:<7} = {fmt.format(*reference)}")
    print(f"error   = {float(np.max(np.abs(got - reference))):.3e}")
    return 0


def _demo_riccati(args: argparse.Namespace, x0: np.ndarray) -> int:
    return _toy_demo(args, f"riccati: xi0={args.xi0:g} cutoff={args.cutoff} t={args.t_end:g}",
                     riccati_system(), x0, "exact", x0 / (1.0 + x0 * args.t_end))


def _demo_rotation(args: argparse.Namespace, x0: np.ndarray) -> int:
    t = args.t_end
    return _toy_demo(args, f"rotation: cutoff={args.cutoff} t={t:g}", rotation_system(), x0,
                     "exact", np.array([args.xi0 * np.cos(t), -args.xi0 * np.sin(t)]))


def _demo_lotka(args: argparse.Namespace, _: None) -> int:
    sys_, x0 = lotka_system(), np.array([0.4, 0.2])
    oracle = classical_flow(sys_, x0.astype(complex), args.t_end, 1.0e-3).real
    return _toy_demo(args, f"lotka: cutoff={args.cutoff} t={args.t_end:g} "
                           f"x0=({x0[0]:g}, {x0[1]:g})", sys_, x0, "oracle", oracle)


def _demo_reduced_tiny(args: argparse.Namespace, _: None) -> int:
    s0, sys_, x0 = tiny_reduced_embedding()
    drift = reciprocal_drift(sys_, x0, args.t_end)
    print(f"reduced-tiny: n={s0.grid.n} vars={sys_.k} t={args.t_end:g}")
    print(f"reciprocal manifold drift along classical flow = {drift:.3e}")
    cutoffs = range(1, args.cutoff + 1)
    for cutoff, (dim, err) in zip(cutoffs, readout_errors(sys_, x0, args.t_end, cutoffs)):
        print(f"cutoff={cutoff}  fock_dim={dim}  max_abs_error_vs_oracle={err:.3e}")
    return 0


# demo system -> (default --cutoff, default --t-end, the start made from
# --xi0 or None for a fixed start, which refuses --xi0, the demo).  The grid
# embedding's state space grows combinatorially with the cutoff, and it
# converges at affordable cutoffs only over a short horizon.
_CARLEMAN_DEMOS = {
    "riccati": (16, 1.0, lambda xi0: np.array([xi0]), _demo_riccati),
    "rotation": (16, 1.0, lambda xi0: np.array([xi0, 0.0]), _demo_rotation),
    "lotka": (16, 1.0, None, _demo_lotka),
    "reduced-tiny": (3, 0.05, None, _demo_reduced_tiny),
}


def _cmd_check(args: argparse.Namespace) -> int:
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
    "--dt": ("time.dt", f"time step; 0 or omitted derives the {COMB_FRACTION:g}*h comb step"),
    "--t-end": ("time.t_end", "end time (default 1.0)"),
    "--every": ("output.every", "snapshot stride in steps (default 1)"),
    "--out": ("output.dir", "output directory (default 'out')"),
}


def _add_config_flags(sub: argparse.ArgumentParser, omit: tuple[str, ...] = ()) -> None:
    sub.add_argument("--config", help="path to a key = value configuration file")
    for flag, (key, help_) in _RUN_FLAGS.items():
        if flag not in omit:
            sub.add_argument(flag, dest=key, type=CONFIG_KEYS[key][2], help=help_,
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
    levels = ",".join(map(str, LADDER_SIZES))
    sub.add_argument("--levels", default=levels,
                     help=f"comma-separated grid sizes (default {levels}); "
                          "each level replaces a config file's grid.n and "
                          "runs on the comb step, replacing its time.dt")
    sub.set_defaults(func=_cmd_convergence)

    sub = subs.add_parser(
        "carleman",
        help="truncated-ladder linearization demos with closed-form or "
             "high-accuracy oracles")
    sub.add_argument("system",
                     choices=tuple(_CARLEMAN_DEMOS),
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
    except (ConfigError, ValueError) as err:
        # a ValueError is a failed run-argument precondition (unreachable
        # t_end, bad every, ...)
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (SimulationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
