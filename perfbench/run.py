"""kgmlab benchmark: closed-loop, single-client runs of real kgmlab invocations.

    python3 perfbench/run.py --workload {gate,reduced-fine,carleman-ladder}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (``src/kgmlab`` and ``BENCHMARK.json``
must be there).  Each operation is one ``kgmlab`` command in a fresh child
interpreter (``child.py``), started only after the previous one ended, so
process-lifetime caches never carry over.  BLAS/OpenMP thread counts are
pinned to 1.  Every operation's output is checked; a failed check counts in
``failed`` and never stops the run.  Reported times are scaled by a
calibration each child measures alongside them (see ``child.py``), so that
the shared host's changing speed cancels.

``--trace 0`` runs operations for about S seconds and reports the end-to-end
metrics of BENCHMARK.json.  ``--trace 1`` alternates untraced and traced
operations for about S seconds, then runs the layer sweep, and reports the
per-layer metrics.  The last line of standard output is one JSON object;
the lines before it are a readable summary, and the full record goes to
``perfbench/out/``.  See perfbench/README.md for why the workloads and
metrics are what they are.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# every child must end before the run's own 180 s limit
RUN_LIMIT_S = 170.0
MIN_OPS = 3
# import-only children per run, on top of the one in every operation; the
# first compiles bytecode and is not counted
SETUP_PROBES = 5
# Reference time of one child.calibration_slice(), close to its time on an
# unloaded 2.0 GHz Xeon.  Reported times are measured seconds scaled by
# CALIB_REF_S / (mean slice seconds measured alongside in the same child),
# which divides out how fast the shared host ran at that moment.
CALIB_REF_S = 0.005


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, and a correctness check per operation
# ---------------------------------------------------------------------------

Check = tuple[bool, float | None, str]   # (passed, accuracy error, detail)


def _gate_argv(rng: random.Random, op_dir: Path) -> list[str]:
    return ["check"]


_ORACLE = re.compile(r"oracle-equivalence: n=256 max rel Linf (\S+)")


def _gate_check(res: dict, op_dir: Path) -> Check:
    lines = res["stdout"].splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    match = _ORACLE.search(res["stdout"])
    err = float(match.group(1)) if match else None
    ok = res["exit"] == 0 and passed == 10 and err is not None
    return ok, err, f"exit {res['exit']}, {passed}/10 PASS"


# matter-packet amplitudes for which the run has no closure-fallback points
AMPLITUDE = (0.27, 0.33)
# relative energy drift measured 3.02e-8 and 3.15e-8 at the two ends of
# AMPLITUDE; frozen with headroom
DRIFT_BOUND = 5.0e-8
REDUCED_FINE_SNAPSHOTS = 22


def _reduced_fine_argv(rng: random.Random, op_dir: Path) -> list[str]:
    config = op_dir / "run.cfg"
    config.write_text(f"scenario.amplitude = {rng.uniform(*AMPLITUDE)!r}\n")
    return ["run-reduced", "--config", str(config), "--n", "4096",
            "--t-end", "1.0", "--every", "64", "--out", str(op_dir / "out")]


def _reduced_fine_check(res: dict, op_dir: Path) -> Check:
    out = op_dir / "out"
    snaps = len(list(out.glob("snap_*.bin")))
    try:
        with (out / "extras.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        energy = [float(r["energy"]) for r in rows]
        drift = max(abs(e - energy[0]) for e in energy) / abs(energy[0])
        charges = {r["charge_mean"] for r in rows}
    except (OSError, KeyError, ValueError, ZeroDivisionError) as err:
        return False, None, f"exit {res['exit']}, unusable extras.csv: {err!r}"
    ok = (res["exit"] == 0 and snaps == REDUCED_FINE_SNAPSHOTS
          and len(charges) == 1 and drift <= DRIFT_BOUND)
    return ok, drift, (f"exit {res['exit']}, {snaps} snapshots, "
                       f"{len(charges)} charge_mean value(s), drift {drift:.3e}")


_CUTOFF = re.compile(r"cutoff=(\d+)\s+fock_dim=(\d+)\s+max_abs_error_vs_oracle=(\S+)")
CARLEMAN_CUTOFF = 4
CARLEMAN_BOUND = 1.0e-5   # the acceptance gate's bound on the top cutoff


def _carleman_argv(rng: random.Random, op_dir: Path) -> list[str]:
    return ["carleman", "reduced-tiny", "--cutoff", str(CARLEMAN_CUTOFF)]


def _carleman_check(res: dict, op_dir: Path) -> Check:
    found = _CUTOFF.findall(res["stdout"])
    cutoffs = [int(c) for c, _, _ in found]
    errs = [float(e) for _, _, e in found]
    err = errs[-1] if errs else None
    ok = (res["exit"] == 0
          and cutoffs == list(range(1, CARLEMAN_CUTOFF + 1))
          and all(b < a for a, b in zip(errs, errs[1:]))
          and err is not None and err <= CARLEMAN_BOUND)
    return ok, err, (f"exit {res['exit']}, errors "
                     + " -> ".join(f"{e:.2e}" for e in errs))


@dataclass(frozen=True)
class Workload:
    argv: Callable[[random.Random, Path], list[str]]
    check: Callable[[dict, Path], Check]


WORKLOADS = {
    "gate": Workload(_gate_argv, _gate_check),
    "reduced-fine": Workload(_reduced_fine_argv, _reduced_fine_check),
    "carleman-ladder": Workload(_carleman_argv, _carleman_check),
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Runner:
    """Starts children one at a time and never lets one outlive the run."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in THREAD_VARS})
        # the same string hashes, so the same dict and set layouts, every run
        self.env["PYTHONHASHSEED"] = "0"
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else f"{src}{os.pathsep}{old}"

    def child(self, args: list[str]) -> dict:
        """Run child.py with args; its last stdout line parsed as JSON."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return {"error": "run time limit reached before the child started"}
        try:
            proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"child killed after {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return {"error": f"child exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}"}

    def op(self, workload: str, rng: random.Random, traced: bool) -> dict:
        """One checked operation; returns its record."""
        op_dir = OUT / f"op-{workload}"
        shutil.rmtree(op_dir, ignore_errors=True)
        op_dir.mkdir(parents=True)
        spec = WORKLOADS[workload]
        args = ["op", json.dumps(spec.argv(rng, op_dir))]
        if traced:
            args += ["--trace", str(OUT / f"spans-{workload}.npz")]
        t0 = time.perf_counter()
        res = self.child(args)
        wall = time.perf_counter() - t0
        if "stdout" in res:
            ok, err, detail = spec.check(res, op_dir)
            if res.get("error"):
                detail += "; " + res["error"].strip().splitlines()[-1]
        else:
            ok, err, detail = False, None, res["error"]
        shutil.rmtree(op_dir, ignore_errors=True)
        res.pop("stdout", None)
        res.update(ok=ok, accuracy_err=err, detail=detail, wall_s=wall,
                   traced=traced)
        return res


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def closed_loop(runner: Runner, workload: str, rng: random.Random,
                seconds: float, traced_pairs: bool) -> list[dict]:
    """Operations back to back until the next one would overrun `seconds`.

    With traced_pairs, each step is an untraced then a traced operation.
    """
    ops: list[dict] = []
    steps: list[float] = []
    min_steps = 1 if traced_pairs else MIN_OPS
    t0 = time.perf_counter()
    while True:
        s0 = time.perf_counter()
        ops.append(runner.op(workload, rng, traced=False))
        if traced_pairs:
            ops.append(runner.op(workload, rng, traced=True))
        now = time.perf_counter()
        steps.append(now - s0)
        typical = statistics.median(steps)
        if len(steps) >= min_steps and now - t0 + typical > seconds:
            return ops
        # leave room for the sweep and the report within the run limit
        if now + typical > runner.deadline - 30.0:
            return ops


def median_of(ops: list[dict], key: str, default: float) -> float:
    values = [op[key] for op in ops if op.get(key) is not None]
    return statistics.median(values) if values else default


# measured time -> the calibration measured alongside it
CALIBRATED_BY = {"op_s": "calib_s", "setup_s": "setup_calib_s"}


def median_scaled(records: list[dict], key: str) -> float:
    """Median of the records' `key` seconds at the reference speed."""
    calib = CALIBRATED_BY[key]
    values = [r[key] * CALIB_REF_S / r[calib] for r in records
              if r.get(key) is not None and r.get(calib)]
    return statistics.median(values) if values else math.nan


def end_to_end(ops: list[dict], probes: list[dict]) -> dict[str, float]:
    good = [op for op in ops if op["ok"]] or ops
    return {
        "time_to_solution_s": median_scaled(good, "op_s"),
        "setup_s": median_scaled(ops + probes, "setup_s"),
        "peak_rss_mb": median_of(good, "peak_rss_mb", math.nan),
        "ok_frac": sum(op["ok"] for op in ops) / len(ops),
        # 1.0 only when no operation produced a measurable error at all
        "accuracy_err": median_of(good, "accuracy_err", 1.0),
    }


def per_layer(runner: Runner, ops: list[dict]) -> tuple[dict[str, float], list[str]]:
    traced = [op for op in ops if op["traced"] and "trace" in op]
    plain = [op for op in ops if not op["traced"] and "op_s" in op]
    metrics: dict[str, float] = {}
    absent: set[str] = set()
    if traced:
        for name in traced[0]["trace"]:
            metrics[name] = statistics.median(op["trace"][name] for op in traced)
        absent.update(traced[0].get("absent", []))
    if traced and plain:
        metrics["trace.overhead_frac"] = (
            median_scaled(traced, "op_s") / median_scaled(plain, "op_s") - 1.0)
    metrics["raw.time_to_solution_s"] = median_of(plain, "op_s", math.nan)
    metrics["raw.calib_s"] = median_of(ops, "calib_s", math.nan)
    sweep = runner.child(["sweep"])
    metrics.update(sweep.get("metrics", {}))
    absent.update(sweep.get("absent", []))
    if "error" in sweep:
        print(f"sweep: {sweep['error']}")
    return metrics, sorted(absent)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(runner: Runner, versions: dict) -> dict:
    model = re.search(r"^model name\s*:\s*(.+)$", _read("/proc/cpuinfo"), re.M)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(f"{index}/level").strip()
        kind = _read(f"{index}/type").strip()
        caches[f"L{level} {kind}"] = _read(f"{index}/size").strip()
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown (git not available)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1) if model else platform.processor(),
        "caches": caches,
        "versions": versions,
        "threads": {var: runner.env[var] for var in THREAD_VARS},
        "git_rev": rev,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _layer_summary(ops: list[dict]) -> str:
    """Median over traced operations of each layer's share of the operation."""
    traced = [op for op in ops if op["traced"] and "trace" in op]
    if not traced:
        return "no traced operation completed"
    layers = [k for k in traced[0]["trace"]
              if k.count(".") == 1 and k.endswith(".self_s")]
    shares = {k: [op["trace"][k] / op["op_s"] for op in traced] for k in layers}
    rest = [1.0 - sum(op["trace"][k] for k in layers) / op["op_s"] for op in traced]
    return ("self share of a traced operation: "
            + ", ".join(f"{k.split('.')[0]} {100 * statistics.median(v):.1f}%"
                        for k, v in shares.items())
            + f", untraced code {100 * statistics.median(rest):.1f}%")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "kgmlab" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"run.py: {ROOT} is not a kgmlab source checkout "
              "(needs src/kgmlab and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.perf_counter() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    runner = Runner(deadline)
    # a traced run reports no set-up time: one probe compiles the bytecode
    probes = [runner.child(["setup"])
              for _ in range(1 if args.trace else SETUP_PROBES)]
    env = environment(runner, probes[0].get(
        "versions", {"python": platform.python_version()}))
    probes = probes[1:]
    rng = random.Random(args.seed)
    ops = closed_loop(runner, args.workload, rng, args.seconds,
                      traced_pairs=bool(args.trace))
    if args.trace:
        metrics, absent = per_layer(runner, ops)
    else:
        metrics, absent = end_to_end(ops, probes), []

    failed = sum(not op["ok"] for op in ops)
    missing = sorted(set(wanted) - set(metrics))
    values = {name: metrics.get(name, math.nan) for name in wanted}
    correct = failed == 0 and not missing and all(
        math.isfinite(v) for v in values.values())

    print(f"kgmlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("environment: " + json.dumps(env))
    for k, op in enumerate(ops):
        print(f"op {k}{' traced' if op['traced'] else ''}: "
              f"{'ok' if op['ok'] else 'FAILED'} "
              f"setup {op.get('setup_s', math.nan):.3f} s, "
              f"op {op.get('op_s', math.nan):.3f} s, "
              f"calibration slice {op.get('calib_s', math.nan):.4f} s, "
              f"rss {op.get('peak_rss_mb', math.nan):.1f} MB; {op['detail']}")
    for name, unit in wanted.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    if args.trace:
        print(_layer_summary(ops))
    if absent:
        print("absent (removed or renamed, reported as 0): " + ", ".join(absent))
    if missing:
        print("missing metrics: " + ", ".join(missing))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "setup_probes": probes, "operations": ops, "metrics": metrics,
              "absent": absent}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        # an unmeasured metric reads 0 and makes `correct` false
        "metrics": {name: {"value": values[name] if math.isfinite(values[name])
                           else 0.0, "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
