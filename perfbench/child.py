"""One benchmark operation in a fresh interpreter.

    python3 child.py op ARGV_JSON [--trace SPANS_NPZ]
    python3 child.py sweep
    python3 child.py setup

``op`` times the import of ``kgmlab.cli`` (the set-up a real ``kgmlab``
invocation pays), then runs ``kgmlab.cli.main(ARGV)`` with its standard
output captured, and prints one JSON line: set-up, operation and
calibration seconds, exit code, peak resident set size, the captured
output, and, with ``--trace``, the per-layer metrics (its spans go to
SPANS_NPZ).

``sweep`` times single calls of a few layer functions on matter-packet at
several grid sizes and counts the calls that raise.  ``setup`` times the
import of ``kgmlab.cli`` alone and calibrates after it, then imports
everything the other modes import, so that bytecode is compiled before any
operation is timed, and reports the library versions.

Calibration: a slice is fixed numpy and scipy work that uses no part of
kgmlab, of the three kinds kgmlab does: a three-point stencil stepped on a
4096-point array, sparse LU solves and small dense matrix exponentials,
about 5 ms on an unloaded host.  Its time says how fast the shared host
runs at that moment.  A child runs EDGE_SLICES slices after the import and
after the operation, and an untraced operation also runs one slice every
SAMPLE_PERIOD_S from a timer signal, so that the speed is sampled while
the operation runs; the time spent in those slices is taken out of the
operation's time.  ``calib_s`` is the mean slice time.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _versions() -> dict[str, str]:
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


EDGE_SLICES = 5
SAMPLE_PERIOD_S = 0.1


@functools.cache
def _slice_inputs():
    import numpy as np
    import scipy.sparse as sp
    n = 512
    band = np.full(n - 1, -1.0)
    lhs = sp.diags([band, np.full(n, 2.5), band], [-1, 0, 1], format="csc")
    dense = np.random.default_rng(0).standard_normal((48, 48)) / 48.0
    return np.linspace(0.0, 1.0, 4096), lhs, np.ones(n), dense


def calibration_slice() -> float:
    """Seconds taken by one calibration slice."""
    import numpy as np
    import scipy.linalg as la
    import scipy.sparse.linalg as spla
    x, lhs, rhs, dense = _slice_inputs()
    t0 = time.perf_counter()
    for _ in range(60):
        x = x + 1e-3 * (np.roll(x, 1) - 2.0 * x + np.roll(x, -1))
    for _ in range(6):
        spla.splu(lhs).solve(rhs)
    for _ in range(12):
        la.expm(dense)
    return time.perf_counter() - t0


class Sampler:
    """Runs a calibration slice every SAMPLE_PERIOD_S while it is on."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.spent_s = 0.0   # wall time inside the signal handler

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.slices.append(calibration_slice())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def run_op(argv: list[str], spans_path: str | None) -> dict:
    t0 = time.perf_counter()
    import kgmlab.cli
    setup_s = time.perf_counter() - t0
    slices = [calibration_slice() for _ in range(EDGE_SLICES)]
    setup_calib_s = statistics.fmean(slices)

    tracer = None
    if spans_path is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    out = io.StringIO()
    error = None
    # traced spans would count the slices as kgmlab's time: no sampling there
    sampler = Sampler()
    t1 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), (
                sampler if tracer is None else contextlib.nullcontext()):
            code = kgmlab.cli.main(argv)
    except Exception:  # the operation crashed: report it, do not die
        code, error = -1, traceback.format_exc()
    op_s = time.perf_counter() - t1 - sampler.spent_s
    slices += sampler.slices
    slices += [calibration_slice() for _ in range(EDGE_SLICES)]

    result = {"setup_s": setup_s, "setup_calib_s": setup_calib_s,
              "op_s": op_s, "calib_s": statistics.fmean(slices),
              "slices": len(slices), "exit": code,
              "peak_rss_mb": _peak_rss_mb(), "stdout": out.getvalue(),
              "error": error}
    if tracer is not None:
        import numpy as np
        np.savez(spans_path, names=np.array(tracer.names), **tracer.arrays())
        result["trace"] = tracer.metrics()
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.nid)
    return result


# (module, function, attempts per grid size); the matter-packet state at each
# size is the input, so the failures counted are the program's own
SWEEP_FNS = (("kernel", "deriv_x", 101),
             ("scenarios", "solve_gauss_constraint", 15),
             ("full", "step_full", 15),
             ("reduced", "step_reduced", 15),
             ("diagnostics", "snapshot_extras", 15))
SWEEP_NS = (128, 1024, 4096)
SWEEP_FAILED = ("solve_gauss_constraint", "step_full")


def run_sweep() -> dict:
    import importlib

    from kgmlab import Grid1D, Params, default_scenario, make_scenario

    p = Params()
    metrics: dict[str, float] = {}
    absent: list[str] = []
    for n in SWEEP_NS:
        g = Grid1D(n=n)
        s0 = make_scenario(default_scenario("matter-packet"), p, g)
        r0 = s0.to_reduced()
        dt = 0.5 * g.h
        calls = {
            "deriv_x": lambda f: f(s0.B[1], g),
            "solve_gauss_constraint": lambda f: f(
                s0.phi, s0.Bdot[1:], p, g, charge_mean=s0.charge_mean),
            "step_full": lambda f: f(s0, dt, p),
            "step_reduced": lambda f: f(r0, dt, p),
            "snapshot_extras": lambda f: f(r0, p),
        }
        for module, fn, attempts in SWEEP_FNS:
            func = getattr(importlib.import_module(f"kgmlab.{module}"), fn, None)
            times, failed = [], 0
            if func is None:
                absent.append(f"{module}.{fn}")
            else:
                for _ in range(attempts):
                    t0 = time.perf_counter()
                    try:
                        calls[fn](func)
                    except Exception:  # a probe counts failures, never stops
                        failed += 1
                    times.append(time.perf_counter() - t0)
            metrics[f"sweep.{fn}.call_s.n{n}"] = (
                statistics.median(times) if times else 0.0)
            if fn in SWEEP_FAILED:
                metrics[f"sweep.{fn}.failed.n{n}"] = failed
    return {"metrics": metrics, "absent": absent}


def main(argv: list[str]) -> int:
    if argv[:1] == ["sweep"]:
        result = run_sweep()
    elif argv[:1] == ["setup"]:
        t0 = time.perf_counter()
        import kgmlab.cli  # noqa: F401
        setup_s = time.perf_counter() - t0
        calib_s = statistics.fmean(
            calibration_slice() for _ in range(EDGE_SLICES))
        import kgmlab.checks  # noqa: F401  (imported by `kgmlab check`)
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer  # noqa: F401
        result = {"setup_s": setup_s, "setup_calib_s": calib_s,
                  "versions": _versions()}
    elif argv[:1] == ["op"] and len(argv) in (2, 4):
        spans = argv[3] if len(argv) == 4 and argv[2] == "--trace" else None
        result = run_op(json.loads(argv[1]), spans)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
