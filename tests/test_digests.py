"""Byte identity of the command outputs, pinned by SHA-256 digests.

Each entry of digests.json maps a ``kgmlab`` command line to the digest of
what it writes: every file of its output directory but config.txt (which
echoes the directory), names and bytes in name order, then its stdout.  A
run's stdout names the directory, so a run's digest leaves it out; the
carleman demos and check write no directory.  A one-ulp change to any
snapshot array changes its run's digest.

The Carleman layer is pinned array by array as well (`ARRAYS`), since its
commands print only a few digits of each error: the n = 2 embedding's
Fock basis at cutoff 4, the CSR arrays of its recentred generator at
cutoffs 3 and 4, and both classical-oracle readings.  Each array enters
its digest as dtype, shape and C-order bytes.

`check` reruns the acceptance gate.  It costs about 0.3 s when
test_acceptance has already filled kgmlab.checks._ladder_level's cache in
the same process, and about 1.2 s alone.

The digests hold for the numpy and scipy versions recorded beside them;
on other versions the test skips and says why.  A change that moves
numbers on purpose rewrites them in the same commit, with

    PYTHONPATH=src python tests/test_digests.py

which prints each command whose digest moved (old -> new, the first 12
hex digits) and how many did not; the commit states which outputs moved,
and by how much, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from kgmlab.carleman import (
    FockBasis,
    build_m,
    classical_flow,
    recenter,
    reciprocal_drift,
    tiny_reduced_embedding,
)
from kgmlab.cli import main

DIGESTS = Path(__file__).with_name("digests.json")

# The matter packet's runs write every step.  The n = 4096 reduced run is
# the benchmark's grid size, over its first 66 steps.  The free-field
# scenarios are closed-form or static, and their every-8th snapshots carry
# any move on.  compare and convergence run both integrators on the matter
# packet to t = 0.3.  Without check, they take about 1.3 s together.
COMMANDS = [
    "run-full --n 256",
    "run-reduced --n 256",
    "run-reduced --n 4096 --t-end 0.05 --every 16",
    *(f"run-{flavor} --n 256 --scenario {scenario} --every 8"
      for scenario in ("pure-gauge-wave", "vacuum-offset")
      for flavor in ("full", "reduced")),
    "carleman riccati",
    "carleman rotation",
    "carleman lotka",
    "carleman reduced-tiny",
    "carleman reduced-tiny --cutoff 4",
    "check",
    "compare --n 256 --t-end 0.3",
    "convergence --t-end 0.3",
]
# the commands that write an output directory, which takes --out
WRITES = ("run-full", "run-reduced", "compare", "convergence")




def _generator(cutoff: int) -> list[np.ndarray]:
    _, sys_, x0 = tiny_reduced_embedding()
    m = build_m(recenter(sys_, x0), FockBasis(k=sys_.k, cutoff=cutoff))
    return [m.indptr, m.indices, m.data]


def _oracles() -> list[np.ndarray]:
    _, sys_, x0 = tiny_reduced_embedding()
    return [classical_flow(sys_, x0, 0.05, 1e-4), np.float64(reciprocal_drift(sys_, x0, 0.5))]


def _basis() -> list[np.ndarray]:
    basis = FockBasis(k=24, cutoff=4)
    return [basis.states, basis.down, basis.up]


# name -> the arrays it pins, computed on demand
ARRAYS = {
    "FockBasis(24, 4) states down up": _basis,
    "build_m(recenter(embedding), cutoff 3) indptr indices data": lambda: _generator(3),
    "build_m(recenter(embedding), cutoff 4) indptr indices data": lambda: _generator(4),
    "classical_flow(embedding, 0.05, 1e-4) reciprocal_drift(embedding, 0.5)": _oracles,
}


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def output_digest(command: str) -> str:
    """SHA-256 hex digest of what command writes; see the module docstring."""
    argv = command.split()
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()) as buf:
        if argv[0] in WRITES:
            argv += ["--out", tmp]
        assert main(argv) == 0, f"{command} failed"
        for path in sorted(Path(tmp).iterdir()):
            if path.name != "config.txt":
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
    if not argv[0].startswith("run-"):
        digest.update(buf.getvalue().encode())
    return digest.hexdigest()


def array_digest(name: str) -> str:
    """SHA-256 hex digest of the arrays ARRAYS[name] pins."""
    digest = hashlib.sha256()
    for arr in ARRAYS[name]():
        arr = np.asarray(arr)
        digest.update(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def data() -> dict:
    data = json.loads(DIGESTS.read_text())
    want = {name: data[name] for name in versions()}
    if want != versions():
        pytest.skip(f"digests were recorded with {want}; this is {versions()}")
    return data


@pytest.mark.parametrize("command", COMMANDS)
def test_output_bytes_match_recorded_digest(command, data):
    assert output_digest(command) == data["outputs"][command], (
        f"the output of `kgmlab {command}` moved; if on purpose, rewrite the "
        "digests with `PYTHONPATH=src python tests/test_digests.py`")


@pytest.mark.parametrize("name", ARRAYS)
def test_carleman_arrays_match_recorded_digest(name, data):
    assert array_digest(name) == data["arrays"][name], (
        f"the arrays of {name} moved; if on purpose, rewrite the digests with "
        "`PYTHONPATH=src python tests/test_digests.py`")


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    new = {"outputs": {c: output_digest(c) for c in COMMANDS},
           "arrays": {a: array_digest(a) for a in ARRAYS}}
    DIGESTS.write_text(json.dumps({**versions(), **new}, indent=1) + "\n")
    moved = [(key, c) for key, digests in new.items() for c in digests
             if old.get(key, {}).get(c) != digests[c]]
    for key, c in moved:
        print(f"moved: {c}: {old.get(key, {}).get(c, 'none')[:12]} -> {new[key][c][:12]}")
    total = len(COMMANDS) + len(ARRAYS)
    print(f"wrote {total} digests to {DIGESTS}; {total - len(moved)} unchanged")
