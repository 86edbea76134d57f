"""Byte identity of the command outputs, pinned by SHA-256 digests.

Each entry of digests.json maps a ``kgmlab`` command line to the digest of
what it writes: every file of its output directory but config.txt (which
echoes the directory), names and bytes in name order, then its stdout.  A
run's stdout names the directory, so a run's digest leaves it out; the
carleman demos and check write no directory.  A one-ulp change to any
snapshot array changes its run's digest.

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
    "check",
    "compare --n 256 --t-end 0.3",
    "convergence --t-end 0.3",
]
# the commands that write an output directory, which takes --out
WRITES = ("run-full", "run-reduced", "compare", "convergence")


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


@pytest.fixture(scope="module")
def recorded() -> dict[str, str]:
    data = json.loads(DIGESTS.read_text())
    want = {name: data[name] for name in versions()}
    if want != versions():
        pytest.skip(f"digests were recorded with {want}; this is {versions()}")
    return data["outputs"]


@pytest.mark.parametrize("command", COMMANDS)
def test_output_bytes_match_recorded_digest(command, recorded):
    assert output_digest(command) == recorded[command], (
        f"the output of `kgmlab {command}` moved; if on purpose, rewrite the "
        "digests with `PYTHONPATH=src python tests/test_digests.py`")


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text())["outputs"] if DIGESTS.exists() else {}
    new = {c: output_digest(c) for c in COMMANDS}
    DIGESTS.write_text(json.dumps({**versions(), "outputs": new}, indent=1) + "\n")
    moved = [c for c in COMMANDS if old.get(c) != new[c]]
    for c in moved:
        print(f"moved: {c}: {old.get(c, 'none')[:12]} -> {new[c][:12]}")
    print(f"wrote {len(COMMANDS)} digests to {DIGESTS}; "
          f"{len(COMMANDS) - len(moved)} unchanged")
