"""The run layer: one configured run, its outputs, and the snapshot reader's
refusals.  The command and the acceptance gate both run through here."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kgmlab import checks, reduced, run
from kgmlab.cli import main
from kgmlab.kernel import B0_FLOOR, Grid1D, GuardViolation, Params
from kgmlab.scenarios import default_scenario, make_scenario


def reduced_snapshot(tmp_path: Path) -> Path:
    path = tmp_path / "red.bin"
    s0 = make_scenario(default_scenario("matter-packet"), Params(), Grid1D(n=32))
    run.write_snapshot(path, s0.to_reduced())
    return path


def test_reduced_run_refuses_a_start_state_the_full_run_steps_from():
    # without its offset the gauge wave's B_0 is 0 up to rounding: the full
    # system divides by no B_0 and runs it to the end, while the reduced run
    # refuses its start state, by name, before the first step
    cfg = run.RunConfig(grid=Grid1D(n=64), t_end=1.0,
                        scenario=replace(default_scenario("pure-gauge-wave"), offset=0.0))
    b0 = make_scenario(cfg.scenario, cfg.params, cfg.grid).B[0]
    j = int(np.argmin(np.abs(b0)))
    assert abs(b0[j]) < B0_FLOOR
    assert run.integrate(cfg, "full").times[-1] == pytest.approx(cfg.t_end, abs=1e-12)
    with pytest.raises(GuardViolation) as err:
        run.integrate(cfg, "reduced")
    assert str(err.value).startswith("|B_0| = ")
    assert str(err.value).endswith(f"at grid index {j}, t=0")


def offset_config(offset: float) -> run.RunConfig:
    # a uniform B_0 = offset: min |B_0| sits at grid index 0
    return run.RunConfig(grid=Grid1D(n=32), dt=0.01, t_end=0.04,
                         scenario=replace(default_scenario("vacuum-offset"), offset=offset))


def test_run_reduced_refuses_below_twice_the_floor_for_every_caller(monkeypatch):
    # the library call refuses what `kgmlab run-reduced` refuses, in the
    # same words, before its first step
    def no_step(*args):
        pytest.fail("run_reduced stepped a start state below 2*B0_FLOOR")

    monkeypatch.setattr(reduced, "step_reduced", no_step)
    cfg = offset_config(1.5e-6)
    s0 = make_scenario(cfg.scenario, cfg.params, cfg.grid)
    message = "|B_0| = 1.500e-06 < floor 2.000e-06 at grid index 0, t=0"
    with pytest.raises(GuardViolation) as err:
        reduced.run_reduced(s0, cfg.dt, cfg.t_end, cfg.params)
    assert str(err.value) == message
    with pytest.raises(GuardViolation) as err:
        run.integrate(cfg, "reduced")
    assert str(err.value) == message


def test_run_reduced_runs_a_start_state_above_twice_the_floor():
    cfg = offset_config(2.5e-6)
    s0 = make_scenario(cfg.scenario, cfg.params, cfg.grid)
    for traj in (reduced.run_reduced(s0, cfg.dt, cfg.t_end, cfg.params),
                 run.integrate(cfg, "reduced")):
        assert traj.times[-1] == pytest.approx(cfg.t_end, abs=1e-12)
        assert len(traj.states) == 5


@pytest.mark.parametrize("key, value", [
    ("n", None), ("rows", None), ("kind", None), ("t", None), ("length", None),
    ("charge_mean", None), ("n", "eight"), ("t", [0.0]), ("n", 64.9), ("n", "64"),
    ("rows", 8.5), ("rows", "8"), ("t", "0.5"), ("length", "6.5"), ("charge_mean", True),
], ids=["no-n", "no-rows", "no-kind", "no-t", "no-length", "no-charge_mean",
        "n-eight", "t-list", "n-fraction", "n-string", "rows-fraction", "rows-string",
        "t-string", "length-string", "charge_mean-bool"])
def test_malformed_sidecar_names_its_field(tmp_path, key, value):
    path = reduced_snapshot(tmp_path)
    sidecar = Path(str(path) + ".json")
    meta = json.loads(sidecar.read_text())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(run.FormatVersionMismatch, match=repr(key)):
        run.read_snapshot(path)


@pytest.mark.parametrize("key, value", [
    ("n", 3), ("length", 0.0), ("length", -1.0), ("length", float("nan")),
    ("t", float("inf")), ("charge_mean", float("-inf")), ("t", 10**400),
], ids=["n-not-power-of-two", "length-zero", "length-negative", "length-nan", "t-inf",
        "charge_mean-inf", "t-past-float"])
def test_out_of_range_sidecar_names_its_field(tmp_path, key, value):
    # each passes the type check, so only a range check can refuse it (json
    # writes NaN and Infinity for the non-finite floats); the n = 3 binary
    # is cut to the 8 * 3 doubles the sidecar then promises
    path = reduced_snapshot(tmp_path)
    sidecar = Path(str(path) + ".json")
    meta = json.loads(sidecar.read_text())
    meta[key] = value
    sidecar.write_text(json.dumps(meta))
    if key == "n":
        path.write_bytes(path.read_bytes()[:8 * 3 * 8])
    with pytest.raises(run.FormatVersionMismatch, match=repr(key)):
        run.read_snapshot(path)


def test_sidecar_that_is_not_an_object_is_refused(tmp_path):
    path = reduced_snapshot(tmp_path)
    Path(str(path) + ".json").write_text("[1, 2]\n")
    with pytest.raises(run.FormatVersionMismatch, match="JSON list"):
        run.read_snapshot(path)


@pytest.mark.parametrize("flavor", ["full", "reduced"])
def test_integrate_writes_what_the_command_writes(tmp_path, flavor):
    by_command, by_call = tmp_path / "cmd", tmp_path / "call"
    assert main([f"run-{flavor}", "--n", "64", "--t-end", "0.2", "--every", "3",
                 "--out", str(by_command)]) == 0
    cfg = run.RunConfig(grid=Grid1D(n=64), t_end=0.2, every=3, out_dir=str(by_call))
    run.write_run_outputs(cfg, run.integrate(cfg, flavor))

    names = sorted(f.name for f in by_command.iterdir() if f.name != "config.txt")
    assert names == sorted(f.name for f in by_call.iterdir() if f.name != "config.txt")
    assert "extras.csv" in names and "snap_00000.bin" in names
    for name in names:
        assert (by_command / name).read_bytes() == (by_call / name).read_bytes()
    # the echoes differ only in output.dir
    echoed = run.RunConfig.parse((by_command / "config.txt").read_text())
    assert echoed == replace(cfg, out_dir=str(by_command))


@pytest.mark.parametrize("error", [
    GuardViolation("|B_0| below the floor"),
    PermissionError("read-only output directory"),
], ids=["simulation-error", "os-error"])
def test_determinism_criterion_fails_on_a_run_error(monkeypatch, error):
    def broken(cfg, flavor):
        raise error

    monkeypatch.setattr(run, "integrate", broken)
    ok, detail = dict(checks.CRITERIA)["determinism-persistence"]()
    assert not ok
    assert type(error).__name__ in detail and str(error) in detail
