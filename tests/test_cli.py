"""Driver plumbing: config language, snapshot format, exit codes.

Everything here goes through cli.main with an argv list, the way the
console entry point calls it, so the exit-code contract is tested at the
same boundary a shell user sees.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kgmlab import carleman, cli, diagnostics, run
from kgmlab.carleman import FockBasis, VacuumOrthogonal, coherent_vector
from kgmlab.cli import (
    ConfigError,
    FormatVersionMismatch,
    RunConfig,
    TruncatedFile,
    ladder_level,
    main,
    read_snapshot,
    write_snapshot,
)
from kgmlab.kernel import COMB_FRACTION, FullState, Grid1D, Params, ReducedState
from kgmlab.reduced import accel_reduced, phi_identity_check
from kgmlab.scenarios import default_scenario, make_scenario


def packet_state(n: int = 32) -> FullState:
    g = Grid1D(n=n)
    return make_scenario(default_scenario("matter-packet"), Params(), g)


# ---------------------------------------------------------------------------
# configuration language
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = RunConfig()
    assert cfg.grid == Grid1D(n=256) and cfg.params == Params()
    assert cfg.t_end == 1.0 and cfg.dt == 0.0
    assert cfg.scenario == default_scenario("matter-packet")


def test_config_parse_and_override_order():
    text = """
    # comment line
    grid.n = 64

    scenario.name = pure-gauge-wave
    scenario.amplitude = 0.25
    time.t_end = 0.5
    output.every = 3
    """
    cfg = RunConfig.parse(text)
    assert cfg.grid.n == 64 and cfg.every == 3 and cfg.t_end == 0.5
    # explicit scenario.* keys land on top of that scenario's defaults
    assert cfg.scenario.name == "pure-gauge-wave"
    assert cfg.scenario.amplitude == 0.25
    assert cfg.scenario.offset == default_scenario("pure-gauge-wave").offset


@pytest.mark.parametrize("text, fragment", [
    ("grid.m = 3", "unknown config key"),
    ("grid.n : 3", "expected 'key = value'"),
    ("grid.n = twelve", "grid.n"),
    ("grid.n = 32\ngrid.n = 64", "duplicate"),
    ("scenario.name = warp-core", "unknown scenario"),
])
def test_config_rejects_bad_text(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        RunConfig.parse(text)


def test_config_echo_reparses_identically():
    cfg = RunConfig.parse(
        "grid.n = 64\nscenario.name = pure-gauge-wave\n"
        "scenario.amplitude = 0.3\ntime.dt = 0.015625\ntime.t_end = 0.125\n"
        "params.m = 1.7\noutput.dir = results/run7\n")
    assert RunConfig.parse(cfg.to_text()) == cfg
    # and once more through a non-default float that needs all 17 digits
    cfg2 = replace(cfg, t_end=np.nextafter(0.125, 1.0))
    assert RunConfig.parse(cfg2.to_text()) == cfg2


@pytest.mark.parametrize("text, key", [
    ("scenario.wavenumber = 1.5", "scenario.wavenumber"),
    ("params.m = heavy", "params.m"),
])
def test_config_bad_value_names_its_key(text, key):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        RunConfig.parse(text)


def test_config_default_echo_text():
    # the header, then every key once, in echo order
    assert RunConfig().to_text() == (
        "# effective configuration\n"
        "grid.n = 256\n"
        "grid.length = 6.283185307179586\n"
        "params.e = 1.0\n"
        "params.m = 1.0\n"
        "time.dt = 0.0\n"
        "time.t_end = 1.0\n"
        "scenario.name = matter-packet\n"
        "scenario.amplitude = 0.3\n"
        "scenario.width = 1.4\n"
        "scenario.wavenumber = 1\n"
        "scenario.offset = 1.0\n"
        "output.every = 1\n"
        "output.dir = out\n"
    )


def test_config_comb_step_covers_t_end_exactly():
    cfg = RunConfig.parse("grid.n = 64\ntime.t_end = 0.2\n")
    g = cfg.grid
    dt = cfg.resolved_dt()
    assert dt <= COMB_FRACTION * g.h + 1e-15
    steps = round(cfg.t_end / dt)
    assert steps * dt == pytest.approx(cfg.t_end, abs=1e-12)


# ---------------------------------------------------------------------------
# snapshot persistence
# ---------------------------------------------------------------------------


def test_snapshot_round_trip_full_bit_exact(tmp_path):
    s = packet_state()
    s.t = 0.375
    s.phi[3] = np.nextafter(s.phi[3], 9.0)  # one-ulp perturbation must survive
    path = tmp_path / "snap.bin"
    write_snapshot(path, s, scenario=default_scenario("matter-packet"))

    r, meta = read_snapshot(path)
    assert isinstance(r, FullState)
    for got, want in ((r.B, s.B), (r.Bdot, s.Bdot), (r.phi, s.phi),
                      (r.phidot, s.phidot)):
        assert got.tobytes() == want.tobytes()
    assert r.t == s.t and r.charge_mean == s.charge_mean
    assert meta["format"] == "1" and meta["kind"] == "full"
    assert meta["scenario"]["name"] == "matter-packet"


def test_snapshot_round_trip_reduced(tmp_path):
    red = packet_state().to_reduced()
    path = tmp_path / "red.bin"
    write_snapshot(path, red)
    r, meta = read_snapshot(path)
    assert isinstance(r, ReducedState) and not isinstance(r, FullState)
    assert r.B.tobytes() == red.B.tobytes()
    assert r.Bdot.tobytes() == red.Bdot.tobytes()
    assert meta["kind"] == "reduced" and meta["scenario"] is None


def test_snapshot_truncated_binary(tmp_path):
    path = tmp_path / "snap.bin"
    write_snapshot(path, packet_state())
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(TruncatedFile, match="promises"):
        read_snapshot(path)


def test_snapshot_format_version_gate(tmp_path):
    path = tmp_path / "snap.bin"
    write_snapshot(path, packet_state())
    sidecar = Path(str(path) + ".json")
    meta = json.loads(sidecar.read_text())
    meta["format"] = "2"
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(FormatVersionMismatch, match="'2'"):
        read_snapshot(path)


@pytest.mark.parametrize("kind", ["Full", "mixed", None])
def test_snapshot_unknown_kind_rejected(tmp_path, kind):
    # a reduced-sized payload under a foreign kind must not read as reduced
    path = tmp_path / "red.bin"
    write_snapshot(path, packet_state().to_reduced())
    sidecar = Path(str(path) + ".json")
    meta = json.loads(sidecar.read_text())
    meta["kind"] = kind
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(FormatVersionMismatch, match=f"kind {kind!r}"):
        read_snapshot(path)


# ---------------------------------------------------------------------------
# subcommands and exit codes
# ---------------------------------------------------------------------------


def test_run_reduced_writes_outputs_and_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        argv = ["run-reduced", "--n", "64", "--t-end", "0.2", "--every", "2",
                "--out", str(out)]
        assert main(argv) == 0
    names = sorted(f.name for f in out_a.iterdir())
    assert "config.txt" in names and "extras.csv" in names
    snaps = [n for n in names if n.startswith("snap") and n.endswith(".bin")]
    assert len(snaps) >= 2
    for name in names:
        if name == "config.txt":
            continue  # echoes output.dir, which differs by construction
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_full_emits_snapshots_readable_as_full(tmp_path):
    out = tmp_path / "f"
    assert main(["run-full", "--n", "32", "--t-end", "0.1",
                 "--out", str(out)]) == 0
    state, meta = read_snapshot(out / "snap_00000.bin")
    assert isinstance(state, FullState) and meta["rows"] == 10


def test_run_effective_config_echo_round_trips(tmp_path):
    out = tmp_path / "r"
    assert main(["run-reduced", "--n", "32", "--t-end", "0.1", "--dt", "0.025",
                 "--scenario", "vacuum-offset", "--out", str(out)]) == 0
    echoed = RunConfig.parse((out / "config.txt").read_text())
    assert echoed.grid.n == 32 and echoed.dt == 0.025
    assert echoed.scenario == default_scenario("vacuum-offset")
    assert echoed.out_dir == str(out)


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("grid.n = 32\ntime.t_end = 0.1\n"
                        f"output.dir = {tmp_path / 'cfgout'}\n")
    assert main(["run-reduced", "--config", str(cfg_file), "--n", "64"]) == 0
    echoed = RunConfig.parse((tmp_path / "cfgout" / "config.txt").read_text())
    assert echoed.grid.n == 64     # flag beats file
    assert echoed.t_end == 0.1     # file beats default


def test_scenario_flag_keeps_config_file_scenario_values(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("grid.n = 32\ntime.t_end = 0.1\n"
                        "scenario.name = pure-gauge-wave\nscenario.amplitude = 0.25\n"
                        f"output.dir = {tmp_path / 'cfgout'}\n")
    assert main(["run-reduced", "--config", str(cfg_file),
                 "--scenario", "pure-gauge-wave"]) == 0
    echoed = RunConfig.parse((tmp_path / "cfgout" / "config.txt").read_text())
    # the flag picks the defaults; the file's scenario.* keys land on top
    assert echoed.scenario == replace(default_scenario("pure-gauge-wave"), amplitude=0.25)


def test_large_dt_warns_on_stderr(tmp_path, capsys):
    assert main(["run-full", "--n", "64", "--dt", "0.2", "--t-end", "0.2",
                 "--out", str(tmp_path / "w")]) == 0
    assert "warning" in capsys.readouterr().err


def test_unknown_scenario_exits_2(tmp_path, capsys):
    code = main(["run-full", "--scenario", "warp-core",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "scenario" in capsys.readouterr().err


def test_unreachable_t_end_exits_2(tmp_path, capsys):
    code = main(["run-reduced", "--n", "64", "--dt", "0.3", "--t-end", "1.0",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "not reachable" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run-reduced", "--n", "64", "--t-end", "1e308"],
    ["compare", "--n", "64", "--t-end", "1e308"],
    ["convergence", "--t-end", "1e308"],
    ["run-full", "--n", "64", "--t-end", "1e300", "--dt", "1e-10"],
    ["carleman", "lotka", "--t-end", "1e308"],
    ["carleman", "riccati", "--t-end", "1e308"],
    ["carleman", "reduced-tiny", "--t-end", "1e308"],
    ["carleman", "riccati", "--t-end", "1e300"],
    ["run-reduced", "--n", "64", "--t-end", "1e20"],
    ["carleman", "lotka", "--t-end", "1e20"],
    ["carleman", "reduced-tiny", "--t-end", "1e20"],
], ids=["run-reduced", "compare", "convergence", "run-full", "lotka", "riccati",
        "reduced-tiny", "riccati-huge", "run-reduced-huge", "lotka-huge",
        "reduced-tiny-huge"])
def test_step_count_overflow_exits_2(tmp_path, capsys, argv):
    # a finite horizon whose step count overflows a float: the comb step
    # (run-reduced, compare, convergence), the run driver (run-full), the
    # classical oracle (lotka), the Fock propagation (riccati) and the
    # reciprocal drift (reduced-tiny) each refuse it by name.  The -huge
    # cases are finite counts past 2**53, which would otherwise run without
    # bound; they are refused before the first step too
    if argv[0] != "carleman":
        argv = [*argv, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "config error: t_end=" in capsys.readouterr().err


@pytest.mark.parametrize("line, flags, key", [
    ("params.e = nan", [], "params.e"),
    ("params.m = inf", [], "params.m"),
    ("scenario.amplitude = nan", [], "scenario.amplitude"),
    ("scenario.offset = inf", [], "scenario.offset"),
    ("scenario.width = 0", [], "scenario.width"),
    ("", ["--t-end", "inf"], "time.t_end"),
    ("", ["--t-end", "nan"], "time.t_end"),
    ("", ["--dt", "nan"], "time.dt"),
    ("", ["--n", "48"], "grid.n"),
    ("grid.length = 0", [], "grid.length"),
], ids=["e-nan", "m-inf", "amplitude-nan",
        "offset-inf", "width-0", "t_end-inf", "t_end-nan", "dt-nan", "n-48",
        "length-0"])
def test_non_finite_or_out_of_range_number_exits_2(tmp_path, capsys, line, flags, key):
    # a NaN coupling or a bad time would fail deep inside the run; each is
    # a config error naming its key
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"grid.n = 32\ntime.t_end = 0.1\n{line}\n")
    code = main(["run-full", "--config", str(cfg_file), *flags,
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "params.e = 1e200",
    "params.m = 1e300",
    "grid.length = 1e300",
    "scenario.width = 1e-300",
    "grid.length = 1e-200",
    "params.e = 1e-170",
], ids=["e-square-overflows", "m-square-overflows", "h-square-overflows",
        "packet-exponent-overflows", "h-square-vanishes", "e-square-vanishes"])
def test_finite_number_whose_square_leaves_float_range_exits_2(tmp_path, capsys, line):
    # e**2 and h * h must be finite and nonzero with finite reciprocals, and
    # m**2 and the packet exponent 2 (length / (2 pi width))**2 finite;
    # otherwise a run would end in a traceback or a numpy warning
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{line}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run-reduced", "--config", str(cfg_file), "--n", "16", "--dt", "1e-3",
                     "--t-end", "1e-3", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {line.split()[0]}: ")


def test_coherent_amplitude_past_float_range_exits_1(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["carleman", "riccati", "--xi0", "1e200"]) == 1
    assert capsys.readouterr().err.startswith("error: coherent amplitude ")


def test_coherent_amplitude_whose_vacuum_weight_underflows_exits_1(monkeypatch, capsys):
    # exp(-|xi0|^2 / 2) is 0 in floats at xi0 = 40: refused where the vector
    # is formed, with no tail warning and before any M is built
    with pytest.raises(VacuumOrthogonal, match="coherent amplitude"):
        coherent_vector(np.array([40.0]), FockBasis(1, 16))

    def no_m(*args):
        raise AssertionError("build_m ran")

    monkeypatch.setattr(carleman, "build_m", no_m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["carleman", "riccati", "--xi0", "40"]) == 1
    assert capsys.readouterr().err.startswith("error: coherent amplitude [40.+0.j] ")


def test_bad_flag_exits_2(capsys):
    assert main(["run-full", "--no-such-flag"]) == 2
    capsys.readouterr()


def test_deleted_floor_key_exits_2(tmp_path, capsys):
    # the floors are constants of the code, not configuration
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("grid.n = 32\ntime.t_end = 0.1\nparams.phi_floor = 0.001\n")
    code = main(["run-full", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown config key 'params.phi_floor'" in capsys.readouterr().err


def test_guard_trip_exits_1(tmp_path, capsys):
    # with no offset the packet's B_0 is 0 and trips its guard at t=0
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("grid.n = 32\nscenario.offset = 0\n"
                        "time.t_end = 0.1\n"
                        f"output.dir = {tmp_path / 'g'}\n")
    code = main(["run-reduced", "--config", str(cfg_file)])
    assert code == 1
    assert "|B_0|" in capsys.readouterr().err


def test_compare_exit_codes_by_tolerance(tmp_path, capsys):
    argv = ["compare", "--n", "128", "--t-end", "1.0", "--every", "8",
            "--out", str(tmp_path / "c")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "max relative Linf" in out
    assert (tmp_path / "c" / "compare.csv").exists()

    assert main(argv + ["--tol", "1e-9"]) == 1
    assert "exceeds tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.001"])
def test_compare_rejects_bad_tolerance(tmp_path, capsys, tol):
    # max_rel_linf > nan is False, so a NaN tolerance would pass every run
    code = main(["compare", "--n", "32", "--t-end", "0.1", "--tol", tol,
                 "--out", str(tmp_path / "c")])
    assert code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv, value, code", [
    (["carleman", "riccati", "--t-end"], "-1e-1", 0),
    (["compare", "--n", "32", "--t-end", "0.1", "--tol"], "-1e-3", 2),
    (["carleman", "riccati", "--t-end"], "-inf", 2),
    (["run-reduced", "--t-end"], "-nan", 2),
], ids=["t_end", "tol", "t_end_inf", "t_end_nan"])
def test_negative_float_with_exponent_reads_as_its_decimal(capsys, argv, value, code):
    # -1e-3, -inf and -nan must reach the code that -0.001 and the
    # =-joined spelling reach, not be taken for an option
    *head, flag = argv
    results = []
    for spelled in ([*argv, value], [*argv, repr(float(value))], [*head, f"{flag}={value}"]):
        results.append((main(spelled), *capsys.readouterr()))
    assert results[0] == results[1] == results[2]
    assert results[0][0] == code


def test_carleman_riccati_prints_error_vs_closed_form(capsys):
    # cutoff 10 sits above the coherent-tail warning threshold for xi0 = 0.5
    assert main(["carleman", "riccati", "--xi0", "0.5", "--cutoff", "10",
                 "--t-end", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "exact" in out and "3.33333" in out  # 1/3 to the printed digits
    assert "error" in out


def test_carleman_riccati_runs_past_factorial_overflow(capsys):
    # cutoff 200 needs coherent amplitudes beyond n = 170, where n! overflows
    assert main(["carleman", "riccati", "--cutoff", "200"]) == 0
    assert "error" in capsys.readouterr().out


def test_carleman_rejects_bad_cutoff(capsys):
    assert main(["carleman", "riccati", "--cutoff", "0"]) == 2
    assert "cutoff" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["riccati", "--t-end", "inf"], "--t-end"),
    (["lotka", "--t-end", "inf"], "--t-end"),
    (["reduced-tiny", "--t-end", "inf"], "--t-end"),
    (["riccati", "--t-end", "nan"], "--t-end"),
    (["riccati", "--xi0", "nan"], "--xi0"),
    (["rotation", "--xi0", "inf"], "--xi0"),
    (["lotka", "--xi0", "3.0"], "--xi0"),
    (["reduced-tiny", "--xi0", "0.1"], "--xi0"),
], ids=["riccati-t_end-inf", "lotka-t_end-inf", "reduced-tiny-t_end-inf",
        "riccati-t_end-nan", "riccati-xi0-nan", "rotation-xi0-inf",
        "lotka-xi0", "reduced-tiny-xi0"])
def test_carleman_rejects_non_finite_or_unused_number(capsys, argv, flag):
    # lotka and reduced-tiny start from fixed states, so an explicit --xi0
    # would be ignored silently
    assert main(["carleman", *argv, "--cutoff", "2"]) == 2
    assert f"config error: {flag} " in capsys.readouterr().err


def test_convergence_emits_csv_and_orders(tmp_path, capsys):
    assert main(["convergence", "--levels", "32,64", "--t-end", "0.25",
                 "--every", "2", "--out", str(tmp_path / "v")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,h,equivalence")
    assert "observed_order[equivalence]" in out
    assert (tmp_path / "v" / "convergence.csv").read_text().startswith("n,h,")
    # one set of names: the CSV header and the order labels are LEVEL_KEYS
    header = ",".join(("n", *run.LEVEL_KEYS))
    assert (tmp_path / "v" / "convergence.csv").read_text().splitlines()[0] == header
    assert out.splitlines()[0] == header
    for name in run.LEVEL_KEYS[1:]:
        assert f"observed_order[{name}] " in out


def test_convergence_prints_undefined_for_a_non_finite_error(monkeypatch, tmp_path, capsys):
    # an energy drift that overflowed on one level has no order to fit
    def level(cfg):
        h = cfg.grid.h
        return {"h": h, "equivalence": h * h, "energy_drift_full": math.inf,
                "energy_drift_reduced": h * h, "current_residual_full": h,
                "current_residual_reduced": math.nan, "identity_residual": h * h}

    monkeypatch.setattr(cli, "ladder_level", level)
    assert main(["convergence", "--levels", "32,64", "--out", str(tmp_path / "v")]) == 0
    out = capsys.readouterr().out
    assert "observed_order[equivalence] = 2.000" in out
    assert "observed_order[energy_drift_reduced] = 2.000" in out
    assert "observed_order[current_residual_full] = 1.000" in out
    for name in ("energy_drift_full", "current_residual_reduced"):
        assert (f"observed_order[{name}] undefined: spacings and errors must be "
                "positive and finite") in out


@pytest.mark.parametrize("levels", ["64,64", "32,64,32"])
def test_convergence_refuses_a_repeated_grid_size(tmp_path, capsys, levels):
    # the same level twice leaves every observed order undefined
    assert main(["convergence", "--levels", levels, "--t-end", "0.1",
                 "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert "config error: --levels: grid size " in err
    assert levels.split(",")[-1] in err
    assert not (tmp_path / "v").exists()


def test_ladder_level_reconstructs_phi_once_per_reduced_snapshot(monkeypatch):
    # the energy drift and the charge-balance residual read one intensity,
    # formed for stacked blocks of snapshots
    cfg = RunConfig(grid=Grid1D(n=32), t_end=0.25)
    times = list(run.integrate(cfg, "reduced").times)
    calls = []
    real = diagnostics.reconstruct_phi
    monkeypatch.setattr(diagnostics, "reconstruct_phi",
                        lambda s, p: calls.extend(s.t) or real(s, p))
    ladder_level(cfg)
    assert calls == times


def test_ladder_level_identity_is_the_block_pass_over_the_reduced_run():
    # the reference: the intensity identity's peak over stacked blocks of
    # the reduced snapshots, one pass per block
    cfg = RunConfig(grid=Grid1D(n=32), t_end=0.25)
    identity = 0.0
    for _, f in run.integrate(cfg, "reduced").blocks():
        resid = phi_identity_check(f, accel_reduced(f, cfg.params), cfg.params)
        identity = max(identity, float(np.max(resid)))
    level = ladder_level(cfg)
    assert set(level) == set(run.LEVEL_KEYS)
    assert level["identity_residual"] == identity


@pytest.mark.parametrize("flag", ["--n", "--dt"])
def test_convergence_has_no_per_level_flags(tmp_path, capsys, flag):
    # every level sets its own grid size and comb step
    assert main(["convergence", "--levels", "32,64", "--t-end", "0.1", flag, "64",
                 "--out", str(tmp_path / "v")]) == 2
    assert flag in capsys.readouterr().err


def test_check_subcommand_reports_each_criterion(monkeypatch, capsys):
    from kgmlab import checks

    stub = [("always-green", lambda: (True, "fine")),
            ("always-red", lambda: (False, "broken"))]
    monkeypatch.setattr(checks, "CRITERIA", stub)
    assert main(["check"]) == 1
    captured = capsys.readouterr()
    assert "PASS always-green: fine" in captured.out
    assert "FAIL always-red: broken" in captured.out

    monkeypatch.setattr(checks, "CRITERIA", stub[:1])
    assert main(["check"]) == 0
