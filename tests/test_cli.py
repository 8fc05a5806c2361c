import ast
import dataclasses
import gc
import importlib
import inspect
import io
import json
import math
import os
import re
import signal
import stat
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se2track import cli, engine
from se2track.cli import _write_json, main
from se2track.engine import SimLog

ELLIPSE_ARGS = ["--a", "1", "--b", "1", "--h", "1"]
QUICK = ["--dt", "0.01", "--t-end", "2"]


def run_ok(argv):
    rc = main(argv)
    assert rc == 0, argv
    return rc


def test_missing_required_out_is_usage_error(capsys):
    assert main(["simulate"] + ELLIPSE_ARGS) == 2
    assert "--out" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["simulate", "--nope", "--out", "x.csv"]) == 2


def test_no_command_is_usage_error():
    assert main([]) == 2


@pytest.mark.parametrize("argv, shown", [
    ([], "the following arguments are required: command"),
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["--bogus", "pe-check"], "unrecognized arguments: --bogus"),
], ids=["no-command", "unknown-flag", "unknown-flag-before-a-command"])
def test_an_unknown_flag_is_named_and_not_reported_as_a_missing_command(capsys, argv, shown):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"se2track: error: {shown}\n")
    assert captured.out == ""


def test_bad_controller_choice(capsys):
    assert main(["simulate", "--controller", "pid", "--out", "x.csv"]) == 2


def _entry(argv, driver=None, **kwargs):
    """subprocess.run of the real entry, `python -m se2track.cli ARGV`, with Python's default
    (block) buffering of stdout to a pipe or a file.

    With driver, Python source that calls cli.run() itself, the process runs that instead,
    on the same ARGV.
    """
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    start = ["-m", "se2track.cli"] if driver is None else ["-c", driver]
    return subprocess.run([sys.executable, *start, *argv], env=env, **kwargs)


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "se2track" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "se2track.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "se2track" in proc.stdout


def test_the_process_entry_freezes_the_import_time_heap():
    # the count is read once main has run: the heap the imports left is frozen
    driver = ("import gc, sys; from se2track import cli; main = cli.main\n"
              "def counted():\n"
              "    code = main()\n"
              "    print(gc.get_freeze_count(), file=sys.stderr)\n"
              "    return code\n"
              "cli.main = counted; cli.run()")
    proc = _entry(["--version"], driver, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"se2track {cli.__version__}\n"
    assert int(proc.stderr.splitlines()[-1]) > 0


@pytest.mark.parametrize("argv", [["--version"], ["pe-check", "--windows", "3"]],
                         ids=["version", "pe-check"])
def test_main_in_process_leaves_the_collector_as_it_was(capsys, argv):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert main(argv) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def _main_block_call():
    """The function that cli.py's `if __name__ == "__main__"` block calls."""
    tree = ast.parse(Path(cli.__file__).read_text())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    [stmt] = block.body
    return getattr(cli, stmt.value.func.id)


def test_the_console_script_runs_the_same_entry_as_the_module():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["se2track"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is _main_block_call()
    assert entry is not cli.main


def test_malformed_offset_and_gains(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["simulate", "--offset", "1,2", "--out", out] + QUICK) == 2
    assert "offset" in capsys.readouterr().err
    assert main(["simulate", "--gains", "a,b", "--out", out] + QUICK) == 2
    assert "gains" in capsys.readouterr().err


def test_degenerate_ellipse_flags(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["simulate", "--a", "0", "--out", out] + QUICK) == 2
    assert main(["simulate", "--h", "0", "--out", out] + QUICK) == 2


def test_simulate_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "run.csv"
    run_ok(["simulate"] + ELLIPSE_ARGS + QUICK
           + ["--offset", "0.5,0,0.3", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert "final position error" in stdout

    text = out.read_text()
    assert text.splitlines()[0].startswith("t,theta,px,py")
    assert len(text.splitlines()) == 1 + 201  # header + rows

    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["tool"] == "se2track"
    assert manifest["command"] == "simulate"
    assert manifest["rows"] == 201
    assert manifest["config"]["trajectory"]["family"] == "ellipse"
    assert manifest["config"]["offset"] == [0.5, 0.0, 0.3]
    assert manifest["config"]["dt"] == 0.01


def test_manifest_rerun_reproduces_csv_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run_ok(["simulate"] + ELLIPSE_ARGS + QUICK
           + ["--offset", "0.5,0,0.3", "--out", str(out1)])
    manifest = tmp_path / "a.manifest.json"
    run_ok(["simulate", "--config", str(manifest), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads(manifest.read_text())
    m2 = json.loads((tmp_path / "b.manifest.json").read_text())
    assert m1["config"] == m2["config"]


def test_explicit_flags_override_config(tmp_path):
    out1 = tmp_path / "a.csv"
    run_ok(["simulate"] + ELLIPSE_ARGS + QUICK + ["--out", str(out1)])
    out2 = tmp_path / "b.csv"
    run_ok(["simulate", "--config", str(tmp_path / "a.manifest.json"),
            "--t-end", "1", "--out", str(out2)])
    m2 = json.loads((tmp_path / "b.manifest.json").read_text())
    assert m2["config"]["t_end"] == 1.0
    assert m2["config"]["dt"] == 0.01  # untouched values come from the file
    assert m2["rows"] == 101


def write_config(tmp_path, **values):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"trajectory": {"family": "ellipse", "a": 1.0, "b": 1.0,
                                               "h": 1.0, "origin": [0.0, 0.0]}, **values}))
    return str(path)


def manifest_config(out):
    return json.loads(out.with_suffix(".manifest.json").read_text())["config"]


def test_abbreviated_flags_override_config(tmp_path):
    # argparse accepts unambiguous prefixes of a flag; they override the
    # file just as the full flag does
    cfg = write_config(tmp_path, controller="kanayama", dt=0.01, t_end=1.0)
    out = tmp_path / "x.csv"
    run_ok(["simulate", "--config", cfg, "--contr", "spatial", "--ori", "1,2",
            "--out", str(out)])
    resolved = manifest_config(out)
    assert resolved["controller"] == "spatial"
    assert resolved["trajectory"]["origin"] == [1.0, 2.0]


def test_flags_equal_to_their_defaults_override_config(tmp_path):
    cfg = write_config(tmp_path, controller="kanayama", offset=[0.5, 0.0, 0.3],
                       dt=0.01, t_end=1.0)
    out = tmp_path / "x.csv"
    run_ok(["simulate", "--config", cfg, "--controller", "spatial", "--offset", "0,0,0",
            "--a", "3", "--dt", "0.001", "--out", str(out)])
    resolved = manifest_config(out)
    assert resolved["controller"] == "spatial"
    assert resolved["offset"] == [0.0, 0.0, 0.0]
    assert resolved["trajectory"]["a"] == 3.0
    assert (resolved["dt"], resolved["t_end"]) == (0.001, 1.0)


def test_missing_config_file(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "not found" in capsys.readouterr().err


def test_divergent_run_exits_one(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["simulate"] + ELLIPSE_ARGS
              + ["--offset", "3,-2,1.5", "--dt", "100", "--t-end", "10000",
                 "--out", str(out)])
    assert rc == 1
    assert "simulation failed" in capsys.readouterr().err
    assert not out.exists()


def test_pe_check_stationary_reports_not_pe(tmp_path, capsys):
    out = tmp_path / "pe.json"
    run_ok(["pe-check", "--traj", "line", "--speed", "0", "--window", "2",
            "--horizon", "6", "--windows", "4", "--points", "51",
            "--out", str(out)])
    assert "not PE" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "not PE on scanned horizon"
    assert not doc["report"]["certifies_pe"]


def test_pe_check_ellipse_reports_closed_form(tmp_path, capsys):
    out = tmp_path / "pe.json"
    run_ok(["pe-check", "--a", "3", "--b", "5", "--h", str(2 * math.pi / 5),
            "--windows", "4", "--points", "201", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert "PE certified" in stdout
    doc = json.loads(out.read_text())
    assert doc["report"]["epsilon"] > 1.0
    diag = doc["uniform_heading_convention"]["closed_form_diag"]
    assert diag == pytest.approx([20.0, 65.0, 25.0], rel=1e-12)
    assert doc["uniform_heading_convention"]["quadrature_residual_rel"] < 1e-9


def test_pe_check_report_agrees_with_verdict_near_zero_epsilon(tmp_path, capsys):
    # a stationary reference whose epsilon is rounding noise just above 0
    out = tmp_path / "pe.json"
    run_ok(["pe-check", "--traj", "line", "--speed", "0", "--heading", "1.5826",
            "--origin=-2.1938,2.0846", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert 0.0 < doc["report"]["epsilon"] <= 1e-9
    assert doc["verdict"] == "not PE on scanned horizon"
    assert not doc["report"]["certifies_pe"]


@pytest.mark.parametrize("h,origin", [("-1.3", "0,0"), ("1.3", "1.5,-0.7"), ("-1.3", "1.5,-0.7")])
def test_pe_check_closed_form_matches_for_any_direction_and_centre(tmp_path, h, origin):
    out = tmp_path / "pe.json"
    run_ok(["pe-check", "--a", "2.7", "--b", "4.9", "--h", h, "--origin", origin,
            "--windows", "4", "--points", "201", "--out", str(out)])
    doc = json.loads(out.read_text())["uniform_heading_convention"]
    scale = math.pi / 1.3
    assert doc["closed_form_diag"] == pytest.approx(
        [8.0 * scale, (4.9 ** 2 + 1.0) * scale, (2.7 ** 2 + 1.0) * scale], rel=1e-12)
    assert doc["quadrature_residual_rel"] < 1e-9


def test_pe_check_rejects_bad_quadrature_count(capsys):
    assert main(["pe-check", "--points", "400"]) == 2
    assert "odd" in capsys.readouterr().err


def test_pe_check_rejects_short_horizon(capsys):
    assert main(["pe-check", "--window", "5", "--horizon", "1"]) == 2
    assert "horizon" in capsys.readouterr().err


def test_pe_check_rejects_zero_windows(tmp_path, capsys):
    out = tmp_path / "pe.json"
    assert main(["pe-check", "--windows", "0", "--out", str(out)]) == 2
    assert "window count" in capsys.readouterr().err
    assert not out.exists()


def test_lin_check_writes_report(tmp_path, capsys):
    out = tmp_path / "lin.json"
    run_ok(["lin-check", "--t-end", "10", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert "decay rate" in stdout
    doc = json.loads(out.read_text())
    rep = doc["report"]
    assert rep["max_structure_residual"] < 1e-12
    assert rep["max_fd_residual"] < 1e-8
    assert rep["verdict"].startswith("PE")


def test_lin_check_diverged_flow_exits_one_without_report(tmp_path, capsys):
    # far from the origin A_z grows like |p_d|^2, so RK4 at dt = 1e-3
    # blows up; a fit of the resulting NaNs must not certify decay
    out = tmp_path / "x.json"
    assert main(["lin-check", "--origin", "1000,0", "--t-end", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("simulation failed:")
    assert "PE" not in captured.out
    assert not out.exists()


def test_lin_check_refuses_a_step_its_flow_cannot_hold(tmp_path, capsys):
    # at (50, 0) dt * trace(A_z) reaches 2.812, past RK4's stability limit
    # of 2.785: the flow stays finite but wrong, so it must certify nothing
    out = tmp_path / "x.json"
    argv = ["lin-check", "--origin", "50,0", "--t-end", "1", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("simulation failed: dt * trace(A_z) reaches 2.812 > 2.785")
    assert captured.out == ""
    assert not out.exists()
    # the step that the message names fits
    fits = re.search(r"dt <= (\S+) fits", captured.err).group(1)
    run_ok(argv + ["--dt", fits])
    assert "decay rate" in capsys.readouterr().out


def _compare_config(tmp_path, **overrides):
    doc = {
        "trajectory": {"family": "ellipse", "a": 1.0, "b": 1.0, "h": 1.0,
                       "origin": [0.0, 0.0]},
        "controllers": [{"name": "spatial"},
                        {"name": "kanayama", "gains": [2, 8, 4]},
                        "feedforward"],
        "offset": [0.5, 0.0, 0.3],
        "dt": 0.02,
        "t_end": 1.0,
        "threshold": 0.05,
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("gains", [[], None], ids=["empty", "null"])
def test_compare_gains_empty_or_null_pick_the_defaults(tmp_path, gains):
    cfg = _compare_config(tmp_path, controllers=[{"name": "kanayama", "gains": gains}, "kanayama"])
    run_ok(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp")])
    summary = json.loads((tmp_path / "cmp_summary.json").read_text())
    assert [row["gains"] for row in summary["rows"]] == [None, None]
    assert (tmp_path / "cmp_0_kanayama.csv").read_bytes() == \
        (tmp_path / "cmp_1_kanayama.csv").read_bytes()


def test_compare_writes_all_outputs(tmp_path, capsys):
    cfg = _compare_config(tmp_path)
    stem = tmp_path / "cmp"
    run_ok(["compare", "--config", str(cfg), "--out", str(stem)])
    assert "wrote 3 run CSVs" in capsys.readouterr().out

    for i, name in enumerate(("spatial", "kanayama", "feedforward")):
        assert (tmp_path / f"cmp_{i}_{name}.csv").exists()
    long_lines = (tmp_path / "cmp_long.csv").read_text().splitlines()
    assert long_lines[0] == "controller,run,t,variable,value"
    assert len(long_lines) == 1 + 3 * 7 * 51  # runs x variables x rows

    summary = json.loads((tmp_path / "cmp_summary.json").read_text())
    assert summary["threshold"] == 0.05
    assert [r["controller"] for r in summary["rows"]] == [
        "spatial", "kanayama", "feedforward"]
    assert len(summary["csv_files"]) == 3


def test_compare_long_table_holds_plain_floats_of_the_run_logs(tmp_path):
    stem = tmp_path / "cmp"
    run_ok(["compare", "--config", str(_compare_config(tmp_path)), "--out", str(stem)])
    logs = [SimLog.from_csv(tmp_path / f"cmp_{i}_{name}.csv")
            for i, name in enumerate(("spatial", "kanayama", "feedforward"))]
    lines = (tmp_path / "cmp_long.csv").read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    for _, run, t, var, value in rows:
        log = logs[int(run)]
        series = {"px": log.column("px"), "py": log.column("py"),
                  "pxd": log.column("pxd"), "pyd": log.column("pyd"),
                  "position_error": log.position_error(),
                  "heading_error": log.heading_error(), "lyapunov": log.lyap}[var]
        k = int(round(float(t) / 0.02))
        assert float(t) == log.t[k]
        assert float(value) == series[k]
    assert len(rows) == sum(7 * len(log) for log in logs)


def test_compare_outputs_are_deterministic(tmp_path):
    cfg = _compare_config(tmp_path)
    stem = tmp_path / "cmp"
    run_ok(["compare", "--config", str(cfg), "--out", str(stem)])
    files = sorted(tmp_path.glob("cmp*"))
    first = {f.name: f.read_bytes() for f in files}
    run_ok(["compare", "--config", str(cfg), "--out", str(stem)])
    assert {f.name: f.read_bytes() for f in sorted(tmp_path.glob("cmp*"))} == first


def test_compare_rejects_empty_and_unknown_controllers(tmp_path, capsys):
    cfg = _compare_config(tmp_path, controllers=[])
    assert main(["compare", "--config", str(cfg)]) == 2
    assert "controllers" in capsys.readouterr().err

    cfg = _compare_config(tmp_path, controllers=[{"name": "pid"}])
    assert main(["compare", "--config", str(cfg)]) == 2
    assert "controllers[0]" in capsys.readouterr().err


def test_compare_rejects_missing_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trajectory": {"family": "line"}}))
    assert main(["compare", "--config", str(path)]) == 2
    assert "missing keys" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [{"dt": None}, {"offset": 5}, {"t_end": "long"}],
                         ids=["null-dt", "scalar-offset", "text-t-end"])
def test_compare_rejects_bad_run_values(tmp_path, capsys, overrides):
    cfg = _compare_config(tmp_path, **overrides)
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid configuration:")
    assert not (tmp_path / "cmp_summary.json").exists()


def test_compare_rejects_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["compare", "--config", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_basin_zero_samples_uses_sweep_defaults(tmp_path, capsys):
    out = tmp_path / "basin.json"
    run_ok(["basin"] + ELLIPSE_ARGS + ["--samples", "0", "--out", str(out)])
    assert "0/0" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    # without explicit flags the sweep runs longer and coarser than a
    # single simulation would
    assert doc["config"]["t_end"] == 60.0
    assert doc["config"]["dt"] == 5e-3
    assert doc["summary"]["fraction"] is None
    # without --seed or a config, the sweep runs seed 0 and records none
    assert doc["config"]["seed"] is None and doc["summary"]["seed"] == 0


@pytest.mark.parametrize("config, flags, t_end, dt", [
    (None, ["--t-end", "7"], 7.0, 5e-3),
    (None, ["--dt", "0.01"], 60.0, 0.01),
    ({}, [], 60.0, 5e-3),
    ({"dt": 0.02}, [], 60.0, 0.02),
    ({"dt": 0.02, "t_end": 3}, [], 3.0, 0.02),
    ({"dt": 0.02}, ["--t-end", "5"], 5.0, 0.02),
], ids=["t-end-flag", "dt-flag", "bare-config", "config-dt", "config-values", "config-and-flag"])
def test_basin_sweep_defaults_apply_only_without_flags_and_config(tmp_path, config, flags,
                                                                  t_end, dt):
    # the 60 s / 5e-3 sweep defaults hold for each value that neither the
    # --config file nor a flag sets, not SimConfig's 40 s / 1e-3
    out = tmp_path / "basin.json"
    source = ELLIPSE_ARGS if config is None else ["--config", write_config(tmp_path, **config)]
    run_ok(["basin", "--samples", "0"] + source + flags + ["--out", str(out)])
    resolved = json.loads(out.read_text())["config"]
    assert (resolved["t_end"], resolved["dt"]) == (t_end, dt)


def test_basin_rejects_negative_samples(tmp_path, capsys):
    out = tmp_path / "basin.json"
    assert main(["basin"] + ELLIPSE_ARGS + ["--samples", "-3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "sample count" in captured.err
    assert "0/-3" not in captured.out
    assert not out.exists()


def test_basin_small_sweep_is_seeded(tmp_path, capsys):
    out1 = tmp_path / "b1.json"
    out2 = tmp_path / "b2.json"
    args = ["basin"] + ELLIPSE_ARGS + [
        "--samples", "2", "--threshold", "1e-2", "--t-end", "5",
        "--dt", "0.01", "--seed", "2"]
    run_ok(args + ["--out", str(out1)])
    run_ok(args + ["--out", str(out2)])
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    assert d1["summary"]["final_lyapunov"] == d2["summary"]["final_lyapunov"]
    assert d1["summary"]["samples"] == 2
    assert d1["config"]["t_end"] == 5.0


@pytest.mark.parametrize("argv", [
    ["--gains", "1,2,3"],
    ["--gains", "1"],
    ["--controller", "kanayama", "--gains", "1,2"],
    ["--gains", "1,inf"],
    ["--t-end", "inf"],
    ["--dt", "nan"],
    ["--offset", "0,nan,0"],
], ids=["spatial-3-gains", "spatial-1-gain", "kanayama-2-gains", "inf-gain",
        "inf-t-end", "nan-dt", "nan-offset"])
def test_simulate_rejects_bad_run_values(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main(["simulate"] + ELLIPSE_ARGS + ["--dt", "0.01", "--t-end", "2"]
                + argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert not out.exists()


def test_feedforward_still_ignores_gains(tmp_path, capsys):
    run_ok(["simulate", "--controller", "feedforward", "--gains", "1,2,3"]
           + ELLIPSE_ARGS + QUICK + ["--out", str(tmp_path / "x.csv")])


def test_basin_rejects_wrong_gain_count(tmp_path, capsys):
    out = tmp_path / "basin.json"
    assert main(["basin"] + ELLIPSE_ARGS + ["--gains", "1,2,3", "--samples", "1",
                                            "--out", str(out)]) == 2
    assert "expected 2 numbers, got 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--a", "nan"],
    ["--h", "inf"],
    ["--origin", "nan,0"],
    ["--traj", "line", "--speed", "nan"],
    ["--traj", "line", "--heading", "inf"],
], ids=["a", "h", "origin", "speed", "heading"])
def test_non_finite_trajectory_flags_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main(["simulate"] + argv + QUICK + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err
    assert not out.exists()
    assert main(["pe-check"] + argv) == 2
    assert "must be finite" in capsys.readouterr().err


def test_basin_config_reproduces_the_seeded_summary(tmp_path, capsys):
    first = tmp_path / "b5.json"
    again = tmp_path / "again.json"
    run_ok(["basin"] + ELLIPSE_ARGS + ["--samples", "2", "--t-end", "2", "--dt", "0.01",
                                       "--seed", "5", "--out", str(first)])
    run_ok(["basin", "--config", str(first), "--samples", "2", "--out", str(again)])
    assert "seed 5" in capsys.readouterr().out.splitlines()[-2]
    d1 = json.loads(first.read_text())
    d2 = json.loads(again.read_text())
    assert d2["config"]["seed"] == d2["summary"]["seed"] == 5
    assert d2["summary"]["final_lyapunov"] == d1["summary"]["final_lyapunov"]


def test_basin_config_replays_the_summary_count_and_threshold(tmp_path, capsys):
    first, again = tmp_path / "b.json", tmp_path / "again.json"
    run_ok(["basin"] + ELLIPSE_ARGS + ["--samples", "2", "--t-end", "2", "--dt", "0.01",
                                       "--threshold", "1e-3", "--seed", "4", "--out", str(first)])
    shown = capsys.readouterr().out.splitlines()
    run_ok(["basin", "--config", str(first), "--out", str(again)])
    replayed = capsys.readouterr().out.splitlines()
    assert shown[0].startswith("0/2 runs reached Lyapunov < 0.001 by t = 2 s")
    assert replayed[0] == shown[0]
    assert again.read_bytes() == first.read_bytes()


def test_basin_samples_flag_wins_over_the_replayed_summary(tmp_path, capsys):
    first, again = tmp_path / "b.json", tmp_path / "again.json"
    run_ok(["basin"] + ELLIPSE_ARGS + QUICK + ["--samples", "2", "--threshold", "1e-3",
                                               "--out", str(first)])
    run_ok(["basin", "--config", str(first), "--samples", "3", "--out", str(again)])
    assert capsys.readouterr().out.splitlines()[-2].startswith("0/3 runs reached Lyapunov < 0.001")
    summary = json.loads(again.read_text())["summary"]
    assert (summary["samples"], summary["threshold"]) == (3, 1e-3)


@pytest.mark.parametrize("replayed, shown", [
    ({"samples": -1}, "sample count must be an integer >= 0, got -1"),
    ({"samples": 2.0}, "sample count must be an integer >= 0, got 2.0"),
    ({"samples": True}, "sample count must be an integer >= 0, got True"),
    ({"threshold": 0}, "threshold must be positive, got 0"),
    ({"threshold": "1e-3"}, "threshold must be finite, got '1e-3'"),
    ([2], "'summary' must be a JSON object, got list"),
], ids=["negative-samples", "float-samples", "bool-samples", "zero-threshold", "text-threshold",
        "summary-list"])
def test_basin_summary_values_are_checked_as_the_flags_are(tmp_path, capsys, replayed, shown):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"config": {"trajectory": _ELLIPSE, "dt": 0.01, "t_end": 2.0},
                                  "summary": replayed}))
    out = tmp_path / "b.json"
    assert main(["basin", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and shown in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["none", "bare-config", "manifest"])
def test_basin_without_a_flag_or_summary_takes_the_library_defaults(tmp_path, capsys,
                                                                    monkeypatch, source):
    # --samples and --threshold default to None, so that a summary can fill them in;
    # without one the sweep runs the library's threshold and 100 draws
    if source == "none":
        argv = []
    elif source == "bare-config":
        argv = ["--config", write_config(tmp_path)]
    else:
        run_ok(["simulate"] + ELLIPSE_ARGS + QUICK + ["--out", str(tmp_path / "x.csv")])
        argv = ["--config", str(tmp_path / "x.manifest.json")]
    seen = {}

    def sweep(cfg, samples, threshold):
        seen.update(samples=samples, threshold=threshold)
        return engine.BasinSummary(samples=0, converged=0, threshold=threshold,
                                   t_end=cfg.t_end, seed=0)

    default = inspect.signature(cli.monte_carlo_basin).parameters["threshold"].default
    monkeypatch.setattr(cli, "monte_carlo_basin", sweep)
    run_ok(["basin", *argv])
    assert seen == {"samples": 100, "threshold": default}


_ELLIPSE = {"family": "ellipse", "a": 1.0, "b": 1.0, "h": 1.0}


@pytest.mark.parametrize("command, content, shown", [
    ("simulate", [1, 2], "must hold a JSON object, got list"),
    ("compare", 5, "must hold a JSON object, got int"),
    ("compare", {"trajectory": _ELLIPSE, "controllers": [5]}, "controllers[0]=5"),
    ("compare", {"trajectory": _ELLIPSE, "controllers": ["spatial"], "threshold": None},
     "threshold must be finite, got None"),
    ("compare", {"trajectory": _ELLIPSE, "controllers": ["spatial"], "threshold": -1},
     "threshold must be positive, got -1"),
    ("compare", {"trajectory": _ELLIPSE, "controllers": ["spatial"], "threshold": 0},
     "threshold must be positive, got 0"),
    ("simulate", {"trajectory": {"family": "ellipse"}}, "lacks the parameter 'a'"),
    ("simulate", {"trajectory": {"family": "line", "speed": 1.0, "start": 5}}, "'start': 5"),
    ("simulate", None, "cannot read config file"),
    ("simulate", {"trajectory": _ELLIPSE, "offset": 5}, "offset must be a list of numbers, got 5"),
    ("simulate", {"trajectory": _ELLIPSE, "gains": 5}, "gains must be a list of numbers, got 5"),
    ("compare", {"trajectory": _ELLIPSE, "controllers": ["spatial"], "offset": 5},
     "offset must be a list of numbers, got 5"),
    ("compare", {"trajectory": _ELLIPSE, "controllers": [{"name": "kanayama", "gains": 5}]},
     "gains must be a list of numbers, got 5"),
    ("compare", {"trajectory": _ELLIPSE, "controllers": [{"name": "kanayama", "gains": 0}]},
     "gains must be a list of numbers, got 0"),
    ("compare", {"trajectory": _ELLIPSE, "controllers": [{"name": "kanayama", "gains": False}]},
     "gains must be a list of numbers, got False"),
    ("simulate", {"trajectory": {**_ELLIPSE, "family": []}}, "unknown trajectory family: []"),
    ("basin", {"trajectory": {"family": {}}}, "unknown trajectory family: {}"),
    ("simulate", {"dt": 0.01, "t_end": 2.0}, "lacks a trajectory section"),
], ids=["array", "bare-number", "number-entry", "null-threshold", "negative-threshold",
        "zero-threshold", "ellipse-without-axes", "scalar-line-start", "directory",
        "scalar-offset", "scalar-gains", "compare-scalar-offset", "compare-scalar-gains",
        "compare-zero-gains", "compare-false-gains", "list-family", "object-family",
        "no-trajectory"])
def test_malformed_config_files_are_usage_errors(tmp_path, capsys, command, content, shown):
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(json.dumps(content))
    run = QUICK + ["--out", str(tmp_path / "x.csv")] if command == "simulate" else []
    assert main([command, "--config", str(path)] + run) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and shown in err


@pytest.mark.parametrize("command, content, shown", [
    ("simulate", {"trajectory": _ELLIPSE, "tend": 5, "controler": "kanayama"},
     "['tend', 'controler'] in config"),
    ("basin", {"trajectory": _ELLIPSE, "sed": 3}, "['sed'] in config"),
    ("simulate", {"trajectory": {**_ELLIPSE, "orgin": [5, 5]}}, "['orgin'] in ellipse trajectory"),
    ("simulate", {"trajectory": {"family": "line", "speed": 1.0, "heading": 0.0, "origin": [1, 1]}},
     "['origin'] in line trajectory"),
    ("compare", {"trajectory": _ELLIPSE, "controllers": ["spatial"], "t-end": 5, "treshold": 0.1},
     "['t-end', 'treshold'] in compare config"),
    ("compare", {"trajectory": _ELLIPSE, "controllers": [{"name": "kanayama", "gain": [1, 2, 3]}]},
     "['gain'] in compare config"),
    ("compare", {"trajectory": {**_ELLIPSE, "orgin": [5, 5]}, "controllers": ["spatial"]},
     "['orgin'] in ellipse trajectory"),
], ids=["simulate-run-keys", "basin-run-key", "ellipse-key", "line-key", "compare-keys",
        "compare-entry-key", "compare-trajectory-key"])
def test_unknown_config_keys_are_usage_errors(tmp_path, capsys, command, content, shown):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content))
    run = {"simulate": QUICK + ["--out", str(tmp_path / "x.csv")], "compare": [],
           "basin": QUICK + ["--samples", "1"]}[command]
    assert main([command, "--config", str(path)] + run) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"unknown keys {shown}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("argv, shown", [
    (["lin-check", "--dt", "0"], "dt must be positive, got 0.0"),
    (["lin-check", "--t-end", "0"], "t_end must be positive, got 0.0"),
    (["lin-check", "--t-end", "0.0004"], "got 0.0004"),
    (["pe-check", "--window", "inf"], "window length T must be finite, got inf"),
    (["pe-check", "--horizon", "nan"], "horizon must be finite, got nan"),
    (["basin", "--threshold", "nan", "--samples", "0"], "threshold must be finite, got nan"),
], ids=["lin-check-dt-0", "lin-check-t-end-0", "lin-check-one-step", "pe-check-window-inf",
        "pe-check-horizon-nan", "basin-threshold-nan"])
def test_bad_numeric_flags_are_usage_errors(capsys, argv, shown):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and shown in err


# a number given as text, as true/false or past the float range exits 2 and names its field
@pytest.mark.parametrize("command, content, shown", [
    ("simulate", {"trajectory": _ELLIPSE, "dt": "0.01"}, "dt must be finite, got '0.01'"),
    ("simulate", {"trajectory": _ELLIPSE, "t_end": True}, "t_end must be finite, got True"),
    ("simulate", {"trajectory": _ELLIPSE, "t_end": 10**400}, "t_end must be finite, got 1000"),
    ("simulate", {"trajectory": _ELLIPSE, "offset": [True, 0, 0]},
     "offset must be finite, got [True, 0, 0]"),
    ("simulate", {"trajectory": {**_ELLIPSE, "a": "3"}}, "ellipse a, b, h must be finite, got ['3'"),
    ("simulate", {"trajectory": {"family": "line"}}, "line trajectory lacks the parameter 'speed'"),
    ("compare", {"trajectory": _ELLIPSE, "controllers": ["spatial"], "threshold": True},
     "threshold must be finite, got True"),
], ids=["text-dt", "bool-t-end", "int-past-float-range", "bool-offset", "text-a",
        "line-without-speed", "bool-threshold"])
def test_config_values_that_are_not_finite_numbers_are_usage_errors(tmp_path, capsys, command,
                                                                    content, shown):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content))
    out = ["--out", str(tmp_path / ("x.csv" if command == "simulate" else "cmp"))]
    assert main([command, "--config", str(path)] + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and shown in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command, seed, flag", [
    ("basin", "x", None), ("basin", 1.5, None), ("basin", True, None), ("basin", [1], None),
    ("basin", -1, None), ("simulate", None, "-5"),
], ids=["text", "fraction", "bool", "list", "negative", "simulate-negative-flag"])
def test_bad_seeds_are_usage_errors(tmp_path, capsys, command, seed, flag):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"trajectory": _ELLIPSE, "seed": seed}))
    argv = [command, "--config", str(config), *QUICK, "--out", str(tmp_path / "x.csv")]
    if flag is not None:
        argv += ["--seed", flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be None or a non-negative integer" in err
    assert not (tmp_path / "x.csv").exists()


# centred at x = 50 the default ellipse makes the spatial loop too stiff
# for RK4 at these steps: L rises, which the exact flow never does
def test_simulate_exits_one_when_spatial_lyapunov_rises(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--origin", "50,0", "--offset", "1,1,0.5", "--dt", "1e-3",
                 "--t-end", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("simulation failed: L rose from ")
    assert "at step" in err and "too large a step for this reference" in err
    assert not out.exists()
    assert not (tmp_path / "x.manifest.json").exists()


# a line's |p_d| grows with t, and the trace k_omega (2 + |p_d|^2) + k_v of the spatial loop's
# matrix with it, until dt times the trace passes RK4's limit
@pytest.mark.parametrize("argv, fits, rows", [
    (["--traj", "line", "--offset", "0.5,0.5,0.3", "--speed", "1.5"], "0.0007729", 51754),
    (["--traj", "line", "--offset", "0.5,0.5,0.3", "--speed", "2"], "0.0004349", 91976),
    (["--origin", "50,0", "--offset", "1,1,0.5", "--t-end", "5"], "0.0009903", 5050),
], ids=["line-speed-1.5", "line-speed-2", "ellipse-far-out"])
def test_a_spatial_run_whose_L_rises_names_a_dt_that_fits(tmp_path, capsys, argv, fits, rows):
    out = tmp_path / "x.csv"
    assert main(["simulate", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("simulation failed: L rose from ")
    assert err.endswith(f"dt = 0.001 is too large a step for this reference; dt <= {fits} fits\n")
    assert main(["simulate", *argv, "--dt", fits, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {out} ({rows} rows)")


def test_a_basin_sample_whose_L_rises_names_a_dt_that_fits(capsys):
    argv = ["basin", "--origin", "50,0", "--samples", "4", "--t-end", "20"]
    assert main(argv) == 1
    assert capsys.readouterr().err.endswith(
        "dt = 0.005 is too large a step for this reference; dt <= 0.0009903 fits\n")
    assert main([*argv, "--dt", "0.0009903"]) == 0
    assert capsys.readouterr().out.startswith("0/4 runs reached Lyapunov < 1e-06 by t = 20 s")


@pytest.mark.parametrize("argv, clause", [
    # |p_d|^2 overflows to inf
    (["--traj", "line", "--speed", "1.1394893775162892e+228", "--t-end", "0.05"], "no dt fits"),
    # zero gains leave the trace 0; RK4's own error still lets L rise
    (["--gains", "0,0", "--offset", "1,1,1", "--dt", "0.5", "--t-end", "100"],
     "the trace bounds no dt"),
    # the trace admits these steps, rounded down to 0.3151 and to 0.09946 itself, yet L rises
    (["--a", "2.416", "--b", "0.5", "--h", "-2", "--offset", "0.5,0.5,0.3", "--dt", "0.3",
      "--t-end", "10"], "the trace bound holds at this dt"),
    (["--offset", "1,-0.5,3", "--dt", "0.09946", "--t-end", "10"],
     "the trace bound holds at this dt"),
], ids=["trace-overflows", "zero-gains", "thin-ellipse-within-trace", "ellipse-at-trace-bound"])
def test_a_rise_of_L_that_no_trace_bound_explains_names_no_dt(tmp_path, capsys, argv, clause):
    assert main(["simulate", *argv, "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.endswith(f"for this reference; {clause}\n")


def test_basin_exits_one_when_a_spatial_sample_ends_above_its_start(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["basin", "--origin", "50,0", "--samples", "2", "--seed", "1",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("simulation failed: sample 0: L rose from 16.4823 to ")
    assert "too large a step for this reference" in captured.err
    assert "runs reached" not in captured.out
    assert not out.exists()


def test_compare_exits_one_when_its_spatial_run_lyapunov_rises(tmp_path, capsys):
    cfg = _compare_config(tmp_path, trajectory={"family": "ellipse", "a": 3.0, "b": 5.0,
                                                "h": 1.2566, "origin": [50.0, 0.0]},
                          offset=[1.0, 1.0, 0.5], dt=1e-3, t_end=5.0)
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp")]) == 1
    assert "L rose from" in capsys.readouterr().err
    assert not list(tmp_path.glob("cmp*"))


def test_pe_check_without_finite_result_exits_one_without_verdict(tmp_path, capsys):
    out = tmp_path / "p.json"
    # the reference is finite on the scan's times; its Gram is not, at 1e153 in 62 of the 64
    # windows, and at 1e306 it holds an infinite entry off its diagonal, on which eigvalsh does
    # not converge
    for speed in ("1e153", "1e200", "1e306"):
        assert main(["pe-check", "--traj", "line", "--speed", speed, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("pe-check failed: epsilon = nan")
        assert "PE" not in captured.out
        assert not out.exists()


@pytest.mark.parametrize("horizon, t", [("1e17", "1587301587301587.2"),
                                        ("1e14", "71428571428567.86")])
def test_pe_check_refuses_a_horizon_whose_windows_repeat_sample_times(tmp_path, capsys,
                                                                      horizon, t):
    # floats near t are spaced wider than the step 5 / 400 of the default ellipse's window
    out = tmp_path / "p.json"
    assert main(["pe-check", "--horizon", horizon, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the window at t = {t} of length T = 5.0 over n = 401 "
                            f"points has sample times that are not strictly increasing: floats "
                            f"near t are spaced wider than the step T / (n - 1)\n")
    assert not out.exists()


def test_pe_check_certifies_the_ellipse_up_to_a_horizon_whose_windows_hold_their_times(
        tmp_path):
    docs = []
    for horizon in ("25", "1e13"):
        out = tmp_path / f"p{horizon}.json"
        assert main(["pe-check", "--horizon", horizon, "--out", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    near, far = (doc["report"]["epsilon"] for doc in docs)
    assert docs[1]["verdict"] == "PE certified on scanned horizon"
    assert far == pytest.approx(near, rel=1e-8)


@pytest.mark.parametrize("points, residual", [("3", "9.231e-01"), ("5", "3.077e-01")])
def test_pe_check_with_inaccurate_quadrature_exits_one_without_verdict(tmp_path, capsys,
                                                                       points, residual):
    out = tmp_path / "p.json"
    # epsilon comes from the same Simpson rule as the residual, so it is just as coarse
    assert main(["pe-check", "--points", points, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"pe-check failed: quadrature residual {residual} (relative) exceeds "
                            f"1e-09; --points {points} is too few Simpson points for this "
                            f"reference, and epsilon is computed by the same rule\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["lin-check", "--a", "1e-300", "--b", "1e-300", "--t-end", "0.01"],
    ["simulate", "--a", "1e-170", "--b", "1e-170", "--t-end", "0.01", "--out", "x.csv"],
    ["simulate", "--a", "1e300", "--t-end", "0.01", "--out", "x.csv"],
    ["basin", "--a", "1e300", "--t-end", "0.01", "--samples", "2"],
    ["pe-check", "--a", "1e160", "--b", "1e160", "--out", "pe.json"],
    ["pe-check", "--a", "1e300", "--out", "pe.json"],
    ["pe-check", "--a", "1e200", "--b", "1", "--h", "1", "--out", "pe.json"],
], ids=["lin-check-underflowing", "simulate-underflowing", "simulate-overflowing",
        "basin-overflowing", "pe-check-overflowing", "pe-check-overflowing-a",
        "pe-check-overflowing-speed"])
def test_a_reference_that_floats_cannot_hold_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                              argv):
    # a numpy warning would be an error here, and fail the test
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: reference {'family': 'ellipse', 'a': 1e")
    assert captured.err.endswith(" is not finite in floats on the run's times: "
                                 "its parameters are too large or too small\n")
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_a_reference_not_finite_between_window_starts_is_a_usage_error(tmp_path, monkeypatch,
                                                                     capsys):
    # finite where each of the 64 windows starts, up to t = 20, and not at t = 25: the scan
    # ended in epsilon = nan, exit 1
    monkeypatch.chdir(tmp_path)
    assert main(["pe-check", "--traj", "line", "--speed", "8e306", "--out", "pe.json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: reference {'family': 'line', 'speed': 8e+306, 'heading': 0.0, "
                            "'start': [0.0, 0.0]} is not finite in floats on the run's times: "
                            "its parameters are too large or too small\n")
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, n", [
    (["pe-check", "--h", "1e-300"], 401),
    (["pe-check", "--window", "1e-300"], 401),
    (["pe-check", "--window", "1e300"], 401),
    (["lin-check", "--h", "1e-300", "--t-end", "1"], 201),
], ids=["pe-check-slow-ellipse", "pe-check-short-window", "pe-check-long-window",
        "lin-check-slow-ellipse"])
def test_a_simpson_step_whose_square_floats_cannot_hold_is_a_usage_error(tmp_path, monkeypatch,
                                                                         capsys, argv, n):
    # it read a third of the Gram; lin-check printed scipy's overflow warning too
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "r.json"]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(rf"error: window length T = \S+ over n = {n} points gives a step "
                        rf"T / \(n - 1\) whose square floats cannot hold\n", captured.err)
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["pe-check"], ["lin-check", "--t-end", "0.01"]])
def test_an_ellipse_whose_period_overflows_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                            command):
    # lin-check sampled one period with a warning, then ended in "math domain error"
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--h", "1e-308", "--out", "r.json"]) == 2
    assert capsys.readouterr().err == "error: window length T must be finite, got inf\n"
    assert not list(tmp_path.iterdir())


def test_a_rise_of_lyapunov_to_inf_fails_the_run(tmp_path, monkeypatch, capsys):
    # L reads 0, 0, 0, inf, 0, 0, inf, ...: inf - inf is NaN, where np.argmax used to stop
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--traj", "line", "--speed", "1.1394893775162892e+228",
                 "--t-end", "0.05", "--out", "o.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("simulation failed: L rose from 0 to inf at step 3 (t = 0.003)")
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["lin-check", "--h", "1e-150", "--b", "1e80", "--t-end", "0.01"],
    ["lin-check", "--h", "1e-152", "--b", "1e155", "--t-end", "0.01"],
], ids=["window-gram", "structure-check"])
def test_a_result_that_overflows_floats_ends_in_one_line(tmp_path, monkeypatch, capsys, argv):
    # the reference is finite on the probe's times; its Gram over one period is not
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "lin.json"]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"lin-check failed: overflow encountered in [a-z ]+: "
                        r"a result is not finite in floats\n", captured.err)
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


# a line at 1e170 m/s: off its heading, the spatial error is of the reference's size, and L,
# its square, overflows to inf while the reference stays finite
_TOO_FAST = {"family": "line", "speed": 1e170, "heading": 0.0, "start": [0, 0]}


@pytest.mark.parametrize("argv, config, shown", [
    (["basin", "--controller", "feedforward", "--traj", "line", "--speed", "1e170",
      "--samples", "2", "--t-end", "20", "--dt", "0.01", "--out", "b.json"], None,
     "basin failed: summary.final_lyapunov[0] = inf"),
    (["compare", "--config", "c.json", "--out", "cmp"],
     {"trajectory": _TOO_FAST, "controllers": ["feedforward"], "offset": [1, 1, 1],
      "dt": 0.01, "t_end": 2}, "compare failed: rows[0].final_lyapunov = inf"),
    (["simulate", "--controller", "feedforward", "--traj", "line", "--speed", "1e170",
      "--t-end", "2", "--dt", "0.01", "--out", "s.csv"], None,
     "simulate failed: lyap = inf at t = 0.32"),
], ids=["basin", "compare", "simulate"])
def test_a_report_that_json_cannot_hold_ends_in_one_line(tmp_path, monkeypatch, capsys, argv,
                                                         config, shown):
    # the report, and simulate's log, are checked before any output: no summary line, CSV or
    # JSON is left behind
    monkeypatch.chdir(tmp_path)
    if config is not None:
        Path("c.json").write_text(json.dumps(config))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{shown}: a result is not finite in floats\n"
    assert captured.out == ""
    assert [path.name for path in tmp_path.iterdir()] == ([] if config is None else ["c.json"])


def test_a_lin_check_report_that_json_cannot_hold_ends_in_one_line(tmp_path, monkeypatch,
                                                                  capsys):
    report = cli.lin_check(cli.trajectory_from_descriptor(_ELLIPSE), t_end=0.01, dt=1e-3)
    monkeypatch.setattr(cli, "lin_check",
                        lambda *args, **kwargs: dataclasses.replace(report, r_squared=math.nan))
    monkeypatch.chdir(tmp_path)
    assert main(["lin-check", "--out", "lin.json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("lin-check failed: report.r_squared = nan: "
                            "a result is not finite in floats\n")
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag, function, parameter", [
    ("lin-check", "t_end", "lin_check", "t_end"),
    ("lin-check", "dt", "lin_check", "dt"),
    ("pe-check", "windows", "pe_epsilon", "windows"),
    ("pe-check", "points", "pe_epsilon", "n"),
    ("pe-check", "points", "window_gram", "n"),
])
def test_a_flag_not_given_takes_the_library_default(command, flag, function, parameter):
    args = cli.build_parser().parse_args([command])
    default = inspect.signature(getattr(cli, function)).parameters[parameter].default
    assert getattr(args, flag) == default


def test_a_compare_config_without_threshold_takes_the_library_default(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"trajectory": _ELLIPSE, "controllers": ["spatial"]}))
    default = inspect.signature(cli.compare_controllers).parameters["threshold"].default
    assert cli._compare_config(str(config))[1] == default


def test_json_writer_refuses_non_finite_numbers(tmp_path):
    out = tmp_path / "x.json"
    with pytest.raises(ValueError):
        _write_json(out, {"epsilon": math.inf})
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--out", "x.csv"],
    ["basin", "--samples", "1"],
    ["lin-check"],
])
@pytest.mark.parametrize("dt,t_end", [("1e-9", "100"), ("1e-320", "1e10")],
                         ids=["1e11-steps", "inf-steps"])
def test_step_count_over_the_limit_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                    command, dt, t_end):
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--dt", dt, "--t-end", t_end]) == 2
    assert "limit of 10000000 steps" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.fixture
def nothing_runs(monkeypatch):
    """Make every run the CLI can start fail the test, so that a check after it shows."""
    def ran(*args, **kwargs):
        raise AssertionError("a run started before its output paths were checked")

    for name in ("simulate", "compare_controllers", "monte_carlo_basin", "pe_epsilon", "lin_check"):
        monkeypatch.setattr(cli, name, ran)


@pytest.mark.parametrize("command, out", [
    (["simulate", *QUICK], "run.csv"),
    (["compare", "--config", "compare.json"], "cmp"),
    (["pe-check"], "pe.json"),
    (["lin-check"], "lin.json"),
    (["basin", *QUICK, "--samples", "2"], "b.json"),
])
@pytest.mark.parametrize("bad", ["missing-directory", "directory", "empty"])
def test_bad_output_paths_are_usage_errors_before_any_run(tmp_path, capsys, nothing_runs,
                                                          command, out, bad):
    (tmp_path / "compare.json").write_text(json.dumps(
        {"trajectory": _ELLIPSE, "controllers": ["spatial", "kanayama"]}))
    out = tmp_path / ("missing" if bad == "missing-directory" else "") / out
    compare = command[0] == "compare"
    if bad == "empty":
        out = ""
        shown = f"'': the {'output stem' if compare else 'path'} is empty"
    elif bad == "missing-directory":
        first = f"{out}_0_spatial.csv" if compare else out
        shown = f"{first}: {out.parent} is not a directory"
    else:
        # for compare, the last path it writes, so that every path before it passes the check
        target = tmp_path / "cmp_summary.json" if compare else out
        target.mkdir()
        shown = f"{target}: it is a directory"
    command = [str(tmp_path / arg) if arg == "compare.json" else arg for arg in command]
    before = sorted(tmp_path.iterdir())
    assert main(command + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {shown}\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command, out, target", [
    (["simulate", *QUICK], "run.csv", "run.csv"),
    (["simulate", *QUICK], "run.csv", "run.manifest.json"),
    (["compare", "--config", "compare.json"], "cmp", "cmp_0_spatial.csv"),
    (["compare", "--config", "compare.json"], "cmp", "cmp_summary.json"),
    (["pe-check"], "pe.json", "pe.json"),
    (["lin-check"], "lin.json", "lin.json"),
    (["basin", *QUICK, "--samples", "2"], "b.json", "b.json"),
], ids=["simulate-csv", "simulate-manifest", "compare-csv", "compare-summary", "pe-check",
        "lin-check", "basin"])
@pytest.mark.parametrize("kind", ["fifo", "symlink"])
def test_an_output_path_that_is_not_a_regular_file_is_a_usage_error(
        tmp_path, monkeypatch, capsys, nothing_runs, command, out, target, kind):
    # the write renames a new file onto the path: it replaced the FIFO or the link itself
    monkeypatch.chdir(tmp_path)
    Path("compare.json").write_text(json.dumps(
        {"trajectory": _ELLIPSE, "controllers": ["spatial", "kanayama"]}))
    if kind == "fifo":
        os.mkfifo(target)
    else:
        Path("kept.txt").write_text("kept\n")
        os.symlink("kept.txt", target)
    assert main(command + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {target}: it is not a regular file\n"
    assert captured.out == ""
    if kind == "fifo":
        assert stat.S_ISFIFO(os.lstat(target).st_mode)
    else:
        assert os.readlink(target) == "kept.txt"
        assert Path("kept.txt").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["compare.json", target] + (["kept.txt"] if kind == "symlink" else []))


@pytest.mark.parametrize("stem", ["runs/", "runs", "new/", "."])
def test_compare_stem_that_names_a_directory_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                              nothing_runs, stem):
    # Path("runs/") is Path("runs"): the files would land beside the directory, not in it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs").mkdir()
    (tmp_path / "compare.json").write_text(json.dumps(
        {"trajectory": _ELLIPSE, "controllers": ["spatial"]}))
    assert main(["compare", "--config", "compare.json", "--out", stem]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {stem}: the output stem names a directory\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["compare.json", "runs"]


@pytest.mark.parametrize("command", [
    ["pe-check", "--windows", str(10**12)],
    ["pe-check", "--points", str(10**12 + 1)],
    ["basin", "--samples", str(10**12)],
], ids=["pe-check-windows", "pe-check-points", "basin-samples"])
def test_counts_over_the_limit_are_usage_errors(monkeypatch, capsys, command):
    # numpy could not allocate either pe-check count; a sweep would set up first
    def ran(*args, **kwargs):
        raise AssertionError("a sweep started before its sample count was checked")

    monkeypatch.setattr(engine, "_setup", ran)
    assert main(command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("is more than the limit of 10000000\n")


def test_an_interrupt_ends_in_one_line(tmp_path, monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(engine, "_integrate", interrupted)
    assert main(["simulate", *QUICK, "--out", str(tmp_path / "run.csv")]) == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted\n"
    assert captured.out == ""


@pytest.mark.parametrize("command, writer", [
    (["simulate", *QUICK, "--out", "run.csv"], (SimLog, "to_csv")),
    (["pe-check", "--windows", "2", "--out", "pe.json"], (cli, "_write_json")),
])
def test_a_failed_write_ends_in_one_error_line(tmp_path, monkeypatch, capsys, command, writer):
    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(*writer, full_disk)
    assert main(command) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


# 1024 steps: a log of 1025 rows, in three blocks, of which a forked child writes two
FORKED = ["--dt", "0.01", "--t-end", "10.24"]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch, tmp_path):
    """Run in tmp_path, with the CSV writer forking its child; yield this process's pid."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1})
    return os.getpid()


def test_a_failed_write_in_the_child_ends_in_one_error_line(tmp_path, monkeypatch, capsys,
                                                             two_cpus):
    write_blocks = engine._write_blocks

    def full_disk_in_child(fh, blocks):
        if os.getpid() != two_cpus:
            raise OSError(28, "No space left on device")
        write_blocks(fh, blocks)

    monkeypatch.setattr(engine, "_write_blocks", full_disk_in_child)
    assert main(["simulate", *FORKED, "--out", "run.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())
    _no_child_left()


def test_an_interrupt_during_the_write_kills_the_child(tmp_path, monkeypatch, capsys, two_cpus):
    def interrupted(fh, blocks):
        if os.getpid() == two_cpus:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(engine, "_write_blocks", interrupted)
    start = time.monotonic()
    assert main(["simulate", *FORKED, "--out", "run.csv"]) == 130
    assert time.monotonic() - start < 30
    captured = capsys.readouterr()
    assert captured.err == "interrupted\n"
    assert captured.out == ""
    assert not list(tmp_path.iterdir())
    _no_child_left()


def test_the_child_ignores_sigint(tmp_path, monkeypatch, two_cpus):
    # a Ctrl-C reaches every process of the terminal's group; only this one reports it
    assert main(["simulate", *FORKED, "--out", "alone.csv"]) == 0
    write_blocks = engine._write_blocks

    def sigint_in_child(fh, blocks):
        if os.getpid() != two_cpus:
            os.kill(os.getpid(), signal.SIGINT)
        write_blocks(fh, blocks)

    monkeypatch.setattr(engine, "_write_blocks", sigint_in_child)
    assert main(["simulate", *FORKED, "--out", "run.csv"]) == 0
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
    _no_child_left()


def test_a_forked_write_prints_each_line_once(tmp_path):
    # stdout to a pipe is block-buffered: a child that flushed it would print 'before' twice
    driver = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; print('before'); "
              "from se2track.cli import main; sys.exit(main(sys.argv[1:]))")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", driver, "simulate", *FORKED, "--out", "run.csv"],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and lines[0] == "before"
    assert lines[1].startswith("wrote run.csv (1025 rows); final position error")
    assert proc.stderr == ""


# the real entry, cli.run, on two CPUs: the CSV writer forks a worker for part of its blocks
_ON_TWO_CPUS = ("import os; os.sched_getaffinity = lambda pid: {0, 1}; "
                "from se2track import cli; cli.run()")


@pytest.mark.parametrize("argv, code, err", [
    (["--version"], 0, ""),
    (["--bogus"], 2, "se2track: error: unrecognized arguments: --bogus\n"),
    (["simulate", "--dt", "100", "--t-end", "10000", "--out", "x.csv"], 1,
     "simulation failed: non-finite state at step 57 (t = 5700)\n"),
], ids=["version", "usage-error", "diverges"])
def test_the_entry_passes_mains_exit_code_through(tmp_path, argv, code, err):
    proc = _entry(argv, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr.endswith(err)
    assert proc.stdout == (f"se2track {cli.__version__}\n" if code == 0 else "")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("into", ["pipe", "file"])
@pytest.mark.parametrize("argv, driver", [
    (["pe-check", "--out", "pe.json"], None),
    (["simulate", *FORKED, "--out", "run.csv"], _ON_TWO_CPUS),
], ids=["pe-check", "forked-simulate"])
def test_the_entry_prints_what_main_prints(tmp_path, monkeypatch, capsys, argv, driver, into):
    (tmp_path / "main").mkdir()
    monkeypatch.chdir(tmp_path / "main")
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    (tmp_path / "entry").mkdir()
    if into == "pipe":
        # run returns at the pipe's end of file, once every process that holds it has ended,
        # the writer's forked worker included
        proc = _entry(argv, driver, cwd=tmp_path / "entry", stdout=subprocess.PIPE)
        out = proc.stdout
    else:
        with open(tmp_path / "stdout", "wb") as fh:
            proc = _entry(argv, driver, cwd=tmp_path / "entry", stdout=fh)
        out = (tmp_path / "stdout").read_bytes()
    assert proc.returncode == 0
    assert out == printed
    # the report or the log, which holds no timings
    written = argv[-1]
    assert (tmp_path / "entry" / written).read_bytes() == (tmp_path / "main" / written).read_bytes()
    _no_child_left()


def test_the_entry_runs_no_exit_hook():
    driver = ("import atexit; atexit.register(print, 'exit hook'); "
              "from se2track import cli; cli.run()")
    proc = _entry(["--version"], driver, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, f"se2track {cli.__version__}\n", "")


def test_the_entry_with_stdout_closed_prints_the_version_on_stderr():
    # Python starts with sys.stdout None where descriptor 1 is closed, and argparse then
    # prints the version on stderr
    driver = ("import os, sys; os.close(1); "
              "os.execv(sys.executable, [sys.executable, '-m', 'se2track.cli', '--version'])")
    proc = _entry([], driver, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, f"se2track {cli.__version__}\n")


def test_the_entry_into_a_closed_pipe_reports_it_once():
    # unbuffered (python -u), the first print raises in main, which reports it
    reader, writer = os.pipe()
    os.close(reader)
    driver = ("import os, sys; os.execv(sys.executable, "
              "[sys.executable, '-u', '-m', 'se2track.cli', 'pe-check'])")
    try:
        proc = _entry([], driver, stdout=writer, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(writer)
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 32] Broken pipe\n")


def test_a_flush_that_fails_ends_through_the_interpreter():
    # buffered, main's lines reach the closed pipe only in run's flush: the interpreter
    # then reports the failed flush of stdout, and runs the exit hooks, as without run's flush
    reader, writer = os.pipe()
    os.close(reader)
    driver = ("import atexit, sys; atexit.register(print, 'exit hook', file=sys.stderr); "
              "from se2track import cli; cli.run()")
    try:
        proc = _entry(["pe-check"], driver, stdout=writer, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(writer)
    assert proc.returncode == 120
    assert proc.stderr.startswith("exit hook\nException ignored in: <_io.TextIOWrapper "
                                  "name='<stdout>'")
    assert proc.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")


def test_a_closed_stdout_ends_through_the_interpreter_with_mains_code():
    driver = ("import atexit, sys; atexit.register(print, 'exit hook', file=sys.stderr)\n"
              "from se2track import cli; main = cli.main\n"
              "def closing():\n"
              "    code = main()\n"
              "    sys.stdout.close()\n"
              "    return code\n"
              "cli.main = closing; cli.run()")
    proc = _entry(["--bogus"], driver, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.endswith("error: unrecognized arguments: --bogus\n"
                                "exit hook\n")


def test_an_exception_out_of_main_ends_through_the_interpreter():
    driver = ("import atexit, sys; atexit.register(print, 'exit hook', file=sys.stderr)\n"
              "from se2track import cli\n"
              "def failing():\n"
              "    raise RuntimeError('escaped')\n"
              "cli.main = failing; cli.run()")
    proc = _entry([], driver, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.endswith("RuntimeError: escaped\nexit hook\n")


# runs main on sys.argv[2:] with two CPUs; the engine function sys.argv[1] SIGKILLs a worker
_KILLS_ITS_WORKER = """
import os, signal, sys
from se2track import cli, engine
os.sched_getaffinity = lambda pid: {0, 1}
parent, patched = os.getpid(), getattr(engine, sys.argv[1])

def killed(*args):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return patched(*args)

setattr(engine, sys.argv[1], killed)
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("patched, command", [
    ("_write_blocks", ["simulate", *FORKED, "--out", "run.csv"]),
    ("_integrate", ["basin", "--samples", "4", "--dt", "0.01", "--t-end", "1",
                    "--out", "basin.json"]),
], ids=["csv-writer", "basin"])
def test_a_killed_worker_ends_in_one_error_line(tmp_path, patched, command):
    # a worker killed by the OOM killer, say: an error within seconds, not a wait without end
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _KILLS_ITS_WORKER, patched, *command],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert proc.stderr == "error: a worker process ended with status -9 before it finished its task\n"
    assert proc.stdout == ""
    assert not list(tmp_path.iterdir())


# a float of either sign, from 10^-308 to 10^308 in magnitude
_MAGNITUDES = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                        st.sampled_from([1.0, -1.0]), st.floats(-308.0, 308.0))

# each command with a short horizon, and the outputs it writes
_FUZZED = {
    "simulate": (["--t-end", "0.05", "--out", "run.csv"], {"run.csv", "run.manifest.json"}),
    "basin": (["--t-end", "0.05", "--samples", "2", "--out", "b.json"], {"b.json"}),
    "pe-check": (["--windows", "4", "--out", "pe.json"], {"pe.json"}),
    "lin-check": (["--t-end", "0.01", "--out", "lin.json"], {"lin.json"}),
}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(_FUZZED)), traj=st.sampled_from(["ellipse", "line"]),
       flags=st.dictionaries(st.sampled_from(["a", "b", "h", "speed", "heading", "window"]),
                             _MAGNITUDES),
       origin=st.none() | st.tuples(_MAGNITUDES, _MAGNITUDES))
def test_any_magnitude_ends_in_an_exit_code_without_a_warning(command, traj, flags, origin):
    # a numpy warning would be an error here, and escape main
    run, outputs = _FUZZED[command]
    argv = [command, "--traj", traj, *(f"--{name}={value!r}" for name, value in flags.items()
                                       if name != "window" or command == "pe-check")]
    if origin is not None:
        argv.append("--origin={!r},{!r}".format(*origin))
    cwd, err = os.getcwd(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv + run)
        finally:
            os.chdir(cwd)
        written = set(os.listdir(tmp))
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), argv
    assert written in (set(), outputs), argv


# any JSON value: floats include NaN and ±inf, which json writes as NaN and Infinity
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def _long(value) -> bool:
    """Whether value is a number that dt or t_end would take: positive and finite."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value < math.inf)


# a valid config of a short horizon, of which a few fields or trajectory keys take any
# JSON value; a horizon stays short or is no horizon at all, so that no run takes long
_VALID = {"dt": 0.01, "t_end": 0.05, "trajectory": {"family": "ellipse", "a": 1.0, "b": 1.5,
                                                     "h": 1.0}}
_FIELD_VALUES = {**{name: _JSON for name in ("trajectory", "controller", "gains", "offset",
                                             "seed")},
                 "dt": st.sampled_from([0.01, 0.025]) | _JSON.filter(lambda v: not _long(v)),
                 "t_end": st.sampled_from([0.05, 0.1]) | _JSON.filter(lambda v: not _long(v))}
_TRAJECTORY_KEYS = ("family", "a", "b", "h", "origin", "speed", "heading", "start")
_CONFIGURED = {
    "simulate": (["--out", "run.csv"], {"run.csv", "run.manifest.json"}),
    "basin": (["--samples", "2", "--out", "b.json"], {"b.json"}),
}


def _some_of(values: dict):
    """Up to two of the keys of values, each with a value drawn from its strategy."""
    return st.lists(st.sampled_from(sorted(values)), unique=True, max_size=2).flatmap(
        lambda keys: st.fixed_dictionaries({key: values[key] for key in keys}))


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(_CONFIGURED)),
       fields=_some_of(_FIELD_VALUES), keys=_some_of(dict.fromkeys(_TRAJECTORY_KEYS, _JSON)))
def test_config_values_of_any_json_type_end_in_an_exit_code_without_a_warning(command, fields,
                                                                              keys):
    config = {**_VALID, "trajectory": {**_VALID["trajectory"], **keys}, **fields}
    run, outputs = _CONFIGURED[command]
    cwd, err = os.getcwd(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("c.json").write_text(json.dumps(config))
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([command, "--config", "c.json", *run])
        finally:
            os.chdir(cwd)
        written = set(os.listdir(tmp)) - {"c.json"}
    assert code in (0, 1, 2), config
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), config
    assert written in (set(), outputs), config
