"""Command-line front end.

Subcommands:

    simulate   one closed-loop run -> CSV log + JSON manifest
    pe-check   excitation scan of a reference -> JSON report
    lin-check  linearization diagnostics -> JSON report
    compare    several controllers on one scenario (JSON config) -> CSVs + summary
    basin      Monte-Carlo convergence sweep -> JSON summary

Exit codes: 0 success, 1 runtime failure (a diverged simulation, L
rising along a spatial run, a lin-check step too large for its
reference, a pe-check quadrature too coarse, a result that is not
finite in floats, a write that failed), 2 usage or config error (an
unknown config key, a reference whose values floats cannot hold at a
time the command samples it, or an output path that is empty, in no
directory, a directory or not a regular file, checked before any run),
130 interrupted. Every result that is not finite, in a run's log
(engine.simulate refuses it, for simulate and each run of compare), a
report or a numpy operation, ends in one line from main. Outputs are
deterministic: re-running a written manifest reproduces the CSV byte
for byte.

Both ways of starting the CLI, the installed `se2track` script and
`python -m se2track.cli`, go through run, which freezes the heap that
the imports left (gc.freeze) before main runs. The modules, functions,
classes and constants of numpy, scipy and this package live until the
process exits, so the run's collections do not walk them, and the
forked workers of a basin sweep or a CSV write inherit them frozen. A
library caller of main, such as the tests, keeps its collector as it
was. BENCH_30.json records what the freeze took off each workload,
measured before run ended through os._exit.

Once main returns its exit code, run flushes stdout and stderr (a
stream that is None, as under `--version >&-`, is skipped) and ends the
process with os._exit. No module teardown, atexit hook or destructor of
an extension module runs. Those destructors (scipy's) paged in about
1.8 MB after the run, so the teardown, not the run, had set the
process's peak resident set. Nothing is lost by skipping it: every
output file is closed, and renamed onto its name, inside
engine._replacing; _in_parallel kills and reaps its workers however it
ends; and the package registers no exit hook. Where a flush raises
OSError or ValueError (a closed pipe, a closed stream), run falls back
to sys.exit, so the interpreter reports the failure as it always did;
an exception out of main also ends through the interpreter.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import stat
import sys
import time
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (
    CONTROLLERS,
    SimConfig,
    SimLog,
    SimulationDiverged,
    StepTooLarge,
    _BASIN_THRESHOLD,
    _SETTLE_THRESHOLD,
    _replacing,
    _write_csv,
    compare_controllers,
    monte_carlo_basin,
    simulate,
)
from .excitation import (
    _POINTS,
    _WINDOWS,
    _default_window,
    controller_regressor,
    ellipse_pe_closed_form,
    pe_epsilon,
    uniform_heading_ellipse_regressor,
    window_gram,
)
from .linearization import _PROBE_DT, _PROBE_T_END, lin_check
from .trajectories import require_known_keys, trajectory_from_descriptor


def _parse_floats(text: str, n: int, what: str) -> tuple:
    try:
        parts = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated numbers, got {text!r}")
    if len(parts) != n:
        raise ValueError(f"{what}: expected {n} comma-separated numbers, got {text!r}")
    return parts


# Values of the trajectory flags not given. The flags default to None, like
# the run flags, so that a run with --config can tell which were given.
_TRAJECTORY_DEFAULTS = {"traj": "ellipse", "a": 3.0, "b": 5.0, "h": 2.0 * math.pi / 5.0,
                        "origin": "0,0", "speed": 1.0, "heading": 0.0}


def _add_trajectory_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--traj", choices=["ellipse", "line"],
                   help="reference family (default: ellipse)")
    p.add_argument("--a", type=float, help="ellipse semi-axis x (default 3)")
    p.add_argument("--b", type=float, help="ellipse semi-axis y (default 5)")
    p.add_argument("--h", type=float, help="ellipse angular rate (default 2*pi/5)")
    p.add_argument("--origin", help="ellipse center / line start as x,y (default 0,0)")
    p.add_argument("--speed", type=float, help="line speed (default 1)")
    p.add_argument("--heading", type=float, help="line heading, rad (default 0)")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--controller", choices=list(CONTROLLERS))
    p.add_argument("--gains", default=None,
                   help="comma-separated controller gains (spatial: k_omega,k_v; "
                        "kanayama: k_x,k_y,k_theta)")
    p.add_argument("--offset",
                   help="initial offset dx,dy,dtheta from the reference (default 0,0,0)")
    p.add_argument("--dt", type=float, default=None, help="integration step, s")
    p.add_argument("--t-end", type=float, default=None, help="horizon, s")
    p.add_argument("--seed", type=int, default=None, help="rng seed (batch modes)")
    p.add_argument("--config", default=None,
                   help="JSON config or manifest; explicit flags override its values")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="se2track",
        description="Tracking control experiments for the kinematic unicycle on SE(2).",
    )
    top.add_argument("--version", action="version", version=f"se2track {__version__}")
    # not required here: argparse would report a missing command before an unknown flag, so
    # main refuses a missing command itself, once parse_args has refused every unknown flag
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="run one closed-loop simulation")
    p.set_defaults(run=cmd_simulate)
    _add_trajectory_flags(p)
    _add_run_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("pe-check", help="persistent-excitation scan of a reference")
    p.set_defaults(run=cmd_pe_check)
    _add_trajectory_flags(p)
    p.add_argument("--window", type=float, default=None,
                   help="window length T, s (default: one period, or 5 if aperiodic)")
    p.add_argument("--horizon", type=float, default=None,
                   help="scan horizon, s (default: 5 windows)")
    p.add_argument("--windows", type=int, default=_WINDOWS, help="window start grid size")
    p.add_argument("--points", type=int, default=_POINTS, help="Simpson points per window (odd)")
    p.add_argument("--out", default=None, help="optional JSON report path")

    p = sub.add_parser("lin-check", help="linearization structure and decay diagnostics")
    p.set_defaults(run=cmd_lin_check)
    _add_trajectory_flags(p)
    p.add_argument("--t-end", type=float, default=_PROBE_T_END, help="LTV probe horizon, s")
    p.add_argument("--dt", type=float, default=_PROBE_DT, help="probe step, s")
    p.add_argument("--out", default=None, help="optional JSON report path")

    p = sub.add_parser("compare", help="run several controllers on one scenario")
    p.set_defaults(run=cmd_compare)
    p.add_argument("--config", required=True, help="JSON scenario file (see README)")
    p.add_argument("--out", default="compare", help="output stem for CSVs and summary")

    p = sub.add_parser("basin", help="Monte-Carlo convergence sweep")
    p.set_defaults(run=cmd_basin)
    _add_trajectory_flags(p)
    _add_run_flags(p)
    p.add_argument("--samples", type=int, default=None,
                   help="number of draws (default: the --config summary's, else 100)")
    p.add_argument("--threshold", type=float, default=None,
                   help="Lyapunov convergence threshold "
                        "(default: the --config summary's, else 1e-6)")
    p.add_argument("--out", default=None, help="optional JSON summary path")

    return top


def _trajectory_descriptor(args) -> dict:
    flag = {name: default if getattr(args, name) is None else getattr(args, name)
            for name, default in _TRAJECTORY_DEFAULTS.items()}
    origin = _parse_floats(flag["origin"], 2, "--origin")
    if flag["traj"] == "ellipse":
        return {"family": "ellipse", "a": flag["a"], "b": flag["b"], "h": flag["h"],
                "origin": list(origin)}
    return {"family": "line", "speed": flag["speed"], "heading": flag["heading"],
            "start": list(origin)}


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _config_file(args):
    """The JSON object of the --config file, or None without one."""
    return None if args.config is None else _load_json(args.config)


def _resolve_sim_config(args, doc, defaults=None) -> SimConfig:
    """Merge the command's partial config `defaults`, the --config file's `doc` and the flags.

    doc is None without a --config file. Each source wins over the one
    before it.
    """
    cfg = dict(defaults or {})
    if doc is not None:
        file_cfg = doc.get("config", doc)  # accept a manifest or a bare config
        if not isinstance(file_cfg, dict) or "trajectory" not in file_cfg:
            raise ValueError(f"config file {args.config} lacks a trajectory section")
        cfg.update(file_cfg)
    if "trajectory" not in cfg or any(getattr(args, name) is not None
                                      for name in _TRAJECTORY_DEFAULTS):
        cfg["trajectory"] = _trajectory_descriptor(args)
    if args.gains is not None:
        cfg["gains"] = list(_parse_floats(args.gains, len(args.gains.split(",")), "--gains"))
    if args.offset is not None:
        cfg["offset"] = list(_parse_floats(args.offset, 3, "--offset"))
    for name in ("controller", "dt", "t_end", "seed"):
        if getattr(args, name) is not None:
            cfg[name] = getattr(args, name)
    return _sim_config(cfg)


def _sim_config(d: dict) -> SimConfig:
    try:
        return SimConfig.from_dict(d)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"invalid configuration: {exc}")


def _check_outputs(*paths) -> None:
    """Raise ValueError, naming the path, unless each path given can be a file in a directory.

    A path of None is an output not asked for; an empty one is refused.
    An existing path must be a regular file: the write renames a new file
    onto it, which would replace a FIFO, a device, a socket or a symlink
    itself, not write through it.
    """
    for path in paths:
        if path is None:
            continue
        if path == "":
            raise ValueError("cannot write '': the path is empty")
        path = Path(path)
        if path.is_dir():
            raise ValueError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise ValueError(f"cannot write {path}: {path.parent} is not a directory")
        if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
            raise ValueError(f"cannot write {path}: it is not a regular file")


def _require_finite_json(doc, where: str = "") -> None:
    """Raise FloatingPointError, naming the first value of doc that is a float but not finite.

    NaN and Infinity are not JSON. lin-check, compare and basin check
    their report, and pe-check its epsilon and quadrature residual, from
    which every other number of its report is finite, before they write
    a file or print a line. main turns the error into one line and exit
    1, so such a result leaves no outputs. A simulate manifest holds
    only a checked config, counts and a clock reading; engine.simulate
    refuses a log that is not finite, for simulate and compare alike.
    """
    if isinstance(doc, float):
        if not math.isfinite(doc):
            raise FloatingPointError(f"{where} = {doc}")
    elif isinstance(doc, dict):
        for key, value in doc.items():
            _require_finite_json(value, f"{where}.{key}" if where else str(key))
    elif isinstance(doc, (list, tuple)):
        for i, value in enumerate(doc):
            _require_finite_json(value, f"{where}[{i}]")


def _write_json(path, doc) -> None:
    # NaN and Infinity are not JSON: a non-finite value raises before the file is opened
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with _replacing(path) as fh:
        fh.write((text + "\n").encode())


def _write_report(path, doc) -> None:
    """Write the JSON report of pe-check, lin-check or basin to path, if one was given."""
    if path is not None:
        _write_json(path, doc)
        print(f"wrote {path}")


def _manifest_path(out_csv: str) -> Path:
    p = Path(out_csv)
    stem = p.with_suffix("") if p.suffix == ".csv" else p
    return Path(str(stem) + ".manifest.json")


def cmd_simulate(args) -> int:
    cfg = _resolve_sim_config(args, _config_file(args))
    _check_outputs(args.out, _manifest_path(args.out))
    t0 = time.perf_counter()
    log = simulate(cfg)
    log.to_csv(args.out)
    manifest = {
        "tool": "se2track",
        "version": __version__,
        "command": "simulate",
        "config": cfg.to_dict(),
        "out": str(args.out),
        "rows": len(log),
        "wall_clock_s": round(time.perf_counter() - t0, 6),
    }
    _write_json(_manifest_path(args.out), manifest)
    # from the last row alone, so that no array the length of the log is made
    last = SimLog(data=log.data[-1:])
    final_pos = float(last.position_error()[0])
    final_head = float(last.heading_error()[0])
    print(f"wrote {args.out} ({len(log)} rows); final position error "
          f"{final_pos:.3e} m, heading error {final_head:.3e} rad")
    return 0


# largest relative residual of the uniform-heading Gram against its closed form that pe-check
# accepts: from 7 points on it reads below 2e-15, at 3 and 5 points about 0.9 and 0.3
_QUADRATURE_TOL = 1e-9


def cmd_pe_check(args) -> int:
    desc = _trajectory_descriptor(args)
    traj = trajectory_from_descriptor(desc)
    _check_outputs(args.out)
    T = args.window if args.window is not None else _default_window(traj)
    horizon = args.horizon if args.horizon is not None else 5.0 * T
    # a result too large for floats gives inf or nan, checked below, not a warning
    with np.errstate(all="ignore"):
        report = pe_epsilon(controller_regressor(traj), horizon, T,
                            windows=args.windows, n=args.points)
        scalars = {"epsilon": report.epsilon}
        if desc["family"] == "ellipse":
            a, b, h = desc["a"], desc["b"], desc["h"]
            closed = ellipse_pe_closed_form(a, b, h)
            # the closed form holds for the centred ellipse, whatever the reference's origin
            quad = window_gram(uniform_heading_ellipse_regressor(a, b, h), 0.0, traj.period,
                               args.points)
            resid = float(np.max(np.abs(quad - closed)) / np.max(np.abs(closed)))
            scalars["quadrature residual"] = resid
    _require_finite_json(scalars)
    if desc["family"] == "ellipse" and resid > _QUADRATURE_TOL:
        print(f"pe-check failed: quadrature residual {resid:.3e} (relative) exceeds "
              f"{_QUADRATURE_TOL:g}; --points {args.points} is too few Simpson points for "
              f"this reference, and epsilon is computed by the same rule", file=sys.stderr)
        return 1

    doc = {"trajectory": desc, "report": report.to_dict()}
    verdict = "PE certified on scanned horizon" if report.certifies_pe \
        else "not PE on scanned horizon"
    doc["verdict"] = verdict
    print(f"epsilon = {report.epsilon:.6g} over horizon {horizon:g} s "
          f"(window {T:g} s): {verdict}")

    if desc["family"] == "ellipse":
        doc["uniform_heading_convention"] = {
            "closed_form_diag": [float(closed[i, i]) for i in range(3)],
            "quadrature_residual_rel": resid,
        }
        print(f"uniform-heading one-period Gram diag: "
              f"({closed[0, 0]:.6g}, {closed[1, 1]:.6g}, {closed[2, 2]:.6g}); "
              f"quadrature residual {resid:.3e} (relative)")

    _write_report(args.out, doc)
    return 0


def cmd_lin_check(args) -> int:
    desc = _trajectory_descriptor(args)
    traj = trajectory_from_descriptor(desc)
    _check_outputs(args.out)
    report = lin_check(traj, t_end=args.t_end, dt=args.dt)
    doc = {"trajectory": desc, "report": report.to_dict()}
    _require_finite_json(doc)
    print(f"structure residual {report.max_structure_residual:.3e}, "
          f"FD residual {report.max_fd_residual:.3e}, "
          f"fitted decay rate {report.fitted_decay_rate:.4f} "
          f"(R^2 = {report.r_squared:.4f}) -> {report.verdict}")
    _write_report(args.out, doc)
    return 0


# keys of a compare config, and of an object in its controllers list
_COMPARE_KEYS = ("trajectory", "controllers", "offset", "dt", "t_end", "threshold")
_COMPARE_ENTRY_KEYS = ("name", "gains")


def _compare_config(path: str):
    doc = _load_json(path)
    require_known_keys(f"compare config {path}", doc, _COMPARE_KEYS)
    missing = [k for k in ("trajectory", "controllers") if k not in doc]
    if missing:
        raise ValueError(f"compare config {path}: missing keys {missing}")
    ctrls = doc["controllers"]
    if not isinstance(ctrls, list) or not ctrls:
        raise ValueError(f"compare config {path}: 'controllers' must be a non-empty list")
    run = {key: doc[key] for key in ("trajectory", "offset", "dt", "t_end") if key in doc}
    bad = []
    cfgs = []
    for i, entry in enumerate(ctrls):
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict):
            bad.append(f"controllers[{i}]={entry!r}")
            continue
        require_known_keys(f"compare config {path}, controllers[{i}]", entry, _COMPARE_ENTRY_KEYS)
        name = entry.get("name")
        if name not in CONTROLLERS:
            bad.append(f"controllers[{i}].name={name!r}")
            continue
        # an empty gains list picks the defaults, as a missing one does; any other value is checked
        gains = entry.get("gains")
        cfgs.append(_sim_config({**run, "controller": name, "gains": None if gains == [] else gains}))
    if bad:
        raise ValueError(f"compare config {path}: invalid entries: {', '.join(bad)}")
    return cfgs, doc.get("threshold", _SETTLE_THRESHOLD)


# the series of each run in the long-format table, in its order
_LONG_SERIES = {
    "px": lambda log: log.column("px"), "py": lambda log: log.column("py"),
    "pxd": lambda log: log.column("pxd"), "pyd": lambda log: log.column("pyd"),
    "position_error": lambda log: log.position_error(),
    "heading_error": lambda log: log.heading_error(),
    "lyapunov": lambda log: log.lyap,
}


def _long_blocks(cfgs, logs) -> list:
    """Thunks of the long-format table (controller, run, t, variable, value), one per series.

    A run's t is formatted once by each process that writes its series.
    """
    @lru_cache(maxsize=1)
    def times(i):
        return list(map(str, logs[i].t.tolist()))

    def block(i, var):
        controller = cfgs[i].controller
        return [f"{controller},{i},{t},{var},{value}"
                for t, value in zip(times(i), _LONG_SERIES[var](logs[i]).tolist())]

    return [partial(block, i, var) for i in range(len(logs)) for var in _LONG_SERIES]


def cmd_compare(args) -> int:
    cfgs, threshold = _compare_config(args.config)
    if args.out == "":
        raise ValueError("cannot write '': the output stem is empty")
    stem = Path(args.out)
    if args.out.endswith("/") or stem.is_dir():
        raise ValueError(f"cannot write {args.out}: the output stem names a directory")
    paths = [f"{stem}_{i}_{cfg.controller}.csv" for i, cfg in enumerate(cfgs)]
    long_path = Path(f"{stem}_long.csv")
    summary_path = f"{stem}_summary.json"
    _check_outputs(*paths, long_path, summary_path)
    rows, logs = compare_controllers(cfgs, threshold=threshold)
    summary = {
        "threshold": float(threshold),
        "rows": [r.to_dict() for r in rows],
        "csv_files": paths,
        "long_format": str(long_path),
    }
    _require_finite_json(summary)

    for path, log in zip(paths, logs):
        log.to_csv(path)
    _write_csv(long_path, ("controller", "run", "t", "variable", "value"), _long_blocks(cfgs, logs))
    _write_json(summary_path, summary)
    for r in rows:
        tth = "never" if r.time_to_heading is None else f"{r.time_to_heading:g} s"
        ttp = "never" if r.time_to_position is None else f"{r.time_to_position:g} s"
        print(f"{r.controller:12s} heading<thr: {tth:>9s}  position<thr: {ttp:>9s}  "
              f"final pos err {r.final_position_error:.3e}")
    print(f"wrote {len(paths)} run CSVs, {long_path}, {summary_path}")
    return 0


def cmd_basin(args) -> int:
    file_doc = _config_file(args)
    # draws far from the reference need longer to settle than one run
    cfg = _resolve_sim_config(args, file_doc, defaults={"t_end": 60.0, "dt": 5e-3})
    # a written summary replays its own count and threshold; monte_carlo_basin checks both
    replayed = {} if file_doc is None else file_doc.get("summary", {})
    if not isinstance(replayed, dict):
        raise ValueError(f"config file {args.config}: 'summary' must be a JSON object, "
                         f"got {type(replayed).__name__}")
    samples = replayed.get("samples", 100) if args.samples is None else args.samples
    threshold = (replayed.get("threshold", _BASIN_THRESHOLD) if args.threshold is None
                 else args.threshold)
    _check_outputs(args.out)
    summary = monte_carlo_basin(cfg, samples=samples, threshold=threshold)
    doc = {"config": cfg.to_dict(), "summary": summary.to_dict()}
    _require_finite_json(doc)
    frac = "n/a" if summary.fraction is None else f"{summary.fraction:.3f}"
    print(f"{summary.converged}/{summary.samples} runs reached "
          f"Lyapunov < {threshold:g} by t = {cfg.t_end:g} s "
          f"(fraction {frac}, seed {summary.seed})")
    _write_report(args.out, doc)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("the following arguments are required: command")
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        # numpy overflows where no scope ignores them on purpose: a result floats cannot hold
        with np.errstate(over="raise", invalid="raise"):
            return args.run(args)
    except (SimulationDiverged, StepTooLarge) as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"{args.command} failed: {exc}: a result is not finite in floats", file=sys.stderr)
        return 1
    except ValueError as exc:
        # a bad flag, config file, value or output path: a usage problem, not a crash
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a write that failed, such as on a full disk
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def run() -> None:
    """Process entry of the `se2track` script and of `python -m se2track.cli`.

    Everything alive now, the imported modules and what they hold, lives
    until the process exits: gc.freeze moves it to the permanent
    generation, which no collection walks. Once main returns, the process
    flushes stdout and stderr and ends through os._exit, with no teardown
    (see the module docstring). A flush that fails, and an exception out
    of main, end through the interpreter as before.
    """
    gc.freeze()
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            # None where Python started with the descriptor closed
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
