"""Command-line front end.

Subcommands:

    simulate   one closed-loop run -> CSV log + JSON manifest
    pe-check   excitation scan of a reference -> JSON report
    lin-check  linearization diagnostics -> JSON report
    compare    several controllers on one scenario (JSON config) -> CSVs + summary
    basin      Monte-Carlo convergence sweep -> JSON summary

Exit codes: 0 success, 1 runtime failure (diverged simulation),
2 usage or config error. Outputs are deterministic: re-running a
written manifest reproduces the CSV byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (
    CONTROLLERS,
    SimConfig,
    SimulationDiverged,
    _write_csv,
    compare_controllers,
    monte_carlo_basin,
    simulate,
)
from .excitation import (
    _default_window,
    controller_regressor,
    ellipse_pe_closed_form,
    pe_epsilon,
    uniform_heading_ellipse_regressor,
    window_gram,
)
from .linearization import lin_check
from .trajectories import trajectory_from_descriptor


class ConfigError(ValueError):
    """Bad flag combination or config file; maps to exit code 2."""


def _parse_floats(text: str, n: int, what: str) -> tuple:
    try:
        parts = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"{what}: expected comma-separated numbers, got {text!r}")
    if len(parts) != n:
        raise ConfigError(f"{what}: expected {n} comma-separated numbers, got {text!r}")
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
    sub = top.add_subparsers(dest="command", required=True)

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
    p.add_argument("--windows", type=int, default=64, help="window start grid size")
    p.add_argument("--points", type=int, default=401, help="Simpson points per window (odd)")
    p.add_argument("--out", default=None, help="optional JSON report path")

    p = sub.add_parser("lin-check", help="linearization structure and decay diagnostics")
    p.set_defaults(run=cmd_lin_check)
    _add_trajectory_flags(p)
    p.add_argument("--t-end", type=float, default=25.0, help="LTV probe horizon, s")
    p.add_argument("--dt", type=float, default=1e-3, help="probe step, s")
    p.add_argument("--out", default=None, help="optional JSON report path")

    p = sub.add_parser("compare", help="run several controllers on one scenario")
    p.set_defaults(run=cmd_compare)
    p.add_argument("--config", required=True, help="JSON scenario file (see README)")
    p.add_argument("--out", default="compare", help="output stem for CSVs and summary")

    p = sub.add_parser("basin", help="Monte-Carlo convergence sweep")
    p.set_defaults(run=cmd_basin)
    _add_trajectory_flags(p)
    _add_run_flags(p)
    p.add_argument("--samples", type=int, default=100, help="number of draws (default 100)")
    p.add_argument("--threshold", type=float, default=1e-6,
                   help="Lyapunov convergence threshold (default 1e-6)")
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
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _resolve_sim_config(args, defaults=None) -> SimConfig:
    """Merge --config file (if any) with the flags given; given flags win.

    Without --config, the partial config `defaults` stands in for the file.
    """
    if args.config is None:
        cfg = dict(defaults or {})
    else:
        doc = _load_json(args.config)
        cfg = doc.get("config", doc)  # accept a manifest or a bare config
        if not isinstance(cfg, dict) or "trajectory" not in cfg:
            raise ConfigError(f"config file {args.config} lacks a trajectory section")
        cfg = dict(cfg)
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
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid configuration: {exc}")


def _write_json(path, doc) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest_path(out_csv: str) -> Path:
    p = Path(out_csv)
    stem = p.with_suffix("") if p.suffix == ".csv" else p
    return Path(str(stem) + ".manifest.json")


def cmd_simulate(args) -> int:
    cfg = _resolve_sim_config(args)
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
    final_pos = float(log.position_error()[-1])
    final_head = float(log.heading_error()[-1])
    print(f"wrote {args.out} ({len(log)} rows); final position error "
          f"{final_pos:.3e} m, heading error {final_head:.3e} rad")
    return 0


def cmd_pe_check(args) -> int:
    desc = _trajectory_descriptor(args)
    traj = trajectory_from_descriptor(desc)
    T = args.window if args.window is not None else _default_window(traj)
    horizon = args.horizon if args.horizon is not None else 5.0 * T
    report = pe_epsilon(controller_regressor(traj), horizon, T,
                        windows=args.windows, n=args.points)
    doc = {"trajectory": desc, "report": report.to_dict()}
    verdict = "PE certified on scanned horizon" if report.certifies_pe \
        else "not PE on scanned horizon"
    doc["verdict"] = verdict
    print(f"epsilon = {report.epsilon:.6g} over horizon {horizon:g} s "
          f"(window {T:g} s): {verdict}")

    if desc["family"] == "ellipse":
        a, b, h = desc["a"], desc["b"], desc["h"]
        closed = ellipse_pe_closed_form(a, b, h)
        # the closed form holds for the centred ellipse, whatever the reference's origin
        quad = window_gram(uniform_heading_ellipse_regressor(a, b, h), 0.0, traj.period,
                           args.points)
        resid = float(np.max(np.abs(quad - closed)) / np.max(np.abs(closed)))
        doc["uniform_heading_convention"] = {
            "closed_form_diag": [float(closed[i, i]) for i in range(3)],
            "quadrature_residual_rel": resid,
        }
        print(f"uniform-heading one-period Gram diag: "
              f"({closed[0, 0]:.6g}, {closed[1, 1]:.6g}, {closed[2, 2]:.6g}); "
              f"quadrature residual {resid:.3e} (relative)")

    if args.out:
        _write_json(args.out, doc)
        print(f"wrote {args.out}")
    return 0


def cmd_lin_check(args) -> int:
    desc = _trajectory_descriptor(args)
    traj = trajectory_from_descriptor(desc)
    report = lin_check(traj, t_end=args.t_end, dt=args.dt)
    doc = {"trajectory": desc, "report": report.to_dict()}
    print(f"structure residual {report.max_structure_residual:.3e}, "
          f"FD residual {report.max_fd_residual:.3e}, "
          f"fitted decay rate {report.fitted_decay_rate:.4f} "
          f"(R^2 = {report.r_squared:.4f}) -> {report.verdict}")
    if args.out:
        _write_json(args.out, doc)
        print(f"wrote {args.out}")
    return 0


def _compare_config(path: str):
    doc = _load_json(path)
    missing = [k for k in ("trajectory", "controllers") if k not in doc]
    if missing:
        raise ConfigError(f"compare config {path}: missing keys {missing}")
    ctrls = doc["controllers"]
    if not isinstance(ctrls, list) or not ctrls:
        raise ConfigError(f"compare config {path}: 'controllers' must be a non-empty list")
    run = {key: doc[key] for key in ("trajectory", "offset", "dt", "t_end") if key in doc}
    bad = []
    cfgs = []
    for i, entry in enumerate(ctrls):
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict):
            bad.append(f"controllers[{i}]={entry!r}")
            continue
        name = entry.get("name")
        if name not in CONTROLLERS:
            bad.append(f"controllers[{i}].name={name!r}")
            continue
        # an empty gains list picks the defaults, as a missing one does
        cfgs.append(_sim_config({**run, "controller": name, "gains": entry.get("gains") or None}))
    if bad:
        raise ConfigError(f"compare config {path}: invalid entries: {', '.join(bad)}")
    try:
        return cfgs, float(doc.get("threshold", 1e-2))
    except (TypeError, ValueError):
        raise ConfigError(f"compare config {path}: threshold must be a number, "
                          f"got {doc['threshold']!r}")


def _long_rows(cfgs, logs):
    """Rows (controller, run, t, variable, value) of the long-format table, one series at a time."""
    for i, (cfg, log) in enumerate(zip(cfgs, logs)):
        t = log.t.tolist()
        series = {
            "px": log.column("px"), "py": log.column("py"),
            "pxd": log.column("pxd"), "pyd": log.column("pyd"),
            "position_error": log.position_error(),
            "heading_error": log.heading_error(),
            "lyapunov": log.lyap,
        }
        for var, vals in series.items():
            for tk, vk in zip(t, vals.tolist()):
                yield cfg.controller, i, tk, var, vk


def cmd_compare(args) -> int:
    cfgs, threshold = _compare_config(args.config)
    rows, logs = compare_controllers(cfgs, threshold=threshold)
    stem = Path(args.out)

    paths = []
    for i, (cfg, log) in enumerate(zip(cfgs, logs)):
        path = Path(f"{stem}_{i}_{cfg.controller}.csv")
        log.to_csv(path)
        paths.append(str(path))

    long_path = Path(f"{stem}_long.csv")
    _write_csv(long_path, ("controller", "run", "t", "variable", "value"), _long_rows(cfgs, logs))

    summary = {
        "threshold": threshold,
        "rows": [r.to_dict() for r in rows],
        "csv_files": paths,
        "long_format": str(long_path),
    }
    _write_json(f"{stem}_summary.json", summary)
    for r in rows:
        tth = "never" if r.time_to_heading is None else f"{r.time_to_heading:g} s"
        ttp = "never" if r.time_to_position is None else f"{r.time_to_position:g} s"
        print(f"{r.controller:12s} heading<thr: {tth:>9s}  position<thr: {ttp:>9s}  "
              f"final pos err {r.final_position_error:.3e}")
    print(f"wrote {len(paths)} run CSVs, {long_path}, {stem}_summary.json")
    return 0


def cmd_basin(args) -> int:
    # draws far from the reference need longer to settle than one run
    cfg = _resolve_sim_config(args, defaults={"t_end": 60.0, "dt": 5e-3})
    seed = cfg.seed if cfg.seed is not None else 0
    summary = monte_carlo_basin(cfg, samples=args.samples, seed=seed,
                                threshold=args.threshold)
    frac = "n/a" if summary.fraction is None else f"{summary.fraction:.3f}"
    print(f"{summary.converged}/{summary.samples} runs reached "
          f"Lyapunov < {args.threshold:g} by t = {cfg.t_end:g} s "
          f"(fraction {frac}, seed {seed})")
    doc = {"config": cfg.to_dict(), "summary": summary.to_dict()}
    if args.out:
        _write_json(args.out, doc)
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return args.run(args)
    except SimulationDiverged as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # ConfigError and validation errors from the library surface the
        # same way: a usage problem, not a crash
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
