"""Traced run: per-layer spans and counts, taken from outside the package.

The workload's command sequence runs in-process through
``se2track.cli.main``. Wrappers replace the module-level names each
layer is entered through; the package itself is not modified, and every
wrapper is removed again after each pass.

- Spans (name, start, end, parent) around cli commands, engine.simulate,
  SimLog.to_csv, compare_controllers, monte_carlo_basin, pe_epsilon,
  window_gram, lin_check and stability_probe. Kept in memory and
  written to ``.bench_state/trace-<workload>-<seed>.json`` at the end.
- Counters at the hot scalar boundaries: state_at (by wrapping the
  trajectory trajectory_from_descriptor returns), correction_scalars as
  bound in engine, Pose.__post_init__, the excitation regressor and the
  linearization's A(t). They run in a pass of their own, so their cost
  does not enter the span times.
- Per-call costs of the hot functions come from timing batches of direct
  calls on seeded inputs, not from per-call spans.
- Import attribution parses ``python -X importtime``.

Untraced and span-traced passes alternate until the time is up; their
difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter

import common
import workloads

IMPORTS = {"import.se2track_s": "se2track", "import.scipy_integrate_s": "scipy.integrate",
           "import.numpy_s": "numpy"}
IMPORT_RUNS = 3
PROBE_REPEATS = 5


class Tracer:
    """Spans and counts recorded by wrappers installed on the package."""

    def __init__(self):
        self.spans = []       # dicts: name, start, end, parent (index or None), attrs
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def span(self, name, fn, describe=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = {"name": name, "parent": stack[-1] if stack else None, "attrs": {}}
            stack.append(len(spans))
            spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec["attrs"]["raised"] = type(exc).__name__
                raise
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
                if describe is not None:
                    describe(rec["attrs"], *args, **kwargs)

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _sim_attrs(attrs, cfg, *_, **__):
    attrs["steps"] = int(round(cfg.t_end / cfg.dt))
    attrs["controller"] = cfg.controller


def _csv_attrs(attrs, log, path, *_, **__):
    attrs["bytes"] = os.path.getsize(path)


def _lin_attrs(attrs, traj, *_, t_end=25.0, dt=1e-3, **__):
    attrs["ltv_steps"] = int(round(t_end / dt))


def install_spans(tr: Tracer, st) -> None:
    cli, engine, excitation, lin = st.cli, st.engine, st.excitation, st.linearization
    tr.patch(cli, "simulate", lambda f: tr.span("engine.simulate", f, _sim_attrs))
    tr.patch(engine, "simulate", lambda f: tr.span("engine.simulate", f, _sim_attrs))
    tr.patch(engine.SimLog, "to_csv", lambda f: tr.span("engine.to_csv", f, _csv_attrs))
    tr.patch(cli, "compare_controllers", lambda f: tr.span("engine.compare_controllers", f))
    tr.patch(cli, "monte_carlo_basin", lambda f: tr.span("engine.monte_carlo_basin", f))
    tr.patch(cli, "pe_epsilon", lambda f: tr.span("excitation.pe_epsilon", f))
    for owner in (excitation, cli, lin):
        tr.patch(owner, "window_gram", lambda f: tr.span("excitation.window_gram", f))
    tr.patch(cli, "lin_check", lambda f: tr.span("linearization.lin_check", f, _lin_attrs))
    tr.patch(lin, "stability_probe", lambda f: tr.span("linearization.stability_probe", f))


def install_counters(tr: Tracer, st) -> None:
    def counted_trajectories(where):
        def make(factory):
            def wrapper(desc):
                traj = factory(desc)
                return dataclasses.replace(
                    traj, state_at=tr.counter(f"state_at@{where}", traj.state_at))
            return wrapper
        return make

    tr.patch(st.engine, "trajectory_from_descriptor", counted_trajectories("engine"))
    tr.patch(st.cli, "trajectory_from_descriptor", counted_trajectories("cli"))
    tr.patch(st.engine, "correction_scalars",
             lambda f: tr.counter("controller.correction_scalars_calls", f))
    tr.patch(st.se2.Pose, "__post_init__", lambda f: tr.counter("se2.pose_constructions", f))
    tr.patch(st.excitation, "regressor", lambda f: tr.counter("excitation.regressor_evals", f))
    tr.patch(st.linearization, "closed_loop_ltv",
             lambda f: lambda traj: tr.counter("linearization.A_evals", f(traj)))


def call_cli(main, args):
    """Call ``cli.main(args)`` in-process; return (exit code, stdout bytes, wall s)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = main(list(args))
        wall = time.perf_counter() - t0
    return code, out.getvalue().encode(), wall


def run_pass(st, wl, workdir, verify, tally, tracer=None):
    """One pass of the command sequence in-process; returns its wall time."""
    total = 0.0
    for cmd in wl.commands:
        main = st.cli.main if tracer is None else tracer.span(f"cli.{cmd.subcommand}", st.cli.main)
        poses = tracer.counts["se2.pose_constructions"] if tracer else 0
        code, out, wall = call_cli(main, cmd.args)
        total += wall
        if tracer is not None:
            tracer.counts[f"se2.pose_constructions@{cmd.label}"] = \
                tracer.counts["se2.pose_constructions"] - poses
        tally.add(verify(cmd, workdir, code, out))
    return total


def _self_times(spans) -> list:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def span_metrics(spans) -> dict:
    """Per-layer times of one span-traced pass."""
    own = _self_times(spans)

    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    m = {"cli.self_s": sum(o for s, o in zip(spans, own) if s["parent"] is None)}
    for s, o in zip(spans, own):
        if s["parent"] is None:
            key = f"cli.self_s@{s['name'][4:]}"
            m[key] = m.get(key, 0.0) + o
    sims = [s for s in spans if s["name"] == "engine.simulate"]
    if sims:
        m["engine.simulate_s"] = total("engine.simulate")
        m["engine.step_us"] = 1e6 * m["engine.simulate_s"] / sum(s["attrs"]["steps"] for s in sims)
    writes = [s for s in spans if s["name"] == "engine.to_csv"]
    if writes:
        m["engine.to_csv_s"] = total("engine.to_csv")
        m["engine.to_csv_mb_per_s"] = \
            sum(s["attrs"]["bytes"] for s in writes) / 1e6 / m["engine.to_csv_s"]
    for name, key in (("engine.compare_controllers", "engine.compare_controllers_s"),
                      ("excitation.pe_epsilon", "excitation.pe_epsilon_s"),
                      ("linearization.lin_check", "linearization.lin_check_s"),
                      ("linearization.stability_probe", "linearization.stability_probe_s")):
        if any(s["name"] == name for s in spans):
            m[key] = total(name)
    samples = [s["end"] - s["start"] for s in sims
               if s["parent"] is not None and spans[s["parent"]]["name"] == "engine.monte_carlo_basin"]
    if len(samples) > 1:
        q = statistics.quantiles(samples, n=4)
        m["engine.basin_sample_p50_s"], m["engine.basin_sample_p75_s"] = q[1], q[2]
    return m


def count_metrics(tr: Tracer, wl, workdir) -> dict:
    """Exact counts of the counter pass."""
    spans, c = tr.spans, tr.counts
    sims = [s for s in spans if s["name"] == "engine.simulate"]
    steps = sum(s["attrs"]["steps"] for s in sims)
    spatial = sum(s["attrs"]["steps"] for s in sims if s["attrs"]["controller"] == "spatial")
    basin = [s for s in sims if s["parent"] is not None
             and spans[s["parent"]]["name"] == "engine.monte_carlo_basin"]
    m = {
        "trajectories.state_at_calls": c["state_at@engine"] + c["state_at@cli"],
        "trajectories.state_at_calls_per_step": c["state_at@engine"] / steps if steps else 0.0,
        "controller.correction_scalars_calls": c["controller.correction_scalars_calls"],
        "controller.correction_scalars_calls_per_step":
            c["controller.correction_scalars_calls"] / spatial if spatial else 0.0,
        "engine.steps": steps,
        "engine.csv_bytes": sum(s["attrs"]["bytes"] for s in spans if s["name"] == "engine.to_csv"),
        "cli.long_csv_bytes": sum((workdir / name).stat().st_size for cmd in wl.commands
                                  for name in cmd.outputs if name.endswith("_long.csv")),
        "engine.basin_samples": len(basin),
        "engine.basin_diverged": sum(1 for s in basin if "raised" in s["attrs"]),
        "excitation.window_gram_calls":
            sum(1 for s in spans if s["name"] == "excitation.window_gram"),
        "excitation.regressor_evals": c["excitation.regressor_evals"],
        "linearization.ltv_steps": sum(s["attrs"].get("ltv_steps", 0) for s in spans
                                       if s["name"] == "linearization.lin_check"),
        "linearization.A_evals": c["linearization.A_evals"],
        "se2.pose_constructions": c["se2.pose_constructions"],
    }
    for cmd in wl.commands:
        m[f"se2.pose_constructions@{cmd.label}"] = c[f"se2.pose_constructions@{cmd.label}"]
    return m


def _per_call_us(fn, calls) -> float:
    """Median over PROBE_REPEATS batches of the cost of one call, in microseconds."""
    per = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
        per.append((time.perf_counter() - t0) / len(calls) * 1e6)
    return statistics.median(per)


def _median_time(fn) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_metrics(st, seed, workdir) -> dict:
    """Per-call costs of each layer's hot functions on seeded inputs."""
    rng = random.Random(seed)
    ellipse_desc = workloads.draw_ellipse(rng)
    ellipse = st.trajectories.trajectory_from_descriptor(ellipse_desc)
    line = st.trajectories.trajectory_from_descriptor(workloads.draw_line(rng))
    ts = [(k * 1e-3,) for k in range(20000)]
    scalars = [tuple(rng.uniform(-3.0, 3.0) for _ in range(6)) for _ in range(20000)]
    poses = [(rng.uniform(-3.0, 3.0), (rng.uniform(-3.0, 3.0), 1.0))
             for _ in range(20000)]
    m = {
        "trajectories.state_at_ellipse_us": _per_call_us(ellipse.state_at, ts),
        "trajectories.state_at_line_us": _per_call_us(line.state_at, ts),
        "controller.correction_scalars_us": _per_call_us(st.controller.correction_scalars, scalars),
        "se2.pose_init_us": _per_call_us(st.se2.Pose, poses),
        "linearization.A_eval_us":
            _per_call_us(st.linearization.closed_loop_ltv(ellipse), ts[:5000]),
    }
    F = st.excitation.controller_regressor(ellipse)
    m["excitation.window_gram_us"] = 1e6 * _median_time(
        lambda: st.excitation.window_gram(F, 0.0, ellipse.period, 401))
    cfg = st.engine.SimConfig(trajectory=ellipse_desc, offset=tuple(workloads.draw_offset(rng)),
                              dt=1e-3, t_end=2.0)
    log = st.engine.simulate(cfg)
    m["engine.probe_step_us"] = 1e6 * _median_time(lambda: st.engine.simulate(cfg)) / 2000
    path = workdir / "probe.csv"
    write = _median_time(lambda: log.to_csv(path))
    mb = path.stat().st_size / 1e6
    m["engine.probe_to_csv_mb_per_s"] = mb / write
    m["engine.probe_from_csv_mb_per_s"] = mb / _median_time(lambda: st.engine.SimLog.from_csv(path))
    return m


def import_metrics(workdir) -> dict:
    """Cumulative import times from ``python -X importtime`` (median of IMPORT_RUNS)."""
    seen = {key: [] for key in IMPORTS}
    for i in range(IMPORT_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import se2track.cli"],
            cwd=workdir, env=common.child_env(), capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                name = parts[2].strip()
                if name in IMPORTS.values() and name not in cumulative:
                    cumulative[name] = int(parts[1]) / 1e6
        if i:  # the first run is a warm-up
            for key, name in IMPORTS.items():
                seen[key].append(cumulative[name])
    return {key: statistics.median(v) for key, v in seen.items()}


def traced_run(st, wl, seconds, workdir, verify, tally):
    """All per-layer metrics of one workload: (metrics {name: (value, unit)}, extra lines)."""
    wl.write_files(workdir)
    plain, traced, span_passes = [], [], []
    with common.in_dir(workdir):
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            plain.append(run_pass(st, wl, workdir, verify, tally))
            tr = Tracer()
            install_spans(tr, st)
            try:
                traced.append(run_pass(st, wl, workdir, verify, tally, tr))
            finally:
                tr.unpatch()
            span_passes.append(span_metrics(tr.spans))
        counting = Tracer()
        install_spans(counting, st)
        install_counters(counting, st)
        try:
            counted = run_pass(st, wl, workdir, verify, tally, counting)
        finally:
            counting.unpatch()

    times = {}
    for m in span_passes:
        for key, value in m.items():
            times.setdefault(key, []).append(value)
    metrics = {key: (statistics.median(v), _unit(key)) for key, v in times.items()}
    logs = [workdir / name for cmd in wl.commands for name in cmd.outputs
            if name.endswith(".csv") and not name.endswith("_long.csv")]
    if logs:
        t0 = time.perf_counter()
        for path in logs:
            st.engine.SimLog.from_csv(path)
        metrics["engine.from_csv_s"] = (time.perf_counter() - t0, "s")
    metrics["trace.span_overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.counter_overhead_s"] = (counted - statistics.median(plain), "s")
    for key, value in count_metrics(counting, wl, workdir).items():
        metrics[key] = (value, _unit(key))
    for key, value in {**probe_metrics(st, wl.seed, workdir), **import_metrics(workdir)}.items():
        metrics[key] = (value, _unit(key))

    spans = tr.spans
    own = _self_times(spans)
    doc = {"workload": wl.name, "seed": wl.seed, "untraced_s": plain, "traced_s": traced,
           "counted_s": counted, "metrics": {k: v[0] for k, v in metrics.items()},
           "spans": [{**s, "self": o} for s, o in zip(spans, own)]}
    common.STATE.mkdir(parents=True, exist_ok=True)
    out = common.STATE / f"trace-{wl.name}-{wl.seed}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    extra = [f"  {len(plain)} untraced and {len(traced)} span-traced passes, 1 counted pass; "
             f"spans of the last traced pass in {out.relative_to(common.ROOT)}"]
    return dict(sorted(metrics.items())), extra


def _unit(key: str) -> str:
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_us", "us"), ("_s", "s"), ("_bytes", "bytes")):
        if key.split("@")[0].endswith(suffix):
            return unit
    return "count"
