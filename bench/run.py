"""se2track benchmark: CLI end-to-end timings, or a traced run per layer.

    python3 bench/run.py --workload sim_write --seed 1 --seconds 15 --trace 0

--trace 0 drives the CLI (``python -m se2track.cli``) as a user would:
one child process at a time, each timed from its start to its exit,
with max RSS from ``os.wait4``. Each wall time is scaled by the
calibrate.py runs around it, to take out the host's changes of speed.
The workload's command sequence repeats until its commands have taken
--seconds, and the metrics are medians.
--trace 1 runs the same sequence in-process through ``cli.main`` with
spans and counters installed from outside the package (see tracing.py).

Every command's outputs are checked (checks.py). Human-readable lines
go first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Exits 2 without a result when
the checkout holds no se2track sources.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import common
import workloads

SETUP_RUNS = 5
# Median wall time of calibrate.py on the reference host (2-core VM,
# Python 3.11.7, numpy 2.4.6). Each timed command is scaled by this over
# the calibration runs around it; see README.md.
CALIBRATION_REF_S = 0.20
CALIBRATE = "bench/calibrate.py"


def run_child(argv, workdir, env):
    """Run one child process; return (exit code, wall s, max RSS MB, stdout bytes)."""
    out_path = workdir / ".stdout"
    with open(out_path, "wb") as out, open(workdir / ".stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_bytes()


@dataclasses.dataclass
class Timed:
    """One timed CLI command and the mean wall time of the calibrations around it."""

    label: str
    subcommand: str
    wall: float
    rss_mb: float
    calibration: float = math.nan

    @property
    def scaled(self) -> float:
        """Wall time as it would read with the host at its reference speed."""
        return self.wall * CALIBRATION_REF_S / self.calibration


class Tally:
    """Commands attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


class Timer:
    """Runs CLI commands one at a time, each between two calibrate.py runs."""

    def __init__(self, workdir, env, tally: Tally):
        self.workdir, self.env, self.tally = workdir, env, tally
        self.timed, self.calibrations = [], []

    def _calibrate(self) -> None:
        code, wall, _, _ = run_child([sys.executable, str(common.ROOT / CALIBRATE), "cal.out"],
                                     self.workdir, self.env)
        self.tally.add([] if code == 0 else [f"calibrate.py: exit code {code}"])
        self.calibrations.append(wall)

    def run(self, label, args):
        """Run one command; return (Timed, exit code, stdout bytes)."""
        if not self.calibrations:
            self._calibrate()
        code, wall, rss, out = run_child(common.cli_argv(args), self.workdir, self.env)
        self._calibrate()
        t = Timed(label, args[0], wall, rss)
        self.timed.append(t)
        c = self.calibrations
        t.calibration = 0.5 * (c[-2] + c[-1])
        return t, code, out


def measure_setup(timer: Timer, version: str) -> list:
    """``se2track --version`` in fresh processes, after one untimed warm-up."""
    expect = f"se2track {version}\n".encode()
    runs = []
    for i in range(SETUP_RUNS + 1):
        t, code, out = timer.run("version", ["--version"])
        timer.tally.add([] if code == 0 and out == expect else [f"--version: exit {code}, {out!r}"])
        if i:
            runs.append(t)
    return runs


def measure_workload(wl, seconds, timer: Timer, verify) -> list:
    """Repeat the command sequence until its commands have run for `seconds`.

    Returns one list of Timed per pass. Output checks run between passes
    and are not counted against `seconds`.
    """
    wl.write_files(timer.workdir)
    passes = []
    spent = 0.0
    while spent < seconds:
        done = [(cmd, *timer.run(cmd.label, cmd.args)) for cmd in wl.commands]
        for cmd, _, code, out in done:
            timer.tally.add(verify(cmd, timer.workdir, code, out))
        passes.append([t for _, t, _, _ in done])
        spent += sum(t.wall for t in passes[-1])
    return passes


def end_to_end(wl, setup: list, passes: list, tally: Tally) -> dict:
    """Every end-to-end metric this workload yields: name -> (value, unit).

    Times are medians of scaled wall times (Timed.scaled); the unscaled
    medians are listed under raw.*.
    """
    per_label, per_sub = {}, {}
    for p in passes:
        for t in p:
            per_label.setdefault(t.label, []).append(t.scaled)
            per_sub.setdefault(t.subcommand, []).append(t.scaled)
    wall_s = sum(statistics.median(v) for v in per_label.values())
    m = {
        "setup_s": (statistics.median(t.scaled for t in setup), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (max(t.rss_mb for p in passes for t in p), "MB"),
    }
    for sub, v in per_sub.items():
        m[sub.replace("-", "_") + "_s"] = (statistics.median(v), "s")
    if wl.steps:
        m["steps_per_s"] = (wl.steps / wall_s, "1/s")
    m["op_fail_ratio"] = (tally.failed / tally.attempted, "ratio")
    m["raw.setup_s"] = (statistics.median(t.wall for t in setup), "s")
    m["raw.wall_s"] = (statistics.median(sum(t.wall for t in p) for p in passes), "s")
    m["host.calibration_s"] = (statistics.median(
        t.calibration for t in setup + [t for p in passes for t in p]), "s")
    return m


def save_samples(wl, setup: list, passes: list, timer: Timer) -> None:
    """Keep every raw time of the run in .bench_state/, in the order taken."""
    doc = {"workload": wl.name, "seed": wl.seed, "calibrations": timer.calibrations,
           "setup": [dataclasses.asdict(t) for t in setup],
           "passes": [[dataclasses.asdict(t) for t in p] for p in passes]}
    common.STATE.mkdir(parents=True, exist_ok=True)
    (common.STATE / f"samples-{wl.name}-{wl.seed}.json").write_text(json.dumps(doc) + "\n")


def load_benchmark_spec() -> dict:
    with open(common.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def report(title, metrics: dict, wanted: list, tally: Tally, extra=()) -> dict:
    """Print every metric, then return the JSON result over the wanted names."""
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:16.6g} {unit}")
    for line in extra:
        print(line)
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise KeyError(f"metrics not measured on this workload: {missing}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        program = common.import_program()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import checks

    spec = load_benchmark_spec()
    wl = workloads.build(args.workload, args.seed)
    key = f"{wl.name}/{wl.seed}/{common.source_digest()[:16]}"
    verify = checks.Verifier(checks.load_record(key))
    tally = Tally()
    workdir = common.WORK / f"{wl.name}-{wl.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            import tracing

            metrics, extra = tracing.traced_run(program, wl, args.seconds, workdir,
                                                verify, tally)
            wanted = [m["name"] for m in spec["per_layer"]]
            title = f"{wl.name} seed {wl.seed}: traced run"
        else:
            timer = Timer(workdir, common.child_env(), tally)
            setup = measure_setup(timer, program.__version__)
            passes = measure_workload(wl, args.seconds, timer, verify)
            metrics, extra = end_to_end(wl, setup, passes, tally), ()
            save_samples(wl, setup, passes, timer)
            wanted = [m["name"] for m in spec["end_to_end"]]
            title = (f"{wl.name} seed {wl.seed}: {len(passes)} passes of "
                     f"{len(wl.commands)} commands, setup median of {len(setup)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tally.failed == 0 and verify.record is None:
        checks.save_record(key, verify.seen)
    result = report(title, metrics, wanted, tally, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
