"""Check that the CLI's outputs did not move against a base commit.

    python tools/same_outputs.py BASE

BASE is any git revision of this repository (HEAD, a branch, a hash).
The script extracts BASE with ``git archive`` into a temporary
directory and runs one fixed corpus of CLI invocations on two trees:
BASE and the working tree the script lives in, uncommitted changes
included. For each invocation it compares the exit code, stdout, stderr
and every file written, and a directory or a FIFO only by its name and
kind. A JSON file is compared as its document with every
``wall_clock_s`` and ``timings`` key removed, and by whether it is
written in the CLI's JSON format; everything else byte for byte.
Tracebacks are compared with each tree's path replaced by ``<tree>``.

Beside the corpus, each tree runs its own ``tests/test_acceptance.py``
under pytest, and the ``criterion …`` lines that its summary prints
are compared, one per criterion; a failing criterion's FAIL line is
compared like the rest. These runs take the tool from about 17 s to
about 34 s (2 CPUs, Python 3.11).

It prints one line per invocation that differs, naming what differs
(for a JSON document, the key paths that differ, such as
``lin.json (report.pe_epsilon)``), below it one line per differing
number of a JSON document, such as
``lin.json report.r_squared: 0.9536797082417197 -> 0.9536797082417195``;
then one line per criterion whose line differs, below it the line of
BASE (``-``) and of the working tree (``+``); then ``TRACEBACK name#k``
for each invocation of the working tree whose stderr holds a Python
traceback; and a summary line, which ends ``; N print a traceback``.
A traceback printed by both trees never differs, so it is counted on
its own. The tool exits 1 if anything differs or any invocation prints
a traceback, 0 otherwise. It needs git and a second tree, so it is not
part of the test suite.

Each tree runs in one process that imports the package once and forks
a child per invocation, which calls ``main``; the two trees run side by
side. The entry group (``ENTRY``) is the exception: each of its nine
invocations is a fresh ``python -m se2track.cli`` process, which goes
through ``cli.run`` and its own exit, with Python's default buffering.
It adds about 4.5 s to each tree's run (2 CPUs, Python 3.11).
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

ELLIPSE = ["--a", "3", "--b", "5", "--h", str(2.0 * math.pi / 5.0)]
REFERENCES = {
    "centred": ELLIPSE,
    "offcentre": ELLIPSE + ["--origin", "3,3"],
    "line": ["--traj", "line", "--speed", "1.3", "--heading", "0.7", "--origin", "0.5,0.2"],
}
QUICK = ["--dt", "0.01", "--t-end", "10"]
LINE_RISES = ["--traj", "line", "--offset", "0.5,0.5,0.3", "--speed", "1.5"]
COMPARE = {
    "trajectory": {"family": "ellipse", "a": 3.0, "b": 5.0, "h": 1.2566, "origin": [0.0, 0.0]},
    "controllers": ["spatial", {"name": "kanayama", "gains": [2, 8, 4]}, "feedforward"],
    "offset": [3.0, -2.0, 1.5708], "dt": 0.01, "t_end": 20.0, "threshold": 0.01,
}
CIRCLE = {"family": "ellipse", "a": 1.0, "b": 1.0, "h": 1.0}
# config file entries that make a directory, or a FIFO, under their name instead of a file
DIRECTORY = None
FIFO = object()
# a line whose p_d passes float range near t = 18 s, in the fourth block of 512 steps of 0.01 s,
# after each basin sample on it diverged at step 1
OVERFLOWS_LATE = ["--traj", "line", "--speed", "1e307", "--dt", "0.01", "--t-end", "20"]
# at the dt that the trace bound names for this reference, sample 2's L still rises in one step,
# at step 15; on two CPUs sample 2 runs in the second range, in the forked worker
RISES_AT_FITTING_DT = ["--origin", "50,0", "--samples", "4", "--dt", "0.0009903"]
# the entry group: each runs as a fresh process through cli.run, the installed script's entry,
# which the rest of the corpus, calling main in a forked child, never reaches; the one- and
# two-CPU cases patch the CPU count first, so that a sweep runs its samples in one process or
# two, and the CSV writer forks a worker for two of its three blocks
MODULE = ["-m", "se2track.cli"]
ONE_CPU, TWO_CPUS = (["-c", f"import os; os.sched_getaffinity = lambda pid: {cpus}; "
                            "from se2track import cli; cli.run()"] for cpus in ("{0}", "{0, 1}"))
ENTRY = {
    "entry-version": [*MODULE, "--version"],
    "entry-usage-error": [*MODULE, "--bogus"],
    "entry-pe-check": [*MODULE, "pe-check", "--out", "pe.json"],
    "entry-simulate-diverges": [*MODULE, "simulate", "--dt", "100", "--t-end", "10000",
                                "--out", "x.csv"],
    "entry-simulate-two-cpus": [*TWO_CPUS, "simulate", "--dt", "0.01", "--t-end", "10.24",
                                "--out", "run.csv"],
    "entry-basin-overflows-late-one-cpu": [*ONE_CPU, "basin", *OVERFLOWS_LATE, "--samples", "2"],
    "entry-basin-overflows-late-two-cpus": [*TWO_CPUS, "basin", *OVERFLOWS_LATE, "--samples", "2"],
    "entry-basin-rises-one-cpu": [*ONE_CPU, "basin", *RISES_AT_FITTING_DT, "--t-end", "1"],
    "entry-basin-rises-two-cpus": [*TWO_CPUS, "basin", *RISES_AT_FITTING_DT, "--t-end", "1"],
}


def _corpus() -> list:
    """(name, config files, invocations) of every case; a case's invocations share a directory."""
    cases = []
    for ref, flags in REFERENCES.items():
        for controller, offset in (("spatial", "1,-0.5,3.0"), ("kanayama", "1,-0.5,-3.0"),
                                   ("feedforward", "0.4,0.3,2.5")):
            run = ["simulate", *flags, "--controller", controller, "--offset", offset, *QUICK]
            cases.append((f"simulate-{controller}-{ref}", {}, [
                run + ["--out", "run.csv"],
                ["simulate", "--config", "run.manifest.json", "--out", "again.csv"],
            ]))
    cases += [
        ("simulate-readme", {}, [["simulate", *ELLIPSE, "--controller", "spatial",
                                  "--offset", "3,-2,1.5708", "--dt", "0.001", "--t-end", "40",
                                  "--out", "run.csv"]]),
        ("simulate-seeded", {}, [["simulate", "--seed", "7", *QUICK, "--out", "run.csv"]]),
    ]
    # around the CSV writer's split: logs of one block of 512 rows and of two and three blocks
    cases += [(f"simulate-{steps}-steps", {}, [["simulate", "--dt", "0.01", "--t-end", t_end,
                                                "--out", "run.csv"]])
              for steps, t_end in ((511, "5.11"), (512, "5.12"), (513, "5.13"), (1025, "10.25"))]
    cases += [
        ("compare", {"compare.json": COMPARE}, [["compare", "--config", "compare.json",
                                                 "--out", "cmp"]]),
        # a long table of 7 blocks, which the writer splits 3 | 4
        ("compare-one-controller", {"compare.json": {"trajectory": CIRCLE,
                                                     "controllers": ["kanayama"],
                                                     "dt": 0.01, "t_end": 10.0}},
         [["compare", "--config", "compare.json", "--out", "cmp"]]),
        # constant columns, and zeros in the speeds
        ("simulate-stationary-line", {}, [["simulate", "--traj", "line", "--speed", "0",
                                           "--heading", "3.0", "--offset", "0.5,-0.5,1",
                                           *QUICK, "--out", "run.csv"]]),
        ("basin-seeded", {}, [
            ["basin", *ELLIPSE, "--samples", "4", "--seed", "3", *QUICK, "--out", "b.json"],
            ["basin", "--config", "b.json", "--samples", "4", "--out", "again.json"],
        ]),
        ("basin-unseeded", {}, [["basin", *REFERENCES["line"], "--controller", "kanayama",
                                 "--samples", "3", *QUICK, "--out", "b.json"]]),
        ("basin-defaults", {}, [["basin", "--samples", "2", "--threshold", "1e-3",
                                 "--out", "b.json"]]),
        ("basin-0-samples", {}, [["basin", "--samples", "0", "--out", "b.json"]]),
        ("basin-1-sample", {}, [["basin", "--samples", "1", "--seed", "9", *QUICK]]),
        ("pe-check-ellipse", {}, [["pe-check", *ELLIPSE, "--out", "pe.json"]]),
        ("pe-check-offcentre", {}, [["pe-check", *REFERENCES["offcentre"], "--windows", "8"]]),
        ("pe-check-stationary", {}, [["pe-check", "--traj", "line", "--speed", "0",
                                      "--out", "pe.json"]]),
        ("lin-check-ellipse", {}, [["lin-check", *ELLIPSE, "--t-end", "5", "--out", "lin.json"]]),
        ("lin-check-stationary", {}, [["lin-check", "--traj", "line", "--speed", "0",
                                       "--t-end", "5", "--dt", "0.002"]]),
        # the LTV flow's bits where the benchmark runs it: the default 25 s at dt = 1e-3 on an
        # ellipse as its certify workload draws them, and an off-centre one at a coarser step
        ("lin-check-benchmark-ellipse", {}, [["lin-check", "--a", "3.4829", "--b", "4.8473",
                                              "--h", "1.2328", "--origin", "0.4166,-1.9426",
                                              "--out", "lin.json"]]),
        ("lin-check-offcentre-coarse", {}, [["lin-check", *REFERENCES["offcentre"], "--dt",
                                             "0.0025", "--out", "lin.json"]]),
        # a reference at rest on the origin, whose actuation Gram holds -0.0 entries; and a
        # horizon of one full block of 512 steps and a block of one step
        ("lin-check-origin-at-rest", {}, [["lin-check", "--traj", "line", "--speed", "0",
                                           "--origin", "0,0", "--out", "lin.json"]]),
        ("lin-check-513-steps", {}, [["lin-check", "--t-end", "0.513", "--out", "lin.json"]]),
        # the last horizon below the default ellipse's first window that repeats sample times
        ("pe-check-far-horizon", {}, [["pe-check", "--horizon", "1e13", "--out", "pe.json"]]),
    ]
    # exit 1: a run that failed
    cases += [
        ("simulate-lyapunov-rises", {}, [["simulate", "--origin", "50,0", "--offset", "1,1,0.5",
                                          "--dt", "1e-3", "--t-end", "5", "--out", "x.csv"]]),
        # a line's |p_d| grows until dt = 1e-3 is too large a step; the message names a dt that
        # fits, and the rerun at it writes the whole log
        ("simulate-line-lyapunov-rises", {}, [
            ["simulate", *LINE_RISES, "--out", "x.csv"],
            ["simulate", *LINE_RISES, "--dt", "0.0007729", "--out", "run.csv"],
        ]),
        # the trace admits dt = 0.3 on this thin ellipse, and L rises all the same
        ("simulate-lyapunov-rises-within-trace", {}, [
            ["simulate", "--a", "2.416", "--b", "0.5", "--h", "-2", "--offset", "0.5,0.5,0.3",
             "--dt", "0.3", "--t-end", "10", "--out", "x.csv"]]),
        ("simulate-diverges", {}, [["simulate", "--offset", "3,-2,1.5", "--dt", "100",
                                    "--t-end", "10000", "--out", "x.csv"]]),
        ("compare-lyapunov-rises", {"c.json": {**COMPARE, "trajectory": {
            **COMPARE["trajectory"], "origin": [50.0, 0.0]}, "controllers": ["spatial"],
            "offset": [1.0, 1.0, 0.5], "dt": 1e-3, "t_end": 5.0}},
         [["compare", "--config", "c.json", "--out", "cmp"]]),
        ("basin-lyapunov-rises", {}, [["basin", "--origin", "50,0", "--samples", "2", "--seed",
                                       "1", "--t-end", "5", "--out", "b.json"]]),
        # L rises mid-run in each of these 40 draws and falls again; basin refuses the sweep at
        # sample 0, by the rule by which simulate refuses that draw
        ("basin-lyapunov-rises-mid-run", {}, [["basin", "--a", "2.416", "--b", "0.5", "--h", "-2",
                                               "--dt", "0.05", "--t-end", "20",
                                               "--samples", "40"]]),
        ("basin-lyapunov-rises-at-fitting-dt", {}, [["basin", *RISES_AT_FITTING_DT,
                                                     "--t-end", "20"]]),
        ("basin-diverges", {}, [["basin", "--dt", "100", "--t-end", "10000", "--samples", "2",
                                 "--out", "b.json"]]),
        ("pe-check-not-finite", {}, [["pe-check", "--a", "1e200", "--b", "1", "--h", "1",
                                      "--out", "pe.json"]]),
        ("lin-check-diverges", {}, [["lin-check", "--origin", "1000,0", "--t-end", "1",
                                     "--out", "lin.json"]]),
        ("lin-check-step-too-large", {}, [["lin-check", "--origin", "50,0", "--t-end", "1",
                                           "--out", "lin.json"]]),
        ("simulate-lyapunov-rises-to-inf", {}, [["simulate", "--traj", "line", "--speed",
                                                 "1.1394893775162892e+228", "--t-end", "0.05",
                                                 "--out", "x.csv"]]),
        ("lin-check-overflowing-gram", {}, [["lin-check", "--h", "1e-150", "--b", "1e80",
                                             "--t-end", "0.01", "--out", "lin.json"]]),
        ("pe-check-overflowing-line", {}, [["pe-check", "--traj", "line", "--speed", "1e200",
                                            "--out", "pe.json"]]),
        ("lin-check-period-overflows", {}, [["lin-check", "--h", "1e-308", "--t-end", "0.01",
                                             "--out", "lin.json"]]),
        ("pe-check-3-points", {}, [["pe-check", "--points", "3", "--out", "pe.json"]]),
        # a Gram with an infinite entry off its diagonal, on which eigvalsh does not converge
        ("pe-check-overflowing-gram", {}, [["pe-check", "--traj", "line", "--speed", "1e306",
                                            "--out", "pe.json"]]),
        # the step bound is first passed in block 10 of 20 and peaks at the horizon's end;
        # where the trace overflows, no dt fits
        ("lin-check-line-step-too-large", {}, [["lin-check", "--traj", "line", "--speed", "10",
                                                "--t-end", "10", "--out", "lin.json"]]),
        ("lin-check-line-no-dt-fits", {}, [["lin-check", "--traj", "line", "--speed", "1e306",
                                            "--t-end", "100", "--out", "lin.json"]]),
        # |p_d|^2 overflows from t = 13.4 s on, where trace(A_z) is NaN, past every limit as inf is
        ("lin-check-line-overflows-mid-horizon", {}, [["lin-check", "--traj", "line", "--speed",
                                                       "1e153", "--t-end", "20"]]),
        # 62 of the 64 window Grams overflow
        ("pe-check-partly-overflowing-line", {}, [["pe-check", "--traj", "line", "--speed",
                                                   "1e153", "--out", "pe.json"]]),
        # L overflows to inf on a finite reference: a report that JSON cannot hold
        ("basin-report-not-finite", {}, [["basin", "--controller", "feedforward", "--traj",
                                          "line", "--speed", "1e170", "--samples", "2",
                                          "--t-end", "20", "--dt", "0.01", "--out", "b.json"]]),
        # L overflows to inf from t = 0.32 on: a log that floats cannot hold
        ("simulate-log-not-finite", {}, [["simulate", "--controller", "feedforward", "--traj",
                                          "line", "--speed", "1e170", "--t-end", "2", "--dt",
                                          "0.01", "--out", "s.csv"]]),
        ("compare-report-not-finite", {"c.json": {
            "trajectory": {"family": "line", "speed": 1e170, "heading": 0.0, "start": [0, 0]},
            "controllers": ["feedforward"], "offset": [1, 1, 1], "dt": 0.01, "t_end": 2}},
         [["compare", "--config", "c.json", "--out", "cmp"]]),
        # L(0) = (2e154)^2 / 2 overflows on a finite reference, in a run that no check of a
        # rise of L covers
        ("compare-log-not-finite", {"c.json": {
            "trajectory": {"family": "ellipse", "a": 1e154, "b": 1e154, "h": 1e-10,
                           "origin": [0, 0]},
            "controllers": ["kanayama"], "offset": [0, 2e154, 0], "dt": 0.01, "t_end": 5}},
         [["compare", "--config", "c.json", "--out", "cmp"]]),
    ]
    # exit 2: a usage or configuration error
    usage = [
        ("simulate-3-gains", ["simulate", "--gains", "1,2,3", *QUICK, "--out", "x.csv"]),
        ("simulate-inf-t-end", ["simulate", "--t-end", "inf", "--out", "x.csv"]),
        ("simulate-nan-a", ["simulate", "--a", "nan", *QUICK, "--out", "x.csv"]),
        ("simulate-bad-controller", ["simulate", "--controller", "pid", "--out", "x.csv"]),
        ("simulate-step-limit", ["simulate", "--dt", "1e-9", "--t-end", "100", "--out", "x.csv"]),
        ("simulate-missing-config", ["simulate", "--config", "none.json", "--out", "x.csv"]),
        ("simulate-negative-seed", ["simulate", "--seed", "-5", *QUICK, "--out", "x.csv"]),
        ("basin-3-gains", ["basin", "--gains", "1,2,3", "--samples", "1"]),
        ("basin-negative-samples", ["basin", "--samples", "-3", "--out", "b.json"]),
        ("basin-nan-threshold", ["basin", "--threshold", "nan", "--samples", "0"]),
        ("basin-step-limit", ["basin", "--dt", "1e-9", "--t-end", "100", "--samples", "1"]),
        ("lin-check-dt-0", ["lin-check", "--dt", "0"]),
        ("lin-check-t-end-0", ["lin-check", "--t-end", "0"]),
        ("lin-check-one-step", ["lin-check", "--t-end", "0.0004"]),
        ("lin-check-step-limit", ["lin-check", "--dt", "1e-9", "--t-end", "100"]),
        ("pe-check-inf-window", ["pe-check", "--window", "inf"]),
        ("pe-check-nan-horizon", ["pe-check", "--horizon", "nan"]),
        ("pe-check-even-points", ["pe-check", "--points", "4"]),
        # a window whose sample times repeat
        ("pe-check-horizon-too-far", ["pe-check", "--horizon", "1e17", "--out", "pe.json"]),
        # a reference whose values floats cannot hold
        ("lin-check-underflowing-ellipse", ["lin-check", "--a", "1e-300", "--b", "1e-300",
                                            "--t-end", "0.01"]),
        # past the step limit, which the trace passes first
        ("lin-check-overflowing-line", ["lin-check", "--traj", "line", "--speed", "1e306",
                                        "--t-end", "200", "--out", "lin.json"]),
        ("simulate-underflowing-ellipse", ["simulate", "--a", "1e-170", "--b", "1e-170",
                                           "--t-end", "0.01", "--out", "x.csv"]),
        ("simulate-overflowing-ellipse", ["simulate", "--a", "1e300", "--t-end", "0.01",
                                          "--out", "x.csv"]),
        ("pe-check-overflowing-ellipse", ["pe-check", "--a", "1e160", "--b", "1e160",
                                          "--out", "pe.json"]),
        ("pe-check-overflowing-a", ["pe-check", "--a", "1e300", "--out", "pe.json"]),
        # a Simpson step whose square floats cannot hold
        ("pe-check-slow-ellipse", ["pe-check", "--h", "1e-300", "--out", "pe.json"]),
        ("pe-check-fast-ellipse", ["pe-check", "--h", "1e300", "--out", "pe.json"]),
        ("pe-check-long-window", ["pe-check", "--window", "1e300", "--out", "pe.json"]),
        ("pe-check-short-window", ["pe-check", "--window", "1e-300", "--out", "pe.json"]),
        ("lin-check-slow-ellipse", ["lin-check", "--h", "1e-300", "--t-end", "1",
                                    "--out", "lin.json"]),
        # finite where each of the 64 windows starts, up to t = 20 s, and not at the scan's end
        ("pe-check-line-finite-only-at-window-starts", ["pe-check", "--traj", "line", "--speed",
                                                        "8e306", "--out", "pe.json"]),
        # not finite from the fourth block on, which a sweep of no sample still walks
        ("basin-0-samples-overflows-late", ["basin", *OVERFLOWS_LATE, "--samples", "0"]),
    ]
    cases += [(name, {}, [argv]) for name, argv in usage]
    configs = {
        "config-array": ("simulate", [1, 2]),
        "config-no-axes": ("simulate", {"trajectory": {"family": "ellipse"}}),
        "config-scalar-start": ("simulate", {"trajectory": {"family": "line", "speed": 1.0,
                                                            "start": 5}}),
        "config-line-without-speed": ("simulate", {"trajectory": {"family": "line"}}),
        "config-bool-offset": ("simulate", {"trajectory": CIRCLE, "offset": [True, 0, 0]}),
        "config-int-past-float-range": ("simulate", {"trajectory": CIRCLE,
                                                     "offset": [10**400, 0, 0]}),
        "config-unknown-keys": ("simulate", {"trajectory": CIRCLE, "tend": 5,
                                             "controler": "kanayama"}),
        "config-unknown-trajectory-key": ("simulate", {"trajectory": {**CIRCLE,
                                                                      "orgin": [5, 5]}}),
        "config-scalar-offset": ("simulate", {"trajectory": CIRCLE, "offset": 5}),
        "config-scalar-gains": ("simulate", {"trajectory": CIRCLE, "gains": 5}),
        "compare-scalar-offset": ("compare", {"trajectory": CIRCLE, "controllers": ["spatial"],
                                              "offset": 5}),
        "compare-scalar-gains": ("compare", {"trajectory": CIRCLE, "controllers": [
            {"name": "kanayama", "gains": 5}]}),
        "compare-zero-gains": ("compare", {"trajectory": CIRCLE, "controllers": [
            {"name": "kanayama", "gains": 0}]}),
        "compare-false-gains": ("compare", {"trajectory": CIRCLE, "controllers": [
            {"name": "kanayama", "gains": False}]}),
        "compare-number-entry": ("compare", {"trajectory": CIRCLE, "controllers": [5]}),
        "compare-null-threshold": ("compare", {"trajectory": CIRCLE, "controllers": ["spatial"],
                                               "threshold": None}),
        "compare-negative-threshold": ("compare", {"trajectory": CIRCLE,
                                                   "controllers": ["spatial"], "threshold": -1}),
        "compare-unknown-keys": ("compare", {"trajectory": CIRCLE, "controllers": ["spatial"],
                                             "t-end": 5, "treshold": 0.1}),
    }
    for seed, label in (("x", "text"), (1.5, "fraction"), (True, "bool"), ([1], "list"),
                        (-1, "negative")):
        configs[f"basin-seed-{label}"] = ("basin", {"trajectory": CIRCLE, "seed": seed})
    run = {"simulate": [*QUICK, "--out", "x.csv"], "compare": [],
           "basin": [*QUICK, "--samples", "2"]}
    for name, (command, doc) in configs.items():
        cases.append((name, {"c.json": doc}, [[command, "--config", "c.json", *run[command]]]))
    # exit 2: an output path in no directory, one that is a directory, or a FIFO
    for command, argv in (("simulate", [*QUICK, "--out"]), ("pe-check", ["--out"]),
                          ("lin-check", ["--t-end", "5", "--out"]),
                          ("basin", [*QUICK, "--samples", "2", "--out"])):
        cases += [(f"{command}-out-missing-directory", {}, [[command, *argv, "missing/out"]]),
                  (f"{command}-out-directory", {"d": DIRECTORY}, [[command, *argv, "d"]]),
                  (f"{command}-out-fifo", {"f": FIFO}, [[command, *argv, "f"]]),
                  (f"{command}-out-empty", {}, [[command, *argv, ""]])]
    cases += [
        ("compare-out-missing-directory", {"compare.json": COMPARE},
         [["compare", "--config", "compare.json", "--out", "missing/cmp"]]),
        ("compare-out-directory", {"compare.json": COMPARE, "cmp_summary.json": DIRECTORY},
         [["compare", "--config", "compare.json", "--out", "cmp"]]),
        ("compare-out-fifo", {"compare.json": COMPARE, "cmp_summary.json": FIFO},
         [["compare", "--config", "compare.json", "--out", "cmp"]]),
        ("compare-out-empty", {"compare.json": COMPARE},
         [["compare", "--config", "compare.json", "--out", ""]]),
        ("compare-out-stem-directory", {"compare.json": COMPARE, "d": DIRECTORY},
         [["compare", "--config", "compare.json", "--out", "d/"]]),
    ]
    # a number given as text, in a file run without the --dt flag that would override it
    cases.append(("config-text-dt", {"c.json": {"trajectory": CIRCLE, "dt": "0.01", "t_end": 10.0}},
                  [["simulate", "--config", "c.json", "--out", "x.csv"]]))
    # basin's own dt and t_end where its config file sets neither
    cases.append(("basin-config-defaults", {"c.json": {"trajectory": CIRCLE}},
                  [["basin", "--config", "c.json", "--samples", "2", "--out", "b.json"]]))
    # exit 2: a count too large to allocate; numpy could not allocate either pe-check count,
    # and the NaN threshold stops a sweep that lacks the sample limit before its draws
    cases += [
        ("pe-check-windows-limit", {}, [["pe-check", "--windows", str(10**12)]]),
        ("pe-check-points-limit", {}, [["pe-check", "--points", str(10**12 + 1)]]),
        ("basin-samples-limit", {}, [["basin", "--samples", str(10**12), "--threshold", "nan"]]),
    ]
    cases += [(name, {}, [argv]) for name, argv in ENTRY.items()]
    return cases


def _run_corpus(work: Path) -> None:
    """Run every invocation of the corpus under work: each in a forked child of this process,
    or, in the entry group, as a python process of its own."""
    from se2track.cli import main

    for name, files, invocations in _corpus():
        case = work / name
        case.mkdir(parents=True)
        for fname, doc in files.items():
            if doc is DIRECTORY:
                (case / fname).mkdir()
            elif doc is FIFO:
                os.mkfifo(case / fname)
            else:
                (case / fname).write_text(json.dumps(doc))
        if name in ENTRY:
            # Python's default buffering, so that run's flush is what writes stdout and stderr
            env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
            with open(work / f"{name}.0.out", "wb") as out, \
                    open(work / f"{name}.0.err", "wb") as err:
                entry = subprocess.run([sys.executable, *ENTRY[name]], stdout=out, stderr=err,
                                       cwd=case, env=env)
            (work / f"{name}.0.code").write_text(str(entry.returncode))
            continue
        for k, argv in enumerate(invocations):
            sys.stdout.flush()
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                os.chdir(case)
                for fd, suffix in ((1, "out"), (2, "err")):
                    os.dup2(os.open(work / f"{name}.{k}.{suffix}",
                                    os.O_WRONLY | os.O_CREAT | os.O_TRUNC), fd)
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except BaseException:
                    traceback.print_exc()
                    code = 1
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
            _, status = os.waitpid(pid, 0)
            (work / f"{name}.{k}.code").write_text(str(os.waitstatus_to_exitcode(status)))


def _drop_timings(doc):
    if isinstance(doc, dict):
        return {k: _drop_timings(v) for k, v in doc.items() if k not in ("wall_clock_s", "timings")}
    if isinstance(doc, list):
        return [_drop_timings(v) for v in doc]
    return doc


def _comparable(path: Path, trees):
    """What of one output must not move: a JSON document without timings, or the bytes."""
    data = path.read_bytes()
    for tree in trees:
        data = data.replace(os.fsencode(tree), b"<tree>")
    if path.suffix == ".json":
        try:
            doc = json.loads(data)
        except ValueError:
            return data
        written = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        return written.encode() == data, _drop_timings(doc)
    return data


def _outputs(work: Path, trees, name: str, k: int, last: bool) -> dict:
    """Exit code, stdout and stderr of invocation k; the last one of its case also has the files."""
    out = {what: _comparable(work / f"{name}.{k}.{what}", trees) for what in ("code", "out", "err")}
    for path in sorted((work / name).iterdir()) if last else ():
        out[path.name] = ("directory" if path.is_dir() else "fifo" if path.is_fifo()
                          else _comparable(path, trees))
    return out


def _differing_leaves(base, head, path: str = "") -> list:
    """(path, base value, head value) at each path, such as report.pe_epsilon or failures[0],
    at which two JSON documents differ.

    A key on one side only reads as ... on the other, which no JSON value equals.
    """
    if isinstance(base, dict) and isinstance(head, dict):
        return [p for key in sorted(base.keys() | head.keys())
                for p in _differing_leaves(base.get(key, ...), head.get(key, ...),
                                           f"{path}.{key}" if path else key)]
    if isinstance(base, list) and isinstance(head, list) and len(base) == len(head):
        return [p for k, (b, h) in enumerate(zip(base, head))
                for p in _differing_leaves(b, h, f"{path}[{k}]")]
    return [] if base == head else [(path or "the document", base, head)]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _differences(base: dict, head: dict) -> tuple:
    """What differs between two invocations' outputs, and each number that differs.

    A JSON file names its differing key paths, and each of them whose
    value is a number on both sides gives a line "file path: base -> head".
    """
    names = {"code": "exit code", "out": "stdout", "err": "stderr"}
    diffs, numbers = [], []
    for key in sorted(base.keys() | head.keys()):
        b, h = base.get(key), head.get(key)
        if b == h:
            continue
        what = names.get(key, key)
        if isinstance(b, tuple) and isinstance(h, tuple):
            # JSON files: (written in the CLI's format, document without timings)
            leaves = _differing_leaves(b[1], h[1])
            paths = (["its format"] if b[0] != h[0] else []) + [path for path, _, _ in leaves]
            numbers += [f"{key} {path}: {x!r} -> {y!r}" for path, x, y in leaves
                        if _is_number(x) and _is_number(y)]
            what = f"{what} ({', '.join(paths)})" if paths else what
        diffs.append(what)
    return diffs, numbers


def _criteria(output: bytes) -> dict:
    """{tag: line} of each ``criterion …`` line in an acceptance run's output, in order.

    A failing test's captured output repeats its line, which the tag collapses.
    """
    return {line.split(":", 1)[0].split()[1]: line
            for line in output.decode(errors="replace").splitlines()
            if line.startswith("criterion ")}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--run":
        _run_corpus(Path(argv[1]))
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python tools/same_outputs.py BASE", file=sys.stderr)
        return 2
    base_rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", base_rev],
                                 capture_output=True)
        if archive.returncode != 0:
            print(f"error: git archive {base_rev}: {archive.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(tmp / "base", **safe)
        trees = {"base": tmp / "base", "head": REPO}
        runs, acceptance = {}, {}
        for side, tree in trees.items():
            env = {**os.environ, "PYTHONPATH": str(tree / "src")}
            runs[side] = subprocess.Popen([sys.executable, __file__, "--run", str(tmp / side)],
                                          env=env, cwd=tmp)
            with open(tmp / f"{side}.acceptance", "wb") as out:
                acceptance[side] = subprocess.Popen(
                    [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "tests/test_acceptance.py"], env=env, cwd=tree, stdout=out,
                    stderr=subprocess.STDOUT)
        # all four end before any is judged, so that none outlives the temporary directory
        for run in (*runs.values(), *acceptance.values()):
            run.wait()
        for side, run in runs.items():
            if run.returncode != 0:
                print(f"error: the {side} corpus run exited {run.returncode}", file=sys.stderr)
                return 2
        criteria = {}
        for side, run in acceptance.items():
            # pytest exits 1 when a test fails, which the FAIL line shows; anything else is an error
            if run.returncode not in (0, 1):
                print(f"error: the {side} acceptance run exited {run.returncode}", file=sys.stderr)
                return 2
            criteria[side] = _criteria((tmp / f"{side}.acceptance").read_bytes())
        count = 0
        differing = 0
        tracebacks = []
        for name, _, invocations in _corpus():
            for k in range(len(invocations)):
                count += 1
                last = k == len(invocations) - 1
                diff, numbers = _differences(*(_outputs(tmp / side, trees.values(), name, k,
                                                        last) for side in trees))
                if diff:
                    differing += 1
                    print(f"DIFF {name}#{k}: {', '.join(diff)}")
                    for line in numbers:
                        print(f"  {line}")
                if b"Traceback (most recent call last)" in (tmp / "head" /
                                                            f"{name}.{k}.err").read_bytes():
                    tracebacks.append(f"{name}#{k}")
        tags = {**criteria["base"], **criteria["head"]}
        moved = [tag for tag in tags if criteria["base"].get(tag) != criteria["head"].get(tag)]
        for tag in moved:
            print(f"DIFF criterion {tag}: its line")
            for sign, side in (("-", "base"), ("+", "head")):
                print(f"  {sign} {criteria[side].get(tag, '(no line)')}")
        for invocation in tracebacks:
            print(f"TRACEBACK {invocation}")
    print(f"{differing} of {count} invocations differ, and {len(moved)} of {len(tags)} criteria, "
          f"between {base_rev} and the working tree; {len(tracebacks)} print a traceback")
    return 1 if differing or moved or tracebacks else 0


if __name__ == "__main__":
    sys.exit(main())
