"""Output checks for every command of a workload.

``check(cmd, workdir)`` returns a list of problems; an empty list means
the command's outputs are correct. A command with any problem counts as
a failed operation. Import this module only after
``common.import_program()``, because it reads the program's own CSV
format from ``se2track.engine``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from se2track.engine import COL, CSV_COLUMNS, SimLog

from common import STATE

# Largest per-step increase of L allowed on spatial runs; the same
# tolerance the acceptance test of Lyapunov descent uses.
LYAP_STEP_TOL = 1e-8
LYAP_FORMULA_TOL = 1e-12
PE_EPS = 1e-9             # the CLI's pe-check verdict threshold
LONG_HEADER = b"controller,run,t,variable,value\n"
LONG_SERIES = 7           # px, py, pxd, pyd, position_error, heading_error, lyapunov

PE_CERTIFIED = "PE certified on scanned horizon"
PE_NOT = "not PE on scanned horizon"
LIN_PE = "PE: linearization decays exponentially"
LIN_NOT = "not PE: no exponential certificate"


def _load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def sim_csv(path: Path, steps: int, spatial: bool, scratch: Path, finals=None) -> list:
    """Header, row count, byte-exact round trip, L formula, and L descent.

    Appends the run's final L to finals when a list is given.
    """
    raw = path.read_bytes()
    if not raw.startswith((",".join(CSV_COLUMNS) + "\n").encode()):
        return [f"{path.name}: header differs from CSV_COLUMNS"]
    log = SimLog.from_csv(path)
    problems = []
    if len(log) != steps + 1:
        problems.append(f"{path.name}: {len(log)} rows, expected {steps + 1}")
    log.to_csv(scratch)
    if scratch.read_bytes() != raw:
        problems.append(f"{path.name}: from_csv/to_csv does not reproduce the file")
    d = log.data
    L = d[:, COL["lyap"]]
    if finals is not None:
        finals.append(float(L[-1]))
    expect = 2.0 * (1.0 - np.cos(d[:, COL["eR_theta"]])) \
        + 0.5 * (d[:, COL["eR_px"]] ** 2 + d[:, COL["eR_py"]] ** 2)
    err = float(np.max(np.abs(L - expect)))
    if not err <= LYAP_FORMULA_TOL * max(1.0, float(np.max(np.abs(L)))):
        problems.append(f"{path.name}: lyap differs from 2(1-cos eR_theta)+|eR_p|^2/2 by {err:.3e}")
    if spatial and len(L) > 1:
        rise = float(np.max(np.diff(L)))
        if not rise <= LYAP_STEP_TOL:
            problems.append(f"{path.name}: L rose by {rise:.3e} in one step (> {LYAP_STEP_TOL:g})")
    return problems


def manifest(path: Path, config: dict, rows: int) -> list:
    doc = _load_json(path)
    problems = []
    if doc.get("command") != "simulate" or doc.get("rows") != rows:
        problems.append(f"{path.name}: command/rows are {doc.get('command')}/{doc.get('rows')}")
    if doc.get("config") != config:
        problems.append(f"{path.name}: config {doc.get('config')} != requested {config}")
    return problems


def _simulate(cmd, wd: Path) -> list:
    e = cmd.expect
    return sim_csv(wd / cmd.outputs[0], e["steps"], e["spatial"], wd / "check.csv") \
        + manifest(wd / cmd.outputs[1], e["config"], e["steps"] + 1)


def _replay(cmd, wd: Path) -> list:
    problems = []
    if (wd / cmd.outputs[0]).read_bytes() != (wd / cmd.expect["source"]).read_bytes():
        problems.append(f"{cmd.outputs[0]}: replay differs from {cmd.expect['source']}")
    config = cmd.expect["config"]
    rows = int(round(config["t_end"] / config["dt"])) + 1
    return problems + manifest(wd / cmd.outputs[1], config, rows)


def _compare(cmd, wd: Path) -> list:
    e = cmd.expect
    steps, ctrls = e["steps"], e["controllers"]
    problems = []
    finals = []
    for ctrl, name in zip(ctrls, e["runs"]):
        problems += sim_csv(wd / name, steps, ctrl == "spatial", wd / "check.csv", finals)
    long = (wd / "cmp_long.csv").read_bytes()
    lines = long.count(b"\n")
    expect_lines = 1 + len(ctrls) * LONG_SERIES * (steps + 1)
    if not long.startswith(LONG_HEADER) or lines != expect_lines or not long.endswith(b"\n"):
        problems.append(f"cmp_long.csv: {lines} lines, expected {expect_lines} "
                        f"with header {LONG_HEADER!r}")
    summary = _load_json(wd / "cmp_summary.json")
    rows = summary.get("rows", [])
    if [r.get("controller") for r in rows] != ctrls or summary.get("csv_files") != e["runs"]:
        problems.append("cmp_summary.json: controllers or csv_files differ from the config")
    elif [r["final_lyapunov"] for r in rows] != finals:
        problems.append("cmp_summary.json: final_lyapunov differs from the run CSVs")
    return problems


def _basin(cmd, wd: Path) -> list:
    e = cmd.expect
    doc = _load_json(wd / cmd.outputs[0])
    s, cfg = doc["summary"], doc["config"]
    finals = s["final_lyapunov"]
    problems = []
    if s["samples"] != e["samples"] or len(finals) != e["samples"]:
        problems.append(f"basin: {s['samples']} samples / {len(finals)} finals, "
                        f"expected {e['samples']}")
    below = sum(1 for L in finals if L < s["threshold"])
    if s["converged"] != below or len(s["failures"]) != len(finals) - below:
        problems.append(f"basin: converged {s['converged']} but {below} finals below threshold")
    if s["threshold"] != e["threshold"] or (cfg["dt"], cfg["t_end"]) != (e["dt"], e["t_end"]) \
            or cfg["trajectory"] != e["trajectory"]:
        problems.append("basin: threshold, dt/t_end or trajectory differ from the request")
    return problems


def _pe(cmd, wd: Path) -> list:
    doc = _load_json(wd / cmd.outputs[0])
    eps = doc["report"]["epsilon"]
    if cmd.expect["pe"]:
        ok = doc["verdict"] == PE_CERTIFIED and eps > PE_EPS and doc["report"]["certifies_pe"]
    else:
        ok = doc["verdict"] == PE_NOT and eps <= PE_EPS
    problems = [] if ok else [f"{cmd.label}: verdict {doc['verdict']!r} (epsilon {eps:.3e})"]
    if doc["trajectory"] != cmd.expect["trajectory"]:
        problems.append(f"{cmd.label}: trajectory differs from the request")
    return problems


def _lin(cmd, wd: Path) -> list:
    doc = _load_json(wd / cmd.outputs[0])
    rep = doc["report"]
    if cmd.expect["pe"]:
        ok = rep["verdict"] == LIN_PE and rep["fitted_decay_rate"] > 0.0
    else:
        ok = rep["verdict"] == LIN_NOT
    problems = [] if ok else [f"{cmd.label}: verdict {rep['verdict']!r} "
                              f"(rate {rep['fitted_decay_rate']:.3e})"]
    if doc["trajectory"] != cmd.expect["trajectory"]:
        problems.append(f"{cmd.label}: trajectory differs from the request")
    return problems


CHECKS = {"simulate": _simulate, "replay": _replay, "compare": _compare,
          "basin": _basin, "pe": _pe, "lin": _lin}


def check(cmd, workdir: Path) -> list:
    """Problems with the outputs of one command that exited 0; [] when correct."""
    try:
        return CHECKS[cmd.kind](cmd, Path(workdir))
    except Exception as exc:  # a malformed output is a failed operation, not a crash
        return [f"{cmd.label}: unreadable output ({type(exc).__name__}: {exc})"]


def digests(cmd, workdir: Path, stdout: bytes) -> dict:
    """SHA-256 of every output and of stdout; a manifest's timing is left out."""
    out = {"stdout": hashlib.sha256(stdout).hexdigest()}
    for name in cmd.outputs:
        data = (Path(workdir) / name).read_bytes()
        if name.endswith(".manifest.json"):
            doc = json.loads(data)
            doc.pop("wall_clock_s", None)
            data = json.dumps(doc, sort_keys=True).encode()
        out[name] = hashlib.sha256(data).hexdigest()
    return out


class Verifier:
    """Checks each command's first outputs in full, later ones by digest.

    Identical bytes pass the same checks, so after a command's outputs
    have passed once, a repeat only has to reproduce their digests.
    record holds the digests an earlier run of the same code and seed
    stored; a difference from it is a failed operation too.
    """

    def __init__(self, record=None):
        self.record = record
        self.seen = {}

    def __call__(self, cmd, workdir: Path, exit_code: int, stdout: bytes) -> list:
        if exit_code != 0:
            return [f"{cmd.label}: exit code {exit_code}, expected 0"]
        try:
            got = digests(cmd, workdir, stdout)
        except (OSError, ValueError) as exc:
            return [f"{cmd.label}: unreadable output ({type(exc).__name__}: {exc})"]
        first = self.seen.get(cmd.label)
        if first is None:
            problems = check(cmd, workdir)
            if problems:
                return problems
            self.seen[cmd.label] = first = got
        if got != first:
            return [f"{cmd.label}: outputs differ from this run's first ones"]
        if self.record is not None and self.record.get(cmd.label) != got:
            return [f"{cmd.label}: outputs differ from the digests recorded for this code and seed"]
        return []


RECORD = STATE / "digests.json"


def load_record(key: str):
    """Digests stored by an earlier run under key, or None."""
    try:
        return _load_json(RECORD).get(key)
    except (OSError, ValueError):
        return None


def save_record(key: str, seen: dict) -> None:
    try:
        doc = _load_json(RECORD)
    except (OSError, ValueError):
        doc = {}
    doc[key] = seen
    STATE.mkdir(parents=True, exist_ok=True)
    tmp = RECORD.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    tmp.replace(RECORD)
