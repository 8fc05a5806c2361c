"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs every workload once in-process (seed 1), confirms that the real
outputs pass, then feeds each check one known-bad output and asserts
that the command is counted as failed. Exits 1 if any bad output slips
through or any good one is rejected.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import common
import workloads
from tracing import call_cli

SEED = 1


def _edit_json(name, change):
    def corrupt(wd):
        doc = json.loads((wd / name).read_text())
        change(doc)
        (wd / name).write_text(json.dumps(doc, indent=2) + "\n")
    return corrupt


def _edit_lines(name, change):
    def corrupt(wd):
        lines = (wd / name).read_text().split("\n")
        (wd / name).write_text("\n".join(change(lines)))
    return corrupt


def _edit_row(name, row, change):
    """Rewrite one CSV data row through change(row, previous row, column index)."""
    def edit(lines):
        from se2track.engine import COL

        prev, values = ([float(tok) for tok in line.split(",")] for line in lines[row - 1:row + 1])
        change(values, prev, COL)
        lines[row] = ",".join(repr(v) for v in values)
        return lines
    return _edit_lines(name, edit)


def _scale_lyap(values, prev, col):
    values[col["lyap"]] *= 1.001


def _raise_lyap(values, prev, col):
    """Set L 1e-6 above the previous row's, moving eR_px so the L formula still holds."""
    L = prev[col["lyap"]] + 1e-6
    values[col["lyap"]] = L
    rest = 2.0 * (L - 2.0 * (1.0 - math.cos(values[col["eR_theta"]])))
    values[col["eR_px"]] = math.copysign(math.sqrt(rest - values[col["eR_py"]] ** 2),
                                         values[col["eR_px"]])


def _flip_byte(name):
    def corrupt(wd):
        data = bytearray((wd / name).read_bytes())
        data[len(data) // 2] ^= 0x01
        (wd / name).write_bytes(bytes(data))
    return corrupt


# (workload, command label, what is wrong, corruption applied to the work directory)
CASES = [
    ("sim_write", "ellipse_spatial", "truncated CSV",
     _edit_lines("ellipse_spatial.csv", lambda lines: lines[:-2] + [""])),
    ("sim_write", "ellipse_spatial", "CSV cut mid-row",
     _edit_lines("ellipse_spatial.csv", lambda lines: lines[:-2] + [lines[-2][:9]])),
    ("sim_write", "ellipse_kanayama", "wrong header",
     _edit_lines("ellipse_kanayama.csv", lambda lines: [lines[0].replace("lyap", "L")] + lines[1:])),
    ("sim_write", "ellipse_kanayama", "lyap off the formula",
     _edit_row("ellipse_kanayama.csv", 10, _scale_lyap)),
    ("sim_write", "line_spatial", "L rises by 1e-6 in one step",
     _edit_row("line_spatial.csv", 200, _raise_lyap)),
    ("sim_write", "ellipse_spatial", "CSV that does not round-trip",
     _edit_lines("ellipse_spatial.csv", lambda lines: lines[:5] + [lines[5] + "0"] + lines[6:])),
    ("sim_write", "line_spatial", "manifest with another offset",
     _edit_json("line_spatial.manifest.json", lambda d: d["config"]["offset"].__setitem__(0, 9.0))),
    ("sim_write", "replay", "replay differs by one bit", _flip_byte("replay.csv")),
    ("sim_write", "compare", "truncated long-format CSV",
     _edit_lines("cmp_long.csv", lambda lines: lines[:-2] + [""])),
    ("sim_write", "compare", "summary out of step with the run CSVs",
     _edit_json("cmp_summary.json", lambda d: d["rows"][0].__setitem__("final_lyapunov", 1.0))),
    ("basin_sweep", "basin", "wrong converged count",
     _edit_json("basin.json", lambda d: d["summary"].__setitem__("converged", d["summary"]["converged"] - 1))),
    ("basin_sweep", "basin", "fewer samples than requested",
     _edit_json("basin.json", lambda d: d["summary"]["final_lyapunov"].pop())),
    ("certify", "pe_ellipse", "flipped PE verdict",
     _edit_json("pe_ellipse.json", lambda d: d.__setitem__("verdict", "not PE on scanned horizon"))),
    ("certify", "pe_line", "flipped non-PE verdict",
     _edit_json("pe_line.json", lambda d: d.__setitem__("verdict", "PE certified on scanned horizon"))),
    ("certify", "lin_ellipse", "flipped lin-check verdict",
     _edit_json("lin_ellipse.json",
                lambda d: d["report"].__setitem__("verdict", "not PE: no exponential certificate"))),
    ("certify", "lin_line", "flipped lin-check verdict",
     _edit_json("lin_line.json",
                lambda d: d["report"].__setitem__("verdict", "PE: linearization decays exponentially"))),
]


def run_workload(st, wl, wd) -> dict:
    """Run every command in-process; return label -> (exit code, stdout bytes)."""
    wl.write_files(wd)
    with common.in_dir(wd):
        return {cmd.label: call_cli(st.cli.main, cmd.args)[:2] for cmd in wl.commands}


def main() -> int:
    st = common.import_program()
    import checks
    from run import Tally

    bad = 0
    root = common.WORK / f"selftest-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, SEED)
            wd = root / name
            wd.mkdir(parents=True)
            done = run_workload(st, wl, wd)
            cmds = {c.label: c for c in wl.commands}

            def failed(label, code=None, record=None) -> list:
                tally = Tally()
                exit_code, out = done[label]
                tally.add(checks.Verifier(record)(cmds[label], wd, exit_code if code is None
                                                  else code, out))
                return tally.problems if tally.failed == 1 else []

            for label in cmds:
                problems = failed(label)
                print(f"{'FAIL' if problems else 'ok  '} {name}/{label}: correct output "
                      f"{'rejected: ' + problems[0] if problems else 'accepted'}")
                bad += bool(problems)
            cases = [(label, what, corrupt) for w, label, what, corrupt in CASES if w == name]
            label = wl.commands[0].label
            for what, problems in (
                    ("exit code 1", failed(label, code=1)),
                    ("digests differ from the record",
                     failed(label, record={label: {"stdout": "0" * 64}}))):
                bad += _report(name, label, what, problems)
            for label, what, corrupt in cases:
                saved = {p: p.read_bytes() for p in wd.iterdir() if p.is_file()}
                corrupt(wd)
                bad += _report(name, label, what, failed(label))
                for path, data in saved.items():
                    path.write_bytes(data)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("self-test", "passed" if not bad else f"FAILED ({bad} cases)")
    return 1 if bad else 0


def _report(name, label, what, problems) -> int:
    if problems:
        print(f"ok   {name}/{label}: {what} -> {problems[0]}")
        return 0
    print(f"FAIL {name}/{label}: {what} was not counted as failed")
    return 1


if __name__ == "__main__":
    sys.exit(main())
