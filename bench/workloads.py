"""Seeded command sequences of the three workloads.

A workload is a list of CLI invocations plus the config files they
read. All inputs come from ``random.Random(seed)``; the program sees
only the generated flags and files. Every drawn value is rounded so it
round-trips through ``repr`` on the command line, and every range is
one where the output checks hold (see README.md).

    sim_write    simulate x3, compare x1, replay of the first run
    basin_sweep  one basin sweep at the CLI's dt/t_end defaults
    certify      pe-check and lin-check on a PE ellipse and a stationary line
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("sim_write", "basin_sweep", "certify")

SIM_DT = 1e-3
SIM_T_END = 20.0          # 20k steps per simulate run
COMPARE_T_END = 10.0      # 10k steps per controller, 3 controllers
COMPARE_CONTROLLERS = ("spatial", "kanayama", "feedforward")
BASIN_SAMPLES = 16
BASIN_DT = 5e-3           # the CLI's basin defaults; not passed as flags
BASIN_T_END = 60.0
BASIN_THRESHOLD = 1e-6


@dataclass
class Command:
    """One CLI invocation and what its output check needs to know."""

    label: str            # unique within the workload
    args: list            # arguments after ``se2track``
    kind: str             # simulate | replay | compare | basin | pe | lin
    outputs: list         # files it writes, relative to the work directory
    expect: dict = field(default_factory=dict)
    steps: int = 0        # closed-loop RK4 steps it integrates

    @property
    def subcommand(self) -> str:
        return self.args[0]


@dataclass
class Workload:
    name: str
    seed: int
    commands: list
    files: dict = field(default_factory=dict)   # config files: name -> JSON document

    @property
    def steps(self) -> int:
        return sum(c.steps for c in self.commands)

    def write_files(self, workdir) -> None:
        for name, doc in self.files.items():
            (workdir / name).write_text(json.dumps(doc, indent=2) + "\n")


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def draw_ellipse(rng: random.Random) -> dict:
    """A persistently exciting ellipse: one lap in 4.5 to 5.6 s."""
    return {"family": "ellipse", "a": _u(rng, 2.5, 3.5), "b": _u(rng, 4.5, 5.5),
            "h": round(2.0 * math.pi / 5.0 * rng.uniform(0.9, 1.1), 4),
            "origin": [_u(rng, -2.0, 2.0), _u(rng, -2.0, 2.0)]}


def draw_line(rng: random.Random, speed=None) -> dict:
    return {"family": "line",
            "speed": _u(rng, 0.5, 1.5) if speed is None else speed,
            "heading": _u(rng, -3.0, 3.0),
            "start": [_u(rng, -2.0, 2.0), _u(rng, -2.0, 2.0)]}


def draw_offset(rng: random.Random) -> list:
    return [_u(rng, -3.0, 3.0), _u(rng, -3.0, 3.0), _u(rng, -2.5, 2.5)]


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def trajectory_flags(desc: dict) -> list:
    if desc["family"] == "ellipse":
        return ["--traj=ellipse", f"--a={desc['a']!r}", f"--b={desc['b']!r}",
                f"--h={desc['h']!r}", f"--origin={_csv(desc['origin'])}"]
    return ["--traj=line", f"--speed={float(desc['speed'])!r}",
            f"--heading={desc['heading']!r}", f"--origin={_csv(desc['start'])}"]


def _sim_config(desc, controller, offset, dt, t_end) -> dict:
    """The config a manifest must record for these flags."""
    return {"trajectory": desc, "controller": controller, "gains": None,
            "offset": [float(v) for v in offset], "dt": dt, "t_end": t_end, "seed": None}


def _simulate(label, desc, controller, offset) -> Command:
    out = f"{label}.csv"
    steps = int(round(SIM_T_END / SIM_DT))
    return Command(
        label=label,
        args=["simulate", *trajectory_flags(desc), f"--controller={controller}",
              f"--offset={_csv(offset)}", f"--dt={SIM_DT!r}", f"--t-end={SIM_T_END!r}",
              f"--out={out}"],
        kind="simulate",
        outputs=[out, f"{label}.manifest.json"],
        expect={"steps": steps, "spatial": controller == "spatial",
                "config": _sim_config(desc, controller, offset, SIM_DT, SIM_T_END)},
        steps=steps,
    )


def sim_write(seed: int) -> Workload:
    rng = random.Random(seed)
    ellipse = draw_ellipse(rng)
    line = draw_line(rng)
    first = _simulate("ellipse_spatial", ellipse, "spatial", draw_offset(rng))
    cmds = [
        first,
        _simulate("ellipse_kanayama", ellipse, "kanayama", draw_offset(rng)),
        _simulate("line_spatial", line, "spatial", draw_offset(rng)),
    ]
    compare_doc = {"trajectory": ellipse, "controllers": list(COMPARE_CONTROLLERS),
                   "offset": draw_offset(rng), "dt": SIM_DT, "t_end": COMPARE_T_END,
                   "threshold": 1e-2}
    steps = int(round(COMPARE_T_END / SIM_DT))
    runs = [f"cmp_{i}_{c}.csv" for i, c in enumerate(COMPARE_CONTROLLERS)]
    cmds.append(Command(
        label="compare", args=["compare", "--config=compare.json", "--out=cmp"],
        kind="compare", outputs=[*runs, "cmp_long.csv", "cmp_summary.json"],
        expect={"steps": steps, "controllers": list(COMPARE_CONTROLLERS), "runs": runs},
        steps=steps * len(COMPARE_CONTROLLERS),
    ))
    cmds.append(Command(
        label="replay",
        args=["simulate", f"--config={first.label}.manifest.json", "--out=replay.csv"],
        kind="replay", outputs=["replay.csv", "replay.manifest.json"],
        expect={"source": first.outputs[0], "config": first.expect["config"]},
        steps=first.steps,
    ))
    return Workload("sim_write", seed, cmds, files={"compare.json": compare_doc})


def basin_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    ellipse = draw_ellipse(rng)
    basin_seed = rng.randrange(1 << 31)
    per_sample = int(round(BASIN_T_END / BASIN_DT))
    cmd = Command(
        label="basin",
        args=["basin", *trajectory_flags(ellipse), f"--samples={BASIN_SAMPLES}",
              f"--seed={basin_seed}", "--out=basin.json"],
        kind="basin", outputs=["basin.json"],
        expect={"samples": BASIN_SAMPLES, "threshold": BASIN_THRESHOLD,
                "dt": BASIN_DT, "t_end": BASIN_T_END, "trajectory": ellipse},
        steps=BASIN_SAMPLES * per_sample,
    )
    return Workload("basin_sweep", seed, [cmd])


def certify(seed: int) -> Workload:
    rng = random.Random(seed)
    refs = {"ellipse": (draw_ellipse(rng), True), "line": (draw_line(rng, speed=0.0), False)}
    cmds = []
    for check in ("pe", "lin"):
        sub = "pe-check" if check == "pe" else "lin-check"
        for name, (desc, pe) in refs.items():
            label = f"{check}_{name}"
            cmds.append(Command(
                label=label, args=[sub, *trajectory_flags(desc), f"--out={label}.json"],
                kind=check, outputs=[f"{label}.json"],
                expect={"pe": pe, "trajectory": desc},
            ))
    return Workload("certify", seed, cmds)


def build(name: str, seed: int) -> Workload:
    return {"sim_write": sim_write, "basin_sweep": basin_sweep, "certify": certify}[name](seed)
