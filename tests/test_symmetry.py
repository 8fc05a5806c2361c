"""Symmetries of whole closed-loop runs.

The paper's argument rests on SE(2) symmetry. Two of its consequences
hold for a whole run, and each property below compares two whole logs:

- Rotating the world about its origin, the reference and the initial
  offset alike, rotates every run, for all three controllers: L and
  |p - p_d| stay as they were at every step.
- Translating the world leaves |p - p_d| of the body-frame laws
  (kanayama, feedforward) as it was, on lines and on ellipses. The
  spatial law feels the translation by design (criterion 10).

The draws are those of ROADMAP item 18: lines of speed 0.2 to 1 starting
in [-2, 2]^2, offsets in [-2, 2]^3, rotations by alpha in [-3, 3], 5 s
at dt = 5e-3. Translations also run on ellipses of axes 0.5 to 5 and
rate 0.2 to 2 either way about an origin in [-2, 2]^2, and shift by up
to 5 along each axis.

Tolerance. The two runs differ only by rounding. Each of the N RK4
steps forms four stage states and an update, and each rounds a value of
size at most S, the largest |theta|, |theta_d|, |p| or |p_d| of either
log (at least 1), by at most eps S. Neither loop amplifies an error: the
feedback contracts it, and feedforward's open loop carries it along. So
the states of the two runs stay within delta = 4 N eps S, and so does
|p - p_d|. L = 2 (1 - cos theta_E) + |p_E|^2 / 2 moves by at most
2 |d theta_E| + |p_E| |d p_E|, with |p_E| <= |p| + |p_d| <= 2 S: within
(2 + 2 S) delta. Over 150 random draws of these ranges (Python 3.11,
numpy 2.4) the largest gaps were 0.44 N eps S for |p - p_d| and
0.14 (2 + 2 S) N eps S for L, both feedforward rotated: a factor of 9
and more below the bounds. At S of about 8 the bound on |p - p_d| is
about 7e-12. Over 40 other draws, the largest rotated gaps of |p - p_d|
were 1.4e-14 (spatial), 6.1e-15 (kanayama) and 4.1e-13 (feedforward),
and the largest translated ones 1.9e-14 (kanayama) and 4.5e-13
(feedforward).
"""

import math

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from se2track.engine import CONTROLLERS, SimConfig, simulate

DT, T_END = 5e-3, 5.0
EPS = np.finfo(float).eps


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


speeds = finite(0.2, 1.0)
headings = finite(-math.pi, math.pi)
points = st.tuples(finite(-2.0, 2.0), finite(-2.0, 2.0))
offsets = st.tuples(finite(-2.0, 2.0), finite(-2.0, 2.0), finite(-2.0, 2.0))
shifts = st.tuples(finite(-5.0, 5.0), finite(-5.0, 5.0))
lines = st.builds(lambda speed, heading, start: {"family": "line", "speed": speed,
                                                 "heading": heading, "start": list(start)},
                  speeds, headings, points)
ellipses = st.builds(lambda a, b, h, origin: {"family": "ellipse", "a": a, "b": b, "h": h,
                                              "origin": list(origin)},
                     finite(0.5, 5.0), finite(0.5, 5.0),
                     st.one_of(finite(-2.0, -0.2), finite(0.2, 2.0)), points)


def _run(trajectory, controller, offset):
    return simulate(SimConfig(trajectory=trajectory, controller=controller, offset=offset,
                              dt=DT, t_end=T_END))


def _rotated(alpha, x, y):
    c, s = math.cos(alpha), math.sin(alpha)
    return [c * x - s * y, s * x + c * y]


def _rounding(*logs):
    """(delta, S): the bound 4 N eps S on how far rounding moves the state, and S."""
    S = max(1.0, *(float(np.max(np.abs(log.column(name))))
                   for log in logs for name in ("theta", "theta_d")),
            *(float(np.max(np.hypot(log.column(x), log.column(y))))
              for log in logs for x, y in (("px", "py"), ("pxd", "pyd"))))
    return 4 * len(logs[0]) * EPS * S, S


def _gap(a, b) -> float:
    return float(np.max(np.abs(a - b)))


# a failing draw is reported as drawn, not minimized: shrinking one took minutes of whole runs
WHOLE_RUNS = settings(max_examples=60, deadline=None, report_multiple_bugs=False,
                      phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)])


@WHOLE_RUNS
@given(controller=st.sampled_from(CONTROLLERS), line=lines, offset=offsets,
       alpha=finite(-3.0, 3.0))
def test_rotating_the_world_rotates_every_run(controller, line, offset, alpha):
    dx, dy, dtheta = offset
    turned = {**line, "heading": line["heading"] + alpha,
              "start": _rotated(alpha, *line["start"])}
    base = _run(line, controller, offset)
    rotated = _run(turned, controller, (*_rotated(alpha, dx, dy), dtheta))
    delta, S = _rounding(base, rotated)
    assert _gap(base.position_error(), rotated.position_error()) <= delta
    assert _gap(base.lyap, rotated.lyap) <= (2 + 2 * S) * delta


@WHOLE_RUNS
@given(controller=st.sampled_from(["kanayama", "feedforward"]),
       trajectory=st.one_of(lines, ellipses), offset=offsets, shift=shifts)
def test_translating_the_world_leaves_the_body_frame_laws_runs(controller, trajectory, offset,
                                                               shift):
    at = "start" if trajectory["family"] == "line" else "origin"
    moved = {**trajectory, at: [c + d for c, d in zip(trajectory[at], shift)]}
    base = _run(trajectory, controller, offset)
    translated = _run(moved, controller, offset)
    delta, _ = _rounding(base, translated)
    assert _gap(base.position_error(), translated.position_error()) <= delta
