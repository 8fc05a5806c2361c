import json
import math
import re

import numpy as np
import pytest

from se2track import (
    Gains,
    KanayamaGains,
    SimConfig,
    closed_loop_ltv,
    compare_controllers,
    controller_regressor,
    ellipse_pe_closed_form,
    ellipse_trajectory,
    flow_consistency_residual,
    line_trajectory,
    monte_carlo_basin,
    pe_epsilon,
    stability_probe,
    trajectory_from_descriptor,
    window_gram,
)
from se2track.trajectories import on_grid


def test_ellipse_passes_flow_consistency(rng):
    # the standard scenario is essentially exact; fast random ellipses
    # are limited by central-difference truncation (~delta^2 * |X'''|)
    assert flow_consistency_residual(
        ellipse_trajectory(3.0, 5.0, 2.0 * math.pi / 5.0)) < 1e-9
    for _ in range(5):
        a = rng.uniform(0.5, 6.0)
        b = rng.uniform(0.5, 6.0)
        h = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
        origin = rng.standard_normal(2) * 3.0
        traj = ellipse_trajectory(a, b, h, origin)
        assert flow_consistency_residual(traj) < 1e-6


def test_line_passes_flow_consistency(rng):
    traj = line_trajectory(speed=1.3, heading=0.7, start=(2.0, -1.0))
    assert flow_consistency_residual(traj) < 1e-9
    assert flow_consistency_residual(line_trajectory(0.0)) < 1e-12


def test_circle_reduces_to_constant_inputs():
    r, h = 2.0, 0.8
    traj = ellipse_trajectory(r, r, h)
    for t in np.linspace(0.0, 10.0, 37):
        u = traj.input_at(float(t))
        assert abs(u.v - r * h) < 1e-12
        assert abs(u.omega - h) < 1e-12


def test_ellipse_geometry():
    a, b, h = 3.0, 5.0, 2.0 * math.pi / 5.0
    origin = (1.0, -2.0)
    traj = ellipse_trajectory(a, b, h, origin)
    assert abs(traj.period - 5.0) < 1e-12
    # position stays on the ellipse around the origin
    for t in np.linspace(0.0, 5.0, 51):
        _, px, py, _, _ = traj.state_at(float(t))
        x, y = px - origin[0], py - origin[1]
        assert abs((x / a) ** 2 + (y / b) ** 2 - 1.0) < 1e-12
    # start point and start heading (path moves in +y at t = 0)
    g0 = traj.pose_at(0.0)
    assert np.allclose(g0.p, [origin[0] + a, origin[1]], atol=1e-15)
    assert abs(g0.theta - math.pi / 2) < 1e-15
    # speed extremes at the axis crossings
    assert abs(traj.input_at(0.0).v - b * h) < 1e-12
    quarter = traj.period / 4.0
    assert abs(traj.input_at(quarter).v - a * h) < 1e-12


def test_ellipse_speed_and_turn_rate_closed_forms():
    a, b, h = 3.0, 5.0, 2.0 * math.pi / 5.0
    traj = ellipse_trajectory(a, b, h)
    for t in np.linspace(0.0, 5.0, 101):
        t = float(t)
        s, c = math.sin(h * t), math.cos(h * t)
        _, _, _, om, v = traj.state_at(t)
        assert abs(v - abs(h) * math.hypot(a * s, b * c)) < 1e-12
        assert abs(om - a * b * h / (a * a * s * s + b * b * c * c)) < 1e-12


def test_reversed_rate_flips_turn_direction():
    fwd = ellipse_trajectory(2.0, 1.0, 1.5)
    rev = ellipse_trajectory(2.0, 1.0, -1.5)
    assert fwd.input_at(0.3).omega > 0.0
    assert rev.input_at(0.3).omega < 0.0
    assert abs(fwd.input_at(0.3).v - rev.input_at(-0.3).v) < 1e-12


def test_line_is_straight_and_aperiodic():
    traj = line_trajectory(speed=2.0, heading=math.pi / 4, start=(1.0, 1.0))
    assert traj.period is None
    for t in (0.0, 1.0, 3.5):
        th, px, py, om, v = traj.state_at(t)
        assert th == math.pi / 4
        assert om == 0.0 and v == 2.0
        assert abs(px - (1.0 + 2.0 * t * math.cos(math.pi / 4))) < 1e-12
        assert abs(py - (1.0 + 2.0 * t * math.sin(math.pi / 4))) < 1e-12


def test_degenerate_parameters_rejected():
    with pytest.raises(ValueError):
        ellipse_trajectory(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ellipse_trajectory(1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        ellipse_trajectory(1.0, 1.0, 0.0)


@pytest.mark.parametrize("build", [
    lambda: ellipse_trajectory(math.nan, 1.0, 1.0),
    lambda: ellipse_trajectory(1.0, math.inf, 1.0),
    lambda: ellipse_trajectory(1.0, 1.0, -math.inf),
    lambda: ellipse_trajectory(1.0, 1.0, 1.0, origin=(0.0, math.nan)),
    lambda: line_trajectory(math.nan),
    lambda: line_trajectory(1.0, heading=math.inf),
    lambda: line_trajectory(1.0, start=(math.inf, 0.0)),
], ids=["a", "b", "h", "origin", "speed", "heading", "start"])
def test_non_finite_parameters_rejected(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


@pytest.mark.parametrize("traj", [ellipse_trajectory(1e300, 5.0, 2.0 * math.pi / 5.0),
                                  line_trajectory(1e308)], ids=["ellipse", "line"])
@pytest.mark.parametrize("sample", [
    lambda traj, ts: on_grid(traj.state_at, ts),
    lambda traj, ts: controller_regressor(traj)(ts),
    lambda traj, ts: closed_loop_ltv(traj)(ts),
], ids=["on-grid", "regressor", "closed-loop"])
def test_a_reference_is_refused_on_any_grid_where_floats_cannot_hold_it(traj, sample):
    # the ellipse's speed overflows wherever sin(ht) is not 0, and its turn rate is inf * 0
    # where it is; the line's position overflows past t = 1.8. A numpy warning would be an
    # error here, and fail the test
    ts = np.linspace(0.0, 10.0, 7)
    shown = (f"reference {traj.descriptor} is not finite in floats on the run's times: "
             f"its parameters are too large or too small")
    with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
        sample(traj, ts)


def test_descriptor_round_trip(rng):
    for traj in (
        ellipse_trajectory(3.0, 5.0, 2.0 * math.pi / 5.0, origin=(1.0, -2.0)),
        line_trajectory(speed=1.5, heading=0.3, start=(0.5, 0.5)),
        line_trajectory(speed=0.0),
    ):
        rebuilt = trajectory_from_descriptor(traj.descriptor)
        assert rebuilt.descriptor == traj.descriptor
        for t in rng.uniform(0.0, 10.0, size=20):
            assert np.allclose(rebuilt.state_at(float(t)), traj.state_at(float(t)),
                               atol=0.0)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        trajectory_from_descriptor({"family": "spiral"})
    with pytest.raises(ValueError):
        trajectory_from_descriptor({})


@pytest.mark.parametrize("desc", [
    {"family": "line", "speed": 1.0, "start": 5},
    {"family": "ellipse", "a": 1.0, "b": 1.0, "h": 1.0, "origin": [1.0]},
], ids=["scalar-start", "short-origin"])
def test_a_number_where_a_pair_belongs_is_refused(desc):
    with pytest.raises(ValueError, match="needs numbers and x,y pairs"):
        trajectory_from_descriptor(desc)


_CIRCLE = {"family": "ellipse", "a": 1.0, "b": 1.0, "h": 1.0}
_QUICK = SimConfig(trajectory=_CIRCLE, dt=0.01, t_end=1.0)
_LINE = controller_regressor(line_trajectory(1.0))
_EYE = lambda t: np.eye(2)


# a number that is not a finite real in float range, or a count that is not an integer in
# range, is refused before it is coerced, compared or used
@pytest.mark.parametrize("call, shown", [
    (lambda: stability_probe(_EYE, [1.0, 0.0], T=1.0, epsilon=math.nan, t_end=2.0),
     "excitation level epsilon must be finite, got nan"),
    (lambda: stability_probe(_EYE, [math.nan, 0.0], T=1.0, epsilon=0.5, t_end=2.0),
     "initial state x0 must be finite"),
    (lambda: Gains(math.nan, 1.0), "gains must be finite"),
    (lambda: KanayamaGains(math.nan, 1.0, 1.0), "baseline gain k_x must be finite, got nan"),
    (lambda: ellipse_pe_closed_form(1.0, 1.0, math.nan), "ellipse a, b, h must be finite"),
    (lambda: pe_epsilon(_LINE, horizon=2.0, T=1.0, windows=2.5),
     "window count must be an integer >= 1, got 2.5"),
    (lambda: window_gram(_LINE, 0.0, 1.0, n=5.0),
     "Simpson sample count n must be an integer >= 3, got 5.0"),
    (lambda: monte_carlo_basin(_QUICK, samples=2.0),
     "sample count must be an integer >= 0, got 2.0"),
    (lambda: SimConfig(trajectory=_CIRCLE, dt="0.01"), "dt must be finite, got '0.01'"),
    (lambda: SimConfig(trajectory=_CIRCLE, t_end=True), "t_end must be finite, got True"),
    (lambda: SimConfig(trajectory=_CIRCLE, t_end=10**400), "t_end must be finite, got 1000"),
    (lambda: SimConfig(trajectory=_CIRCLE, offset=(True, 0, 0)), "offset must be finite"),
    (lambda: ellipse_trajectory("3", 1.0, 1.0), "ellipse a, b, h must be finite"),
    (lambda: trajectory_from_descriptor({"family": "line"}),
     "line trajectory lacks the parameter 'speed'"),
    (lambda: compare_controllers([_QUICK], threshold=True), "threshold must be finite, got True"),
    (lambda: SimConfig(trajectory=_CIRCLE, offset=5), "offset must be a list of numbers, got 5"),
    (lambda: SimConfig(trajectory=_CIRCLE, gains=5), "gains must be a list of numbers, got 5"),
    (lambda: flow_consistency_residual(line_trajectory(1.0), samples=2.5),
     "sample count must be an integer >= 1, got 2.5"),
], ids=["probe-nan-epsilon", "probe-nan-x0", "nan-gain", "nan-baseline-gain",
        "closed-form-nan-h", "fractional-windows", "float-points", "float-samples", "text-dt",
        "bool-t-end", "int-past-float-range", "bool-offset", "text-a", "line-without-speed",
        "bool-threshold", "scalar-offset", "scalar-gains", "fractional-flow-samples"])
def test_library_refuses_values_that_are_not_finite_numbers_or_counts(call, shown):
    with pytest.raises(ValueError, match=re.escape(shown)):
        call()


@pytest.mark.parametrize("seed", [3, np.int64(3), np.uint8(3)])
def test_a_seed_is_any_integer_count_and_is_kept_as_an_int(seed):
    cfg = SimConfig(trajectory=_CIRCLE, seed=seed)
    assert type(cfg.seed) is int and cfg.seed == 3
    assert json.loads(json.dumps(cfg.to_dict()))["seed"] == 3
