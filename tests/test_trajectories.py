import math

import numpy as np
import pytest

from se2track import (
    ellipse_trajectory,
    flow_consistency_residual,
    line_trajectory,
    trajectory_from_descriptor,
)


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
