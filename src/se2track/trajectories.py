"""Reference trajectories for tracking experiments.

A reference is a time-indexed pose X_d(t) together with the unicycle
input u_d(t) that generates it, tied by the flow condition

    d/dt X_d(t) = X_d(t) * wedge(Omega_d, v_d, 0).

Ellipses are built flatness-style: heading, speed, and turn rate are
derived from the position path and its first two derivatives, so the
flow condition holds by construction for any axis ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .se2 import ControlPair, Pose, cos_sin, pose_matrix, wedge, wrap_angle


def require_finite(what: str, *values) -> None:
    """Raise ValueError unless every value is a finite real number."""
    try:
        ok = all(math.isfinite(x) for x in values)
    except TypeError:
        ok = False
    if not ok:
        shown = values[0] if len(values) == 1 else list(values)
        raise ValueError(f"{what} must be finite, got {shown!r}")


def _require_positive(what: str, value) -> None:
    """Raise ValueError unless value is a finite real number above 0."""
    require_finite(what, value)
    if not value > 0:
        raise ValueError(f"{what} must be positive, got {value!r}")


def on_grid(F, ts) -> np.ndarray:
    """Values of a function of time at every time in ts, stacked on axis 0.

    A callable may carry its array form as the attribute array_form:
    F.array_form(ts) must equal the stacked point values bit for bit.
    It is used when present; any other callable is evaluated point by
    point.
    """
    ts = np.asarray(ts, dtype=float)
    array_form = getattr(F, "array_form", None)
    if array_form is not None:
        return array_form(ts)
    return np.array([np.asarray(F(t), dtype=float) for t in ts.tolist()])


@dataclass(frozen=True)
class DesiredTrajectory:
    """Reference pose/input pair with a scalar fast path.

    state_at(t) returns (theta_d, pdx, pdy, omega_d, v_d) as plain
    floats; pose_at / input_at wrap it in the structured types, and
    sample evaluates it on a time grid. period is None for aperiodic
    references. descriptor records the family and parameters for
    manifests and round-trip reconstruction.
    """

    state_at: Callable[[float], tuple]
    period: Optional[float]
    descriptor: dict = field(default_factory=dict)

    def pose_at(self, t: float) -> Pose:
        theta, px, py, _, _ = self.state_at(t)
        return Pose(theta, np.array([px, py]))

    def input_at(self, t: float) -> ControlPair:
        _, _, _, omega, v = self.state_at(t)
        return ControlPair(omega, v)

    def sample(self, ts) -> tuple:
        """Arrays (theta_d, pdx, pdy, omega_d, v_d) over the times ts.

        Each equals calling state_at at every time, bit for bit.
        """
        return tuple(on_grid(self.state_at, ts).T)


def along(traj: DesiredTrajectory, rows, heading=None):
    """t -> pose_matrix(rows, ...) at the reference pose X_d(t), for a time or an array of times.

    A float t reads the pose from state_at, an array from sample. heading,
    when given, is a function of time that replaces theta_d. The angle is
    wrapped as Pose wraps it. The returned function is its own array_form.
    """

    def F(t):
        theta, px, py, _, _ = traj.state_at(t) if np.ndim(t) == 0 else traj.sample(t)
        if heading is not None:
            theta = heading(t)
        return pose_matrix(rows, wrap_angle(theta), px, py)

    F.array_form = F
    return F


def ellipse_trajectory(a: float, b: float, h: float, origin=(0.0, 0.0)) -> DesiredTrajectory:
    """Elliptical reference p_d(t) = origin + (a cos(ht), b sin(ht)).

    The feedforward is derived from the path:

        v_d     = |dp_d/dt|
        theta_d = atan2 of dp_d/dt
        Omega_d = (dp_d x d2p_d) / |dp_d|^2

    For a == b this reduces to the circle (constant v_d = a|h|,
    Omega_d = h). Rejects degenerate axes: a zero semi-axis makes the
    speed vanish twice per revolution, where the heading is undefined.
    """
    ox, oy = float(origin[0]), float(origin[1])
    a, b, h = float(a), float(b), float(h)
    require_finite("ellipse a, b, h", a, b, h)
    require_finite("ellipse origin", ox, oy)
    if a <= 0.0 or b <= 0.0:
        raise ValueError("ellipse semi-axes must be positive")
    if h == 0.0:
        raise ValueError("ellipse rate h must be nonzero")

    def rows(c, s) -> tuple:
        """(dx, dy, px, py, Omega_d, |dp_d/dt|^2) at cos(ht) = c, sin(ht) = s; floats or arrays."""
        dx = -a * h * s
        dy = b * h * c
        return (dx, dy, ox + a * c, oy + b * s,
                a * b * h / (a * a * s * s + b * b * c * c), dx * dx + dy * dy)

    def state_at(t: float) -> tuple:
        dx, dy, px, py, omega, speed2 = rows(math.cos(h * t), math.sin(h * t))
        return math.atan2(dy, dx), px, py, omega, math.sqrt(speed2)

    def state_on_grid(ts: np.ndarray) -> np.ndarray:
        dx, dy, px, py, omega, speed2 = rows(*cos_sin(h * ts))
        theta = np.array(list(map(math.atan2, dy.tolist(), dx.tolist())))
        return np.stack([theta, px, py, omega, np.sqrt(speed2)], axis=-1)

    state_at.array_form = state_on_grid
    return DesiredTrajectory(
        state_at,
        period=2.0 * math.pi / abs(h),
        descriptor={"family": "ellipse", "a": a, "b": b, "h": h, "origin": [ox, oy]},
    )


def line_trajectory(speed: float, heading: float = 0.0, start=(0.0, 0.0)) -> DesiredTrajectory:
    """Straight-line (or stationary, speed = 0) constant-input reference."""
    sx, sy = float(start[0]), float(start[1])
    speed, heading = float(speed), float(heading)
    require_finite("line speed, heading", speed, heading)
    require_finite("line start", sx, sy)
    cx = speed * math.cos(heading)
    cy = speed * math.sin(heading)

    def state_at(t: float) -> tuple:
        return (heading, sx + cx * t, sy + cy * t, 0.0, speed)

    # the expression above already works on an array of times
    state_at.array_form = lambda ts: np.stack(np.broadcast_arrays(*state_at(ts)), axis=-1)
    return DesiredTrajectory(
        state_at,
        period=None,
        descriptor={"family": "line", "speed": speed, "heading": heading, "start": [sx, sy]},
    )


def trajectory_from_descriptor(desc: dict) -> DesiredTrajectory:
    """Rebuild a trajectory from its descriptor dict (manifest round-trip); ValueError if malformed."""
    family = desc.get("family")
    try:
        if family == "ellipse":
            return ellipse_trajectory(desc["a"], desc["b"], desc["h"], desc.get("origin", (0.0, 0.0)))
        if family == "line":
            return line_trajectory(desc.get("speed", 0.0), desc.get("heading", 0.0), desc.get("start", (0.0, 0.0)))
    except KeyError as exc:
        raise ValueError(f"{family} trajectory lacks the parameter {exc}") from None
    except (TypeError, IndexError):
        raise ValueError(f"{family} trajectory needs numbers and x,y pairs, got {desc!r}") from None
    raise ValueError(f"unknown trajectory family: {family!r}")


def flow_consistency_residual(traj: DesiredTrajectory, t_span=(0.0, 10.0), samples: int = 100,
                              delta: float = 1e-5) -> float:
    """Max defect of d/dt X_d = X_d U_d over sampled times (central differences).

    Returns the largest entrywise difference between the finite-difference
    derivative of the pose matrix and X_d(t) @ wedge(u_d(t)).
    """
    worst = 0.0
    for t in np.linspace(t_span[0], t_span[1], samples):
        t = float(t)
        Xp = traj.pose_at(t + delta).to_matrix()
        Xm = traj.pose_at(t - delta).to_matrix()
        fd = (Xp - Xm) / (2.0 * delta)
        flow = traj.pose_at(t).to_matrix() @ wedge(traj.input_at(t).embed())
        worst = max(worst, float(np.max(np.abs(fd - flow))))
    return worst
