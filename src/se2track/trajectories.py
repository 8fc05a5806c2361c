"""Reference trajectories for tracking experiments.

A reference is a time-indexed pose X_d(t) together with the unicycle
input u_d(t) that generates it, tied by the flow condition

    d/dt X_d(t) = X_d(t) * wedge(Omega_d, v_d, 0).

Ellipses are built flatness-style: heading, speed, and turn rate are
derived from the position path and its first two derivatives, so the
flow condition holds by construction for any axis ratio. Each one's
state_at carries a grid form, which every array of times goes through,
and which refuses a reference that floats cannot hold there; along is
the one builder of a matrix function of time along a reference. The
module also holds the package's input checks, which every number and
count passes before it is coerced or compared, and its count limit
_MAX_STEPS.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .se2 import ControlPair, Pose, cos_sin, pose_matrix, wedge, wrap_angle


# largest step count of one run (its log would take 1.44 GB), and of any other count
_MAX_STEPS = 10**7


def require_finite(what: str, *values) -> None:
    """Raise ValueError unless every value is a finite real in float range: not a bool or a string."""
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool)
               and abs(x) <= math.nextafter(math.inf, 0.0) for x in values):
        shown = values[0] if len(values) == 1 else list(values)
        raise ValueError(f"{what} must be finite, got {shown!r}")


def _require_positive(what: str, value) -> None:
    """Raise ValueError unless value is a finite real number above 0."""
    require_finite(what, value)
    if not value > 0:
        raise ValueError(f"{what} must be positive, got {value!r}")


def _step_count(t_end, dt) -> int:
    """round(t_end / dt) of positive t_end and dt; ValueError otherwise, or above _MAX_STEPS."""
    _require_positive("t_end", t_end)
    _require_positive("dt", dt)
    if not t_end / dt <= _MAX_STEPS:
        raise ValueError(f"t_end / dt = {t_end / dt:.6g} steps is more than the limit "
                         f"of {_MAX_STEPS} steps per run")
    return int(round(t_end / dt))


def _is_count(n, least: int) -> bool:
    """Whether n is an integer, not a bool, of at least least."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= least


def _require_count(what: str, n, least: int) -> None:
    """Raise ValueError unless n is an integer, not a bool, from least to _MAX_STEPS."""
    if not _is_count(n, least):
        raise ValueError(f"{what} must be an integer >= {least}, got {n!r}")
    if n > _MAX_STEPS:
        raise ValueError(f"{what} {n} is more than the limit of {_MAX_STEPS}")


def require_known_keys(what: str, d: dict, known) -> None:
    """Raise ValueError naming every key of d that is not in known."""
    unknown = [key for key in d if key not in known]
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {what}; the known keys are {list(known)}")


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


def _finite_grid(state_on_grid, descriptor: dict):
    """state_on_grid, computed without numpy's warnings; ValueError unless its states are finite."""

    def checked(ts: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            states = state_on_grid(ts)
        if not np.isfinite(states).all():
            raise ValueError(f"reference {descriptor} is not finite in floats on the run's "
                             f"times: its parameters are too large or too small")
        return states

    return checked


@dataclass(frozen=True)
class DesiredTrajectory:
    """Reference pose/input pair with a scalar fast path.

    state_at(t) returns (theta_d, pdx, pdy, omega_d, v_d) as plain
    floats; pose_at / input_at wrap it in the structured types, and
    on_grid(state_at, ts) evaluates it on a time grid. period is None
    for aperiodic references. descriptor records the family and
    parameters for manifests and round-trip reconstruction.
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


def along(traj: DesiredTrajectory, rows, heading=None):
    """t -> pose_matrix(rows, ...) at the reference pose X_d(t), for a time or an array of times.

    A float t reads traj.state_at(t), and an array on_grid(traj.state_at,
    t), whose matrices equal the float ones bit for bit. The angle is
    wrapped as Pose wraps it. heading, when given, is a function of time
    that replaces theta_d. The returned function is its own array_form.
    """

    def F(t):
        theta, px, py = (traj.state_at(t) if np.ndim(t) == 0
                         else on_grid(traj.state_at, t).T)[:3]
        return pose_matrix(rows, wrap_angle(theta if heading is None else heading(t)), px, py)

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
    require_finite("ellipse a, b, h", a, b, h)
    require_finite("ellipse origin", origin[0], origin[1])
    ox, oy = float(origin[0]), float(origin[1])
    a, b, h = float(a), float(b), float(h)
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

    descriptor = {"family": "ellipse", "a": a, "b": b, "h": h, "origin": [ox, oy]}
    state_at.array_form = _finite_grid(state_on_grid, descriptor)
    return DesiredTrajectory(state_at, period=2.0 * math.pi / abs(h), descriptor=descriptor)


def line_trajectory(speed: float, heading: float = 0.0, start=(0.0, 0.0)) -> DesiredTrajectory:
    """Straight-line (or stationary, speed = 0) constant-input reference."""
    require_finite("line speed, heading", speed, heading)
    require_finite("line start", start[0], start[1])
    sx, sy = float(start[0]), float(start[1])
    speed, heading = float(speed), float(heading)
    cx = speed * math.cos(heading)
    cy = speed * math.sin(heading)

    def state_at(t: float) -> tuple:
        return (heading, sx + cx * t, sy + cy * t, 0.0, speed)

    descriptor = {"family": "line", "speed": speed, "heading": heading, "start": [sx, sy]}
    # the expression above already works on an array of times
    state_at.array_form = _finite_grid(
        lambda ts: np.stack(np.broadcast_arrays(*state_at(ts)), axis=-1), descriptor)
    return DesiredTrajectory(state_at, period=None, descriptor=descriptor)


# the keys of each family's descriptor
_DESCRIPTOR_KEYS = {"ellipse": ("family", "a", "b", "h", "origin"),
                    "line": ("family", "speed", "heading", "start")}


def trajectory_from_descriptor(desc: dict) -> DesiredTrajectory:
    """Rebuild a trajectory from its descriptor dict (manifest round-trip); ValueError if malformed."""
    family = desc.get("family")
    # a list or an object is no family, and cannot be looked up as one
    if not isinstance(family, str) or family not in _DESCRIPTOR_KEYS:
        raise ValueError(f"unknown trajectory family: {family!r}")
    require_known_keys(f"{family} trajectory", desc, _DESCRIPTOR_KEYS[family])
    try:
        if family == "ellipse":
            return ellipse_trajectory(desc["a"], desc["b"], desc["h"], desc.get("origin", (0.0, 0.0)))
        return line_trajectory(desc["speed"], desc.get("heading", 0.0), desc.get("start", (0.0, 0.0)))
    except KeyError as exc:
        raise ValueError(f"{family} trajectory lacks the parameter {exc}") from None
    except (TypeError, IndexError):
        raise ValueError(f"{family} trajectory needs numbers and x,y pairs, got {desc!r}") from None


def flow_consistency_residual(traj: DesiredTrajectory, t_span=(0.0, 10.0), samples: int = 100,
                              delta: float = 1e-5) -> float:
    """Max defect of d/dt X_d = X_d U_d over sampled times (central differences).

    Returns the largest entrywise difference between the finite-difference
    derivative of the pose matrix and X_d(t) @ wedge(u_d(t)).
    """
    _require_count("sample count", samples, 1)
    worst = 0.0
    for t in np.linspace(t_span[0], t_span[1], samples):
        t = float(t)
        Xp = traj.pose_at(t + delta).to_matrix()
        Xm = traj.pose_at(t - delta).to_matrix()
        fd = (Xp - Xm) / (2.0 * delta)
        flow = traj.pose_at(t).to_matrix() @ wedge(traj.input_at(t).embed())
        worst = max(worst, float(np.max(np.abs(fd - flow))))
    return worst
