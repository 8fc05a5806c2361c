"""Time-grid evaluation: every array form equals its scalar form bit for bit.

pe-check and lin-check evaluate the reference on whole time grids. Their
reports must not change by a single bit, so each array form is compared
with the point-by-point values, and the blocked LTV integrator with the
per-step loop it replaced.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from se2track import (
    actuation_gram,
    closed_loop_ltv,
    controller_regressor,
    ellipse_trajectory,
    line_trajectory,
    regressor,
    stability_probe,
    uniform_heading_ellipse_regressor,
    window_gram,
)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


axes = finite(0.1, 10.0)
rates = st.one_of(finite(0.05, 5.0), finite(-5.0, -0.05))
points = st.tuples(finite(-10.0, 10.0), finite(-10.0, 10.0))
times = st.lists(finite(-100.0, 100.0), min_size=1, max_size=40)
ellipses = st.builds(ellipse_trajectory, axes, axes, rates, points)
lines = st.builds(line_trajectory, finite(0.0, 5.0), finite(-10.0, 10.0), points)
trajectories = st.one_of(ellipses, lines)

GRID = settings(max_examples=60, deadline=None)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def plain(F):
    """F without its array form: on_grid must fall back to point values."""
    return lambda t: F(t)


def reference_ltv_norms(A, x0, t_end, dt):
    """The per-step RK4 loop the blocked integrator replaced: A called at every stage."""
    steps = int(round(t_end / dt))
    x = np.array(x0, dtype=float)
    norms = [float(np.linalg.norm(x))]
    for k in range(steps):
        t = k * dt
        A1, A2, A3 = A(t), A(t + 0.5 * dt), A(t + dt)
        k1 = -(A1 @ x)
        k2 = -(A2 @ (x + 0.5 * dt * k1))
        k3 = -(A2 @ (x + 0.5 * dt * k2))
        k4 = -(A3 @ (x + dt * k3))
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norms.append(float(np.linalg.norm(x)))
    return np.array(norms)


@GRID
@given(trajectories, times)
def test_sample_equals_state_at(traj, ts):
    cols = traj.sample(ts)
    assert len(cols) == 5
    assert same_bits(np.stack(cols, axis=-1), [traj.state_at(t) for t in ts])


@GRID
@given(trajectories, times)
def test_trajectory_array_forms_equal_scalar_forms(traj, ts):
    for F in (controller_regressor(traj), closed_loop_ltv(traj)):
        assert same_bits(F.array_form(np.array(ts)), [F(t) for t in ts])


@GRID
@given(trajectories, times)
def test_matrices_along_a_reference_equal_their_pose_forms(traj, ts):
    sqrt_s = np.diag([math.sqrt(2.0), 1.0, 1.0])
    F, A_z = controller_regressor(traj), closed_loop_ltv(traj)
    for t in ts:
        xd = traj.pose_at(t)
        assert same_bits(F(t), regressor(xd))
        assert same_bits(A_z(t), sqrt_s @ actuation_gram(xd) @ sqrt_s)


@GRID
@given(axes, axes, rates, times)
def test_uniform_heading_array_form_equals_scalar_form(a, b, h, ts):
    F = uniform_heading_ellipse_regressor(a, b, h)
    assert same_bits(F.array_form(np.array(ts)), [F(t) for t in ts])


@GRID
@given(trajectories, finite(-20.0, 20.0), finite(0.1, 10.0), st.integers(1, 60))
def test_window_gram_same_with_and_without_array_form(traj, t, T, half):
    n = 2 * half + 1
    for F in (controller_regressor(traj), closed_loop_ltv(traj)):
        assert same_bits(window_gram(F, t, T, n), window_gram(plain(F), t, T, n))


@settings(max_examples=15, deadline=None)
@given(ellipses, st.sampled_from([2e-3, 5e-3, 1e-2]), finite(1.0, 3.0))
def test_stability_probe_same_with_and_without_array_form(traj, dt, t_end):
    # t_end / dt spans up to three integrator blocks
    A = closed_loop_ltv(traj)
    x0 = [1.0, -0.5, 0.25]
    args = (x0, traj.period, 1e-12, t_end, dt, 51)
    fast, slow = stability_probe(A, *args), stability_probe(plain(A), *args)
    for field in ("times", "norms", "fitted_rate", "r_squared", "fit_window"):
        assert same_bits(getattr(fast, field), getattr(slow, field)), field
    assert fast.norm_monotone == slow.norm_monotone
    assert same_bits(fast.norms, reference_ltv_norms(A, x0, t_end, dt))
    assert same_bits(fast.times, [k * dt for k in range(len(fast.times))])


def test_blocked_integrator_matches_per_step_loop_on_test_flows():
    def rotating(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c * c, c * s], [c * s, s * s]])

    rep = stability_probe(rotating, [1.0, 0.0], T=2.0 * math.pi, epsilon=3.0,
                          t_end=3.0, dt=1e-3)
    assert same_bits(rep.norms, reference_ltv_norms(rotating, [1.0, 0.0], 3.0, 1e-3))
