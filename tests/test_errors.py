import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se2track import (
    ControlPair,
    ErrorKind,
    Pose,
    compose,
    inverse,
    left_error,
    left_error_rate,
    lyapunov,
    right_error,
    right_error_rate,
    tracking_distance,
    wedge,
    wrap_angle,
)
from se2track.errors import _lyapunov_cos, _spatial_position

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
poses = st.builds(Pose, st.floats(-math.pi, math.pi), st.tuples(finite, finite))


def random_pose(rng, scale=3.0):
    return Pose(rng.uniform(-math.pi, math.pi), scale * rng.standard_normal(2))


def test_error_definitions_match_matrix_forms(rng):
    for _ in range(200):
        x, xd = random_pose(rng), random_pose(rng)
        el = left_error(x, xd)
        er = right_error(x, xd)
        Xl = np.linalg.inv(xd.to_matrix()) @ x.to_matrix()
        Xr = x.to_matrix() @ np.linalg.inv(xd.to_matrix())
        assert np.allclose(el.pose.to_matrix(), Xl, atol=1e-12)
        assert np.allclose(er.pose.to_matrix(), Xr, atol=1e-12)
        assert el.kind is ErrorKind.BODY
        assert er.kind is ErrorKind.SPATIAL


def test_error_component_formulas(rng):
    # body: (theta - theta_d, R_d^T (p - p_d)); spatial: (theta - theta_d,
    # p - R(theta_E) p_d)
    for _ in range(200):
        x, xd = random_pose(rng), random_pose(rng)
        el = left_error(x, xd)
        er = right_error(x, xd)
        dth = math.atan2(math.sin(x.theta - xd.theta), math.cos(x.theta - xd.theta))
        assert abs(el.theta - dth) < 1e-12
        assert abs(er.theta - dth) < 1e-12
        assert np.allclose(el.p, xd.rotation().T @ (x.p - xd.p), atol=1e-12)
        assert np.allclose(er.p, x.p - er.pose.rotation() @ xd.p, atol=1e-12)


def test_identity_when_tracking_exactly(rng):
    g = random_pose(rng)
    assert left_error(g, g).is_identity()
    assert right_error(g, g).is_identity()
    assert lyapunov(right_error(g, g)) < 1e-30


def test_spatial_error_ignores_common_right_shift(rng):
    # E_R = X X_d^-1 cancels a common right factor (a change of the
    # body-fixed reference point), but moving both poses by a common
    # left action (a change of world origin) conjugates it instead
    moved = 0
    for _ in range(100):
        x, xd, g = random_pose(rng), random_pose(rng), random_pose(rng)
        e1 = right_error(x, xd)
        e2 = right_error(compose(x, g), compose(xd, g))
        assert e1.pose.isclose(e2.pose, tol=1e-9)
        e3 = right_error(compose(g, x), compose(g, xd))
        if not e1.pose.isclose(e3.pose, tol=1e-6):
            moved += 1
    assert moved > 90  # origin dependence is the point of E_R


def test_body_error_ignores_common_left_shift(rng):
    # E_L = X_d^-1 X cancels a common left factor: world-origin moves
    # are invisible to it
    for _ in range(100):
        x, xd, g = random_pose(rng), random_pose(rng), random_pose(rng)
        e1 = left_error(x, xd)
        e2 = left_error(compose(g, x), compose(g, xd))
        assert e1.pose.isclose(e2.pose, tol=1e-9)


def test_lyapunov_closed_form_and_frobenius(rng):
    # 2(1 - cos th) + 0.5 |p|^2 equals half the squared Frobenius distance to I
    for _ in range(200):
        e = right_error(random_pose(rng), random_pose(rng))
        closed = 2.0 * (1.0 - math.cos(e.theta)) + 0.5 * float(e.p @ e.p)
        frob = 0.5 * np.sum((e.pose.to_matrix() - np.eye(3)) ** 2)
        val = lyapunov(e)
        assert abs(val - closed) < 1e-12
        assert abs(val - frob) < 1e-10
        assert val >= 0.0


@settings(max_examples=200, deadline=None)
@given(poses, poses)
def test_scalar_kernels_match_group_definitions(x, xd):
    # the simulation's float kernels against compose(x, inverse(xd)) and
    # half the squared Frobenius distance of its matrix to the identity;
    # the control passes the heading difference unwrapped, the log row wrapped
    e = right_error(x, xd)
    frob = 0.5 * np.sum((e.pose.to_matrix() - np.eye(3)) ** 2)
    dth = x.theta - xd.theta
    for theta_E in (dth, wrap_angle(dth)):
        pEx, pEy = _spatial_position(math.cos(theta_E), math.sin(theta_E), x.p[0], x.p[1],
                                     xd.p[0], xd.p[1])
        assert abs(pEx - e.p[0]) < 1e-12 and abs(pEy - e.p[1]) < 1e-12
        assert abs(_lyapunov_cos(math.cos(theta_E), pEx, pEy) - frob) < 1e-10


def test_lyapunov_accepts_both_kinds(rng):
    x, xd = random_pose(rng), random_pose(rng)
    assert lyapunov(left_error(x, xd)) >= 0.0
    assert lyapunov(right_error(x, xd)) >= 0.0


def _fd_error_rate(error_fn, x, xd, u, ud, h=1e-7):
    """Central-difference d/dt of the error matrix under body twists u, ud."""
    from se2track import exp_se2

    def flow(g, w, dt):
        return compose(g, exp_se2(np.asarray(w.embed()) * dt))

    Ep = error_fn(flow(x, u, h), flow(xd, ud, h)).pose.to_matrix()
    Em = error_fn(flow(x, u, -h), flow(xd, ud, -h)).pose.to_matrix()
    return (Ep - Em) / (2.0 * h)


def test_left_error_rate_matches_finite_difference(rng):
    for _ in range(50):
        x, xd = random_pose(rng), random_pose(rng)
        u = ControlPair(*rng.standard_normal(2))
        ud = ControlPair(*rng.standard_normal(2))
        e = left_error(x, xd)
        rate = left_error_rate(e, u, ud)
        fd = _fd_error_rate(left_error, x, xd, u, ud)
        assert np.allclose(rate, fd, atol=1e-6)


def test_right_error_rate_matches_finite_difference(rng):
    for _ in range(50):
        x, xd = random_pose(rng), random_pose(rng)
        u = ControlPair(*rng.standard_normal(2))
        ud = ControlPair(*rng.standard_normal(2))
        e = right_error(x, xd)
        rate = right_error_rate(e, u, ud, xd)
        fd = _fd_error_rate(right_error, x, xd, u, ud)
        assert np.allclose(rate, fd, atol=1e-6)


def test_right_error_frozen_under_pure_feedforward(rng):
    # with u = u_d the spatial error matrix does not move at all
    for _ in range(100):
        x, xd = random_pose(rng), random_pose(rng)
        ud = ControlPair(*rng.standard_normal(2))
        e = right_error(x, xd)
        rate = right_error_rate(e, ud, ud, xd)
        assert np.allclose(rate, np.zeros((3, 3)), atol=1e-12)


def test_left_error_moves_under_pure_feedforward(rng):
    # the body error generically drifts even with perfect feedforward
    moved = 0
    for _ in range(50):
        x, xd = random_pose(rng), random_pose(rng)
        ud = ControlPair(*rng.standard_normal(2))
        e = left_error(x, xd)
        if np.linalg.norm(left_error_rate(e, ud, ud)) > 1e-6:
            moved += 1
    assert moved > 40


def test_rate_functions_enforce_kind(rng):
    x, xd = random_pose(rng), random_pose(rng)
    u = ControlPair(0.1, 0.2)
    with pytest.raises(ValueError):
        left_error_rate(right_error(x, xd), u, u)
    with pytest.raises(ValueError):
        right_error_rate(left_error(x, xd), u, u, xd)


def test_right_error_rate_stays_tangent(rng):
    # dE/dt must equal E * wedge(something): E^-1 dE/dt has se(2) pattern
    for _ in range(50):
        x, xd = random_pose(rng), random_pose(rng)
        u = ControlPair(*rng.standard_normal(2))
        ud = ControlPair(*rng.standard_normal(2))
        e = right_error(x, xd)
        rate = right_error_rate(e, u, ud, xd)
        body = np.linalg.inv(e.pose.to_matrix()) @ rate
        assert abs(body[0, 0]) < 1e-12
        assert abs(body[0, 1] + body[1, 0]) < 1e-12
        assert np.allclose(body[2, :], 0.0, atol=1e-12)


def test_tracking_distance(rng):
    x = Pose(0.3, np.array([1.0, 2.0]))
    xd = Pose(0.1, np.array([1.0, 2.0]))
    assert abs(tracking_distance(x, xd) - 0.2) < 1e-12
    for _ in range(100):
        a, b = random_pose(rng), random_pose(rng)
        d = tracking_distance(a, b)
        assert d >= 0.0
        assert abs(tracking_distance(a, a)) == 0.0
