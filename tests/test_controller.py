import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se2track import (
    ControlPair,
    Gains,
    GroupError,
    KanayamaGains,
    Pose,
    correction_component_form,
    correction_matrix_form,
    kanayama_control,
    left_error,
    lyapunov_gradient,
    lyapunov_rate,
    regressor,
    right_error,
    total_control,
)
from se2track.errors import ErrorKind


def random_pose(rng, scale=3.0):
    return Pose(rng.uniform(-math.pi, math.pi), scale * rng.standard_normal(2))


def test_matrix_and_component_forms_agree(rng):
    for _ in range(300):
        x, xd = random_pose(rng), random_pose(rng)
        e = right_error(x, xd)
        um = correction_matrix_form(e, xd)
        uc = correction_component_form(e.theta, e.p, xd)
        assert abs(um.omega - uc.omega) < 1e-12
        assert abs(um.v - uc.v) < 1e-12


def test_correction_is_minus_regressor_times_gradient(rng):
    for _ in range(300):
        x, xd = random_pose(rng), random_pose(rng)
        e = right_error(x, xd)
        u = correction_component_form(e.theta, e.p, xd)
        w = -(regressor(xd) @ lyapunov_gradient(e))
        assert np.allclose([u.omega, u.v], w, atol=1e-12)


def test_correction_vanishes_at_identity(rng):
    xd = random_pose(rng)
    ident = GroupError(ErrorKind.SPATIAL, Pose.identity())
    u = correction_matrix_form(ident, xd)
    assert u.omega == 0.0 and u.v == 0.0
    # composing x = xd with xd^-1 leaves only roundoff in the error
    e = right_error(xd, xd)
    u = correction_matrix_form(e, xd)
    assert abs(u.omega) < 1e-13 and abs(u.v) < 1e-13


def test_quarter_turn_example():
    # heading off by +pi/2, no position error, reference at the origin:
    # only the heading term fires and it pushes Omega down by 2 sin(pi/2)
    xd = Pose(0.0, np.zeros(2))
    x = Pose(math.pi / 2, np.zeros(2))
    u = correction_matrix_form(right_error(x, xd), xd)
    assert abs(u.omega - (-2.0)) < 1e-14
    assert abs(u.v) < 1e-14


def test_pure_position_error_drives_forward_speed():
    # reference at origin facing +x, vehicle 1 m behind: v_tilde must be +1
    xd = Pose(0.0, np.zeros(2))
    x = Pose(0.0, np.array([-1.0, 0.0]))
    u = correction_matrix_form(right_error(x, xd), xd)
    assert abs(u.v - 1.0) < 1e-14
    assert abs(u.omega) < 1e-14


def test_correction_requires_spatial_error(rng):
    x, xd = random_pose(rng), random_pose(rng)
    with pytest.raises(ValueError):
        correction_matrix_form(left_error(x, xd), xd)
    with pytest.raises(ValueError):
        lyapunov_gradient(left_error(x, xd))


def test_total_control_is_feedforward_plus_scaled_correction(rng):
    for _ in range(100):
        x, xd = random_pose(rng), random_pose(rng)
        ud = ControlPair(*rng.standard_normal(2))
        g = Gains(k_omega=2.5, k_v=0.5)
        u = total_control(x, xd, ud, g)
        ut = correction_component_form(*_err(x, xd), xd)
        assert abs(u.omega - (ud.omega + 2.5 * ut.omega)) < 1e-12
        assert abs(u.v - (ud.v + 0.5 * ut.v)) < 1e-12


def _err(x, xd):
    e = right_error(x, xd)
    return e.theta, e.p


def test_total_control_default_gains_are_unit(rng):
    x, xd = random_pose(rng), random_pose(rng)
    ud = ControlPair(0.2, -0.7)
    u1 = total_control(x, xd, ud)
    u2 = total_control(x, xd, ud, Gains(1.0, 1.0))
    assert u1.omega == u2.omega and u1.v == u2.v


def test_gains_validation():
    with pytest.raises(ValueError):
        Gains(k_omega=-0.1)
    with pytest.raises(ValueError):
        Gains(k_v=-1.0)
    Gains(0.0, 0.0)  # zero is allowed (disables the correction)
    with pytest.raises(ValueError):
        KanayamaGains(k_x=0.0)
    with pytest.raises(ValueError):
        KanayamaGains(k_theta=-2.0)


def test_regressor_values(rng):
    A = regressor(Pose.identity())
    assert np.allclose(A, [[2, 0, 0], [0, 1, 0]], atol=0.0)
    for _ in range(100):
        xd = random_pose(rng)
        A = regressor(xd)
        # squared Frobenius norm has the closed form 5 + |p_d|^2
        assert abs(np.sum(A * A) - (5.0 + float(xd.p @ xd.p))) < 1e-12


def test_gradient_vanishes_only_at_critical_points(rng):
    xd = random_pose(rng)
    # identity (exact, and computed with its compose/inverse roundoff)
    assert np.array_equal(
        lyapunov_gradient(GroupError(ErrorKind.SPATIAL, Pose.identity())),
        np.zeros(3))
    g = lyapunov_gradient(right_error(xd, xd))
    assert np.allclose(g, 0.0, atol=1e-14)
    # antipodal saddle: heading flipped, position mirrored through the
    # origin so the spatial position error vanishes (p = R(pi) p_d)
    x = Pose(xd.theta + math.pi, -xd.p)
    e = right_error(x, xd)
    assert np.allclose(e.p, 0.0, atol=1e-12)
    assert np.allclose(lyapunov_gradient(e), 0.0, atol=1e-12)
    # generic points give a nonzero gradient
    hits = 0
    for _ in range(100):
        e = right_error(random_pose(rng), xd)
        if np.linalg.norm(lyapunov_gradient(e)) > 1e-8:
            hits += 1
    assert hits == 100


def test_lyapunov_rate_closed_form(rng):
    for _ in range(200):
        x, xd = random_pose(rng), random_pose(rng)
        e = right_error(x, xd)
        u = correction_component_form(e.theta, e.p, xd)
        rate = lyapunov_rate(e, xd)
        assert rate <= 0.0
        # the rate is exactly minus the squared correction magnitude
        assert abs(rate + (u.omega**2 + u.v**2)) < 1e-12


finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
poses = st.builds(Pose, st.floats(-math.pi, math.pi), st.tuples(finite, finite))


@settings(max_examples=200, deadline=None)
@given(poses, poses)
def test_lyapunov_rate_is_never_positive(x, xd):
    assert lyapunov_rate(right_error(x, xd), xd) <= 0.0


def test_correction_depends_on_reference_position(rng):
    # Same spatial error, two reference poses differing by a translation:
    # the correction genuinely uses p_d (it is not a function of E alone).
    e = right_error(Pose(0.4, np.array([1.0, -0.5])), Pose.identity())
    assert e.kind is ErrorKind.SPATIAL
    xd1 = Pose(0.2, np.array([0.0, 0.0]))
    xd2 = Pose(0.2, np.array([10.0, 0.0]))
    u1 = correction_matrix_form(GroupError(ErrorKind.SPATIAL, e.pose), xd1)
    u2 = correction_matrix_form(GroupError(ErrorKind.SPATIAL, e.pose), xd2)
    assert abs(u1.omega - u2.omega) > 1e-3


def test_kanayama_single_term_activation():
    ud = ControlPair(0.3, 1.5)
    g = KanayamaGains()  # (2, 8, 4)
    # zero error: pure feedforward
    e0 = GroupError(ErrorKind.BODY, Pose.identity())
    u = kanayama_control(e0, ud, g)
    assert abs(u.omega - ud.omega) < 1e-14 and abs(u.v - ud.v) < 1e-14
    # reference 0.25 m ahead (vehicle behind): k_x speeds the vehicle up
    ex = GroupError(ErrorKind.BODY, Pose(0.0, np.array([-0.25, 0.0])))
    u = kanayama_control(ex, ud, g)
    assert abs(u.v - (ud.v + 2.0 * 0.25)) < 1e-14
    assert abs(u.omega - ud.omega) < 1e-14
    # reference 0.5 m to the left: k_y (scaled by v_d) turns toward it
    ey = GroupError(ErrorKind.BODY, Pose(0.0, np.array([0.0, -0.5])))
    u = kanayama_control(ey, ud, g)
    assert abs(u.omega - (ud.omega + 1.5 * 8.0 * 0.5)) < 1e-14
    assert abs(u.v - ud.v) < 1e-14
    # vehicle heading 0.2 rad ahead of the reference heading: k_theta
    # turns back, and the speed term shrinks by the cosine
    eth = GroupError(ErrorKind.BODY, Pose(0.2, np.zeros(2)))
    u = kanayama_control(eth, ud, g)
    assert abs(u.omega - (ud.omega - 1.5 * 4.0 * math.sin(0.2))) < 1e-14
    assert abs(u.v - ud.v * math.cos(0.2)) < 1e-14


def test_kanayama_requires_body_error(rng):
    x, xd = random_pose(rng), random_pose(rng)
    with pytest.raises(ValueError):
        kanayama_control(right_error(x, xd), ControlPair(0.0, 1.0))
