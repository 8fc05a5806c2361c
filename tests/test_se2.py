import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from se2track import (
    ControlPair,
    Pose,
    adjoint_matrix,
    compose,
    exp_se2,
    frobenius_weighted,
    inverse,
    log_se2,
    rot,
    se2_project,
    vee,
    wedge,
    wrap_angle,
)


def random_pose(rng, scale=4.0):
    return Pose(rng.uniform(-math.pi, math.pi), scale * rng.standard_normal(2))


def test_wrap_angle_range_and_periodicity(rng):
    for _ in range(500):
        th = rng.uniform(-50.0, 50.0)
        w = wrap_angle(th)
        assert -math.pi <= w < math.pi
        # same point on the circle
        assert abs(math.sin(w) - math.sin(th)) < 1e-12
        assert abs(math.cos(w) - math.cos(th)) < 1e-12
    assert wrap_angle(math.pi) == -math.pi
    assert wrap_angle(0.0) == 0.0


def test_pose_matrix_round_trip(rng):
    for _ in range(200):
        g = random_pose(rng)
        g2 = Pose.from_matrix(g.to_matrix())
        assert g.isclose(g2, tol=1e-12)


def test_pose_rotation_is_orthogonal(rng):
    for _ in range(100):
        R = random_pose(rng).rotation()
        assert np.allclose(R.T @ R, np.eye(2), atol=1e-15)
        assert np.linalg.det(R) > 0


def test_pose_rejects_bad_shape():
    with pytest.raises(ValueError):
        Pose(0.0, np.zeros(3))


def test_wedge_vee_round_trip(rng):
    for _ in range(200):
        x = rng.standard_normal(3) * 3.0
        assert np.allclose(vee(wedge(x)), x, atol=0.0)


def test_vee_rejects_non_se2_pattern():
    M = np.zeros((3, 3))
    M[2, 0] = 1e-6  # nonzero bottom row
    with pytest.raises(ValueError):
        vee(M)
    M = np.zeros((3, 3))
    M[0, 1] = 1.0
    M[1, 0] = 1.0  # symmetric, not skew
    with pytest.raises(ValueError):
        vee(M)
    with pytest.raises(ValueError):
        vee(np.zeros((2, 2)))


def test_compose_matches_matrix_product(rng):
    for _ in range(200):
        g, h = random_pose(rng), random_pose(rng)
        assert np.allclose(compose(g, h).to_matrix(), g.to_matrix() @ h.to_matrix(),
                           atol=1e-12)


def test_inverse_matches_matrix_inverse(rng):
    for _ in range(200):
        g = random_pose(rng)
        assert np.allclose(inverse(g).to_matrix(), np.linalg.inv(g.to_matrix()),
                           atol=1e-12)
        assert compose(g, inverse(g)).isclose(Pose.identity(), tol=1e-12)


def test_adjoint_matches_conjugation(rng):
    # Ad_g in coordinates must agree with G x^ G^-1 computed with matrices.
    for _ in range(200):
        g = random_pose(rng)
        x = rng.standard_normal(3) * 2.0
        G = g.to_matrix()
        conj = G @ wedge(x) @ np.linalg.inv(G)
        assert np.allclose(adjoint_matrix(g) @ x, vee(conj, tol=1e-8), atol=1e-10)


def test_adjoint_block_values():
    Ad = adjoint_matrix(Pose(0.0, np.array([1.0, 0.0])))
    assert np.allclose(Ad, [[1, 0, 0], [0, 1, 0], [-1, 0, 1]], atol=0.0)
    Ad = adjoint_matrix(Pose.identity())
    assert np.allclose(Ad, np.eye(3), atol=0.0)


def test_adjoint_is_group_morphism(rng):
    for _ in range(100):
        g, h = random_pose(rng), random_pose(rng)
        assert np.allclose(adjoint_matrix(compose(g, h)),
                           adjoint_matrix(g) @ adjoint_matrix(h), atol=1e-12)


finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


poses = st.builds(Pose, st.floats(-math.pi, math.pi, exclude_max=True),
                  st.tuples(finite, finite))


@settings(max_examples=300, deadline=None)
@given(poses, poses, poses)
def test_compose_is_associative(f, g, h):
    assert compose(compose(f, g), h).isclose(compose(f, compose(g, h)), tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(poses)
def test_inverse_cancels_on_both_sides(g):
    assert compose(g, inverse(g)).isclose(Pose.identity(), tol=1e-12)
    assert compose(inverse(g), g).isclose(Pose.identity(), tol=1e-12)


@given(poses)
def test_a_pose_repr_evaluates_to_the_pose(g):
    assert eval(repr(g), {"Pose": Pose}).isclose(g)


@settings(max_examples=300, deadline=None)
@given(st.floats(-math.pi + 1e-3, math.pi - 1e-3), finite, finite,
       st.floats(-math.pi, math.pi, exclude_max=True))
@example(om=1e-8, vx=0.0, vy=1.0, theta=0.0)  # (1 - cos(om)) / om cancelled to 0 here
def test_exp_log_round_trip(om, vx, vy, theta):
    # log inverts exp on the principal branch, away from the +/-pi branch
    # point; both go through the small-angle series near 0
    x = np.array([om, vx, vy])
    assert np.allclose(log_se2(exp_se2(x), strict=True), x, atol=1e-10)
    g = Pose(theta, (vx, vy))
    assert exp_se2(log_se2(g)).isclose(g, tol=1e-10)


def test_exp_small_angle_series():
    # near Omega = 0 the series branch must join the closed form smoothly
    for om in (0.0, 1e-12, 1e-9, 1e-7, 1e-5):
        g = exp_se2([om, 1.0, -2.0])
        # exact integral of the constant twist
        if om == 0.0:
            exact = np.array([1.0, -2.0])
        else:
            a, b = math.sin(om) / om, (1.0 - math.cos(om)) / om
            exact = np.array([a * 1.0 - b * (-2.0), b * 1.0 + a * (-2.0)])
        assert np.allclose(g.p, exact, atol=1e-12)


def test_exp_matches_matrix_exponential(rng):
    from scipy.linalg import expm

    for _ in range(50):
        x = rng.standard_normal(3) * 1.5
        assert np.allclose(exp_se2(x).to_matrix(), expm(wedge(x)), atol=1e-10)


def test_log_strict_rejects_branch_point():
    g = Pose(math.pi, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        log_se2(g, strict=True)
    # non-strict returns the principal value
    assert abs(log_se2(g)[0]) == math.pi


def test_se2_project_recovers_algebra_part(rng):
    # on exact se(2) matrices the projection is vee
    for _ in range(100):
        x = rng.standard_normal(3)
        assert np.allclose(se2_project(wedge(x)), x, atol=0.0)
    # projection is idempotent in coordinates for arbitrary matrices
    M = rng.standard_normal((3, 3))
    p = se2_project(M)
    assert np.allclose(se2_project(wedge(p)), p, atol=0.0)


def test_se2_project_is_frobenius_orthogonal(rng):
    # <M - P(M), y^> = 0 for every algebra element y (plain trace pairing)
    for _ in range(100):
        M = rng.standard_normal((3, 3))
        y = rng.standard_normal(3)
        resid = M - wedge(se2_project(M))
        assert abs(np.sum(resid * wedge(y))) < 1e-12


def test_frobenius_weighted_equals_matrix_trace(rng):
    # the (2,1,1) weighting is exactly trace(x^T y^) on wedge matrices
    for _ in range(200):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert abs(frobenius_weighted(x, y) - np.sum(wedge(x) * wedge(y))) < 1e-12


def test_control_pair_embedding():
    u = ControlPair(0.3, -1.2)
    assert np.allclose(u.embed(), [0.3, -1.2, 0.0], atol=0.0)
    assert np.allclose(u.as_array(), [0.3, -1.2], atol=0.0)


def test_rot_values():
    assert np.allclose(rot(0.0), np.eye(2), atol=0.0)
    assert np.allclose(rot(math.pi / 2), [[0, -1], [1, 0]], atol=1e-15)
