"""Body-fixed and spatial tracking errors on SE(2).

Two ways to compare the vehicle pose X against a reference pose X_d:

    body-fixed error   E = X_d^-1 X     (reference frame)
    spatial error      E = X X_d^-1    (world frame)

Both equal the identity exactly when X == X_d, but they evolve very
differently along trajectories: under pure feedforward the spatial
error is frozen, while the body-fixed error gets stirred by the
reference input. The tracking Lyapunov function below is built from
the spatial error.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .se2 import (
    ControlPair,
    Pose,
    adjoint_matrix,
    compose,
    inverse,
    wedge,
    wrap_angle,
)


class ErrorKind(enum.Enum):
    BODY = "body"
    SPATIAL = "spatial"


@dataclass(frozen=True)
class GroupError:
    """A tracking error pose tagged with the convention that produced it."""

    kind: ErrorKind
    pose: Pose

    @property
    def theta(self) -> float:
        return self.pose.theta

    @property
    def p(self) -> np.ndarray:
        return self.pose.p

    def is_identity(self, tol: float = 1e-12) -> bool:
        return self.pose.isclose(Pose.identity(), tol)


def left_error(actual: Pose, desired: Pose) -> GroupError:
    """Body-fixed error X_d^-1 X, expressed in the reference frame.

    Components: heading error theta - theta_d, position error
    R_d^T (p - p_d).
    """
    return GroupError(ErrorKind.BODY, compose(inverse(desired), actual))


def right_error(actual: Pose, desired: Pose) -> GroupError:
    """Spatial error X X_d^-1, expressed in the world frame.

    Components: heading error theta - theta_d, position error
    p - R R_d^T p_d.
    """
    return GroupError(ErrorKind.SPATIAL, compose(actual, inverse(desired)))


def left_error_rate(err: GroupError, u: ControlPair, u_d: ControlPair) -> np.ndarray:
    """d/dt of the body-fixed error matrix: -U_d E + E U.

    Both the actual input u and the reference input u_d enter, so the
    body-fixed error keeps moving even when u matches u_d exactly
    (unless the error is already the identity).
    """
    if err.kind is not ErrorKind.BODY:
        raise ValueError("left_error_rate expects a body-fixed error")
    E = err.pose.to_matrix()
    return -wedge(u_d.embed()) @ E + E @ wedge(u.embed())


def right_error_rate(err: GroupError, u: ControlPair, u_d: ControlPair, desired: Pose) -> np.ndarray:
    """d/dt of the spatial error matrix: E (Ad_{X_d}(B(u - u_d)))^.

    Only the input mismatch u - u_d appears, conjugated into the world
    frame along the reference. With u == u_d the rate is exactly zero:
    feedforward alone never moves the spatial error.
    """
    if err.kind is not ErrorKind.SPATIAL:
        raise ValueError("right_error_rate expects a spatial error")
    du = np.array([u.omega - u_d.omega, u.v - u_d.v, 0.0])
    return err.pose.to_matrix() @ wedge(adjoint_matrix(desired) @ du)


def lyapunov(err: GroupError) -> float:
    """Tracking Lyapunov value 2(1 - cos theta_E) + 0.5 |p_E|^2.

    Equals half the squared weighted Frobenius distance between the
    error matrix and the identity. Zero iff the error is the identity;
    maximal in angle at theta_E = pi, where the value is 4 + 0.5|p_E|^2.
    """
    return _lyapunov_cos(math.cos(err.theta), float(err.p[0]), float(err.p[1]))


def _lyapunov_cos(cE: float, pEx: float, pEy: float) -> float:
    """lyapunov from cE = cos(theta_E) and p_E = (pEx, pEy), as plain floats."""
    return 2.0 * (1.0 - cE) + 0.5 * (pEx * pEx + pEy * pEy)


def _spatial_position(cE: float, sE: float, px: float, py: float, pdx: float,
                      pdy: float) -> tuple:
    """Position part p - R(theta_E) p_d of the spatial error, on plain floats.

    cE and sE are cos and sin of theta_E = theta - theta_d, wrapped or
    not: the two differ in sin/cos in the last bit.
    """
    return px - (cE * pdx - sE * pdy), py - (sE * pdx + cE * pdy)


def tracking_distance(actual: Pose, desired: Pose) -> float:
    """Euclidean-style distance sqrt(theta_err^2 + |p - p_d|^2).

    Uses the wrapped heading difference and the raw position gap;
    convention-free, for reporting and convergence checks.
    """
    dth = wrap_angle(actual.theta - desired.theta)
    dp = actual.p - desired.p
    return math.sqrt(dth * dth + float(dp @ dp))
