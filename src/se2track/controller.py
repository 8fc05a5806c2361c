"""Tracking controllers for the kinematic unicycle.

The main controller steers the spatial error E = X X_d^-1 to the
identity by descending the tracking Lyapunov function. Its correction
term is the projected gradient of that function pulled back through the
input map, and it factors as

    u_tilde = -(regressor of the reference pose) @ (gradient of L at E)

which is the form used by the excitation and linearization modules. A
classic body-frame baseline controller is included for comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ErrorKind, GroupError, right_error
from .se2 import B_SELECT, S_WEIGHT, ControlPair, Pose, adjoint_matrix, pose_matrix, se2_project
from .trajectories import _require_positive, require_finite


@dataclass(frozen=True)
class Gains:
    """Diagonal scaling of the correction term; (1, 1) is the plain law."""

    k_omega: float = 1.0
    k_v: float = 1.0

    def __post_init__(self):
        require_finite("gains", self.k_omega, self.k_v)
        if self.k_omega < 0.0 or self.k_v < 0.0:
            raise ValueError("gains must be non-negative")


@dataclass(frozen=True)
class KanayamaGains:
    """Gains of the body-frame baseline controller; all must be positive."""

    k_x: float = 2.0
    k_y: float = 8.0
    k_theta: float = 4.0

    def __post_init__(self):
        for name, value in vars(self).items():
            _require_positive(f"baseline gain {name}", value)


def correction_scalars(theta_E, pEx, pEy, theta_d, pdx, pdy):
    """Correction (omega_tilde, v_tilde) from raw error/reference scalars.

    This is the component form of the control law, kept free of array
    allocation; see _correction_scalars.
    """
    return _correction_scalars(math.cos(theta_E), math.sin(theta_E), pEx, pEy, theta_d, pdx, pdy)


def _correction_scalars(cE, sE, pEx, pEy, theta_d, pdx, pdy):
    """correction_scalars from cE = cos(theta_E) and sE = sin(theta_E).

    The simulation loop calls it per integration stage with the cosine
    and sine that it took for the spatial error, so each is taken once.
    """
    # R_E^T p_E: spatial position error rotated back through the heading error
    q1 = cE * pEx + sE * pEy
    q2 = -sE * pEx + cE * pEy
    omega_tilde = -2.0 * sE - (pdy * q1 - pdx * q2)
    v_tilde = -(math.cos(theta_d) * q1 + math.sin(theta_d) * q2)
    return omega_tilde, v_tilde


def correction_component_form(theta_E: float, p_E, xd: Pose) -> ControlPair:
    """Correction input from spatial-error components (theta_E, p_E)."""
    om, v = correction_scalars(
        theta_E, float(p_E[0]), float(p_E[1]), xd.theta, xd.p[0], xd.p[1]
    )
    return ControlPair(om, v)


def correction_matrix_form(e: GroupError, xd: Pose) -> ControlPair:
    """Correction input assembled from the full matrix expression.

    u_tilde = -B^T Ad(xd)^T S P_se2(E^T E - E^T), with E the spatial
    error matrix. Kept in matrix form as a cross-check for the
    component route; both must agree to machine precision.
    """
    if e.kind is not ErrorKind.SPATIAL:
        raise ValueError("the correction is defined on the spatial error")
    E = e.pose.to_matrix()
    grad = se2_project(E.T @ E - E.T)
    u = -(B_SELECT.T @ adjoint_matrix(xd).T @ S_WEIGHT @ grad)
    return ControlPair(u[0], u[1])


def total_control(x: Pose, xd: Pose, u_d: ControlPair, gains: Gains = Gains()) -> ControlPair:
    """Feedforward plus (gain-scaled) correction: u = u_d + K u_tilde."""
    e = right_error(x, xd)
    ut = correction_component_form(e.theta, e.p, xd)
    return ControlPair(
        u_d.omega + gains.k_omega * ut.omega, u_d.v + gains.k_v * ut.v
    )


def regressor(xd: Pose) -> np.ndarray:
    """2x3 input-map regressor of the reference pose.

    Rows: effect of (unit-scaled) gradient coordinates on (Omega, v).
    Equals B^T Ad(xd)^T S; its squared Frobenius norm is 5 + |p_d|^2.
    """
    return pose_matrix(_regressor_rows, xd.theta, *xd.p)


def _regressor_rows(c, s, px, py) -> list:
    return [[2.0, py, -px], [0.0, c, s]]


def lyapunov_gradient(e: GroupError) -> np.ndarray:
    """Projected gradient of the tracking Lyapunov function at a spatial error.

    Coordinates (sin theta_E, R_E^T p_E); vanishes exactly at the
    identity and at the antipodal equilibrium (theta_E = pi, p_E = 0).
    """
    if e.kind is not ErrorKind.SPATIAL:
        raise ValueError("the Lyapunov gradient is defined on the spatial error")
    c, s = math.cos(e.theta), math.sin(e.theta)
    px, py = e.p
    return np.array([s, c * px + s * py, -s * px + c * py])


def lyapunov_rate(e: GroupError, xd: Pose) -> float:
    """Closed-loop time derivative of the Lyapunov function (unit gains).

    Equals -|regressor(xd) @ lyapunov_gradient(e)|^2, hence never
    positive; zero exactly where the correction vanishes.
    """
    w = regressor(xd) @ lyapunov_gradient(e)
    return -float(w @ w)


def kanayama_control(e: GroupError, u_d: ControlPair, g: KanayamaGains = KanayamaGains()) -> ControlPair:
    """Body-frame baseline tracking law (Kanayama-style).

    Takes the body-fixed error and re-expresses it the way the classic
    law wants it: the gap *to* the reference, seen from the vehicle,

        (x_e, y_e) = -R(theta_E)^T p_E,   theta_e = -theta_E,

    then applies

        v     = v_d cos(theta_e) + k_x x_e
        Omega = Omega_d + v_d (k_y y_e + k_theta sin(theta_e)).

    x_e > 0 means the reference is ahead, so k_x speeds the vehicle up.
    Built entirely from the body-fixed error, the law cannot feel the
    inertial origin.
    """
    if e.kind is not ErrorKind.BODY:
        raise ValueError("the baseline law is defined on the body-fixed error")
    px, py = e.p
    # in the reference frame the reference sits at the identity, the vehicle at the error pose
    return ControlPair(*_kanayama_scalars(-e.theta, e.theta, -px, -py,
                                          u_d.omega, u_d.v, g.k_x, g.k_y, g.k_theta))


def _kanayama_scalars(theta_e, theta, dx, dy, omega_d, v_d, k_x, k_y, k_theta):
    """(Omega, v) of kanayama_control on plain floats, from the gaps to the reference.

    theta_e = theta_d - theta; (dx, dy) = p_d - p, which theta rotates into (x_e, y_e).
    """
    c = math.cos(theta)
    s = math.sin(theta)
    x_e = c * dx + s * dy
    y_e = -s * dx + c * dy
    v = v_d * math.cos(theta_e) + k_x * x_e
    omega = omega_d + v_d * (k_y * y_e + k_theta * math.sin(theta_e))
    return omega, v
