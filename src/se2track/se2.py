"""SE(2) group and se(2) algebra arithmetic.

Poses are stored as (heading angle, position) rather than raw 3x3
matrices, so the rotation block stays exactly orthogonal and no
re-orthogonalization is ever needed. Matrices are produced on demand.

Conventions:
    - heading angle theta is normalized to [-pi, pi)
    - algebra coordinates are ordered (Omega, vx, vy)
    - the weighted Frobenius pairing on se(2) uses S = diag(2, 1, 1)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Weight of the Frobenius inner product in (Omega, vx, vy) coordinates:
# the skew pair gets counted twice in trace(A^T B).
S_WEIGHT = np.diag([2.0, 1.0, 1.0])

# Embeds a control (Omega, v) into algebra coordinates (Omega, v, 0).
B_SELECT = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def wrap_angle(theta: float) -> float:
    """Normalize an angle (or an array of angles) to [-pi, pi)."""
    return (theta + math.pi) % TWO_PI - math.pi


def cos_sin(theta: np.ndarray) -> tuple:
    """Elementwise (cos, sin) of an angle array, computed through math.

    numpy picks its sin/cos kernels per CPU, so going through math keeps
    array code bit-identical to the scalar code on every machine.
    """
    th = np.asarray(theta, dtype=float).tolist()
    return np.array(list(map(math.cos, th))), np.array(list(map(math.sin, th)))


def stack_matrices(rows) -> np.ndarray:
    """(n, r, c) array from an r x c nested list of scalars and length-n arrays."""
    shape = np.broadcast(*[entry for row in rows for entry in row]).shape
    out = np.empty(shape + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def pose_matrix(rows, theta, px, py) -> np.ndarray:
    """The matrix rows(cos theta, sin theta, px, py) at one pose or at a stack of poses.

    A float theta gives one matrix; an array of angles gives the matrices
    stacked on axis 0, each equal to its float value bit for bit.
    """
    if np.ndim(theta) == 0:
        return np.array(rows(math.cos(theta), math.sin(theta), px, py))
    return stack_matrices(rows(*cos_sin(theta), px, py))


def rot(theta: float) -> np.ndarray:
    """2x2 rotation matrix for angle theta (radians)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True, eq=False)
class Pose:
    """An SE(2) element: heading angle (rad) plus planar position (m).

    theta is wrapped to [-pi, pi) on construction; p is stored as a
    float64 copy so instances are safe to share.
    """

    theta: float
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))
        object.__setattr__(self, "p", np.array(self.p, dtype=float))
        if self.p.shape != (2,):
            raise ValueError(f"position must be a 2-vector, got shape {self.p.shape}")

    @classmethod
    def identity(cls) -> "Pose":
        return cls(0.0, np.zeros(2))

    def rotation(self) -> np.ndarray:
        return rot(self.theta)

    def to_matrix(self) -> np.ndarray:
        """3x3 homogeneous matrix [[R, p], [0, 1]]."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array(
            [[c, -s, self.p[0]], [s, c, self.p[1]], [0.0, 0.0, 1.0]]
        )

    @classmethod
    def from_matrix(cls, M: np.ndarray) -> "Pose":
        """Recover (theta, p) from a homogeneous SE(2) matrix."""
        return cls(math.atan2(M[1, 0], M[0, 0]), M[:2, 2])

    def isclose(self, other: "Pose", tol: float = 1e-12) -> bool:
        """Equality up to tol, with the angle compared on the circle."""
        dth = abs(wrap_angle(self.theta - other.theta))
        dth = min(dth, TWO_PI - dth)
        return dth <= tol and float(np.max(np.abs(self.p - other.p))) <= tol

    def __repr__(self):
        return f"Pose(theta={self.theta!r}, p=({float(self.p[0])!r}, {float(self.p[1])!r}))"


@dataclass(frozen=True)
class ControlPair:
    """Unicycle input u = (turn rate Omega, forward speed v)."""

    omega: float
    v: float

    def as_array(self) -> np.ndarray:
        return np.array([self.omega, self.v])

    def embed(self) -> np.ndarray:
        """Algebra coordinates B @ u = (Omega, v, 0)."""
        return np.array([self.omega, self.v, 0.0])


def wedge(x) -> np.ndarray:
    """R^3 coordinates (Omega, vx, vy) -> se(2) matrix."""
    om, vx, vy = float(x[0]), float(x[1]), float(x[2])
    return np.array([[0.0, -om, vx], [om, 0.0, vy], [0.0, 0.0, 0.0]])


def vee(M: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """se(2) matrix -> R^3 coordinates; inverse of wedge.

    Rejects matrices that violate the se(2) pattern (zero bottom row,
    skew upper-left block, zero diagonal) beyond tol.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {M.shape}")
    defect = max(
        abs(M[2, 0]), abs(M[2, 1]), abs(M[2, 2]),
        abs(M[0, 0]), abs(M[1, 1]), abs(M[0, 1] + M[1, 0]),
    )
    if defect > tol:
        raise ValueError(f"matrix is not in se(2): pattern defect {defect:.3e} > {tol:.3e}")
    return se2_project(M)


def compose(g: Pose, h: Pose) -> Pose:
    """Group product g * h (matrix product of the homogeneous forms)."""
    return Pose(g.theta + h.theta, g.p + rot(g.theta) @ h.p)


def inverse(g: Pose) -> Pose:
    """Group inverse: (theta, p) -> (-theta, -R(-theta) p)."""
    return Pose(-g.theta, -(rot(-g.theta) @ g.p))


def adjoint_matrix(g: Pose) -> np.ndarray:
    """3x3 matrix of Ad_g on algebra coordinates.

    Satisfies adjoint_matrix(g) @ x == vee(G @ wedge(x) @ G^-1) for
    G = g.to_matrix(). Block form [[1, 0], [-1x p, R]].
    """
    c, s = math.cos(g.theta), math.sin(g.theta)
    px, py = g.p
    return np.array(
        [[1.0, 0.0, 0.0], [py, c, -s], [-px, s, c]]
    )


def _jacobian_coefficients(om: float) -> tuple:
    """(a, b) = (sin(om) / om, (1 - cos(om)) / om) of the translation Jacobian [[a, -b], [b, a]].

    b is computed as 2 sin(om/2)^2 / om, which does not cancel near 0.
    """
    if om == 0.0:
        return 1.0, 0.0
    s = math.sin(0.5 * om)
    return math.sin(om) / om, 2.0 * s * s / om


def exp_se2(x) -> Pose:
    """Exponential map from algebra coordinates to a Pose."""
    om, vx, vy = float(x[0]), float(x[1]), float(x[2])
    a, b = _jacobian_coefficients(om)
    return Pose(om, np.array([a * vx - b * vy, b * vx + a * vy]))


def log_se2(g: Pose, strict: bool = False) -> np.ndarray:
    """Logarithm map; inverse of exp_se2 on the principal branch.

    The returned angle is the stored theta in [-pi, pi). At theta = -pi
    the branch is not unique; pass strict=True to reject that case.
    """
    om = g.theta
    if strict and math.pi - abs(om) < 1e-9:
        raise ValueError("log branch not unique at theta = +/-pi")
    a, b = _jacobian_coefficients(om)
    d = a * a + b * b
    vx = (a * g.p[0] + b * g.p[1]) / d
    vy = (-b * g.p[0] + a * g.p[1]) / d
    return np.array([om, vx, vy])


def se2_project(M: np.ndarray) -> np.ndarray:
    """Project an arbitrary 3x3 matrix onto se(2), in R^3 coordinates.

    Takes the skew part of the upper-left 2x2 block, keeps the
    translation column, zeroes the bottom row.
    """
    M = np.asarray(M, dtype=float)
    return np.array([0.5 * (M[1, 0] - M[0, 1]), M[0, 2], M[1, 2]])


def frobenius_weighted(x, y) -> float:
    """Frobenius pairing of wedge(x) and wedge(y): <S x, y> with S = diag(2,1,1)."""
    return 2.0 * float(x[0]) * float(y[0]) + float(x[1]) * float(y[1]) + float(x[2]) * float(y[2])
