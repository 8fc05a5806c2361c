"""Persistent-excitation certification for time-varying regressors.

A regressor F(t) is persistently exciting (PE) when every sliding
window of length T carries energy in all directions:

    integral_t^{t+T} F(tau)^T F(tau) dtau  >=  epsilon * Id,  epsilon > 0.

Numerically we can only scan a finite horizon on a grid of window start
times; the report records horizon and resolution so the certificate is
explicit about what was checked.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.integrate import simpson

from .controller import regressor, regressor_on_grid
from .se2 import Pose, wrap_angle
from .trajectories import DesiredTrajectory, _require_positive, ellipse_trajectory, on_grid


@dataclass(frozen=True)
class PEReport:
    """Result of a sliding-window excitation scan.

    epsilon is the smallest eigenvalue of the window Gram seen over the
    scanned horizon; epsilon > 0 certifies PE at this resolution.
    """

    window_T: float
    epsilon: float
    horizon: float
    grid_points_per_window: int

    @property
    def certifies_pe(self) -> bool:
        return self.epsilon > 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "certifies_pe": self.certifies_pe}


def _default_window(traj: DesiredTrajectory) -> float:
    """The PE window length of a reference: one period, or 5 s if aperiodic."""
    return traj.period if traj.period is not None else 5.0


def window_gram(F, t: float, T: float, n: int = 401) -> np.ndarray:
    """Simpson approximation of integral_t^{t+T} F(tau)^T F(tau) dtau.

    n is the number of sample points (odd, >= 3, so the interval count
    is even as composite Simpson requires). The result is symmetrized;
    the raw quadrature is symmetric up to rounding anyway. F is
    evaluated through on_grid, so its array form is used when it has
    one.
    """
    if T <= 0.0:
        raise ValueError("window length T must be positive")
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson sample count n must be odd and >= 3")
    taus = np.linspace(t, t + T, n)
    mats = on_grid(F, taus)
    G = simpson(mats.transpose(0, 2, 1) @ mats, x=taus, axis=0)
    return 0.5 * (G + G.T)


def pe_epsilon(F, horizon: float, T: float, windows: int = 64, n: int = 401) -> PEReport:
    """Scan window start times over [0, horizon - T] and report the worst Gram.

    epsilon = min over starts of the smallest eigenvalue of
    window_gram(F, start, T, n). Deterministic for fixed arguments.
    """
    _require_positive("window length T", T)
    _require_positive("horizon", horizon)
    if horizon < T:
        raise ValueError("horizon must be at least one window long")
    if windows < 1:
        raise ValueError(f"window count must be at least 1, got {windows}")
    starts = np.linspace(0.0, horizon - T, int(windows))
    eps = math.inf
    for s in starts:
        G = window_gram(F, float(s), T, n)
        eps = min(eps, float(np.linalg.eigvalsh(G)[0]))
    return PEReport(window_T=T, epsilon=eps, horizon=horizon, grid_points_per_window=n)


def ellipse_pe_closed_form(a: float, b: float, h: float) -> np.ndarray:
    """One-period window Gram of the uniform-heading ellipse regressor.

    For the centered ellipse p_d = (a cos(ht), b sin(ht)) traversed with
    uniform heading theta_d = ht, the Gram over one full period 2*pi/h
    is exactly diagonal:

        diag(8*pi/h, (b^2 + 1)*pi/h, (a^2 + 1)*pi/h).

    Note the uniform-heading convention: for a != b this heading law is
    not the one a unicycle actually needs to follow the ellipse (see
    ellipse_trajectory), so this closed form pairs with
    uniform_heading_ellipse_regressor, not with the simulated reference.
    """
    if h == 0.0:
        raise ValueError("ellipse rate h must be nonzero")
    return np.diag([8.0 * math.pi / h, (b * b + 1.0) * math.pi / h, (a * a + 1.0) * math.pi / h])


def uniform_heading_ellipse_regressor(a: float, b: float, h: float, origin=(0.0, 0.0)):
    """Regressor t -> 2x3 matrix for the uniform-heading ellipse convention.

    Pose: theta_d = ht, p_d that of ellipse_trajectory(a, b, h, origin),
    which rejects degenerate axes and rates. This is the convention
    under which ellipse_pe_closed_form is exact.
    """
    traj = ellipse_trajectory(a, b, h, origin)

    def F(t: float) -> np.ndarray:
        _, px, py, _, _ = traj.state_at(t)
        return regressor(Pose(h * t, np.array([px, py])))

    def F_on_grid(ts: np.ndarray) -> np.ndarray:
        _, px, py, _, _ = traj.sample(ts)
        return regressor_on_grid(wrap_angle(h * ts), px, py)

    F.array_form = F_on_grid
    return F


def controller_regressor(traj: DesiredTrajectory):
    """Regressor t -> 2x3 matrix along a reference trajectory.

    This is the map whose persistent excitation the convergence theory
    requires; feed it to pe_epsilon or window_gram.
    """

    def F(t: float) -> np.ndarray:
        return regressor(traj.pose_at(t))

    def F_on_grid(ts: np.ndarray) -> np.ndarray:
        theta, px, py, _, _ = traj.sample(ts)
        return regressor_on_grid(wrap_angle(theta), px, py)

    F.array_form = F_on_grid
    return F
