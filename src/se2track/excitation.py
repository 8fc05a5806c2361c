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
import sys
from dataclasses import asdict, dataclass

import numpy as np
from scipy.integrate import simpson

from .controller import _regressor_rows
from .controller import regressor  # noqa: F401 -- kept importable: bench/tracing.py patches it
from .trajectories import (DesiredTrajectory, _require_count, _require_positive, along,
                           ellipse_trajectory, on_grid, require_finite)

# Smallest Gram eigenvalue that counts as excitation: a reference with no
# excitation in some direction reads a rounding-level epsilon, of either sign.
PE_FLOOR = 1e-9

# pe_epsilon's window starts and the Simpson sample points of a window, unless given
_WINDOWS = 64
_POINTS = 401


@dataclass(frozen=True)
class PEReport:
    """Result of a sliding-window excitation scan.

    epsilon is the smallest eigenvalue of the window Gram seen over the
    scanned horizon; epsilon above PE_FLOOR certifies PE at this resolution.
    """

    window_T: float
    epsilon: float
    horizon: float
    grid_points_per_window: int

    @property
    def certifies_pe(self) -> bool:
        return self.epsilon > PE_FLOOR

    def to_dict(self) -> dict:
        return {**asdict(self), "certifies_pe": self.certifies_pe}


def _default_window(traj: DesiredTrajectory) -> float:
    """The PE window length of a reference: one period, or 5 s if aperiodic."""
    return traj.period if traj.period is not None else 5.0


def window_gram(F, t: float, T: float, n: int = _POINTS) -> np.ndarray:
    """Simpson approximation of integral_t^{t+T} F(tau)^T F(tau) dtau.

    t must be finite and T positive. n is the number of sample points
    (odd, >= 3, so the interval count is even as composite Simpson
    requires, and at most _MAX_STEPS, checked before any allocation).
    The square of the step T / (n - 1) must be a normal float, so the
    step about 1.5e-154 to 1.3e154: Simpson's weights hold that square,
    and past either end its middle weights vanish and the Gram would
    read a third of its value. The sample times must be strictly
    increasing: far enough from 0 that floats are spaced wider than the
    step, they repeat, and the Gram would weigh some times twice and
    others not at all.
    The result is symmetrized; the raw quadrature is symmetric up to
    rounding anyway. F is evaluated through on_grid, so its array form
    is used when it has one.
    """
    require_finite("window start t", t)
    _require_positive("window length T", T)
    _require_count("Simpson sample count n", n, 3)
    if n % 2 == 0:
        raise ValueError(f"Simpson sample count n must be odd, got {n}")
    step = T / (n - 1)
    if not sys.float_info.min <= step * step <= sys.float_info.max:
        raise ValueError(f"window length T = {T!r} over n = {n} points gives a step T / (n - 1) "
                         f"whose square floats cannot hold")
    taus = np.linspace(t, t + T, n)
    if not (taus[1:] > taus[:-1]).all():
        raise ValueError(f"the window at t = {t!r} of length T = {T!r} over n = {n} points has "
                         f"sample times that are not strictly increasing: floats near t are "
                         f"spaced wider than the step T / (n - 1)")
    mats = on_grid(F, taus)
    G = simpson(mats.transpose(0, 2, 1) @ mats, x=taus, axis=0)
    return 0.5 * (G + G.T)


def _window_starts(horizon: float, T: float, windows: int) -> np.ndarray:
    """The windows start times of pe_epsilon's scan, evenly spaced over [0, horizon - T].

    T and horizon must be positive, horizon at least T, and windows a
    count from 1 to _MAX_STEPS, checked before any allocation.
    """
    _require_positive("window length T", T)
    _require_positive("horizon", horizon)
    if horizon < T:
        raise ValueError("horizon must be at least one window long")
    _require_count("window count", windows, 1)
    return np.linspace(0.0, horizon - T, windows)


def pe_epsilon(F, horizon: float, T: float, windows: int = _WINDOWS,
               n: int = _POINTS) -> PEReport:
    """Scan window start times over [0, horizon - T] and report the worst Gram.

    epsilon = min over _window_starts of the smallest eigenvalue of
    window_gram(F, start, T, n). Deterministic for fixed arguments. A
    window whose Gram is not finite has no eigenvalues to speak of, so
    it makes epsilon NaN wherever it falls in the scan; every window is
    still built, so one that window_gram refuses raises its ValueError.
    """
    lams = []
    for s in _window_starts(horizon, T, windows):
        G = window_gram(F, float(s), T, n)
        # eigvalsh gives NaN on such a Gram, or fails to converge with an infinite entry off
        # its diagonal
        lams.append(float(np.linalg.eigvalsh(G)[0]) if np.isfinite(G).all() else math.nan)
    # np.min, unlike min, passes a NaN on
    eps = float(np.min(lams))
    return PEReport(window_T=T, epsilon=eps, horizon=horizon, grid_points_per_window=n)


def ellipse_pe_closed_form(a: float, b: float, h: float) -> np.ndarray:
    """One-period window Gram of the uniform-heading ellipse regressor.

    For the centered ellipse p_d = (a cos(ht), b sin(ht)) traversed with
    uniform heading theta_d = ht, the Gram over one full period 2*pi/|h|
    is exactly diagonal, in either direction of travel:

        diag(8*pi/|h|, (b^2 + 1)*pi/|h|, (a^2 + 1)*pi/|h|).

    The form holds for the centred ellipse only, which is the one
    uniform_heading_ellipse_regressor follows. Note the
    uniform-heading convention: for a != b this heading law is not the
    one a unicycle actually needs to follow the ellipse (see
    ellipse_trajectory), so this closed form pairs with
    uniform_heading_ellipse_regressor, not with the simulated reference.
    """
    require_finite("ellipse a, b, h", a, b, h)
    if h == 0.0:
        raise ValueError("ellipse rate h must be nonzero")
    return np.diag([8.0 * math.pi / abs(h), (b * b + 1.0) * math.pi / abs(h),
                    (a * a + 1.0) * math.pi / abs(h)])


def uniform_heading_ellipse_regressor(a: float, b: float, h: float):
    """Regressor t -> 2x3 matrix for the uniform-heading ellipse convention.

    Pose: theta_d = ht, p_d that of the centred ellipse_trajectory(a, b, h),
    which rejects degenerate axes and rates. This is the convention
    under which ellipse_pe_closed_form is exact. Takes a time or an
    array of times.
    """
    return along(ellipse_trajectory(a, b, h), _regressor_rows, heading=lambda t: h * t)


def controller_regressor(traj: DesiredTrajectory):
    """Regressor t -> 2x3 matrix along a reference trajectory.

    This is the map whose persistent excitation the convergence theory
    requires; feed it to pe_epsilon or window_gram. Takes a time or an
    array of times.
    """
    return along(traj, _regressor_rows)
