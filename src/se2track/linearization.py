"""Linearized error dynamics and an executable exponential-decay probe.

Near zero tracking error the closed loop behaves like the linear
time-varying gradient flow

    mu_dot = -M(t) @ S @ mu,

where M(t) is the actuation Gram of the reference pose (the Gram of
the two actuated directions transported to the world frame, rank 2 at
every instant) and S is the algebra weight. Persistent excitation of
the reference rotates the actuated plane fast enough that the flow
contracts every direction on average; stability_probe checks that
mechanism numerically on any symmetric-PSD A(t).

A finite-difference Jacobian of the genuine nonlinear loop is the
ground truth the -M S structure is verified against.

The LTV flow is integrated by classical RK4 on the engine's walk over
the stage grids, _stage_blocks, one block of A at a time. Before it
integrates, lin_check bounds its step by the same walk: trace(A_z) =
3 + |p_d|^2 bounds the stiffness of the flow, and where dt times it
passes RK4's stability limit the flow may stay finite yet be wrong, so
lin_check raises StepTooLarge rather than fit it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .controller import correction_scalars
from .engine import SimulationDiverged, StepTooLarge, _finite_reference, _stage_blocks
from .excitation import PE_FLOOR, _default_window, window_gram
from .se2 import B_SELECT, S_WEIGHT, Pose, adjoint_matrix, pose_matrix
from .trajectories import (DesiredTrajectory, _require_positive, _step_count, along, on_grid,
                           require_finite)

_SQRT_S = np.diag([math.sqrt(2.0), 1.0, 1.0])

# largest dt * lambda at which classical RK4 holds x_dot = -lambda x, lambda >= 0
_RK4_LIMIT = 2.785

# trailing fraction of the horizon that the decay rate is fitted on
_TAIL_FRACTION = 0.6
# lin_check's reference times of the structure and Jacobian checks
_N_SAMPLES = 10
# Simpson points of the window Gram over [0, T]
_GRAM_POINTS = 201
# lin_check's LTV probe horizon and step, unless given
_PROBE_T_END = 25.0
_PROBE_DT = 1e-3


@dataclass(frozen=True)
class DecayReport:
    """Outcome of a stability_probe run."""

    times: np.ndarray
    norms: np.ndarray
    fitted_rate: float
    r_squared: float
    norm_monotone: bool
    fit_window: tuple

    def to_dict(self) -> dict:
        return {
            "fitted_rate": self.fitted_rate,
            "r_squared": self.r_squared,
            "norm_monotone": self.norm_monotone,
            "fit_window": list(self.fit_window),
            "initial_norm": float(self.norms[0]),
            "final_norm": float(self.norms[-1]),
        }


@dataclass(frozen=True)
class LinCheckReport:
    """Aggregate linearization diagnostics along a reference trajectory."""

    sample_times: list
    max_structure_residual: float
    max_fd_residual: float
    fitted_decay_rate: float
    fit_window: tuple
    r_squared: float
    pe_epsilon: float
    pe_window: float
    verdict: str

    def to_dict(self) -> dict:
        return asdict(self)


def actuation_gram(xd: Pose) -> np.ndarray:
    """Gram of the actuated directions at a reference pose (explicit form).

    Assembled from the block expression

        [[1,        p_d^T 1x                       ],
         [-1x p_d,  -1x p_d p_d^T 1x + R e1 e1^T R^T]]

    and equal to adjoint_matrix(xd) @ B @ B^T @ adjoint_matrix(xd)^T.
    Symmetric, positive semi-definite, rank 2.
    """
    return pose_matrix(_actuation_gram_rows, xd.theta, *xd.p)


def _actuation_gram_rows(c, s, px, py) -> list:
    return [
        [1.0, py, -px],
        [py, py * py + c * c, -px * py + c * s],
        [-px, -px * py + c * s, px * px + s * s],
    ]


def _error_velocity(theta_E: float, p_E: np.ndarray, xd: Pose) -> np.ndarray:
    """Closed-loop velocity of the spatial-error coordinates, X_d frozen."""
    om, v = correction_scalars(theta_E, p_E[0], p_E[1], xd.theta, xd.p[0], xd.p[1])
    w = adjoint_matrix(xd) @ np.array([om, v, 0.0])
    c, s = math.cos(theta_E), math.sin(theta_E)
    return np.array([w[0], c * w[1] - s * w[2], s * w[1] + c * w[2]])


def fd_closed_loop_jacobian(xd: Pose, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the error velocity at zero error.

    Independent oracle for the linearization: nothing of the -M S
    structure is assumed, only the nonlinear loop itself is sampled.
    """
    require_finite("finite-difference step", step)
    if not 1e-8 <= step <= 1e-4:
        raise ValueError("finite-difference step must lie in [1e-8, 1e-4]")
    J = np.empty((3, 3))
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = step
        fp = _error_velocity(dx[0], dx[1:], xd)
        fm = _error_velocity(-dx[0], -dx[1:], xd)
        J[:, j] = (fp - fm) / (2.0 * step)
    return J


def _excitation(A: Callable[[float], np.ndarray], T: float, points: int) -> float:
    """Smallest eigenvalue of the window Gram over [0, T] of the PSD square root of A."""

    def R(ts) -> np.ndarray:
        # symmetric PSD square roots by eigendecomposition, negative eigenvalues clamped
        w, V = np.linalg.eigh(on_grid(A, ts))
        return (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(V, -1, -2)

    R.array_form = R
    return float(np.linalg.eigvalsh(window_gram(R, 0.0, T, points))[0])


def _trace_A_z(px, py):
    """trace(A_z) at the reference position (px, py), floats or arrays: 3 + |p_d|^2.

    It is 2 M[0, 0] + M[1, 1] + M[2, 2] of _actuation_gram_rows. A_z is
    symmetric PSD, so the trace bounds its largest eigenvalue from above.
    """
    return 3.0 + px * px + py * py


def _check_step(traj: DesiredTrajectory, steps: int, dt: float) -> None:
    """Raise StepTooLarge unless dt * trace(A_z) stays within _RK4_LIMIT on every stage time.

    The reference is walked block by block, as _ltv_rk4 walks A_z.
    Raises ValueError if the reference is not finite at a stage time.
    """
    # the reference and the trace are checked below, so neither needs numpy's warnings
    with np.errstate(all="ignore"):
        peak = max(float(np.max(_trace_A_z(grid[:, 1], grid[:, 2])))
                   for block in _stage_blocks(traj.state_at, dt, steps)
                   for grid in _finite_reference(traj, block)[1:])
    if not dt * peak <= _RK4_LIMIT:
        fits = "no dt fits"
        if math.isfinite(peak):
            # rounded down to four digits, so that the step named does fit
            unit = 10.0 ** (math.floor(math.log10(_RK4_LIMIT / peak)) - 3)
            fits = f"dt <= {math.floor(_RK4_LIMIT / peak / unit) * unit:.4g} fits"
        raise StepTooLarge(f"dt * trace(A_z) reaches {dt * peak:.4g} > {_RK4_LIMIT}: "
                           f"dt = {dt:g} is too large a step for this reference; {fits}")


def _check_horizon(t_end: float, dt: float) -> int:
    """The step count, 2 to _MAX_STEPS, of positive t_end and dt; raises ValueError otherwise."""
    steps = _step_count(t_end, dt)
    if steps < 2:
        raise ValueError(f"t_end must span at least two steps of dt = {dt!r}, got {t_end!r}")
    return steps


def _ltv_rk4(A: Callable[[float], np.ndarray], x0: np.ndarray, steps: int, dt: float):
    """Classical RK4 on x_dot = -A(t) x for steps steps from t = 0; returns (times, |x| at each).

    A is evaluated on the engine's _stage_blocks, one block at a time, so
    memory does not grow with the horizon. Raises SimulationDiverged,
    without numpy's overflow warnings, at the first non-finite |x|.
    """
    times = np.arange(steps + 1) * dt
    norms = np.empty(steps + 1)
    x = np.array(x0, dtype=float)
    norms[0] = math.sqrt(x.dot(x))
    with np.errstate(over="ignore", invalid="ignore"):
        for ks, A1s, A2s, A3s in _stage_blocks(A, dt, steps):
            for k, (A1, A2, A3) in enumerate(zip(A1s, A2s, A3s), ks.start + 1):
                k1 = -(A1 @ x)
                k2 = -(A2 @ (x + 0.5 * dt * k1))
                k3 = -(A2 @ (x + 0.5 * dt * k2))
                k4 = -(A3 @ (x + dt * k3))
                x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                norms[k] = math.sqrt(x.dot(x))
                if not math.isfinite(norms[k]):
                    raise SimulationDiverged(k, k * dt)
    return times, norms


def _fit_log_norm(times: np.ndarray, norms: np.ndarray):
    """Least-squares line on log(norm) over the trailing _TAIL_FRACTION of the run.

    Returns (decay rate = -slope, R^2, (t_lo, t_hi)).
    """
    t0 = times[0] + (1.0 - _TAIL_FRACTION) * (times[-1] - times[0])
    mask = times >= t0
    tt = times[mask]
    yy = np.log(np.maximum(norms[mask], 1e-300))
    slope, intercept = np.polyfit(tt, yy, 1)
    resid = yy - (slope * tt + intercept)
    ss_tot = float(np.sum((yy - yy.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return -float(slope), r2, (float(tt[0]), float(tt[-1]))


def stability_probe(A: Callable[[float], np.ndarray], x0, T: float, epsilon: float,
                    t_end: float, dt: float = 1e-3, gram_points: int = _GRAM_POINTS) -> DecayReport:
    """Integrate x_dot = -A(t) x and certify exponential decay of |x|.

    Preconditions are checked, not assumed: the horizon as lin_check
    checks it, A(t) symmetric PSD at sampled times (tolerance 1e-9),
    epsilon positive, and the window Gram over [0, T] of the PSD square
    root of A dominating epsilon * Id. Reports the decay rate fitted on
    the final 60% of the horizon and whether |x| was monotone
    non-increasing. Raises SimulationDiverged if |x| stops being
    finite. A is evaluated through on_grid, so its array form is used
    when it has one.
    """
    steps = _check_horizon(t_end, dt)
    _require_positive("excitation level epsilon", epsilon)
    require_finite("initial state x0", *x0)
    x0 = np.array(x0, dtype=float)

    checks = np.linspace(0.0, t_end, 23)
    for t_chk, Ak in zip(checks, on_grid(A, checks)):
        if float(np.max(np.abs(Ak - Ak.T))) > 1e-9:
            raise ValueError(f"A({t_chk:.3f}) is not symmetric")
        if float(np.linalg.eigvalsh(0.5 * (Ak + Ak.T))[0]) < -1e-9:
            raise ValueError(f"A({t_chk:.3f}) is not positive semi-definite")

    lam = _excitation(A, T, gram_points)
    if lam < epsilon:
        raise ValueError(
            f"window Gram smallest eigenvalue {lam:.3e} does not reach epsilon {epsilon:.3e}"
        )

    times, norms = _ltv_rk4(A, x0, steps, dt)
    monotone = bool(np.all(np.diff(norms) <= 1e-12 * max(1.0, norms[0])))
    rate, r2, window = _fit_log_norm(times, norms)
    return DecayReport(
        times=times, norms=norms, fitted_rate=rate, r_squared=r2,
        norm_monotone=monotone, fit_window=window,
    )


def closed_loop_ltv(traj: DesiredTrajectory) -> Callable[[float], np.ndarray]:
    """t -> -J(t) in symmetrized coordinates: sqrt(S) M(X_d(t)) sqrt(S).

    The raw linearization mu_dot = -M(t) S mu is similar (via
    z = sqrt(S) mu) to z_dot = -A_z(t) z with A_z symmetric PSD, which
    is the form stability_probe accepts. Decay rates agree. The
    returned callable takes a time or an array of times.
    """
    M = along(traj, _actuation_gram_rows)

    def A_z(t) -> np.ndarray:
        return _SQRT_S @ M(t) @ _SQRT_S

    A_z.array_form = A_z
    return A_z


def lin_check(traj: DesiredTrajectory, t_end: float = _PROBE_T_END,
              dt: float = _PROBE_DT) -> LinCheckReport:
    """Run all linearization diagnostics along a reference trajectory.

    Checks (1) the explicit actuation-Gram block formula against the
    adjoint product, (2) the -M S closed-loop Jacobian against central
    finite differences of the nonlinear loop, and (3) the decay rate of
    the LTV linearization, fitted as stability_probe fits it. The window
    Gram over one period (5 s if aperiodic) decides only the verdict.
    Raises StepTooLarge, before any of these, if dt * trace(A_z) exceeds
    RK4's stability limit _RK4_LIMIT at a stage time, and
    SimulationDiverged if the LTV flow does not stay finite.
    """
    steps = _check_horizon(t_end, dt)
    _check_step(traj, steps, dt)
    # the window is one period, which overflows for a rate too small for floats
    T = _default_window(traj)
    _require_positive("window length T", T)
    horizon = traj.period if traj.period is not None else max(t_end, 10.0)
    sample_times = [float(t) for t in np.linspace(0.0, horizon, _N_SAMPLES)]

    structure = 0.0
    fd = 0.0
    for t in sample_times:
        xd = traj.pose_at(t)
        M = actuation_gram(xd)
        Ad = adjoint_matrix(xd)
        structure = max(structure, float(np.max(np.abs(M - Ad @ B_SELECT @ B_SELECT.T @ Ad.T))))
        fd = max(fd, float(np.max(np.abs(fd_closed_loop_jacobian(xd) - (-M @ S_WEIGHT)))))

    A_z = closed_loop_ltv(traj)
    eps = _excitation(A_z, T, _GRAM_POINTS)
    times, norms = _ltv_rk4(A_z, np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0), steps, dt)
    rate, r2, fit_window = _fit_log_norm(times, norms)
    verdict = ("PE: linearization decays exponentially" if eps > PE_FLOOR
               else "not PE: no exponential certificate")

    return LinCheckReport(
        sample_times=sample_times,
        max_structure_residual=structure,
        max_fd_residual=fd,
        fitted_decay_rate=rate,
        fit_window=fit_window,
        r_squared=r2,
        pe_epsilon=eps,
        pe_window=T,
        verdict=verdict,
    )
