"""Linearized error dynamics and an executable exponential-decay probe.

Near zero tracking error the closed loop behaves like the linear
time-varying gradient flow

    mu_dot = -M(t) @ S @ mu,

where M(t) is the actuation Gram of the reference pose (the Gram of
the two actuated directions transported to the world frame, rank 2 at
every instant) and S is the algebra weight. Persistent excitation of
the reference rotates the actuated plane fast enough that the flow
contracts every direction on average; stability_probe checks that
mechanism numerically on a symmetric-PSD A(t) of size 1 to 3, whose
excitation is the smallest eigenvalue of A's Simpson integral over T.

A finite-difference Jacobian of the genuine nonlinear loop is the
ground truth the -M S structure is verified against.

The LTV flow is integrated by the engine's _rk4_step, the same RK4
step as the nonlinear loop's, on the engine's walk over the stage
grids, _stage_blocks, one block of A at a time. The flow is linear, so
one RK4 step is a 3 x 3 matrix: one _rk4_step on the rows of the
identity gives a block's every step matrix at once, and a log-depth
scan their prefix products, the block's transition matrices, which map
its first state to each of its states. No Python loop runs per step.
The products round in another order than a step at a time, so the
norms are a per-step loop's to rounding, not bit for bit. A flow of
size 1 or 2 runs padded with zeros to size 3, with its own norms.

lin_check and stability_probe bound their step alike, in the one
_within_rk4_limit, on the walk that feeds the flow: the trace of A(t)
at every stage time, which is 3 + |p_d|^2 for A_z, bounds the
stiffness of the flow. Where dt times it passes RK4's stability limit
the flow may stay finite yet be wrong, so the integration stops and
StepTooLarge is raised rather than fit it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .controller import correction_scalars
from .engine import (_RK4_LIMIT, SimulationDiverged, StepTooLarge, _fitting_dt, _rk4_step,
                     _stage_blocks)
from .excitation import PE_FLOOR, _default_window, _simpson_rule, _window_times
from .excitation import window_gram  # noqa: F401 -- kept importable: bench/tracing.py patches it
from .se2 import B_SELECT, S_WEIGHT, Pose, adjoint_matrix, pose_matrix
from .trajectories import (DesiredTrajectory, _require_positive, _step_count, along, on_grid,
                           require_finite)

_SQRT_S = np.diag([math.sqrt(2.0), 1.0, 1.0])

# trailing fraction of the horizon that the decay rate is fitted on
_TAIL_FRACTION = 0.6
# lin_check's reference times of the structure and Jacobian checks
_N_SAMPLES = 10
# Simpson points of the window Gram over [0, T]
_GRAM_POINTS = 201
# central-difference step of fd_closed_loop_jacobian
_FD_STEP = 1e-6
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


def fd_closed_loop_jacobian(xd: Pose) -> np.ndarray:
    """Central-difference Jacobian of the error velocity at zero error, step _FD_STEP.

    Independent oracle for the linearization: nothing of the -M S
    structure is assumed, only the nonlinear loop itself is sampled.
    """
    J = np.empty((3, 3))
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = _FD_STEP
        fp = _error_velocity(dx[0], dx[1:], xd)
        fm = _error_velocity(-dx[0], -dx[1:], xd)
        J[:, j] = (fp - fm) / (2.0 * _FD_STEP)
    return J


def _excitation(A: Callable[[float], np.ndarray], T: float) -> float:
    """Smallest eigenvalue of A's Simpson integral over [0, T] at _GRAM_POINTS, as window_gram."""
    taus = _window_times(0.0, T, _GRAM_POINTS)
    return float(np.linalg.eigvalsh(_simpson_rule(on_grid(A, taus), taus))[0])


def _within_rk4_limit(A, dt: float, steps: int, trace_of: str, step_for: str):
    """A's _stage_blocks over steps steps, while RK4 holds the flow that they sample.

    The trace of A at each stage time bounds its largest eigenvalue, A
    being symmetric PSD. Blocks are yielded while dt times the peak of
    the trace so far stays within _RK4_LIMIT. From the first block past
    it the walk goes on without yielding, and then raises StepTooLarge
    naming the peak over the whole horizon and a step that fits, in the
    words trace_of and step_for, such as "trace(A_z)" and "reference".
    """
    peak = 0.0
    for ks, *grids in _stage_blocks(A, dt, steps):
        # the trace of a finite matrix may overflow to inf, which the limit refuses
        with np.errstate(all="ignore"):
            top = float(np.max([np.max(np.trace(grid, axis1=-2, axis2=-1)) for grid in grids]))
        # a NaN trace, as 0 * inf in A gives, is past every limit too; max would pass over it
        peak = max(peak, math.inf if math.isnan(top) else top)
        if dt * peak <= _RK4_LIMIT:
            yield ks, *grids
    if not dt * peak <= _RK4_LIMIT:
        raise StepTooLarge(f"dt * {trace_of} reaches {dt * peak:.4g} > {_RK4_LIMIT}: "
                           f"dt = {dt:g} is too large a step for this {step_for}; "
                           f"{_fitting_dt(peak, dt)}")


def _check_horizon(t_end: float, dt: float) -> int:
    """The step count, 2 to _MAX_STEPS, of positive t_end and dt; raises ValueError otherwise."""
    steps = _step_count(t_end, dt)
    if steps < 2:
        raise ValueError(f"t_end must span at least two steps of dt = {dt!r}, got {t_end!r}")
    return steps


def _ltv_field(A, p, q, r):
    """The LTV field -A X, X the matrix of rows p, q, r; returns its rows and no aux."""
    Y = -A @ np.stack((p, q, r), axis=-2)
    return Y[..., 0, :], Y[..., 1, :], Y[..., 2, :], None


def _transition_matrices(A1s, A2s, A3s, dt: float) -> np.ndarray:
    """Each step's RK4 transition matrix of a block of 3 x 3 stage grids, as _stage_blocks yields.

    The flow is linear, so a step is a matrix, M_k, with x_(k+1) = M_k x_k.
    One engine._rk4_step gives the block's n of them: its state is the
    rows of the identity, which broadcast over the n steps, under
    _ltv_field. on_k holds n + 1 rows, of which stage 1 takes the first n.
    """
    n = len(A2s)
    return np.stack(_rk4_step(_ltv_field, A1s[:n], A2s, A3s, *np.eye(3), dt)[:3], axis=-2)


def _ltv_rk4(blocks, x0: np.ndarray, steps: int, dt: float):
    """Classical RK4 on x_dot = -A(t) x for steps steps from t = 0; returns (times, |x| at each).

    blocks is A's walk over the stage times, as _stage_blocks yields it,
    taken one block at a time, so memory does not grow with the horizon.
    A block's states are P_k x, x its first, where P_k = M_k ... M_0 are
    the prefix products of its _transition_matrices, from a log-depth
    scan; its norms are one np.vecdot over them. A flow of size 1 or 2,
    which stability_probe accepts, runs embedded in a 3 x 3 one: its
    stage grids and x0 are padded with zeros, which add exact zeros to
    every product and norm.

    The products round in another order than a step at a time, so the
    norms are a per-step loop's only to rounding, not bit for bit. P_k
    may overflow while P_k x is finite, for a tiny x under strong growth,
    so a block with a norm that is not finite is stepped again one M_k at
    a time. Raises SimulationDiverged, without numpy's overflow warnings,
    at the first non-finite |x|.
    """
    x = np.array(x0, dtype=float)
    if len(x) < 3:
        pad = ((0, 0), (0, 3 - len(x)), (0, 3 - len(x)))
        blocks = ((ks, *(np.pad(grid, pad) for grid in grids)) for ks, *grids in blocks)
        x = np.pad(x, (0, 3 - len(x)))
    norms = np.empty(steps + 1)
    norms[0] = math.sqrt(x.dot(x))
    with np.errstate(over="ignore", invalid="ignore"):
        for ks, *grids in blocks:
            M = _transition_matrices(*grids, dt)
            P = M.copy()
            s = 1
            while s < len(P):
                P[s:] = P[s:] @ P[:-s]
                s *= 2
            X = P @ x
            squares = np.vecdot(X, X)
            if not np.isfinite(squares).all():
                X = np.array(list(accumulate(M, lambda y, M_k: M_k @ y, initial=x))[1:])
                squares = np.vecdot(X, X)
            block = norms[ks.start + 1:ks.stop + 1]
            np.sqrt(squares, out=block)
            finite = np.isfinite(block)
            if not finite.all():
                k = ks.start + 1 + int(np.argmin(finite))
                raise SimulationDiverged(k, k * dt)
            x = X[-1]
    return np.arange(steps + 1) * dt, norms


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
                    t_end: float, dt: float = 1e-3) -> DecayReport:
    """Integrate x_dot = -A(t) x and certify exponential decay of |x|.

    Preconditions are checked, not assumed: the horizon as lin_check
    checks it, x0 a flat sequence of finite numbers, one per row of the
    square A(t) of size 1 to 3, A(t) finite and symmetric PSD at sampled times
    (tolerance 1e-9), epsilon positive, and the window Gram over [0, T]
    of A dominating epsilon * Id. Reports the decay rate fitted on the
    final 60% of the horizon and whether |x| was monotone non-increasing.
    As lin_check does, it raises StepTooLarge if dt * trace(A) exceeds
    RK4's stability limit _RK4_LIMIT at a stage time, and
    SimulationDiverged if |x| stops being finite. A is evaluated through
    on_grid, so its array form is used when it has one.
    """
    steps = _check_horizon(t_end, dt)
    _require_positive("excitation level epsilon", epsilon)
    checks = np.linspace(0.0, t_end, 23)
    A_checks = on_grid(A, checks)
    if A_checks.ndim != 3 or A_checks.shape[1] != A_checks.shape[2]:
        raise ValueError(f"A(t) must be a square matrix, got shape {A_checks.shape[1:]}")
    rows = A_checks.shape[1]
    if not 1 <= rows <= 3:
        raise ValueError(f"A(t) is {rows} x {rows}, but only flows of size 1 to 3 are integrated")
    entries = list(x0) if np.iterable(x0) else None
    if entries is None or not all(isinstance(v, numbers.Real) for v in entries):
        raise ValueError(f"initial state x0 must be a flat sequence of numbers, got {x0!r}")
    if len(entries) != rows:
        raise ValueError(f"initial state x0 has size {len(entries)}, but A(t) is {rows} x {rows}")
    require_finite("initial state x0", *entries)
    x0 = np.array(entries, dtype=float)

    for t_chk, Ak in zip(checks, A_checks):
        if not np.isfinite(Ak).all():
            raise ValueError(f"A({t_chk:.3f}) is not finite")
        if float(np.max(np.abs(Ak - Ak.T))) > 1e-9:
            raise ValueError(f"A({t_chk:.3f}) is not symmetric")
        if float(np.linalg.eigvalsh(0.5 * (Ak + Ak.T))[0]) < -1e-9:
            raise ValueError(f"A({t_chk:.3f}) is not positive semi-definite")

    lam = _excitation(A, T)
    if not lam >= epsilon:
        raise ValueError(
            f"window Gram smallest eigenvalue {lam:.3e} does not reach epsilon {epsilon:.3e}"
        )

    times, norms = _ltv_rk4(_within_rk4_limit(A, dt, steps, "trace(A)", "flow"), x0, steps, dt)
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
    Gram of A_z over one period (5 s if aperiodic), _excitation, decides
    only the verdict. The flow is integrated first, on the walk over
    A_z's stage values that also bounds the step, as stability_probe's
    does: it raises StepTooLarge if dt * trace(A_z) exceeds RK4's
    stability limit _RK4_LIMIT at a stage time, and SimulationDiverged
    if the LTV flow does not stay finite.
    """
    steps = _check_horizon(t_end, dt)
    A_z = closed_loop_ltv(traj)
    times, norms = _ltv_rk4(_within_rk4_limit(A_z, dt, steps, "trace(A_z)", "reference"),
                            np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0), steps, dt)
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

    eps = _excitation(A_z, T)
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
