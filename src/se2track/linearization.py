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

The LTV flow is integrated by classical RK4 on the engine's walk over
the stage grids, _stage_blocks, one block of A at a time. There is one
loop: lin_check's state has three entries, and it is stepped as three
floats on two preallocated numpy buffers, so that no step builds an
array. A flow of size 1 or 2 runs in that loop padded with zeros to
size 3, with the same norms bit for bit.

lin_check walks its reference once: each block gives A_z's stage values
and bounds the step. trace(A_z) = 3 + |p_d|^2 bounds the stiffness of
the flow, and where dt times it passes RK4's stability limit the flow
may stay finite yet be wrong, so lin_check stops integrating and raises
StepTooLarge rather than fit it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .controller import correction_scalars
from .engine import SimulationDiverged, StepTooLarge, _stage_blocks
from .excitation import PE_FLOOR, _default_window, _simpson_rule, _window_times
from .excitation import window_gram  # noqa: F401 -- kept importable: bench/tracing.py patches it
from .se2 import B_SELECT, S_WEIGHT, Pose, adjoint_matrix, pose_matrix
from .trajectories import (DesiredTrajectory, _require_positive, _step_count, at_reference,
                           on_grid, require_finite)

_SQRT_S = np.diag([math.sqrt(2.0), 1.0, 1.0])

# largest dt * lambda at which classical RK4 holds x_dot = -lambda x, lambda >= 0
_RK4_LIMIT = 2.785

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


def _excitation(A: Callable[[float], np.ndarray], T: float, points: int) -> float:
    """Smallest eigenvalue of the Simpson integral of A over [0, T], as window_gram integrates."""
    taus = _window_times(0.0, T, points)
    return float(np.linalg.eigvalsh(_simpson_rule(on_grid(A, taus), taus))[0])


def _trace_A_z(px, py):
    """trace(A_z) at the reference position (px, py), floats or arrays: 3 + |p_d|^2.

    It is 2 M[0, 0] + M[1, 1] + M[2, 2] of _actuation_gram_rows. A_z is
    symmetric PSD, so the trace bounds its largest eigenvalue from above.
    """
    return 3.0 + px * px + py * py


def _A_z(state) -> np.ndarray:
    """A_z = sqrt(S) M sqrt(S) at reference states, as at_reference takes them."""
    return _SQRT_S @ at_reference(_actuation_gram_rows, state) @ _SQRT_S


def _A_z_blocks(traj: DesiredTrajectory, dt: float, steps: int):
    """A_z along traj as _stage_blocks yields it, from one walk over the reference.

    Each block of the reference, which its grid form finds finite or
    refuses with ValueError, gives its peak of trace(A_z). Blocks are
    yielded while dt times the peak so far stays within _RK4_LIMIT. From
    the first block past it the walk goes on without yielding, and then
    raises StepTooLarge naming the peak over the whole horizon.
    """
    peak = 0.0
    for ks, *grids in _stage_blocks(traj.state_at, dt, steps):
        # the trace of a finite reference may overflow to inf, which the limit refuses
        with np.errstate(all="ignore"):
            peak = max(peak, *(float(np.max(_trace_A_z(grid[:, 1], grid[:, 2])))
                               for grid in grids))
        if dt * peak <= _RK4_LIMIT:
            yield ks, *(_A_z(grid.T) for grid in grids)
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


def _ltv_rk4(blocks, x0: np.ndarray, steps: int, dt: float):
    """Classical RK4 on x_dot = -A(t) x for steps steps from t = 0; returns (times, |x| at each).

    blocks is A's walk over the stage times, as _stage_blocks yields it,
    taken one block at a time, so memory does not grow with the horizon.
    The flow runs on _rk4_states_3. A flow of size 1 or 2, which
    stability_probe accepts, runs embedded in a 3 x 3 one: its stage
    grids and x0 are padded with zeros, which add exact zeros to every
    product and norm, so its norms are its own bit for bit. A block's
    norms are taken at its end by one np.vecdot over its states' rows.
    That is the BLAS ddot of x.dot(x), row by row. Raises
    SimulationDiverged, without numpy's overflow warnings, at the first
    non-finite |x|.
    """
    x = np.array(x0, dtype=float)
    if len(x) < 3:
        pad = ((0, 0), (0, 3 - len(x)), (0, 3 - len(x)))
        blocks = ((ks, *(np.pad(grid, pad) for grid in grids)) for ks, *grids in blocks)
        x = np.pad(x, (0, 3 - len(x)))
    norms = np.empty(steps + 1)
    norms[0] = math.sqrt(x.dot(x))
    with np.errstate(over="ignore", invalid="ignore"):
        for ks, states in _rk4_states_3(blocks, x.tolist(), dt):
            X = np.array(states)
            block = norms[ks.start + 1:ks.stop + 1]
            np.sqrt(np.vecdot(X, X), out=block)
            finite = np.isfinite(block)
            if not finite.all():
                k = ks.start + 1 + int(np.argmin(finite))
                raise SimulationDiverged(k, k * dt)
    return np.arange(steps + 1) * dt, norms


def _rk4_states_3(blocks, xs: list, dt: float):
    """RK4 from the three-entry state xs: yields (steps, the state after each) per block.

    numpy does only the four products A y of a step; between them the
    stages are plain floats, which costs far less than numpy's calls on
    vectors of three entries. The state is three Python floats, and
    numpy sees only two preallocated buffers: each stage's y is written
    into one by three scalar stores through a memoryview, and
    A.dot(y, out=...) writes A y into the other, which is read back
    through its own. So no step builds an array, and each product is
    the BLAS dgemv of A @ y, bit for bit. The stage values are those of
    the per-step loop on k_i = -A y_i bit for bit: negation is exact, so
    y + h k_i is y - h (A y_i), and the update
    x + (dt/6) (k1 + 2 k2 + 2 k3 + k4) is x - (dt/6) (((a + 2 b) + 2 c) + d).
    """
    half, sixth = 0.5 * dt, dt / 6.0
    p, q, r = xs
    y, Ay = np.empty(3), np.empty(3)
    ys, Ays = memoryview(y), memoryview(Ay)
    for ks, A1s, A2s, A3s in blocks:
        states = []
        for A1, A2, A3 in zip(A1s, A2s, A3s):
            ys[0], ys[1], ys[2] = p, q, r
            A1.dot(y, out=Ay)
            a0, a1, a2 = Ays
            ys[0], ys[1], ys[2] = p - half * a0, q - half * a1, r - half * a2
            A2.dot(y, out=Ay)
            b0, b1, b2 = Ays
            ys[0], ys[1], ys[2] = p - half * b0, q - half * b1, r - half * b2
            A2.dot(y, out=Ay)
            c0, c1, c2 = Ays
            ys[0], ys[1], ys[2] = p - dt * c0, q - dt * c1, r - dt * c2
            A3.dot(y, out=Ay)
            d0, d1, d2 = Ays
            p = p - sixth * (((a0 + 2.0 * b0) + 2.0 * c0) + d0)
            q = q - sixth * (((a1 + 2.0 * b1) + 2.0 * c1) + d1)
            r = r - sixth * (((a2 + 2.0 * b2) + 2.0 * c2) + d2)
            states.append((p, q, r))
        yield ks, states


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
    Raises SimulationDiverged if |x| stops being finite. A is evaluated
    through on_grid, so its array form is used when it has one.
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

    lam = _excitation(A, T, _GRAM_POINTS)
    if not lam >= epsilon:
        raise ValueError(
            f"window Gram smallest eigenvalue {lam:.3e} does not reach epsilon {epsilon:.3e}"
        )

    times, norms = _ltv_rk4(_stage_blocks(A, dt, steps), x0, steps, dt)
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
    def A_z(t) -> np.ndarray:
        return _A_z(traj.sample(t))

    A_z.array_form = A_z
    return A_z


def lin_check(traj: DesiredTrajectory, t_end: float = _PROBE_T_END,
              dt: float = _PROBE_DT) -> LinCheckReport:
    """Run all linearization diagnostics along a reference trajectory.

    Checks (1) the explicit actuation-Gram block formula against the
    adjoint product, (2) the -M S closed-loop Jacobian against central
    finite differences of the nonlinear loop, and (3) the decay rate of
    the LTV linearization, fitted as stability_probe fits it. The window
    Gram of A_z over one period (5 s if aperiodic), _excitation at
    _GRAM_POINTS points, decides only the verdict.
    The flow is integrated first, on one walk over the reference that
    also bounds the step: it raises StepTooLarge if dt * trace(A_z)
    exceeds RK4's stability limit _RK4_LIMIT at a stage time, and
    SimulationDiverged if the LTV flow does not stay finite.
    """
    steps = _check_horizon(t_end, dt)
    times, norms = _ltv_rk4(_A_z_blocks(traj, dt, steps),
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

    eps = _excitation(closed_loop_ltv(traj), T, _GRAM_POINTS)
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
