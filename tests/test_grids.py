"""Time-grid evaluation: every array form equals its scalar form bit for bit.

pe-check and lin-check evaluate the reference on whole time grids. Their
reports must not change by a single bit, so each array form is compared
with the point-by-point values. The LTV integrator takes each block's
RK4 transition matrices and their prefix products, which round in
another order than a step at a time. So it is compared with a per-step
numpy loop in the update order of the engine's RK4 step,
x + (dt/6) (k1 + 2 (k2 + k3) + k4), to the rounding that each step makes
relative to its state and the later steps carry forward, which grows
with the step count and, past RK4's stability limit, with the flow's
amplification; and it must diverge at the loop's step. Both run on
flows of size 3 and on flows of size 1 and 2, which it runs padded with
zeros. On a constant A every step's matrix is RK4's stability
polynomial, an oracle that needs no loop.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se2track import (
    actuation_gram,
    closed_loop_ltv,
    controller_regressor,
    ellipse_trajectory,
    lin_check,
    line_trajectory,
    regressor,
    stability_probe,
    uniform_heading_ellipse_regressor,
    window_gram,
)
from se2track.engine import (_BLOCK, _RK4_LIMIT, SimConfig, SimulationDiverged, StepTooLarge,
                             _setup, _stage_blocks)
from se2track.linearization import _GRAM_POINTS, _ltv_rk4, _transition_matrices


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


axes = finite(0.1, 10.0)
rates = st.one_of(finite(0.05, 5.0), finite(-5.0, -0.05))
points = st.tuples(finite(-10.0, 10.0), finite(-10.0, 10.0))
times = st.lists(finite(-100.0, 100.0), min_size=1, max_size=40)
ellipses = st.builds(ellipse_trajectory, axes, axes, rates, points)
lines = st.builds(line_trajectory, finite(0.0, 5.0), finite(-10.0, 10.0), points)
trajectories = st.one_of(ellipses, lines)
# a stationary line through the origin: its actuation Gram M holds -0.0 entries, which the
# products sqrt(S) M sqrt(S) of A_z turn into +0.0
origin_lines = st.builds(line_trajectory, st.just(0.0), finite(-10.0, 10.0), st.just((0.0, 0.0)))
signed = st.one_of(finite(-5.0, 5.0), st.sampled_from([0.0, -0.0]))

GRID = settings(max_examples=60, deadline=None)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def plain(F):
    """F without its array form: on_grid must fall back to point values."""
    return lambda t: F(t)


def numpy_ltv_rk4(A, x0, steps, dt):
    """A per-step numpy RK4 loop in the engine's update order, on the same _stage_blocks."""
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
                x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
                norms[k] = math.sqrt(x.dot(x))
                if not math.isfinite(norms[k]):
                    raise SimulationDiverged(k, k * dt)
    return times, norms


def ltv_rk4(A, x0, steps, dt):
    """_ltv_rk4 on A's _stage_blocks, as stability_probe calls it."""
    return _ltv_rk4(_stage_blocks(A, dt, steps), x0, steps, dt)


# rounding allowed per step taken, relative to the step's size times its state: over 1500 draws
# of each strategy below, the worst gap measured was 1.9 * 2^-52 per step, and 0.8 on 467 draws
# past RK4's stability limit
STEP_RTOL = 2.0 ** -49
# each norm reads its state to within 2 sqrt(2^-1074) once the state's square is subnormal, so
# two norms may differ by twice that
NORM_ATOL = 4.0 * math.sqrt(np.finfo(float).smallest_subnormal)


def step_gains(A, dt, steps):
    """Each RK4 step's gain, the 2-norm of its matrix M_k, x_(k+1) = M_k x_k, and its size.

    M_k = I - (dt/6) (K1 + 2 (K2 + K3) + K4), with K1 = A(k dt),
    K2 = A(k dt + dt/2) (I - (dt/2) K1), K3 = A(k dt + dt/2) (I - (dt/2) K2)
    and K4 = A(k dt + dt) (I - dt K3), from A's values on _stage_blocks.
    The size, 1 + a + a^2/2 + a^3/6 + a^4/24 with a dt times the largest
    2-norm of A at the step's stages, bounds the terms that the step sums
    relative to its state.
    """
    gains, sizes = [], []
    for _, A1s, A2s, A3s in _stage_blocks(A, dt, steps):
        I = np.eye(A2s.shape[-1])
        K1 = A1s[:len(A2s)]
        K2 = A2s @ (I - 0.5 * dt * K1)
        K3 = A2s @ (I - 0.5 * dt * K2)
        K4 = A3s @ (I - dt * K3)
        gains.append(np.linalg.norm(I - (dt / 6.0) * (K1 + 2.0 * (K2 + K3) + K4), 2, axis=(1, 2)))
        a = dt * np.max([np.linalg.norm(G, 2, axis=(1, 2)) for G in (K1, A2s, A3s)], axis=0)
        sizes.append(1.0 + a + a * a / 2.0 + a ** 3 / 6.0 + a ** 4 / 24.0)
    return np.concatenate(gains), np.concatenate(sizes)


def within_rounding(norms, loop, gains, sizes) -> bool:
    """Whether norms are within the rounding of loop's that the steps carry forward.

    Either integrator rounds step j by up to STEP_RTOL times its size and
    its state |x_j|, and each later step multiplies that error by at most
    its gain: about 1 within RK4's stability limit, more past it, where
    the flow amplifies rounding. So the states at step k may differ by k
    STEP_RTOL times the largest such error carried to k, and the norms by
    NORM_ATOL more.
    """
    log_gain = np.concatenate(([0.0], np.cumsum(np.log(gains))))
    carried = np.log(sizes) + np.log(loop[:-1] + NORM_ATOL) - log_gain[1:]
    with np.errstate(over="ignore"):
        scale = np.exp(log_gain[1:] + np.maximum.accumulate(carried))
    bound = np.concatenate(([0.0], np.arange(1, len(loop)) * STEP_RTOL * scale)) + NORM_ATOL
    return norms.shape == loop.shape and bool(np.all(np.abs(norms - loop) <= bound))


def ltv_outcome(integrate, A, x0, steps, dt):
    """The norms' bytes of a flow, or the step and time at which it diverged."""
    try:
        times, norms = integrate(A, x0, steps, dt)
    except SimulationDiverged as exc:
        return "diverged", exc.step, exc.t
    return times.tobytes(), norms.tobytes()


def ltv_rk4_within_rounding(A, x0, steps, dt) -> bool:
    """Whether _ltv_rk4 diverges at the loop's step, or else gives its times and within_rounding
    norms."""
    try:
        times, loop = numpy_ltv_rk4(A, x0, steps, dt)
    except SimulationDiverged as exc:
        return ltv_outcome(ltv_rk4, A, x0, steps, dt) == ("diverged", exc.step, exc.t)
    fast_times, norms = ltv_rk4(A, x0, steps, dt)
    return same_bits(fast_times, times) and within_rounding(norms, loop, *step_gains(A, dt, steps))


def psd_flow(B0, B1, B2):
    """t -> B(t) B(t)^T, B(t) = B0 + sin(t) B1 + cos(2t) B2, for a time or an array of times."""

    def A(t):
        t = np.asarray(t, dtype=float)[..., None, None]
        B = B0 + np.sin(t) * B1 + np.cos(2.0 * t) * B2
        return B @ np.swapaxes(B, -1, -2)

    A.array_form = A
    return A


def psd_flows(n):
    entries = st.lists(finite(-1.0, 1.0), min_size=n * n, max_size=n * n)
    return st.tuples(st.builds(psd_flow, *[entries.map(lambda v: np.reshape(v, (n, n)))] * 3),
                     st.lists(finite(-10.0, 10.0), min_size=n, max_size=n))


# step counts of one block, of several, and either side of a block's edge
steps_across_blocks = st.one_of(st.integers(1, 3 * _BLOCK + 7),
                                st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]))
LTV = settings(max_examples=40, deadline=None)


@GRID
@given(trajectories, times)
def test_trajectory_array_forms_equal_scalar_forms(traj, ts):
    for F in (controller_regressor(traj), closed_loop_ltv(traj)):
        assert same_bits(F.array_form(np.array(ts)), [F(t) for t in ts])


@GRID
@given(trajectories, times)
def test_matrices_along_a_reference_equal_their_pose_forms(traj, ts):
    sqrt_s = np.diag([math.sqrt(2.0), 1.0, 1.0])
    F, A_z = controller_regressor(traj), closed_loop_ltv(traj)
    for t in ts:
        xd = traj.pose_at(t)
        assert same_bits(F(t), regressor(xd))
        assert same_bits(A_z(t), sqrt_s @ actuation_gram(xd) @ sqrt_s)


@GRID
@given(axes, axes, rates, times)
def test_uniform_heading_array_form_equals_scalar_form(a, b, h, ts):
    F = uniform_heading_ellipse_regressor(a, b, h)
    assert same_bits(F.array_form(np.array(ts)), [F(t) for t in ts])


@GRID
@given(trajectories, finite(-20.0, 20.0), finite(0.1, 10.0), st.integers(1, 60))
def test_window_gram_same_with_and_without_array_form(traj, t, T, half):
    n = 2 * half + 1
    for F in (controller_regressor(traj), closed_loop_ltv(traj)):
        assert same_bits(window_gram(F, t, T, n), window_gram(plain(F), t, T, n))


@settings(max_examples=15, deadline=None)
@given(ellipses, st.sampled_from([2e-3, 5e-3, 1e-2]), finite(1.0, 3.0))
def test_stability_probe_same_with_and_without_array_form(traj, dt, t_end):
    # t_end / dt spans up to three integrator blocks; on the draws where dt * trace(A_z) passes
    # RK4's limit, both refuse the step alike
    A = closed_loop_ltv(traj)
    x0 = [1.0, -0.5, 0.25]
    args = (x0, traj.period, 1e-12, t_end, dt)
    try:
        fast = stability_probe(A, *args)
    except StepTooLarge as exc:
        with pytest.raises(StepTooLarge) as slow:
            stability_probe(plain(A), *args)
        assert str(slow.value) == str(exc)
        return
    slow = stability_probe(plain(A), *args)
    for field in ("times", "norms", "fitted_rate", "r_squared", "fit_window"):
        assert same_bits(getattr(fast, field), getattr(slow, field)), field
    assert fast.norm_monotone == slow.norm_monotone
    steps = len(fast.times) - 1
    assert within_rounding(fast.norms, numpy_ltv_rk4(plain(A), x0, steps, dt)[1],
                           *step_gains(plain(A), dt, steps))
    assert same_bits(fast.times, [k * dt for k in range(len(fast.times))])


@LTV
@given(trajectories, finite(1e-4, 2e-2), steps_across_blocks)
def test_stage_blocks_equal_the_values_at_each_stage_time(traj, dt, steps):
    # the per-step loop called A at k dt, k dt + dt / 2 and k dt + dt for step k
    A = closed_loop_ltv(traj)
    walked = []
    for ks, on_k, on_mid, on_end in _stage_blocks(A, dt, steps):
        walked += ks
        for k, A1, A2, A3 in zip(ks, on_k, on_mid, on_end):
            t = k * dt
            assert same_bits([A1, A2, A3], [A(t), A(t + 0.5 * dt), A(t + dt)]), k
    assert walked == list(range(steps))


@GRID
@given(st.one_of(trajectories, origin_lines), finite(1e-4, 2e-2), steps_across_blocks)
def test_setup_takes_the_reference_at_t_0_as_the_first_blocks_first_row(traj, dt, steps):
    # a basin sweep places its draws, and simulate its initial state, on this row
    _, walk, ref0 = _setup(SimConfig(trajectory=traj.descriptor, dt=dt, t_end=steps * dt))
    _, on_k, _, _ = next(walk())
    assert same_bits(ref0, on_k[0])


@LTV
@given(st.integers(1, 3).flatmap(psd_flows), finite(1e-4, 2e-2), steps_across_blocks)
def test_ltv_rk4_equals_the_numpy_loop_on_psd_flows_of_any_dimension(flow, dt, steps):
    # any dimension that stability_probe takes: 3, and 1 and 2 padded with zeros
    A, x0 = flow
    assert ltv_rk4_within_rounding(A, x0, steps, dt)


@LTV
@given(st.one_of(trajectories, origin_lines), st.lists(signed, min_size=3, max_size=3),
       finite(1e-4, 2e-2), steps_across_blocks)
def test_ltv_rk4_equals_the_numpy_loop_along_references(traj, x0, dt, steps):
    assert ltv_rk4_within_rounding(closed_loop_ltv(traj), x0, steps, dt)


@LTV
@given(st.integers(1, 3).flatmap(psd_flows), finite(-0.3, 100.0), finite(1e-3, 1e-2))
def test_ltv_rk4_diverges_at_the_numpy_loops_step(flow, log_scale, dt):
    # -A(t) is at least scale / dt times the identity, so |x| grows by more than a factor
    # 1 + scale per step and overflows within 4 * _BLOCK steps, at the first for a large scale
    P, x0 = flow
    scale = 10.0 ** log_scale
    A = lambda t: -(scale / dt + 1.0) * (P(t) + np.eye(len(x0)))
    x0 = [1.0] + x0[1:]
    steps = 4 * _BLOCK
    outcome = ltv_outcome(ltv_rk4, A, x0, steps, dt)
    assert outcome[0] == "diverged" and 0 < outcome[1] <= steps
    assert outcome == ltv_outcome(numpy_ltv_rk4, A, x0, steps, dt)


def test_three_entry_flow_diverges_in_a_block_at_the_numpy_loops_step():
    # |x| grows by about e^0.42 a step, so |x|^2 overflows at step 850, inside the second block
    P = np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 1.0]])
    dt = 1e-3

    def A(t):
        return -(0.4 / dt) * (np.eye(3) + 0.1 * math.sin(t) * P)

    x0, steps = [0.6, -0.8, 0.0], 4 * _BLOCK
    expected = ltv_outcome(numpy_ltv_rk4, A, x0, steps, dt)
    assert expected[0] == "diverged" and _BLOCK + 1 < expected[1] < 2 * _BLOCK
    assert ltv_outcome(ltv_rk4, A, x0, steps, dt) == expected


@pytest.mark.parametrize("x0, growth, step", [(1e-200, 5.0, 196), (1.0, 1.0, 357)])
def test_a_flow_under_constant_growth_diverges_where_x_overflows(x0, growth, step):
    # a step multiplies x by R(growth) = 65.375 or 2.708...; from 1e-200, |x|^2 overflows at
    # step 196, 26 steps after the block's prefix products do
    dt = 1e-3

    def A(t):
        return -(growth / dt) * np.eye(3)

    args = (A, [x0, 0.0, 0.0], 4 * _BLOCK, dt)
    assert ltv_outcome(ltv_rk4, *args) == ltv_outcome(numpy_ltv_rk4, *args) == \
        ("diverged", step, step * dt)


def rk4_polynomial(hA):
    """RK4's stability polynomial at -h A: I - hA + (hA)^2/2 - (hA)^3/6 + (hA)^4/24."""
    I, hA2 = np.eye(len(hA)), hA @ hA
    return I - hA + hA2 / 2.0 - hA2 @ hA / 6.0 + hA2 @ hA2 / 24.0


def psd_constant(B):
    """t -> B B^T, for a time or an array of times."""
    return psd_flow(np.reshape(B, (3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))


constant_flows = st.one_of(
    st.builds(psd_constant, st.lists(finite(-3.0, 3.0), min_size=9, max_size=9)),
    st.builds(closed_loop_ltv, st.builds(line_trajectory, st.just(0.0), finite(-10.0, 10.0),
                                         points)))


@LTV
@given(constant_flows, st.lists(finite(-10.0, 10.0), min_size=3, max_size=3),
       finite(0.01, 1.0), steps_across_blocks)
def test_a_constant_flow_steps_by_the_rk4_polynomial(A, x0, fraction, steps):
    # every step's matrix is R(-h A), so the state at step k is R^k x0; dt is a fraction of
    # the largest step within RK4's limit
    A0 = A(0.0)
    dt = fraction * _RK4_LIMIT / max(np.trace(A0), 1.0)
    R = rk4_polynomial(dt * A0)
    for _, *grids in _stage_blocks(A, dt, steps):
        M = _transition_matrices(*grids, dt)
        assert np.abs(M - R).max() <= 8 * 2.0 ** -52 * np.abs(R).max()
    states = np.stack([np.linalg.matrix_power(R, k) for k in range(steps + 1)]) @ x0
    assert within_rounding(ltv_rk4(A, x0, steps, dt)[1], np.sqrt(np.vecdot(states, states)),
                           *step_gains(A, dt, steps))


def test_blocked_integrator_matches_per_step_loop_on_test_flows():
    def rotating(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c * c, c * s], [c * s, s * s]])

    rep = stability_probe(rotating, [1.0, 0.0], T=2.0 * math.pi, epsilon=3.0,
                          t_end=3.0, dt=1e-3)
    assert within_rounding(rep.norms, numpy_ltv_rk4(rotating, [1.0, 0.0], 3000, 1e-3)[1],
                           *step_gains(rotating, 1e-3, 3000))


def test_lin_check_samples_its_reference_once_per_stage_grid():
    # one walk over the stage grids feeds the step bound and the flow; the only other grid
    # is the window Gram's, and the structure checks read single poses
    traj = ellipse_trajectory(3.0, 5.0, 2.0 * math.pi / 5.0)
    points, grids = [], []

    def state_at(t):
        points.append(t)
        return traj.state_at(t)

    def state_on_grid(ts):
        grids.append(ts)
        return traj.state_at.array_form(ts)

    state_at.array_form = state_on_grid
    dt, steps = 0.01, 2 * _BLOCK + 1

    def times(ts):
        return ts

    times.array_form = times
    walk = [grid for _, *stage in _stage_blocks(times, dt, steps) for grid in stage]
    report = lin_check(dataclasses.replace(traj, state_at=state_at), t_end=steps * dt, dt=dt)
    assert len(grids) == len(walk) + 1 == 3 * 3 + 1
    assert all(same_bits(a, b) for a, b in zip(grids, walk))
    assert same_bits(grids[-1], np.linspace(0.0, traj.period, _GRAM_POINTS))
    assert points == report.sample_times
    assert report == lin_check(traj, t_end=steps * dt, dt=dt)
