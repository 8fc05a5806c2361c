import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se2track import (
    Pose,
    SimConfig,
    StepTooLarge,
    actuation_gram,
    adjoint_matrix,
    closed_loop_ltv,
    ellipse_trajectory,
    fd_closed_loop_jacobian,
    lin_check,
    line_trajectory,
    simulate,
    stability_probe,
)
from se2track import controller_regressor, linearization, window_gram
from se2track.se2 import B_SELECT, S_WEIGHT
from se2track.trajectories import on_grid


def random_pose(rng, scale=3.0):
    return Pose(rng.uniform(-math.pi, math.pi), scale * rng.standard_normal(2))


def test_actuation_gram_matches_adjoint_product(rng):
    for _ in range(200):
        xd = random_pose(rng)
        Ad = adjoint_matrix(xd)
        assert np.allclose(actuation_gram(xd), Ad @ B_SELECT @ B_SELECT.T @ Ad.T,
                           atol=1e-13)


def test_actuation_gram_is_symmetric_psd_rank_two(rng):
    for _ in range(100):
        M = actuation_gram(random_pose(rng))
        assert np.allclose(M, M.T, atol=0.0)
        w = np.linalg.eigvalsh(M)
        assert w[0] > -1e-12 and abs(w[0]) < 1e-10 * max(1.0, w[-1])
        assert w[1] > 1e-8  # exactly two actuated directions


def test_fd_jacobian_matches_gram_structure(rng):
    # the nonlinear loop linearized at zero error must be -M S exactly
    for _ in range(50):
        xd = random_pose(rng)
        J = fd_closed_loop_jacobian(xd)
        assert np.max(np.abs(J - (-actuation_gram(xd) @ S_WEIGHT))) < 1e-8


def test_probe_constant_identity_decays_at_unit_rate():
    rep = stability_probe(lambda t: np.eye(3), [1.0, -2.0, 0.5], T=2.0,
                          epsilon=1.5, t_end=8.0, dt=1e-3)
    # x(t) = exp(-t) x0 exactly
    assert abs(rep.fitted_rate - 1.0) < 1e-6
    assert rep.r_squared > 1.0 - 1e-9
    assert rep.norm_monotone
    assert abs(rep.norms[0] - math.sqrt(1.0 + 4.0 + 0.25)) < 1e-12
    assert rep.norms[-1] < rep.norms[0] * math.exp(-7.9)
    d = rep.to_dict()
    assert d["fitted_rate"] == rep.fitted_rate
    assert d["norm_monotone"] is True


def test_probe_rotating_projector_decays_at_half_rate():
    # A(t) projects onto a direction that sweeps the whole plane; no
    # fixed direction is damped at all times, yet every direction is
    # damped on average (rate 1/2, the mean of eigenvalues 1 and 0).
    def A(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c * c, c * s], [c * s, s * s]])

    rep = stability_probe(A, [1.0, 0.0], T=2.0 * math.pi, epsilon=3.0,
                          t_end=30.0, dt=1e-3)
    assert 0.3 < rep.fitted_rate < 0.7
    assert rep.norm_monotone


def test_probe_gate_rejects_unexcited_direction():
    # constant projector leaves its kernel untouched: window Gram is
    # singular and can never dominate a positive epsilon
    A = lambda t: np.diag([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="window Gram"):
        stability_probe(A, [1.0, 1.0, 1.0], T=2.0, epsilon=0.5, t_end=5.0)


@pytest.mark.parametrize("t_end, dt, shown", [
    (0.0, 1e-3, "t_end must be positive"),
    (1.0, 0.0, "dt must be positive"),
    (1e12, 1e-3, "limit of"),
    (1.4e-3, 1e-3, "at least two steps"),
], ids=["t-end-0", "dt-0", "1e15-steps", "one-step"])
def test_probe_checks_its_horizon_before_any_work(t_end, dt, shown):
    # the same checks as lin_check, before A is evaluated or anything allocated
    with pytest.raises(ValueError, match=shown):
        stability_probe(lambda t: np.eye(2), [1.0, 0.0], T=1.0, epsilon=0.5,
                        t_end=t_end, dt=dt)


@pytest.mark.parametrize("rise, monotone", [(1e-9, False), (1e-13, True)])
def test_probe_reads_a_rise_of_the_norm_above_1e_12_as_not_monotone(monkeypatch, rise, monotone):
    # norms of 1 that rise once, by rise, at step 300
    def ltv_rk4(blocks, x0, steps, dt):
        norms = np.ones(steps + 1)
        norms[300:] += rise
        return np.arange(steps + 1) * dt, norms

    monkeypatch.setattr(linearization, "_ltv_rk4", ltv_rk4)
    rep = stability_probe(lambda t: np.eye(3), [1.0, 0.0, 0.0], T=1.0, epsilon=0.5, t_end=1.0)
    assert rep.norm_monotone is monotone


def test_probe_fits_the_trailing_six_tenths_of_the_horizon():
    rep = stability_probe(lambda t: np.eye(3), [1.0, 0.0, 0.0], T=1.0, epsilon=0.5, t_end=5.0,
                          dt=1e-3)
    assert rep.fit_window == (2.0, 5.0)


def test_excitation_integrates_a_constant_A_exactly():
    assert linearization._excitation(lambda t: np.diag([1.0, 0.5]), 2.0) == 1.0


def _excitation_of_square_roots(A, T, points):
    """The same level by another route: the window Gram of A's PSD square root R, R^T R = A."""

    def R(ts):
        w, V = np.linalg.eigh(on_grid(A, ts))
        return (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(V, -1, -2)

    R.array_form = R
    return float(np.linalg.eigvalsh(window_gram(R, 0.0, T, points))[0])


axis = st.floats(0.3, 6.0)
rate = st.one_of(st.floats(0.3, 3.0), st.floats(-3.0, -0.3))
centre = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))


@settings(max_examples=60, deadline=None)
@given(axis, axis, rate, centre)
def test_excitation_is_the_window_gram_of_the_square_root_of_A_z(a, b, h, origin):
    traj = ellipse_trajectory(a, b, h, origin)
    A = closed_loop_ltv(traj)
    eps = linearization._excitation(A, traj.period)
    assert eps == pytest.approx(_excitation_of_square_roots(A, traj.period, 201), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(axis, axis, rate, centre)
def test_pe_checks_gram_bounds_lin_checks_excitation_by_congruence(a, b, h, origin):
    # F^T F = sqrt(S) A_z sqrt(S), and the eigenvalues of S lie in [1, 2]
    traj = ellipse_trajectory(a, b, h, origin)
    eps = linearization._excitation(closed_loop_ltv(traj), traj.period)
    G = window_gram(controller_regressor(traj), 0.0, traj.period, 201)
    eps_pe = float(np.linalg.eigvalsh(G)[0])
    assert eps * (1.0 - 1e-12) <= eps_pe <= 2.0 * eps * (1.0 + 1e-12)


def test_probe_rejects_bad_inputs():
    with pytest.raises(ValueError, match="epsilon"):
        stability_probe(lambda t: np.eye(2), [1.0, 0.0], T=1.0, epsilon=0.0,
                        t_end=2.0)
    asym = lambda t: np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        stability_probe(asym, [1.0, 0.0], T=1.0, epsilon=0.1, t_end=2.0)
    indef = lambda t: np.diag([1.0, -1.0])
    with pytest.raises(ValueError, match="semi-definite"):
        stability_probe(indef, [1.0, 0.0], T=1.0, epsilon=0.1, t_end=2.0)
    with pytest.raises(ValueError, match="window length T must be finite"):
        stability_probe(lambda t: np.eye(2), [1.0, 0.0], T=math.nan, epsilon=0.1, t_end=2.0)


@pytest.mark.parametrize("x0, shown", [
    ([1.0, 0.0], "has size 2, but A(t) is 3 x 3"),
    ([1.0, 0.0, 0.0, 0.0], "has size 4, but A(t) is 3 x 3"),
    ([[1.0, 0.0, 0.0]], "must be a flat sequence of numbers, got [[1.0, 0.0, 0.0]]"),
    (np.ones((1, 3)), "must be a flat sequence of numbers, got array([[1., 1., 1.]])"),
    (1.0, "must be a flat sequence of numbers, got 1.0"),
    ("1,0,0", "must be a flat sequence of numbers, got '1,0,0'"),
], ids=["short", "long", "nested", "nested-array", "scalar", "text"])
def test_probe_refuses_an_initial_state_that_does_not_fit_A(x0, shown):
    with pytest.raises(ValueError) as exc:
        stability_probe(lambda t: np.eye(3), x0, T=1.0, epsilon=0.5, t_end=2.0)
    assert str(exc.value) == f"initial state x0 {shown}"


@pytest.mark.parametrize("A, shown", [
    (lambda t: np.full((3, 3), math.nan), "A(0.000) is not finite"),
    (lambda t: np.diag([math.inf, 1.0, 1.0]), "A(0.000) is not finite"),
    (lambda t: np.diag([1.0, 1.0, math.inf if t > 1.0 else 1.0]), "A(1.091) is not finite"),
], ids=["nan", "inf", "inf-later"])
def test_probe_refuses_an_A_that_is_not_finite(A, shown):
    # NaN passes the symmetry, PSD and epsilon comparisons, and inf - inf warns
    with pytest.raises(ValueError) as exc:
        stability_probe(A, [1.0, 0.0, 0.0], T=1.0, epsilon=0.5, t_end=2.0)
    assert str(exc.value) == shown


def test_probe_refuses_an_A_that_is_not_square():
    with pytest.raises(ValueError, match=r"A\(t\) must be a square matrix, got shape \(3, 2\)"):
        stability_probe(lambda t: np.ones((3, 2)), [1.0, 0.0, 0.0], T=1.0, epsilon=0.5, t_end=2.0)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_probe_refuses_an_A_larger_than_3_x_3(n):
    # the integrator steps states of three entries; smaller flows run padded with zeros
    with pytest.raises(ValueError) as exc:
        stability_probe(lambda t: np.eye(n), [1.0] * n, T=1.0, epsilon=0.5, t_end=2.0)
    assert str(exc.value) == f"A(t) is {n} x {n}, but only flows of size 1 to 3 are integrated"


def test_probe_raises_when_rk4_cannot_hold_the_flow():
    # dt * lambda = 10 lies far outside RK4's stability interval (about 2.785), where |x|
    # would grow by about 290 per step; the probe refuses the step by dt * trace(A) = 30
    with pytest.raises(StepTooLarge) as exc:
        stability_probe(lambda t: 1e4 * np.eye(3), [1.0, 1.0, 1.0], T=1.0, epsilon=1.0,
                        t_end=1.0, dt=1e-3)
    assert str(exc.value) == ("dt * trace(A) reaches 30 > 2.785: dt = 0.001 is too large a step "
                              "for this flow; dt <= 9.283e-05 fits")


def test_probe_refuses_a_flow_whose_trace_is_nan():
    # a NaN trace, as 0 * inf in A gives, is past every limit, as inf is; the checks
    # at 23 sample times miss the NaN between 5.1 s and 5.2 s
    def A(t):
        return np.full((2, 2), math.nan) if 5.1 < t < 5.2 else np.eye(2)

    with pytest.raises(StepTooLarge) as exc:
        stability_probe(A, [1.0, 0.5], T=1.0, epsilon=0.5, t_end=10.0, dt=0.01)
    assert str(exc.value) == ("dt * trace(A) reaches inf > 2.785: dt = 0.01 is too large a step "
                              "for this flow; no dt fits")


coordinates = st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.floats(-math.pi, math.pi), coordinates, coordinates)
def test_trace_of_A_z_bounds_the_rates_of_the_loop(theta, px, py):
    # lin_check bounds its step with trace(A_z), which is 3 + |p_d|^2, and no
    # rate of the linearized nonlinear loop exceeds it
    xd = Pose(theta, np.array([px, py]))
    bound = 3.0 + px * px + py * py
    A_z = linearization._SQRT_S @ actuation_gram(xd) @ linearization._SQRT_S
    assert np.trace(A_z) == pytest.approx(bound, rel=1e-12)
    rates = np.real(np.linalg.eigvals(-fd_closed_loop_jacobian(xd)))
    assert np.max(rates) <= bound * (1.0 + 1e-6)


def test_lin_check_refuses_a_step_past_rk4s_limit():
    traj = ellipse_trajectory(3.0, 5.0, 2.0 * math.pi / 5.0, origin=(50.0, 0.0))
    # 3 + 53^2 = 2812 at the stage time 0
    with pytest.raises(StepTooLarge, match=r"reaches 2\.812 > 2\.785.*dt <= 0\.0009903 fits"):
        lin_check(traj, t_end=1.0)
    lin_check(traj, t_end=0.1, dt=0.0009903)


def test_lin_check_stops_integrating_at_the_first_block_past_the_limit():
    # dt * (3 + (10 t)^2) passes 2.785 at t = 5.27 s, in block 10, and peaks at t = 10 s; the
    # refusal names the peak over the whole horizon, as a bound taken before integrating would
    walked = []
    with pytest.raises(StepTooLarge, match=r"reaches 10 > 2\.785.*dt <= 0\.0002784 fits"):
        for ks, *_ in linearization._within_rk4_limit(closed_loop_ltv(line_trajectory(10.0)),
                                                      1e-3, 10_000, "trace(A_z)", "reference"):
            walked.append(ks)
    assert walked == [range(k * 512, (k + 1) * 512) for k in range(10)]


def test_lin_check_refuses_a_reference_not_finite_past_the_limit():
    # the trace overflows long before the reference does, at t = 180 s
    with pytest.raises(ValueError, match="is not finite in floats on the run's times"):
        lin_check(line_trajectory(1e306), t_end=200.0)
    with pytest.raises(StepTooLarge, match="reaches inf > 2.785.*no dt fits"):
        lin_check(line_trajectory(1e306), t_end=100.0)


# centred circles (r, h), on which the linearization is time-invariant in a rotating frame
CIRCLES = [(1.0, 1.0), (3.0, 2.0 * math.pi / 5.0), (2.0, -0.7), (0.5, 3.0)]


def rotating_frame_generator(r, h):
    """A0 + K of the circle: A_z(t) = Q(t) A0 Q(t)^T with Q = diag(1, R(ht)), so y = Q^T z
    obeys y' = -(A0 + K) y, and the Floquet rate is min Re eig(A0 + K)."""
    sqrt_S = np.sqrt(S_WEIGHT)
    M0 = np.array(linearization._actuation_gram_rows(0.0, math.copysign(1.0, h), r, 0.0))
    K = h * np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    return sqrt_S @ M0 @ sqrt_S + K


@pytest.mark.parametrize("r, h", CIRCLES)
def test_lin_checks_flow_on_a_centred_circle_is_its_closed_form(monkeypatch, r, h):
    # |z(t)| = |y(t)| = |exp(-(A0 + K) t) z0|
    flows = []
    fit = linearization._fit_log_norm
    monkeypatch.setattr(linearization, "_fit_log_norm",
                        lambda times, norms: flows.append((times, norms)) or fit(times, norms))
    lin_check(ellipse_trajectory(r, r, h), t_end=25.0, dt=1e-3)
    [(times, norms)] = flows

    w, V = np.linalg.eig(rotating_frame_generator(r, h))
    c = np.linalg.solve(V, np.ones(3) / math.sqrt(3.0))
    exact = np.linalg.norm((np.exp(-np.outer(times, w)) * c) @ V.T, axis=1)
    assert len(times) == 25_001
    assert np.max(np.abs(norms - exact) / exact) < 1e-10


@pytest.mark.parametrize("r, h", CIRCLES)
def test_the_probes_rate_on_a_centred_circle_is_its_floquet_rate(r, h):
    # at 25 s the fit still reads the fast modes' tail, off by up to 7.7e-3; at 100 s by 5.9e-4
    circle = ellipse_trajectory(r, r, h)
    rate = float(np.min(np.linalg.eigvals(rotating_frame_generator(r, h)).real))
    report = stability_probe(closed_loop_ltv(circle), np.ones(3) / math.sqrt(3.0),
                             T=circle.period, epsilon=1e-9, t_end=100.0, dt=1e-3)
    assert report.fitted_rate == pytest.approx(rate, rel=1e-3)


@pytest.mark.parametrize("circle, t_end", zip(CIRCLES, [60.0, 150.0, 120.0, 40.0]))
def test_log_L_of_a_spatial_run_on_a_centred_circle_decays_at_twice_its_floquet_rate(
        circle, t_end):
    # L is quadratic in the error, whose slow modes are a complex pair -rate +- i omega; so
    # ln L falls by 2 rate per unit time over whole periods pi / omega of its ripple. Above
    # L = 1e-6 the nonlinear terms still count, and near 1e-16 2 (1 - cos theta_E) rounds to 0
    r, h = circle
    w = np.linalg.eigvals(rotating_frame_generator(r, h))
    slow = w[np.argmin(w.real)]
    log = simulate(SimConfig(trajectory=ellipse_trajectory(r, r, h).descriptor,
                             offset=(0.3, -0.2, 0.4), dt=1e-3, t_end=t_end))
    t, L = log.t, log.lyap
    t0, t1 = t[np.argmax(L < 1e-6)], t[np.argmax(L < 1e-14)]
    period = math.pi / abs(slow.imag)
    span = math.floor((t1 - t0) / period) * period
    assert span > 0.0
    slope = (math.log(np.interp(t0 + span, t, L)) - math.log(np.interp(t0, t, L))) / span
    assert slope == pytest.approx(-2.0 * slow.real, rel=1e-2)


def test_closed_loop_ltv_is_similar_to_raw_linearization():
    traj = ellipse_trajectory(3.0, 5.0, 2.0 * math.pi / 5.0)
    A_z = closed_loop_ltv(traj)
    for t in np.linspace(0.0, traj.period, 11):
        t = float(t)
        Az = A_z(t)
        assert np.allclose(Az, Az.T, atol=1e-12)
        assert np.linalg.eigvalsh(Az)[0] > -1e-12
        # similarity transform preserves the spectrum of M S
        MS = actuation_gram(traj.pose_at(t)) @ S_WEIGHT
        assert np.allclose(np.sort(np.linalg.eigvalsh(Az)),
                           np.sort(np.real(np.linalg.eigvals(MS))), atol=1e-10)


def test_lin_check_on_exciting_ellipse():
    traj = ellipse_trajectory(3.0, 5.0, 2.0 * math.pi / 5.0)
    rep = lin_check(traj, t_end=25.0)
    assert rep.max_structure_residual < 1e-12
    assert rep.max_fd_residual < 1e-8
    assert rep.pe_epsilon > 0.1
    assert rep.verdict.startswith("PE")
    assert 0.05 < rep.fitted_decay_rate < 0.5
    assert rep.r_squared > 0.9
    d = rep.to_dict()
    assert d["verdict"] == rep.verdict
    assert len(d["sample_times"]) == 10


def test_lin_check_fits_once_as_stability_probe_does(monkeypatch):
    # one window Gram and one integration, with the decay fit that the
    # probe reports on the same flow
    traj = ellipse_trajectory(3.0, 5.0, 2.0 * math.pi / 5.0)
    grams = []
    excitation = linearization._excitation
    monkeypatch.setattr(linearization, "_excitation",
                        lambda *args: grams.append(args) or excitation(*args))
    monkeypatch.setattr(linearization, "stability_probe", None)
    rep = lin_check(traj, t_end=5.0)
    monkeypatch.undo()
    assert len(grams) == 1
    probe = stability_probe(closed_loop_ltv(traj), np.ones(3) / math.sqrt(3.0), traj.period,
                            0.9 * rep.pe_epsilon, t_end=5.0)
    assert (rep.fitted_decay_rate, rep.r_squared, rep.fit_window) == \
        (probe.fitted_rate, probe.r_squared, probe.fit_window)


def test_lin_check_on_stationary_reference():
    rep = lin_check(line_trajectory(0.0, heading=0.4, start=(1.0, 2.0)),
                    t_end=10.0)
    assert rep.max_structure_residual < 1e-12
    assert rep.max_fd_residual < 1e-8
    assert rep.pe_epsilon <= 1e-9
    assert rep.verdict.startswith("not PE")
    # the kernel component survives, so the tail norm is flat
    assert abs(rep.fitted_decay_rate) < 1e-2
