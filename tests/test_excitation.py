import math
import re

import numpy as np
import pytest

from se2track import (
    PEReport,
    actuation_gram,
    controller_regressor,
    ellipse_pe_closed_form,
    ellipse_trajectory,
    line_trajectory,
    pe_epsilon,
    uniform_heading_ellipse_regressor,
    window_gram,
)
from se2track.excitation import PE_FLOOR


def test_window_gram_is_symmetric_psd(rng):
    F = controller_regressor(ellipse_trajectory(3.0, 5.0, 2.0 * math.pi / 5.0))
    for _ in range(5):
        t = float(rng.uniform(0.0, 10.0))
        T = float(rng.uniform(0.5, 6.0))
        G = window_gram(F, t, T)
        assert np.allclose(G, G.T, atol=0.0)
        assert np.linalg.eigvalsh(G)[0] >= -1e-12


def test_window_gram_quadrature_converges():
    # doubling the Simpson sample count must not move the answer
    F = controller_regressor(ellipse_trajectory(3.0, 5.0, 2.0 * math.pi / 5.0))
    G1 = window_gram(F, 0.0, 5.0, n=401)
    G2 = window_gram(F, 0.0, 5.0, n=801)
    assert np.max(np.abs(G1 - G2)) / np.max(np.abs(G2)) < 1e-8


def test_window_gram_analytic_rotation():
    # F(t) = [cos t, sin t] over a full turn integrates to pi * I2
    def F(t):
        return np.array([[math.cos(t), math.sin(t)]])

    G = window_gram(F, 0.0, 2.0 * math.pi, n=401)
    assert np.allclose(G, math.pi * np.eye(2), atol=1e-10)


def test_window_gram_validation():
    F = controller_regressor(line_trajectory(1.0))
    with pytest.raises(ValueError):
        window_gram(F, 0.0, 0.0)
    with pytest.raises(ValueError):
        window_gram(F, 0.0, -1.0)
    with pytest.raises(ValueError):
        window_gram(F, 0.0, 1.0, n=400)  # even
    with pytest.raises(ValueError):
        window_gram(F, 0.0, 1.0, n=1)


@pytest.mark.parametrize("T, n", [(1e300, 401), (6.283185307179586e300, 201), (5.4e156, 3),
                                  (1e-300, 401), (5e-152, 401)],
                         ids=["1e300", "lin-check-window", "3-points", "1e-300", "just-below"])
def test_window_gram_refuses_a_step_whose_square_is_not_a_normal_float(T, n):
    # Simpson's weights hold that square: past either end the Gram read a third of its value
    F = controller_regressor(line_trajectory(1.0))
    with pytest.raises(ValueError, match=re.escape(f"window length T = {T!r} over n = {n} points "
                                                   f"gives a step T / (n - 1) whose square")):
        window_gram(F, 0.0, T, n)


@pytest.mark.parametrize("T", [1e150, 5e153, 1e-150, 1e-151])
def test_window_gram_integrates_at_either_end_of_the_steps_it_takes(T):
    G = window_gram(lambda t: np.ones((1, 1)), 0.0, T, n=401)
    assert G[0, 0] == pytest.approx(T, rel=1e-12)


@pytest.mark.parametrize("t, T, shown", [
    (math.nan, 1.0, "window start t must be finite"),
    (math.inf, 1.0, "window start t must be finite"),
    (0.0, math.nan, "window length T must be finite"),
    (0.0, math.inf, "window length T must be finite"),
], ids=["nan-t", "inf-t", "nan-T", "inf-T"])
def test_window_gram_rejects_non_finite_windows(t, T, shown):
    F = controller_regressor(line_trajectory(1.0))
    with pytest.raises(ValueError, match=shown):
        window_gram(F, t, T)


def test_counts_over_the_limit_are_refused_before_any_allocation():
    # numpy could not allocate either count, so a check that came too late would fail here too
    F = controller_regressor(line_trajectory(1.0))
    with pytest.raises(ValueError, match="limit of 10000000"):
        window_gram(F, 0.0, 1.0, n=10**12 + 1)
    with pytest.raises(ValueError, match="limit of 10000000"):
        pe_epsilon(F, horizon=2.0, T=1.0, windows=10**12)
    with pytest.raises(ValueError, match="limit of 10000000"):
        pe_epsilon(F, horizon=2.0, T=1.0, n=10**12 + 1)


def test_pe_epsilon_zero_and_identity_regressors():
    zero = lambda t: np.zeros((2, 3))
    rep = pe_epsilon(zero, horizon=5.0, T=1.0, windows=8, n=41)
    assert rep.epsilon == 0.0
    assert not rep.certifies_pe

    ident = lambda t: np.eye(3)
    rep = pe_epsilon(ident, horizon=5.0, T=2.0, windows=8, n=41)
    # integral of Id over a window of length T is exactly T * Id
    assert abs(rep.epsilon - 2.0) < 1e-12
    assert rep.certifies_pe


@pytest.mark.parametrize("bad", [0, 3, 7], ids=["first", "middle", "last"])
def test_pe_epsilon_is_nan_when_any_window_gram_is_not_finite(bad):
    # the windows span [0, 2], [2, 4], ..., [14, 16]; only window bad samples 2 bad + 1
    def F(t):
        return np.full((2, 3), math.inf if t == 2 * bad + 1 else 1.0)

    rep = pe_epsilon(F, horizon=16.0, T=2.0, windows=8, n=9)
    assert math.isnan(rep.epsilon)
    assert not rep.certifies_pe


def test_window_gram_refuses_a_window_that_repeats_sample_times():
    # near 2**50 floats are 0.25 apart; the step 1 / 8 is not, near 2**40
    F = lambda t: np.eye(3)
    assert window_gram(F, 2.0**40, 1.0, n=9)[0, 0] == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match=re.escape(
            f"the window at t = {2.0**50!r} of length T = 1.0 over n = 9 points has sample "
            f"times that are not strictly increasing")):
        window_gram(F, 2.0**50, 1.0, n=9)


def test_pe_epsilon_requires_horizon_at_least_one_window():
    F = controller_regressor(line_trajectory(1.0))
    with pytest.raises(ValueError):
        pe_epsilon(F, horizon=1.0, T=2.0)


def test_stationary_reference_is_not_exciting():
    # constant pose -> constant rank-2 regressor -> singular window Gram
    F = controller_regressor(line_trajectory(0.0, heading=0.3, start=(2.0, 1.0)))
    rep = pe_epsilon(F, horizon=6.0, T=2.0, windows=8, n=101)
    assert abs(rep.epsilon) < 1e-10
    assert not rep.certifies_pe


def test_ellipse_reference_is_exciting():
    traj = ellipse_trajectory(3.0, 5.0, 2.0 * math.pi / 5.0)
    F = controller_regressor(traj)
    rep = pe_epsilon(F, horizon=2.0 * traj.period, T=traj.period, windows=16, n=201)
    assert rep.epsilon > 1.0
    assert rep.certifies_pe
    assert rep.window_T == traj.period


def test_pe_report_dict_round_trip():
    F = controller_regressor(ellipse_trajectory(1.0, 1.0, 1.0))
    rep = pe_epsilon(F, horizon=12.0, T=6.0, windows=4, n=51)
    d = rep.to_dict()
    assert d["certifies_pe"] == rep.certifies_pe
    assert d["epsilon"] == rep.epsilon
    assert d["window_T"] == 6.0
    assert d["grid_points_per_window"] == 51


@pytest.mark.parametrize("a,b,h", [(3.0, 5.0, 2.0 * math.pi / 5.0), (1.0, 1.0, 1.0), (2.0, 1.0, 3.0)])
def test_ellipse_closed_form_matches_quadrature(a, b, h):
    F = uniform_heading_ellipse_regressor(a, b, h)
    T = 2.0 * math.pi / h
    G = window_gram(F, 0.0, T, n=801)
    exact = ellipse_pe_closed_form(a, b, h)
    assert np.max(np.abs(G - exact)) < 1e-9
    # window-start invariance: one full period from anywhere gives the same Gram
    G2 = window_gram(F, 1.234, T, n=801)
    assert np.max(np.abs(G2 - exact)) < 1e-9


@pytest.mark.parametrize("a,b,h", [(3.0, 5.0, -2.0 * math.pi / 5.0), (2.0, 1.0, -3.0)])
def test_ellipse_closed_form_matches_quadrature_clockwise(a, b, h):
    F = uniform_heading_ellipse_regressor(a, b, h)
    T = 2.0 * math.pi / abs(h)
    exact = ellipse_pe_closed_form(a, b, h)
    assert np.max(np.abs(window_gram(F, 0.0, T, n=801) - exact)) < 1e-9
    assert np.array_equal(exact, ellipse_pe_closed_form(a, b, -h))


def test_certifies_pe_needs_epsilon_above_the_floor():
    def report(eps):
        return PEReport(window_T=1.0, epsilon=eps, horizon=2.0, grid_points_per_window=3)

    assert not report(PE_FLOOR / 2.0).certifies_pe
    assert not report(PE_FLOOR).certifies_pe
    assert report(2.0 * PE_FLOOR).certifies_pe


def test_ellipse_closed_form_rejects_zero_rate():
    with pytest.raises(ValueError):
        ellipse_pe_closed_form(1.0, 2.0, 0.0)


@pytest.mark.parametrize("a,b,h", [(0.0, 5.0, 1.0), (3.0, 5.0, 0.0)])
def test_uniform_heading_regressor_rejects_degenerate_ellipses(a, b, h):
    with pytest.raises(ValueError):
        uniform_heading_ellipse_regressor(a, b, h)


def test_excitation_transfers_to_actuation_gram():
    # If the 2x3 regressor F is PE with level eps, the 3x3 closed-loop
    # matrix M(t) = F(t)^T F(t) (the actuation Gram) satisfies a window
    # bound with a level of the same order. Record the transfer ratio.
    traj = ellipse_trajectory(3.0, 5.0, 2.0 * math.pi / 5.0)
    F = controller_regressor(traj)
    rep = pe_epsilon(F, horizon=2.0 * traj.period, T=traj.period, windows=8, n=201)

    def M(t):
        return actuation_gram(traj.pose_at(t))

    GM = window_gram(M, 0.0, traj.period, n=401)
    lam = float(np.linalg.eigvalsh(GM)[0])
    assert rep.epsilon > 0.0
    assert lam > 0.0
    # M = F^T F is the square of the object certified PE, so its window
    # Gram cannot be better conditioned than scale allows; keep the
    # sanity bound loose but positive.
    assert lam > 0.01 * rep.epsilon
