import json
import math
import multiprocessing
import os
import pickle
import re
import signal
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from se2track import (
    CSV_COLUMNS,
    BasinSummary,
    ErrorKind,
    Gains,
    GroupError,
    KanayamaGains,
    Pose,
    SimConfig,
    SimLog,
    SimulationDiverged,
    StepTooLarge,
    compare_controllers,
    kanayama_control,
    left_error,
    lyapunov,
    monte_carlo_basin,
    right_error,
    simulate,
    stability_probe,
    total_control,
    trajectory_from_descriptor,
    wrap_angle,
)
from se2track import engine
from se2track.cli import _write_json, main
from se2track.engine import _BLOCK, _log_rows, _make_controller
from se2track.errors import _lyapunov_cos, _spatial_position
from se2track.trajectories import _MAX_STEPS

CIRCLE = {"family": "ellipse", "a": 1.0, "b": 1.0, "h": 1.0, "origin": [0.0, 0.0]}

def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# references for the bit-for-bit kernel checks
BIT_DESCS = [
    {"family": "ellipse", "a": 3.0, "b": 5.0, "h": 2.0 * math.pi / 5.0, "origin": [1.0, -2.0]},
    {"family": "line", "speed": 1.3, "heading": 0.7, "start": [0.5, 0.2]},
]


def test_log_shape_and_time_grid(ellipse_desc):
    cfg = SimConfig(trajectory=ellipse_desc, dt=1e-3, t_end=5.0)
    log = simulate(cfg)
    assert len(log) == 5001
    assert log.data.shape == (5001, len(CSV_COLUMNS))
    assert np.array_equal(log.t, np.arange(5001) * 1e-3)
    assert log.config == cfg


def test_initial_state_is_reference_plus_offset(ellipse_desc):
    off = (3.0, -2.0, math.pi / 2)
    log = simulate(SimConfig(trajectory=ellipse_desc, offset=off, t_end=0.01))
    r0 = log.data[0]
    assert abs(r0[2] - (r0[5] + 3.0)) < 1e-15  # px = pxd + dx
    assert abs(r0[3] - (r0[6] - 2.0)) < 1e-15
    dth = math.atan2(math.sin(r0[1] - r0[4]), math.cos(r0[1] - r0[4]))
    assert abs(dth - math.pi / 2) < 1e-12


def test_logged_lyapunov_recomputes_from_error_columns(centered_log):
    eRt = centered_log.column("eR_theta")
    ex = centered_log.column("eR_px")
    ey = centered_log.column("eR_py")
    L = 2.0 * (1.0 - np.cos(eRt)) + 0.5 * (ex * ex + ey * ey)
    assert np.array_equal(L, centered_log.lyap)


def test_error_columns_match_definitions(centered_log):
    d = centered_log.data
    th, px, py = d[:, 1], d[:, 2], d[:, 3]
    thd, pxd, pyd = d[:, 4], d[:, 5], d[:, 6]
    thE = np.arctan2(np.sin(th - thd), np.cos(th - thd))
    assert np.allclose(d[:, 7], thE, atol=1e-12)
    assert np.allclose(d[:, 10], thE, atol=1e-12)
    # body-frame position error
    cd, sd = np.cos(thd), np.sin(thd)
    assert np.allclose(d[:, 8], cd * (px - pxd) + sd * (py - pyd), atol=1e-12)
    assert np.allclose(d[:, 9], -sd * (px - pxd) + cd * (py - pyd), atol=1e-12)
    # spatial position error
    cE, sE = np.cos(thE), np.sin(thE)
    assert np.allclose(d[:, 11], px - (cE * pxd - sE * pyd), atol=1e-12)
    assert np.allclose(d[:, 12], py - (sE * pxd + cE * pyd), atol=1e-12)


def test_helper_columns(centered_log):
    he = centered_log.heading_error()
    pe = centered_log.position_error()
    assert np.array_equal(he, np.abs(centered_log.column("eR_theta")))
    assert np.array_equal(
        pe,
        np.hypot(
            centered_log.column("px") - centered_log.column("pxd"),
            centered_log.column("py") - centered_log.column("pyd"),
        ),
    )


def test_simulation_is_deterministic(ellipse_desc):
    cfg = SimConfig(trajectory=ellipse_desc, offset=(1.0, 0.5, 0.3), t_end=3.0)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.data, b.data)
    # the seed field is metadata for batch experiments; it must not
    # change a single run
    c = simulate(SimConfig(trajectory=ellipse_desc, offset=(1.0, 0.5, 0.3),
                           t_end=3.0, seed=12345))
    assert np.array_equal(a.data, c.data)


def test_csv_round_trip_and_stable_bytes(tmp_path, ellipse_desc):
    cfg = SimConfig(trajectory=ellipse_desc, offset=(0.4, -0.2, 0.5), t_end=1.0)
    log = simulate(cfg)
    p1 = tmp_path / "run.csv"
    p2 = tmp_path / "run_again.csv"
    log.to_csv(p1)
    back = SimLog.from_csv(p1)
    assert np.array_equal(back.data, log.data)  # repr round-trips exactly
    back.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_csv_rejects_foreign_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        SimLog.from_csv(p)


@pytest.mark.parametrize("body", ["", "\n", "\n \r\n\t\n"], ids=["none", "blank", "blanks"])
def test_a_log_without_rows_reads_back_without_a_warning(tmp_path, body):
    p = tmp_path / "run.csv"
    p.write_text(",".join(CSV_COLUMNS) + "\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SimLog.from_csv(p).data.shape == (0, len(CSV_COLUMNS))


def test_blank_lines_between_rows_are_skipped(tmp_path):
    data = np.arange(3.0 * len(CSV_COLUMNS)).reshape(3, -1)
    p = tmp_path / "run.csv"
    rows = [",".join(map(repr, row)) for row in data.tolist()]
    p.write_text("\n".join([",".join(CSV_COLUMNS), "", rows[0], "  ", rows[1], rows[2], "", ""]))
    assert np.array_equal(SimLog.from_csv(p).data, data)


_ROW = "1," * 17 + "1\n"


@pytest.mark.parametrize("body", [_ROW + "1," * 17 + "\n", _ROW + "1," * 16 + "1\n",
                                  _ROW + "1," * 17 + "x\n", _ROW + "1," * 18 + "1\n",
                                  "1," * 35 + "1\n"],
                         ids=["empty-field", "missing-field", "text-field", "extra-field",
                              "two-rows-in-one"])
def test_a_malformed_row_is_a_value_error(tmp_path, body):
    p = tmp_path / "run.csv"
    p.write_text(",".join(CSV_COLUMNS) + "\n" + body)
    with pytest.raises(ValueError):
        SimLog.from_csv(p)


def test_config_validation(ellipse_desc):
    with pytest.raises(ValueError, match="controller"):
        SimConfig(trajectory=ellipse_desc, controller="pid")
    with pytest.raises(ValueError, match="dt"):
        SimConfig(trajectory=ellipse_desc, dt=0.0)
    with pytest.raises(ValueError, match="t_end"):
        SimConfig(trajectory=ellipse_desc, dt=1e-2, t_end=1e-3)
    with pytest.raises(ValueError, match="offset"):
        SimConfig(trajectory=ellipse_desc, offset=(1.0, 2.0))
    with pytest.raises(ValueError, match="offset must be finite"):
        SimConfig(trajectory=ellipse_desc, offset=(1.0, math.nan, 0.0))
    with pytest.raises(ValueError, match="t_end must be finite"):
        SimConfig(trajectory=ellipse_desc, t_end=math.inf)
    with pytest.raises(ValueError, match="dt must be finite"):
        SimConfig(trajectory=ellipse_desc, dt=math.nan)
    with pytest.raises(ValueError, match="gains must be finite"):
        SimConfig(trajectory=ellipse_desc, gains=(1.0, math.inf))


@pytest.mark.parametrize("controller, gains", [
    ("spatial", (1.0, 2.0, 3.0)),
    ("spatial", (1.0,)),
    ("kanayama", (1.0, 2.0)),
])
def test_config_rejects_wrong_gain_count(ellipse_desc, controller, gains):
    with pytest.raises(ValueError, match=f"expected .* got {len(gains)}"):
        SimConfig(trajectory=ellipse_desc, controller=controller, gains=gains)


def test_config_checks_gain_signs_and_feedforward_ignores_gains(ellipse_desc):
    with pytest.raises(ValueError, match="non-negative"):
        SimConfig(trajectory=ellipse_desc, gains=(-1.0, 1.0))
    with pytest.raises(ValueError, match="positive"):
        SimConfig(trajectory=ellipse_desc, controller="kanayama", gains=(1.0, 0.0, 1.0))
    SimConfig(trajectory=ellipse_desc, controller="feedforward", gains=(1.0, 2.0, 3.0, 4.0))


def test_config_dict_round_trip(ellipse_desc):
    cfg = SimConfig(trajectory=ellipse_desc, controller="kanayama",
                    gains=(2.0, 8.0, 4.0), offset=(0.1, 0.2, -0.3),
                    dt=5e-3, t_end=12.0, seed=7)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    plain = SimConfig(trajectory=ellipse_desc)
    assert SimConfig.from_dict(plain.to_dict()) == plain


def test_config_built_in_code_equals_its_manifest_read_back(ellipse_desc):
    cfg = SimConfig(trajectory=ellipse_desc, gains=[1, 2], offset=[1, 0, 0], dt=1, t_end=40)
    again = SimConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert json.dumps(again.to_dict()) == json.dumps(cfg.to_dict())
    assert (cfg.gains, cfg.offset, cfg.dt, cfg.t_end) == ((1, 2), (1, 0, 0), 1.0, 40.0)
    assert type(cfg.dt) is float and type(cfg.t_end) is float


def test_feedforward_freezes_spatial_error(ellipse_desc):
    # with u = u_d the spatial error of the integrated loop stays put
    cfg = SimConfig(trajectory=ellipse_desc, controller="feedforward",
                    offset=(3.0, -2.0, math.pi / 2), t_end=5.0)
    log = simulate(cfg)
    for name in ("eR_theta", "eR_px", "eR_py"):
        col = log.column(name)
        assert np.max(np.abs(col - col[0])) < 1e-8, name
    # while the body error meanwhile moves a lot
    assert np.max(np.abs(log.column("eL_px") - log.column("eL_px")[0])) > 1.0
    # and the correction channels log zero
    assert np.array_equal(log.column("omega_tilde"), np.zeros(len(log)))
    assert np.array_equal(log.column("v_tilde"), np.zeros(len(log)))


def test_feedforward_tracks_exactly_from_zero_offset():
    cfg = SimConfig(trajectory=CIRCLE, controller="feedforward", t_end=6.0)
    log = simulate(cfg)
    assert np.max(log.position_error()) < 1e-10
    assert np.max(log.heading_error()) < 1e-10


def test_spatial_lyapunov_descends_monotonically(centered_log):
    dL = np.diff(centered_log.lyap)
    assert np.max(dL) <= 1e-12
    # offset (3, -2, pi/2) from p_d(0) = (3, 0): the spatial position
    # error is p_E(0) = p_d + dp - R(pi/2) p_d = (6, -5), so
    # L(0) = 2(1 - cos(pi/2)) + 0.5 (36 + 25) = 32.5
    assert centered_log.lyap[0] == pytest.approx(32.5, abs=1e-12)
    assert centered_log.lyap[-1] < 1e-3


def test_descent_holds_for_scaled_gains(ellipse_desc):
    for gains in ((0.5, 2.0), (3.0, 0.3), (2.0, 2.0)):
        cfg = SimConfig(trajectory=ellipse_desc, gains=gains,
                        offset=(1.5, -1.0, 0.8), t_end=10.0)
        log = simulate(cfg)
        assert np.max(np.diff(log.lyap)) < 0.0, gains


def test_logged_control_splits_into_feedforward_plus_correction(centered_log):
    # omega == omega_d + omega_tilde cannot be checked without omega_d
    # in the log, but the correction channels must vanish exactly when
    # the error does, and be finite throughout
    assert np.all(np.isfinite(centered_log.data))
    tail = centered_log.column("omega_tilde")[-100:]
    assert np.max(np.abs(tail)) < 1e-1


def test_small_lyapunov_implies_small_errors(offcenter_log):
    # empirical counterpart of the distance bound: wherever the run has
    # driven the Lyapunov value below 1e-6, both raw tracking errors are
    # already inside 1e-2
    L = offcenter_log.lyap
    mask = L < 1e-6
    assert mask.any()
    assert np.max(offcenter_log.heading_error()[mask]) < 1e-2
    assert np.max(offcenter_log.position_error()[mask]) < 1e-2


def closed_loop_end(dt):
    cfg = SimConfig(trajectory=CIRCLE, offset=(0.5, 0.3, 0.4), dt=dt, t_end=2.0)
    r = simulate(cfg).data[-1]
    return np.array([r[1], r[2], r[3]])


def ltv_flow_end(dt):
    # the rotating rank-1 projector of criterion 11; at t = 3 the norm's leading error term
    # is far from a zero crossing, which it passes near t = 2
    def A(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c * c, c * s], [c * s, s * s]])

    return stability_probe(A, [1.0, 0.0], T=2.0 * math.pi, epsilon=3.0, t_end=3.0,
                           dt=dt).norms[-1:]


@pytest.mark.parametrize("end_state, dt", [(closed_loop_end, 4e-3), (ltv_flow_end, 2e-2)],
                         ids=["closed-loop", "ltv-flow"])
def test_integrator_is_fourth_order(end_state, dt):
    # halving dt must shrink the endpoint error by about 2^4
    ref = end_state(1.25e-4)
    e1 = np.linalg.norm(end_state(dt) - ref)
    e2 = np.linalg.norm(end_state(dt / 2.0) - ref)
    assert 4.0 < e1 / e2 < 64.0


@pytest.mark.parametrize("dt, grows", [(engine._RK4_LIMIT, False), (2.786, True)])
def test_rk4_limit_is_the_steps_stability_limit(dt, grows):
    # on x_dot = -x one step multiplies x by R(-dt) = 1 - dt + dt^2/2 - dt^3/6 + dt^4/24,
    # 0.99956 at the limit and 1.0011 just past it
    def decay(_, p, q, r):
        return -p, -q, -r, None

    p, q, r, _ = engine._rk4_step(decay, None, None, None, 1.0, -2.0, 0.5, dt)
    assert (abs(p) > 1.0, abs(q) > 2.0, abs(r) > 0.5) == (grows,) * 3


def test_kanayama_converges_near_track(ellipse_desc):
    cfg = SimConfig(trajectory=ellipse_desc, controller="kanayama",
                    offset=(0.1, -0.1, 0.1), t_end=20.0)
    log = simulate(cfg)
    assert log.position_error()[-1] < 1e-3
    assert log.heading_error()[-1] < 1e-3


LAW_DESCS = [
    {"family": "ellipse", "a": 3.0, "b": 5.0, "h": 2.0 * math.pi / 5.0, "origin": [0.0, 0.0]},
] + BIT_DESCS


@pytest.mark.parametrize("controller, gains", [
    ("spatial", (1.0, 1.0)),
    ("spatial", (0.5, 2.0)),
    ("kanayama", (2.0, 8.0, 4.0)),
    ("kanayama", (1.0, 3.0, 0.5)),
    ("feedforward", None),
], ids=["spatial-unit", "spatial-scaled", "kanayama-default", "kanayama-other", "feedforward"])
@settings(max_examples=60, deadline=None)
@given(desc=st.sampled_from(LAW_DESCS), t=finite(0.0, 10.0), theta=finite(-math.pi, math.pi),
       px=finite(-9.0, 9.0), py=finite(-9.0, 9.0))
def test_engine_control_matches_library_law(controller, gains, desc, t, theta, px, py):
    # the scalar hot-loop law must agree with the structured library law,
    # which goes through the compose-based errors, at arbitrary states and times
    cfg = SimConfig(trajectory=desc, controller=controller, gains=gains)
    traj = trajectory_from_descriptor(desc)
    x = Pose(theta, (px, py))
    om, v, omt, vt, *error = _make_controller(cfg)(traj.state_at(t), x.theta, x.p[0], x.p[1])
    ud = traj.input_at(t)
    if controller == "feedforward":
        assert (om, v, omt, vt, *error) == (ud.omega, ud.v, 0.0, 0.0)
        return
    if controller == "spatial":
        u = total_control(x, traj.pose_at(t), ud, Gains(*gains))
        # the spatial law hands its error on, from which the kernel takes L
        L = lyapunov(right_error(x, traj.pose_at(t)))
        assert _lyapunov_cos(*error) == pytest.approx(L, rel=1e-12, abs=1e-12)
    else:
        assert error == []
        u = kanayama_control(left_error(x, traj.pose_at(t)), ud, KanayamaGains(*gains))
    assert abs(om - u.omega) < 1e-12
    assert abs(v - u.v) < 1e-12
    assert abs(omt - (u.omega - ud.omega)) < 1e-12
    assert abs(vt - (u.v - ud.v)) < 1e-12


def test_divergence_is_reported_with_step(ellipse_desc):
    cfg = SimConfig(trajectory=ellipse_desc, offset=(3.0, -2.0, math.pi / 2),
                    dt=100.0, t_end=10000.0)
    with pytest.raises(SimulationDiverged) as exc:
        simulate(cfg)
    assert exc.value.step >= 1
    assert exc.value.t == pytest.approx(exc.value.step * 100.0)
    assert "step" in str(exc.value)


def test_divergence_unpickles_as_itself():
    # a forked basin worker hands its divergence to the parent through pickle
    exc = pickle.loads(pickle.dumps(SimulationDiverged(3, 0.03)))
    assert type(exc) is SimulationDiverged
    assert (exc.step, exc.t) == (3, 0.03)
    assert str(exc) == "non-finite state at step 3 (t = 0.03)"


def test_basin_draw_mapping_hits_requested_error():
    # place the vehicle so the initial spatial error equals the draw: a
    # single-sample sweep started from a known seed must report exactly
    # the Lyapunov value of the matching hand-built run
    import numpy.random as npr

    desc = {"family": "ellipse", "a": 3.0, "b": 5.0, "h": 2.0 * math.pi / 5.0,
            "origin": [3.0, 3.0]}
    cfg = SimConfig(trajectory=desc, t_end=2.0, dt=1e-2, seed=42)
    summary = monte_carlo_basin(cfg, samples=1, threshold=1e-6)

    rng = npr.default_rng(42)
    thE = rng.uniform(-math.pi + 0.05, math.pi - 0.05)
    pEx = rng.uniform(-5.0, 5.0)
    pEy = rng.uniform(-5.0, 5.0)
    c, s = math.cos(thE), math.sin(thE)
    pdx0, pdy0 = 3.0 + 3.0, 3.0  # ellipse start point
    dx = pEx + (c * pdx0 - s * pdy0) - pdx0
    dy = pEy + (s * pdx0 + c * pdy0) - pdy0
    log = simulate(SimConfig(trajectory=desc, offset=(dx, dy, thE),
                             t_end=2.0, dt=1e-2))
    assert abs(log.column("eR_theta")[0] - thE) < 1e-12
    assert abs(log.column("eR_px")[0] - pEx) < 1e-12
    assert abs(log.column("eR_py")[0] - pEy) < 1e-12
    assert summary.final_lyapunov[0] == pytest.approx(float(log.lyap[-1]), rel=1e-12)


def basin_draws(samples, seed):
    """The spatial errors (theta_E, p_Ex, p_Ey) that monte_carlo_basin draws, in order."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(-math.pi + 0.05, math.pi - 0.05), rng.uniform(-5.0, 5.0),
             rng.uniform(-5.0, 5.0)) for _ in range(samples)]


def basin_offsets(desc, samples, seed):
    """The offsets monte_carlo_basin runs, in draw order (default margins)."""
    _, pdx0, pdy0, _, _ = trajectory_from_descriptor(desc).state_at(0.0)
    offsets = []
    for thE, pEx, pEy in basin_draws(samples, seed):
        c, s = math.cos(thE), math.sin(thE)
        offsets.append((pEx + (c * pdx0 - s * pdy0) - pdx0,
                        pEy + (s * pdx0 + c * pdy0) - pdy0, thE))
    return offsets


@pytest.mark.parametrize("controller", ["spatial", "kanayama", "feedforward"])
@pytest.mark.parametrize("desc", BIT_DESCS, ids=["ellipse", "line"])
def test_basin_finals_equal_simulate_bit_for_bit(monkeypatch, desc, controller):
    # a basin sample skips the log and steps a block of every sample of its range before the
    # next block, but must end on the very same state as its own run, in one range or in two
    cfg = SimConfig(trajectory=desc, controller=controller, t_end=8.0, dt=5e-3, seed=11)
    assert cfg.steps > 3 * _BLOCK
    finals = [float(simulate(replace(cfg, offset=offset)).lyap[-1])
              for offset in basin_offsets(desc, 4, 11)]
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: cpus)
        assert monte_carlo_basin(cfg, samples=4).final_lyapunov == finals


def _log_row(t: float, th: float, px: float, py: float, ref, u: tuple) -> tuple:
    """The CSV_COLUMNS row at time t: state, reference, both errors, L and the control u."""
    thd, pdx, pdy, _, _ = ref
    thE = wrap_angle(th - thd)
    cE = math.cos(thE)
    eRx, eRy = _spatial_position(cE, math.sin(thE), px, py, pdx, pdy)
    cd = math.cos(thd)
    sd = math.sin(thd)
    gx = px - pdx
    gy = py - pdy
    return (t, th, px, py, thd, pdx, pdy,
            thE, cd * gx + sd * gy, -sd * gx + cd * gy,
            thE, eRx, eRy, _lyapunov_cos(cE, eRx, eRy)) + u


def per_step_reference_log(cfg):
    """The log of the per-step loop that called state_at at every RK4 stage."""
    from se2track.engine import _initial_state

    state_at = trajectory_from_descriptor(cfg.trajectory).state_at
    control = _make_controller(cfg)

    def f(t, th, px, py):
        om, v, *_ = control(state_at(t), th, px, py)
        return om, v * math.cos(th), v * math.sin(th)

    dt, steps = cfg.dt, cfg.steps
    th, px, py = _initial_state(state_at(0.0), cfg.offset)
    rows = []
    for k in range(steps + 1):
        t = k * dt
        rows.append(_log_row(t, th, px, py, state_at(t), control(state_at(t), th, px, py)[:4]))
        if k == steps:
            break
        a1, b1, c1 = f(t, th, px, py)
        a2, b2, c2 = f(t + 0.5 * dt, th + 0.5 * dt * a1, px + 0.5 * dt * b1, py + 0.5 * dt * c1)
        a3, b3, c3 = f(t + 0.5 * dt, th + 0.5 * dt * a2, px + 0.5 * dt * b2, py + 0.5 * dt * c2)
        a4, b4, c4 = f(t + dt, th + dt * a3, px + dt * b3, py + dt * c3)
        th = wrap_angle(th + dt / 6.0 * (a1 + 2.0 * (a2 + a3) + a4))
        px = px + dt / 6.0 * (b1 + 2.0 * (b2 + b3) + b4)
        py = py + dt / 6.0 * (c1 + 2.0 * (c2 + c3) + c4)
    return np.array(rows)


@pytest.mark.parametrize("controller", ["spatial", "kanayama", "feedforward"])
@pytest.mark.parametrize("desc", BIT_DESCS, ids=["ellipse", "line"])
def test_sampled_reference_log_equals_per_step_loop(desc, controller):
    # sampling the reference up front (in blocks) must not move a single bit
    cfg = SimConfig(trajectory=desc, controller=controller, offset=(0.7, -1.1, 2.0),
                    t_end=12.0, dt=1e-2)
    assert cfg.steps > 2 * 512
    assert np.array_equal(simulate(cfg).data, per_step_reference_log(cfg))


# a log value: mostly of a run's size, but also any finite float, and ones whose squares and
# products pass the float limit, where L overflows to inf and its terms to NaN
_LOG_VALUE = st.one_of(finite(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([1e154, -1e155, 1e200, -1e300, 1.7976931348623157e308]))


def _same_bits(a, b) -> bool:
    """Whether arrays a and b hold the same floats bit for bit, any NaN matching any NaN."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


@settings(max_examples=100, deadline=None)
@given(block=st.lists(st.tuples(*[_LOG_VALUE] * 13), min_size=1, max_size=16))
# L overflows to inf, and an eL_* to NaN
@example(block=[(0.5, 0.3, 1e200, -1e200, 1.0, 2.0, 0.0, 0.0, 0.1, -1e200, 1e200, 1.0, 1.0),
                (0.5, 0.3, 1.7e308, -1.7e308, 1.0, 2.0, 0.0, 0.0, 0.1, -1.7e308, 1.7e308, 1.0, 1.0)])
def test_log_rows_are_the_scalar_rows_bit_for_bit(block):
    # each row of block is (t, theta, px, py, omega, v, omega_tilde, v_tilde, then the reference)
    expected = np.array([_log_row(row[0], *row[1:4], row[8:], row[4:8]) for row in block])
    rows = np.array(block)
    assert _same_bits(_log_rows(rows[:, 0], rows[:, 1:8], rows[:, 8:]), expected)


def test_basin_divergence_matches_simulate(ellipse_desc):
    cfg = SimConfig(trajectory=ellipse_desc, dt=100.0, t_end=10000.0, seed=5)
    with pytest.raises(SimulationDiverged) as basin_exc:
        monte_carlo_basin(cfg, samples=2)
    first = SimConfig(trajectory=ellipse_desc, dt=100.0, t_end=10000.0,
                      offset=basin_offsets(ellipse_desc, 1, 5)[0])
    with pytest.raises(SimulationDiverged) as sim_exc:
        simulate(first)
    assert basin_exc.value.step == sim_exc.value.step
    assert basin_exc.value.t == sim_exc.value.t


@pytest.mark.parametrize("controller", ["spatial", "kanayama", "feedforward"])
def test_basin_summary_does_not_depend_on_the_cpus(monkeypatch, controller):
    # one CPU runs the samples in this process, more in forked workers,
    # up to more workers than this host may have cores
    cfg = SimConfig(trajectory=BIT_DESCS[0], controller=controller, t_end=4.0, dt=1e-2,
                    seed=21)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0})
    serial = monte_carlo_basin(cfg, samples=5, threshold=1e-2)
    assert len(serial.final_lyapunov) == 5
    for cpus in ({0, 1}, {0, 1, 2, 3}):
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: cpus)
        assert monte_carlo_basin(cfg, samples=5, threshold=1e-2) == serial


def test_basin_reports_the_lowest_diverged_sample_when_it_finishes_last(monkeypatch):
    cfg = SimConfig(trajectory=CIRCLE, t_end=1.0, dt=1e-2, seed=8)
    first = engine._initial_state(trajectory_from_descriptor(CIRCLE).state_at(0.0),
                                  basin_offsets(CIRCLE, 1, 8)[0])

    def diverge(control, states, *_):
        # sample 0 diverges late in its run and returns after sample 1
        if states == [first]:
            time.sleep(0.5)
            return [], [], SimulationDiverged(70, 0.7)
        return [], [], SimulationDiverged(3, 0.03)

    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(engine, "_integrate", diverge)
    with pytest.raises(SimulationDiverged) as exc:
        monte_carlo_basin(cfg, samples=2)
    assert (exc.value.step, exc.value.t) == (70, 0.7)


def poison(monkeypatch, when):
    """Make each run's control law return inf, which diverges at the next step, where when(ref,
    theta) holds."""
    make = engine._make_controller

    def make_poisoned(cfg):
        control = make(cfg)

        def poisoned(ref, th, px, py):
            return (math.inf,) * 4 if when(ref, th) else control(ref, th, px, py)

        return poisoned

    monkeypatch.setattr(engine, "_make_controller", make_poisoned)


def initial_headings(cfg, samples):
    ref0 = trajectory_from_descriptor(cfg.trajectory).state_at(0.0)
    return [engine._initial_state(ref0, offset)[0]
            for offset in basin_offsets(cfg.trajectory, samples, cfg.seed)]


def test_a_sample_that_diverges_first_does_not_hide_a_lower_index_divergence(monkeypatch):
    # all samples in one range: sample 2 diverges at step 1, sample 0 at t = 12, in the third
    # block, which the sweep still reaches and reports as its own run does
    cfg = SimConfig(trajectory=CIRCLE, controller="feedforward", t_end=16.0, dt=1e-2, seed=8)
    late = list(trajectory_from_descriptor(CIRCLE).state_at(12.0))
    first_heading_of_2 = initial_headings(cfg, 3)[2]
    poison(monkeypatch, lambda ref, th: th == first_heading_of_2 or ref == late)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(SimulationDiverged) as exc:
        monte_carlo_basin(cfg, samples=3)
    with pytest.raises(SimulationDiverged) as own:
        simulate(replace(cfg, offset=basin_offsets(CIRCLE, 1, 8)[0]))
    assert 2 * _BLOCK < own.value.step <= 3 * _BLOCK
    assert (exc.value.step, exc.value.t) == (own.value.step, own.value.t)


def test_a_lower_index_rise_of_L_wins_over_a_divergence_in_an_earlier_block(monkeypatch):
    # far from the origin sample 0's L ends above its start; sample 1 diverges at step 1
    cfg = SimConfig(trajectory={**CIRCLE, "origin": [50.0, 0.0]}, t_end=5.0, dt=5e-3, seed=1)
    assert cfg.steps > _BLOCK
    first_heading_of_1 = initial_headings(cfg, 2)[1]
    poison(monkeypatch, lambda ref, th: th == first_heading_of_1)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(StepTooLarge, match="sample 0: L rose from"):
        monte_carlo_basin(cfg, samples=2)


@pytest.mark.parametrize("cfg, error", [
    (SimConfig(trajectory={**CIRCLE, "origin": [50.0, 0.0]}, t_end=5.0, dt=5e-3, seed=1),
     StepTooLarge),
    (SimConfig(trajectory=CIRCLE, offset=(3.0, -2.0, 1.5), dt=100.0, t_end=10000.0),
     SimulationDiverged),
], ids=["lyapunov-rises", "diverges"])
def test_a_failed_sweep_leaves_no_worker(monkeypatch, cfg, error):
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(error):
        monte_carlo_basin(cfg, samples=4)
    _no_child_left()


# p_d = 1e307 t passes float range near t = 18 s, in the fourth block at dt = 1e-2
OVERFLOWS_LATE = {"family": "line", "speed": 1e307, "heading": 0.0, "start": [0.0, 0.0]}


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("samples", [0, 2])
def test_a_sweep_refuses_a_reference_that_overflows_after_its_samples_diverged(monkeypatch, cpus,
                                                                               samples):
    cfg = SimConfig(trajectory=OVERFLOWS_LATE, dt=1e-2, t_end=20.0)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: cpus)
    if samples:
        # within the reference's finite span, every sample diverges at step 1
        with pytest.raises(SimulationDiverged) as exc:
            monte_carlo_basin(replace(cfg, t_end=15.0), samples=samples)
        assert exc.value.step == 1
    with pytest.raises(ValueError, match="is not finite in floats on the run's times"):
        monte_carlo_basin(cfg, samples=samples)
    _no_child_left()


def test_a_run_refuses_a_reference_that_overflows_after_it_diverged(monkeypatch):
    # the run diverges once p_d passes 1e307, at t = 1 s, in the first block
    cfg = SimConfig(trajectory=OVERFLOWS_LATE, controller="feedforward", dt=1e-2, t_end=20.0)
    poison(monkeypatch, lambda ref, th: ref[1] > 1e307)
    with pytest.raises(SimulationDiverged) as exc:
        simulate(replace(cfg, t_end=15.0))
    assert exc.value.step < _BLOCK
    with pytest.raises(ValueError, match="is not finite in floats on the run's times"):
        simulate(cfg)


def peak_mb(run) -> tuple:
    """(run(), the peak of the memory that tracemalloc traced during it, in MB)."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_a_runs_memory_beyond_its_log_does_not_grow_with_its_length(monkeypatch):
    # a run holds one block of its reference at a time; ten times the steps would hold ten
    # times the reference's blocks, about 0.12 MB per 1000 steps, had it kept them
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0})
    sweeps = [peak_mb(lambda: monte_carlo_basin(SimConfig(trajectory=CIRCLE, dt=0.05,
                                                          t_end=t_end), samples=1))[1]
              for t_end in (60.0, 600.0)]
    assert abs(sweeps[1] - sweeps[0]) < 0.25, sweeps
    runs = []
    for steps in (2_000, 20_000):
        log, peak = peak_mb(lambda: simulate(SimConfig(trajectory=CIRCLE, controller="kanayama",
                                                       dt=1e-2, t_end=steps * 1e-2)))
        runs.append(peak - log.data.nbytes / 2**20)
    assert abs(runs[1] - runs[0]) < 0.25, runs


def test_a_spatial_runs_checks_and_the_cli_hold_memory_that_does_not_grow_with_t_end(
        monkeypatch, tmp_path):
    # on a prepared log, without the integration: simulate checks it a block at a time, and the
    # CLI takes its two final errors from the last row. Checking the whole log at once, or
    # taking the errors of every row, adds 1 MB or more at 60k steps
    def integrate(control, states, blocks, dt, data, spatial):
        data[:] = 0.5
        return [tuple(data[-1])], [None], None

    monkeypatch.setattr(engine, "_integrate", integrate)
    monkeypatch.setattr(SimLog, "to_csv", lambda log, path: None)
    monkeypatch.chdir(tmp_path)
    runs, commands = [], []
    for steps in (2_000, 60_000):
        cfg = SimConfig(trajectory=CIRCLE, dt=1e-2, t_end=steps * 1e-2)
        log, peak = peak_mb(lambda: simulate(cfg))
        runs.append(peak - log.data.nbytes / 2**20)
        code, peak = peak_mb(lambda: main(["simulate", "--a", "1", "--b", "1", "--h", "1",
                                           "--dt", "0.01", "--t-end", str(steps * 1e-2),
                                           "--out", "run.csv"]))
        assert code == 0
        commands.append(peak - (steps + 1) * len(CSV_COLUMNS) * 8 / 2**20)
    assert abs(runs[1] - runs[0]) < 0.25, runs
    assert abs(commands[1] - commands[0]) < 0.25, commands


def test_basin_stops_at_a_spatial_sample_whose_lyapunov_rose():
    # far from the origin the loop is too stiff for RK4 at this dt
    cfg = SimConfig(trajectory={**CIRCLE, "origin": [50.0, 0.0]}, t_end=5.0, dt=5e-3, seed=1)
    # L rises at the first step, from the L of the sample's own draw, 16.4823
    (thE, pEx, pEy), = basin_draws(1, 1)
    start = lyapunov(GroupError(ErrorKind.SPATIAL, Pose(thE, (pEx, pEy))))
    with pytest.raises(StepTooLarge, match=re.escape(f"sample 0: L rose from {start:.6g} to ")):
        monte_carlo_basin(cfg, samples=2)
    # the Kanayama law is not checked: its L need not descend
    summary = monte_carlo_basin(replace(cfg, controller="kanayama"), samples=2)
    assert summary.samples == 2


def test_simulate_stops_when_spatial_lyapunov_rises_in_a_step():
    cfg = SimConfig(trajectory={"family": "ellipse", "a": 3.0, "b": 5.0,
                                "h": 2.0 * math.pi / 5.0, "origin": [50.0, 0.0]},
                    offset=(1.0, 1.0, 0.5), dt=1e-3, t_end=5.0)
    with pytest.raises(StepTooLarge, match=r"at step \d+ .*too large a step"):
        simulate(cfg)


def numbered_blocks(steps):
    """A walk of stage blocks over steps steps, as _stage_blocks yields them, in which every
    value of step k's stages, and of the final state's, is k."""
    for start in range(0, steps, _BLOCK):
        stop = min(start + _BLOCK, steps)
        on_k = np.repeat(np.arange(start, stop + 1.0)[:, None], 5, axis=1)
        yield range(start, stop), on_k, on_k[:-1], on_k[:-1]


def still(lyap_at, omega_at=lambda k: 0.0):
    """A spatial law that leaves the state at rest, and whose error gives L = lyap_at(k) at the
    stage-1 state of step k, through cE = 1 - L / 2 at p_E = 0; omega_at(k) may move it."""
    def control(ref, th, px, py):
        k = ref[0]
        return omega_at(k), 0.0, 0.0, 0.0, 1.0 - lyap_at(k) / 2.0, 0.0, 0.0

    return control


@pytest.mark.parametrize("rise, refused", [(2e-8, True), (5e-9, False)])
def test_the_kernel_names_the_first_largest_rise_of_L_above_1e_8_in_one_step(rise, refused):
    # a run of 1025 steps whose L is 1 and rises by rise at step, on either side of the first
    # block's end; it falls back to 1 at step 800, may rise by the same rise at step 900 and fall
    # at 1000, and rises by it at step 1025, to the final state, which is a block of its own. So
    # the first of three equal rises is the one named, and the last is named where L starts
    # above 1
    high = _lyapunov_cos(1.0 - (1.0 + rise) / 2.0, 0.0, 0.0)
    for step, again, named in ((_BLOCK, True, _BLOCK), (_BLOCK + 1, True, _BLOCK + 1),
                               (0, False, 2 * _BLOCK + 1)):
        control = still(lambda k: 1.0 + rise if (step <= k < 800 or again and 900 <= k < 1000
                                                 or k == 2 * _BLOCK + 1) else 1.0)
        _, rises, diverged = engine._integrate(control, [(0.0, 0.0, 0.0)],
                                               numbered_blocks(2 * _BLOCK + 1), 1e-2, None, True)
        assert diverged is None
        assert rises == [(1.0, high, named) if refused else None]
        # any other law is not checked
        _, rises, _ = engine._integrate(control, [(0.0, 0.0, 0.0)],
                                        numbered_blocks(2 * _BLOCK + 1), 1e-2)
        assert rises == [None]


def test_the_kernel_drops_the_record_of_a_state_that_diverged():
    # L rises from 1 to 2 at step 3, and omega is inf from step 600 on, in the second block,
    # which leaves the state at step 601
    control = still(lambda k: 2.0 if k >= 3 else 1.0, lambda k: math.inf if k >= 600 else 0.0)
    _, rises, diverged = engine._integrate(control, [(0.0, 0.0, 0.0)], numbered_blocks(600),
                                           1e-2, None, True)
    assert (rises, diverged) == ([(1.0, 2.0, 3)], None)
    rows, rises, diverged = engine._integrate(control, [(0.0, 0.0, 0.0)], numbered_blocks(700),
                                              1e-2, None, True)
    assert (rows, rises, diverged.step) == ([], [], 601)


@pytest.mark.parametrize("row", [_BLOCK - 1, _BLOCK, 2 * _BLOCK])
def test_simulate_refuses_the_first_value_of_its_log_that_is_not_finite(monkeypatch, row):
    # a kanayama log of 1025 rows, whose last row is a block of its own: px is inf at row, v
    # NaN in a later column of that row, and theta NaN from 100 rows on, in an earlier column
    def integrate(control, states, blocks, dt, data, spatial):
        data[:] = 0.0
        data[:, 0] = np.arange(len(data)) * dt
        data[row, engine.COL["px"]] = math.inf
        data[row, engine.COL["v"]] = math.nan
        data[row + 100:, engine.COL["theta"]] = math.nan
        return [tuple(data[-1])], [None], None

    monkeypatch.setattr(engine, "_integrate", integrate)
    cfg = SimConfig(trajectory=CIRCLE, controller="kanayama", dt=1e-2, t_end=10.24)
    assert cfg.steps == 2 * _BLOCK
    with pytest.raises(FloatingPointError) as exc:
        simulate(cfg)
    assert str(exc.value) == f"px = inf at t = {row * 1e-2:g}"


# on this thin ellipse at dt = 0.05, L rises mid-run in every draw of an unseeded sweep of 40,
# and simulate refuses each; basin refuses the sweep at sample 0
THIN_ELLIPSE = {"family": "ellipse", "a": 2.416, "b": 0.5, "h": -2.0, "origin": [0.0, 0.0]}
THIN_SWEEP = SimConfig(trajectory=THIN_ELLIPSE, dt=0.05, t_end=20.0)
DEFAULT_ELLIPSE = {"family": "ellipse", "a": 3.0, "b": 5.0, "h": 2.0 * math.pi / 5.0,
                   "origin": [0.0, 0.0]}


def test_simulate_refuses_the_first_draw_of_a_sweep_on_a_thin_ellipse():
    offset = basin_offsets(THIN_ELLIPSE, 1, 0)[0]
    with pytest.raises(StepTooLarge, match=re.escape(
            "L rose from 6.20282e-06 to 6.29865e-06 at step 157 (t = 7.85)")):
        simulate(replace(THIN_SWEEP, offset=offset))


def test_basin_refuses_the_draw_that_simulate_refuses():
    with pytest.raises(StepTooLarge, match="sample 0: "):
        monte_carlo_basin(THIN_SWEEP, samples=40)


# sweeps of 40 unseeded draws of 20 s each, which basin passed while it checked only each final
# L: simulate refuses 40, 18 and 1 of them on the thin ellipse, and 24 and 1 on the default one;
# first is the lowest draw it refuses
@pytest.mark.parametrize("desc, dt, first", [
    (THIN_ELLIPSE, 0.05, 0), (THIN_ELLIPSE, 0.04, 1), (THIN_ELLIPSE, 0.03, 18),
    (DEFAULT_ELLIPSE, 0.08, 2), (DEFAULT_ELLIPSE, 0.06, 12),
], ids=["thin-0.05", "thin-0.04", "thin-0.03", "default-0.08", "default-0.06"])
def test_basin_refuses_the_lowest_draw_that_simulate_refuses(desc, dt, first):
    cfg = SimConfig(trajectory=desc, dt=dt, t_end=20.0)
    refusal = None
    for i, offset in enumerate(basin_offsets(desc, 40, 0)):
        try:
            simulate(replace(cfg, offset=offset))
        except StepTooLarge as exc:
            refusal = f"sample {i}: {exc}"
            break
    assert refusal is not None and i == first
    with pytest.raises(StepTooLarge) as exc:
        monte_carlo_basin(cfg, samples=40)
    assert str(exc.value) == refusal


# draws of 20 s whose final L ends above their start: 20 of 20 on the line, 3 of 20 on the
# off-centre ellipse; on that ellipse at dt = 0.05, L rose in one step in all 20 draws, and
# none ended above its start
@pytest.mark.parametrize("desc, dt, above", [
    ({"family": "line", "speed": 1.3, "heading": 0.7, "start": [0.5, 0.2]}, 0.05, 20),
    ({**DEFAULT_ELLIPSE, "origin": [3.0, 3.0]}, 0.08, 3),
    ({**DEFAULT_ELLIPSE, "origin": [3.0, 3.0]}, 0.05, 0),
], ids=["line", "off-centre", "off-centre-fine"])
def test_each_draw_whose_final_L_ends_above_its_start_rose_in_one_step(desc, dt, above):
    cfg = SimConfig(trajectory=desc, dt=dt, t_end=20.0)
    control, walk, ref0 = engine._setup(cfg)
    states = [engine._initial_state(ref0, offset) for offset in basin_offsets(desc, 20, 0)]
    rows, rises, diverged = engine._integrate(control, states, walk(), dt, None, True)
    assert diverged is None
    ended_above = [i for i, ((thE, pEx, pEy), row) in enumerate(zip(basin_draws(20, 0), rows))
                   if row[engine.COL["lyap"]] > _lyapunov_cos(math.cos(thE), pEx, pEy)]
    assert len(ended_above) == above
    assert all(rises[i] for i in ended_above)
    assert all(rises)
    # simulate refuses each draw by the same rule
    for i in ended_above[:3]:
        with pytest.raises(StepTooLarge):
            simulate(replace(cfg, offset=basin_offsets(desc, 20, 0)[i]))


@pytest.mark.parametrize("rises, refusal", [
    ([None, None], None),
    ([None, (2.0, 3.0, 3)], "sample 1: L rose from 2 to 3 at step 3 (t = 0.03): "),
    ([(2.0, 2.5, 7), (2.0, 3.0, 3)], "sample 0: L rose from 2 to 2.5 at step 7 (t = 0.07): "),
], ids=["none-rose", "sample-1-rose", "both-rose"])
def test_basin_refuses_the_lowest_spatial_sample_whose_L_rose_in_one_step(monkeypatch, rises,
                                                                          refusal):
    # two samples that end at L = 2, in one range
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(engine, "_integrate", lambda *_: (
        [(2.0,) * len(CSV_COLUMNS)] * 2, rises, None))
    cfg = SimConfig(trajectory=CIRCLE, dt=1e-2, t_end=1.0, seed=4)
    if refusal:
        with pytest.raises(StepTooLarge, match=re.escape(refusal + "dt = 0.01 is too large")):
            monte_carlo_basin(cfg, samples=2, threshold=10.0)
    else:
        assert monte_carlo_basin(cfg, samples=2, threshold=10.0).final_lyapunov == [2.0, 2.0]


@pytest.mark.parametrize("dt,t_end", [(1e-9, 100.0), (5e-324, 1.0)],
                         ids=["1e11-steps", "inf-steps"])
def test_step_count_is_capped_before_allocation(ellipse_desc, dt, t_end):
    with pytest.raises(ValueError, match=f"limit of {_MAX_STEPS} steps"):
        SimConfig(trajectory=ellipse_desc, dt=dt, t_end=t_end)


def test_csv_bytes_are_the_rows_shortest_decimals_across_blocks(tmp_path, ellipse_desc):
    log = simulate(SimConfig(trajectory=ellipse_desc, offset=(0.4, -0.2, 0.5),
                             dt=1e-2, t_end=(2 * _BLOCK + 3) * 1e-2))
    assert len(log) > 2 * _BLOCK + 1
    path = tmp_path / "run.csv"
    log.to_csv(path)
    rows = [",".join(map(repr, row)) for row in log.data.tolist()]
    # compared as lists of lines: pytest's diff of two long strings takes minutes
    assert path.read_text().split("\n") == [",".join(CSV_COLUMNS), *rows, ""]


def test_basin_counts_and_determinism():
    cfg = SimConfig(trajectory=CIRCLE, t_end=5.0, dt=5e-3, seed=3)
    s1 = monte_carlo_basin(cfg, samples=4, threshold=1e-2)
    s2 = monte_carlo_basin(cfg, samples=4, threshold=1e-2)
    assert s1.final_lyapunov == s2.final_lyapunov
    assert s1.converged == sum(1 for L in s1.final_lyapunov if L < 1e-2)
    assert s1.fraction == s1.converged / 4
    assert len(s1.failures) == 4 - s1.converged
    s3 = monte_carlo_basin(replace(cfg, seed=4), samples=4, threshold=1e-2)
    assert s3.final_lyapunov != s1.final_lyapunov
    d = s1.to_dict()
    assert d["samples"] == 4 and d["seed"] == 3


def test_basin_empty_sweep():
    summary = BasinSummary(samples=0, converged=0, threshold=1e-6, t_end=1.0,
                           seed=None)
    assert summary.fraction is None
    assert summary.to_dict()["fraction"] is None


def test_compare_controllers_settling_metrics(ellipse_desc):
    base = dict(trajectory=ellipse_desc, offset=(0.1, -0.1, 0.1), t_end=25.0,
                dt=1e-3)
    cfgs = [
        SimConfig(controller="spatial", **base),
        SimConfig(controller="kanayama", **base),
        SimConfig(controller="feedforward", **base),
    ]
    rows, logs = compare_controllers(cfgs, threshold=1e-2)
    assert [r.controller for r in rows] == ["spatial", "kanayama", "feedforward"]
    assert len(logs) == 3

    spatial, kanayama, feedforward = rows
    for r in (spatial, kanayama):
        assert r.time_to_position is not None and r.time_to_position < 25.0
        assert r.time_to_heading is not None
        assert r.final_position_error < 1e-2
        # settle time marks the point after which the error stays below
        log = logs[rows.index(r)]
        after = log.t >= r.time_to_position
        assert np.all(log.position_error()[after] < 1e-2)
    # pure feedforward keeps the initial gap forever
    assert feedforward.time_to_position is None
    assert feedforward.final_position_error > 1e-2
    assert feedforward.to_dict()["time_to_position"] is None


def test_a_run_below_the_threshold_from_its_first_sample_settles_at_t0(ellipse_desc):
    # feedforward from zero offset tracks its reference, so no error reaches the threshold
    cfg = SimConfig(controller="feedforward", trajectory=ellipse_desc, offset=(0.0, 0.0, 0.0),
                    t_end=1.0, dt=1e-2)
    (row,), (log,) = compare_controllers([cfg], threshold=1e-2)
    assert np.all(log.position_error() < 1e-2) and np.all(log.heading_error() < 1e-2)
    assert row.time_to_position == row.time_to_heading == log.t[0] == 0.0


def test_compare_controllers_validation(ellipse_desc, offcenter_desc):
    with pytest.raises(ValueError):
        compare_controllers([])
    a = SimConfig(trajectory=ellipse_desc, offset=(0.1, 0.0, 0.0), t_end=1.0)
    b = SimConfig(trajectory=ellipse_desc, offset=(0.2, 0.0, 0.0), t_end=1.0)
    with pytest.raises(ValueError, match="share"):
        compare_controllers([a, b])
    c = SimConfig(trajectory=offcenter_desc, offset=(0.1, 0.0, 0.0), t_end=1.0)
    with pytest.raises(ValueError, match="share"):
        compare_controllers([a, c])


# The CSV writer: a forked worker formats the second half of the blocks when the process
# may use two CPUs. Either way the bytes are the same, no child is left, and the final
# name holds a whole file or what it held before.

# values whose shortest decimals are easy to get wrong: signed zero, the least subnormal,
# numbers near the float range's ends and past them, and a few that print with 16 or 17 digits
_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
            0.1, 1.0 / 3.0, 2.99999784000026]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _written(write, cpus) -> tuple:
    """(bytes, forks) of write(path) run with os.sched_getaffinity giving cpus."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(engine.os, "sched_getaffinity", lambda pid: cpus), \
            mock.patch.object(engine.os, "fork", side_effect=os.fork) as fork, \
            np.errstate(over="ignore", invalid="ignore"):
        path = Path(tmp) / "out.csv"
        write(path)
        _no_child_left()
        assert os.listdir(tmp) == ["out.csv"]
        return path.read_bytes(), fork.call_count


def _draw(seed: int, shape) -> np.ndarray:
    rng = np.random.default_rng(seed)
    spread = rng.normal(size=shape) * 10.0 ** rng.uniform(-300.0, 300.0, size=shape)
    return np.where(rng.random(shape) < 0.3, rng.choice(_SPECIAL, size=shape), spread)


@settings(max_examples=25, deadline=None)
@given(rows=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
       | st.integers(1, 4 * _BLOCK), runs=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_csv_bytes_do_not_depend_on_the_cpus(rows, runs, seed):
    from se2track import cli

    data = _draw(seed, (runs, rows, len(CSV_COLUMNS)))
    log = SimLog(data=data[0])
    one, forks = _written(log.to_csv, {0})
    assert forks == 0
    two, forks = _written(log.to_csv, {0, 1})
    assert forks == (rows > _BLOCK)
    assert two == one
    # repr of a float is its shortest round-trip decimal, as str is; compared as lists of
    # lines, since pytest's diff of two long strings takes minutes on every shrink step
    assert one.decode().split("\n") == [",".join(CSV_COLUMNS), *[
        ",".join(map(repr, row)) for row in data[0].tolist()], ""]
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "run.csv").write_bytes(one)
        assert SimLog.from_csv(Path(tmp) / "run.csv").data.tobytes() == data[0].tobytes()

    cfgs = [SimConfig(trajectory=CIRCLE, controller=name) for name in engine.CONTROLLERS[:runs]]
    logs = [SimLog(data=d) for d in data]
    header = ("controller", "run", "t", "variable", "value")

    def long_table(path):
        engine._write_csv(path, header, cli._long_blocks(cfgs, logs))

    one, forks = _written(long_table, {0})
    assert forks == 0
    two, forks = _written(long_table, {0, 1})
    assert forks == 1
    assert two == one
    assert one.count(b"\n") == 1 + 7 * runs * rows
    with np.errstate(over="ignore", invalid="ignore"):
        lines = [f"{cfgs[i].controller},{i},{t!r},{variable},{value!r}"
                 for i, log in enumerate(logs) for variable, series in cli._LONG_SERIES.items()
                 for t, value in zip(log.t.tolist(), series(log).tolist())]
        assert [line for block in cli._long_blocks(cfgs, logs) for line in block()] == lines
    assert one.decode().split("\n") == [",".join(header), *lines, ""]


def test_without_fork_nothing_forks_and_the_outputs_stay(tmp_path, monkeypatch):
    from se2track import cli

    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = SimConfig(trajectory=BIT_DESCS[0], t_end=4.0, dt=1e-2, seed=3)
    logs = [SimLog(data=d) for d in _draw(4, (2, 2 * _BLOCK + 1, len(CSV_COLUMNS)))]
    cfgs = [SimConfig(trajectory=CIRCLE, controller=name) for name in engine.CONTROLLERS[:2]]

    def outputs():
        summary = monte_carlo_basin(cfg, samples=4, threshold=1e-2)
        logs[0].to_csv(tmp_path / "run.csv")
        engine._write_csv(tmp_path / "long.csv", ("controller", "run", "t", "variable", "value"),
                          cli._long_blocks(cfgs, logs))
        return summary, (tmp_path / "run.csv").read_bytes(), (tmp_path / "long.csv").read_bytes()

    with np.errstate(over="ignore", invalid="ignore"):
        forked = outputs()
        # a fork from here on raises AttributeError
        monkeypatch.delattr(engine.os, "fork")
        assert engine._processes(4) == 1
        assert outputs() == forked


def test_an_error_in_the_workers_half_reaches_the_caller_as_itself(tmp_path, monkeypatch):
    # a worker's exception crosses the pool by pickle, with its errno, message and file name
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1})
    parent = os.getpid()

    def block(k):
        if os.getpid() != parent:
            raise OSError(28, "No space left on device", "x.csv")
        return [f"{k},x"]

    with pytest.raises(OSError) as exc:
        engine._write_csv(tmp_path / "out.csv", ("k", "x"), [partial(block, k) for k in range(4)])
    assert type(exc.value) is OSError
    assert (exc.value.errno, exc.value.strerror, exc.value.filename) == (
        28, "No space left on device", "x.csv")
    assert not list(tmp_path.iterdir())
    _no_child_left()


def test_a_killed_worker_raises_instead_of_waiting_forever():
    # its pipe closes unanswered, which ends the wait for its answer
    def job(k):
        if k == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return k

    def stuck(*_):
        raise AssertionError("the lost task was still awaited after 30 s")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(30)
    try:
        with pytest.raises(ChildProcessError, match="ended with status -9 before it finished"):
            engine._in_parallel(job, [0, 1, 2, 3])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _no_child_left()


def test_a_worker_starts_no_thread_in_this_process():
    before = threading.active_count()

    def job(k):
        if k == 1:
            # still running while this process counts its threads
            time.sleep(0.5)
        return threading.active_count(), len(multiprocessing.active_children())

    assert engine._in_parallel(job, [0, 1])[0] == (before, 1)
    _no_child_left()


def test_one_part_runs_in_this_process():
    assert engine._in_parallel(lambda k: (k, os.getpid()), [7]) == [(7, os.getpid())]


def test_a_failure_in_the_first_part_wins_over_one_in_a_later_part(monkeypatch):
    cfg = SimConfig(trajectory=CIRCLE, t_end=1.0, dt=1e-2, seed=8)
    first = engine._initial_state(trajectory_from_descriptor(CIRCLE).state_at(0.0),
                                  basin_offsets(CIRCLE, 1, 8)[0])

    def integrate(control, states, *_):
        # sample 0's L rises, after sample 1 diverged
        if states == [first]:
            time.sleep(0.5)
            return [(math.inf,) * len(CSV_COLUMNS)], [(1.0, math.inf, 3)], None
        return [], [], SimulationDiverged(3, 0.03)

    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(engine, "_integrate", integrate)
    with pytest.raises(StepTooLarge, match="sample 0: L rose from .* to inf"):
        monte_carlo_basin(cfg, samples=2)
    _no_child_left()


def test_a_ctrl_c_in_this_process_part_of_a_sweep_leaves_no_worker(monkeypatch):
    # a Ctrl-C reaches every process of the terminal's group: the workers ignore it
    parent = os.getpid()

    def interrupted(*_):
        if os.getpid() == parent:
            for worker in multiprocessing.active_children():
                os.kill(worker.pid, signal.SIGINT)
            os.kill(parent, signal.SIGINT)
        time.sleep(60)

    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(engine, "_integrate", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        monte_carlo_basin(SimConfig(trajectory=CIRCLE, t_end=1.0, dt=1e-2), samples=3)
    assert time.monotonic() - start < 30
    _no_child_left()


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("failing", [1, 3], ids=["second-block", "last-block"])
@pytest.mark.parametrize("old", [True, False], ids=["older-file", "no-file"])
def test_a_failed_write_leaves_the_name_as_it_was(tmp_path, monkeypatch, cpus, failing, old):
    # of four blocks, a second process writes the last two
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: cpus)
    path = tmp_path / "out.csv"
    if old:
        path.write_text("older\n")

    def block(k):
        if k == failing:
            raise OSError(28, "No space left on device")
        return [f"{k},x"]

    with pytest.raises(OSError) as exc:
        engine._write_csv(path, ("k", "x"), [partial(block, k) for k in range(4)])
    assert str(exc.value) == "[Errno 28] No space left on device"
    assert [p.name for p in tmp_path.iterdir()] == (["out.csv"] if old else [])
    if old:
        assert path.read_text() == "older\n"
    _no_child_left()


def test_a_written_file_replaces_the_older_one_whole(tmp_path, monkeypatch):
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1})
    path = tmp_path / "out.csv"
    path.write_text("older, and longer than what replaces it\n" * 100)
    engine._write_csv(path, ("k",), [partial(lambda k: [str(k)], k) for k in range(3)])
    assert path.read_text() == "k\n0\n1\n2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("name, write", [
    ("out.json", lambda path: _write_json(path, {"k": [1.5, None]})),
    ("out.csv", lambda path: SimLog(data=np.eye(3, len(CSV_COLUMNS))).to_csv(path)),
], ids=["json", "csv"])
def test_a_temporary_name_that_is_taken_is_passed_over(tmp_path, name, write):
    # a file already holds the first temporary name beside the output; the writer takes the next
    # name, leaves that file as it is, and writes what it writes where no name is taken
    (tmp_path / "clear").mkdir()
    write(tmp_path / "clear" / name)
    squatter = tmp_path / f".{name}.{os.getpid()}.0.tmp"
    squatter.write_bytes(b"not the writer's\n")
    write(tmp_path / name)
    assert (tmp_path / name).read_bytes() == (tmp_path / "clear" / name).read_bytes()
    assert squatter.read_bytes() == b"not the writer's\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [squatter.name, "clear", name]


@pytest.mark.parametrize("char", ["x", "\u00e9", "\u20ac"], ids=["1-byte", "2-byte", "3-byte"])
def test_a_name_of_the_longest_length_can_be_written(tmp_path, char):
    # the temporary file beside it must fit the file system's limit of 255 bytes too
    path = tmp_path / (char * (251 // len(char.encode())) + ".csv")
    SimLog(data=np.zeros((3, len(CSV_COLUMNS)))).to_csv(path)
    assert SimLog.from_csv(path).data.shape == (3, len(CSV_COLUMNS))
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
