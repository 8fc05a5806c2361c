"""Closed-loop simulation, logging, and batch experiments.

The integrator is classical fixed-step RK4 on the coordinates
(theta, px, py). _rk4_step is its one definition: one step of three
floats, or of three arrays, under a field that returns their derivative
and an aux value. It serves this loop and the linearization's LTV flow
alike, the latter on a block of steps at once. Here the field is the
control law followed by the unicycle kinematics, and its aux is the
stage-1 control, which the log row records. The control law is
algebraic and is re-evaluated at every stage. The heading is
renormalized to [-pi, pi) after every step, so the implied rotation
matrix is always exactly orthogonal.

The reference does not depend on the vehicle state, so a run samples
it once, up front, on the three RK4 stage grids k dt, k dt + dt/2 and
k dt + dt. _stage_blocks, the one walk over those times in blocks of
_BLOCK steps, serves this loop and the linearization alike: lin_check
walks its reference on it once, for the step bound and A_z's stage
values both, and stability_probe walks its A(t). Its values equal the
per-stage state_at calls bit for bit. A run keeps its blocks, so a
basin sweep samples the reference once for all runs.

One setup, _setup, turns a SimConfig into what a run needs: the
control law, the reference's stage blocks and the reference at t = 0.
One kernel, _integrate, owns the loop over the steps, the heading's
wrap, the divergence checks and the log-row formula. It steps a list of
states that share the reference a block at a time: every state still
running takes a block's steps before the next block. simulate passes it
one state and a log array to fill at every step; monte_carlo_basin
passes the states of a range of samples and no log, and reads each
final Lyapunov value from its last row. A state that diverges stops,
with every state after it; the states before it run on, since one of
them may still fail first.

One function starts every worker process. _processes decides how many
processes a number of jobs may use, one per CPU the process may run on,
and _in_parallel runs a job on each of that many parts: the first in
this process, each other one in a forked worker that answers through a
pipe. Exceptions cross it as themselves, such as a SimulationDiverged
at its own sample index or an OSError with its errno and file name, and
a worker that dies raises ChildProcessError. The samples of a sweep are
independent, so they run in such parts; each sample runs the same
kernel steps on the same floats, so the summary does not depend on the
worker count.

The hot loop works on plain floats on purpose: a 60 s run at dt = 1e-3
is 60k steps, and batch experiments multiply that by hundreds. Array
allocation per substage would dominate the runtime. The sampled
reference is turned into Python floats one block at a time, once for
all the states of a kernel, and released before the next block's are
made, so a long run never holds floats for more than one block. The
spatial law takes cos and sin of theta - theta_d once per stage, for its
error and its correction both.

Every output file is written through _replacing: to a temporary file
beside its name, renamed onto the name once it is whole. _write_csv is
the one CSV writer. It takes lazy blocks of lines, and where the process
may use two CPUs, a forked worker formats the second half of them:
str of a float costs about a microsecond, and a log holds 18 per row.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import chain
from typing import Optional

import numpy as np

from .controller import Gains, KanayamaGains, _correction_scalars, _kanayama_scalars
from .controller import correction_scalars  # noqa: F401 -- kept: bench/tracing.py patches it
from .errors import _lyapunov_cos, _lyapunov_scalars, _spatial_position
from .se2 import wrap_angle
from .trajectories import (_is_count, _require_count, _require_positive, _step_count, on_grid,
                           require_finite, require_known_keys, trajectory_from_descriptor)

CONTROLLERS = ("spatial", "kanayama", "feedforward")

CSV_COLUMNS = (
    "t", "theta", "px", "py", "theta_d", "pxd", "pyd",
    "eL_theta", "eL_px", "eL_py", "eR_theta", "eR_px", "eR_py",
    "lyap", "omega", "v", "omega_tilde", "v_tilde",
)

COL = {name: i for i, name in enumerate(CSV_COLUMNS)}

# gain type of each controller that takes gains (feedforward ignores them)
GAINS = {"spatial": Gains, "kanayama": KanayamaGains}

# steps per block of the stage grids that an RK4 loop takes at a time
_BLOCK = 512

# per-step rise of L that a spatial run may show from rounding alone
_LYAP_RISE_TOL = 1e-8

# basin draws: |theta_E| <= pi - _THETA_MARGIN, p_E in [-_P_BOX, _P_BOX]^2
_THETA_MARGIN = 0.05
_P_BOX = 5.0
# final L below which a basin sample converged, and error below which a comparison settled
_BASIN_THRESHOLD = 1e-6
_SETTLE_THRESHOLD = 1e-2


class SimulationDiverged(RuntimeError):
    """Raised when the integrated state stops being finite; its args (step, t) let it unpickle."""

    def __init__(self, step: int, t: float):
        super().__init__(step, t)
        self.step = step
        self.t = t

    def __str__(self) -> str:
        return f"non-finite state at step {self.step} (t = {self.t:.6g})"


class StepTooLarge(RuntimeError):
    """Raised when dt is too large a step for the reference.

    simulate and compare raise it when L rises along a spatial run, and
    basin when a spatial sample ends with L above its initial value: the
    exact flow does neither. lin-check raises it when dt * trace(A_z)
    passes RK4's stability limit.
    """


def _numbers(what: str, values) -> tuple:
    """values as a tuple; ValueError naming what if it is a single value, not a sequence."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{what} must be a list of numbers, got {values!r}") from None


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one run.

    trajectory is a descriptor dict (see trajectories module). gains is
    a controller-specific tuple: (k_omega, k_v) for spatial, (k_x, k_y,
    k_theta) for kanayama, ignored for feedforward; None picks the
    defaults. offset = (dx, dy, dtheta) perturbs the initial state to
    p(0) = p_d(0) + (dx, dy), theta(0) = theta_d(0) + dtheta. seed, None
    or an integer >= 0 (kept as an int), picks a basin sweep's draws
    (None draws 0). Every number must pass require_finite, and the gains
    must fit the controller; anything else raises ValueError on
    construction.
    """

    trajectory: dict
    controller: str = "spatial"
    gains: Optional[tuple] = None
    offset: tuple = (0.0, 0.0, 0.0)
    dt: float = 1e-3
    t_end: float = 40.0
    seed: Optional[int] = None

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}; pick one of {CONTROLLERS}")
        _step_count(self.t_end, self.dt)
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one step long")
        offset = _numbers("offset", self.offset)
        if len(offset) != 3:
            raise ValueError("offset must be (dx, dy, dtheta)")
        require_finite("offset", *offset)
        gains = None if self.gains is None else _numbers("gains", self.gains)
        if gains is not None:
            require_finite("gains", *gains)
            gains_type = GAINS.get(self.controller)
            if gains_type is not None:
                names = [f.name for f in fields(gains_type)]
                if len(gains) != len(names):
                    raise ValueError(f"{self.controller} gains are ({', '.join(names)}): "
                                     f"expected {len(names)} numbers, got {len(gains)}")
                gains_type(*gains)
        if self.seed is not None and not _is_count(self.seed, 0):
            raise ValueError(f"seed must be None or a non-negative integer, got {self.seed!r}")
        # each field its type once every value is checked, so that a config equals its manifest
        for name, value in (("trajectory", dict(self.trajectory)), ("gains", gains),
                            ("offset", offset), ("dt", float(self.dt)),
                            ("t_end", float(self.t_end)),
                            ("seed", None if self.seed is None else int(self.seed))):
            object.__setattr__(self, name, value)

    @property
    def steps(self) -> int:
        """Number of integration steps; the log has one more row."""
        return _step_count(self.t_end, self.dt)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """Inverse of to_dict; a key that d lacks takes the field's default.

        A key that names no field raises ValueError.
        """
        require_known_keys("config", d, [f.name for f in fields(cls)])
        return cls(**d)


@dataclass(frozen=True)
class SimLog:
    """Uniform-grid time series of one run; data has one CSV_COLUMNS row per step."""

    data: np.ndarray
    config: Optional[SimConfig] = None

    def __len__(self) -> int:
        return self.data.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.data[:, COL[name]]

    @property
    def t(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def lyap(self) -> np.ndarray:
        return self.data[:, COL["lyap"]]

    def heading_error(self) -> np.ndarray:
        """|theta - theta_d| wrapped; identical for both error conventions."""
        return np.abs(self.column("eR_theta"))

    def position_error(self) -> np.ndarray:
        """Euclidean gap |p - p_d| (convention-free)."""
        dx = self.column("px") - self.column("pxd")
        dy = self.column("py") - self.column("pyd")
        return np.hypot(dx, dy)

    def to_csv(self, path) -> None:
        """Write the log with shortest round-trip decimals and LF endings, _BLOCK rows a block."""
        _write_csv(path, CSV_COLUMNS, [partial(_lines, self.data[start:start + _BLOCK])
                                       for start in range(0, len(self), _BLOCK)])

    @classmethod
    def from_csv(cls, path) -> "SimLog":
        """Read a log that to_csv wrote; ValueError on another header or a malformed row.

        Blank lines are skipped. A file of no other line gives no rows:
        numpy warns on an empty body, so it is not asked to parse one.
        """
        with open(path, "r", newline="") as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header: {header}")
            lines = filter(str.strip, fh)
            first = next(lines, None)
            if first is None:
                return cls(data=np.empty((0, len(CSV_COLUMNS))))
            data = np.loadtxt(chain((first,), lines), delimiter=",", comments=None, ndmin=2)
        if data.shape[1] != len(CSV_COLUMNS):
            raise ValueError(f"{path}: rows of {data.shape[1]} fields, not {len(CSV_COLUMNS)}")
        return cls(data=data)


def _lines(rows: np.ndarray) -> list:
    """The lines of an array of rows: str of each value, joined by commas; see _write_csv."""
    return [",".join(map(str, row)) for row in rows.tolist()]


def _processes(n: int) -> int:
    """How many processes n jobs may use: one per CPU in os.sched_getaffinity(0), at most n.

    1 where os.fork or os.sched_getaffinity is missing: the jobs run in this process.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(n, len(os.sched_getaffinity(0))))


def _in_parallel(job, parts) -> list:
    """[job(p) for p in parts]: parts[0] in this process, each other part in a forked worker.

    Fork, not spawn: job is a closure, which cannot be pickled, and a
    fresh import of the package takes longer than a dozen basin samples
    at the CLI's defaults. A worker calls job and no BLAS routine, so the
    idle threads numpy starts hold no lock that it waits for. It ignores
    SIGINT, so that a Ctrl-C is reported once, by this process, and sends
    (result, None) or (None, exception) through a pipe of its own. The
    answers are read in order, so the first part's exception is raised
    first, as itself; a worker that ends without answering closes its
    pipe, which raises ChildProcessError. However the call ends, every
    worker is killed and reaped. One part starts no process. A worker
    inherits the heap that cli.run froze, which its collections skip.
    """
    def answer(part, pipe):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            pipe.send((job(part), None))
        except BaseException as exc:
            pipe.send((None, exc))

    workers = []
    try:
        if len(parts) > 1:
            # imported here, so that only a process that forks pays for the import
            import multiprocessing
            context = multiprocessing.get_context("fork")
            for part in parts[1:]:
                receiver, sender = context.Pipe(duplex=False)
                worker = context.Process(target=answer, args=(part, sender))
                worker.start()
                sender.close()
                workers.append((worker, receiver))
        results = [job(parts[0])]
        for worker, receiver in workers:
            try:
                result, exc = receiver.recv()
            except EOFError:
                worker.join()
                raise ChildProcessError(f"a worker process ended with status {worker.exitcode} "
                                        f"before it finished its task") from None
            if exc is not None:
                raise exc
            results.append(result)
        return results
    finally:
        for worker, receiver in workers:
            worker.kill()
            worker.join()
            receiver.close()


@contextmanager
def _replacing(path):
    """Yield a new binary file beside path, and os.replace it onto path once the body returns.

    The file gets the mode that open(path, "w") gives a new file. Its
    name keeps at most 200 bytes of path's, so that it fits wherever
    path's name fits (255 bytes on common file systems). If the body
    raises, the file is removed instead, so path holds a complete file
    or what it held before. Nothing is fsynced: this covers interrupts
    and failed writes, not a power loss.
    """
    head, tail = os.path.split(os.fspath(path))
    tail = os.fsdecode(os.fsencode(tail)[:200])
    n = 0
    while True:
        name = os.path.join(head, f".{tail}.{os.getpid()}.{n}.tmp")
        try:
            fh = open(name, "xb")
            break
        except FileExistsError:
            n += 1
    try:
        with fh:
            yield fh
        os.replace(name, path)
    except BaseException:
        os.unlink(name)
        raise


def _write_blocks(fh, blocks) -> None:
    """Write the lines of each block to the binary file fh and flush it; see _write_csv."""
    for block in blocks:
        fh.write(("\n".join(block()) + "\n").encode())
    # a worker leaves through os._exit, which flushes no file
    fh.flush()


def _write_csv(path, header, blocks) -> None:
    """Write a CSV with LF endings: the header, then the rows of each block in order.

    blocks is a sequence of thunks. Each returns the lines of one block
    of at least one row: one string per row, its fields joined by commas,
    without a line end. str of a Python float (not a numpy one: see
    tolist) is its shortest round-trip decimal.

    Where there is more than one block and _processes grants two, an
    _in_parallel worker writes the second half to an unnamed file in
    path's directory while this process writes the first half after the
    header, then appends the file; both run _write_blocks on the same
    values. The file appears under path whole or not at all (_replacing).
    """
    with _replacing(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        if _processes(len(blocks)) == 1:
            _write_blocks(fh, blocks)
            return
        half = len(blocks) // 2
        with tempfile.TemporaryFile(dir=os.path.dirname(fh.name) or os.curdir) as rest:
            _in_parallel(lambda part: _write_blocks(*part),
                         [(fh, blocks[:half]), (rest, blocks[half:])])
            rest.seek(0)
            shutil.copyfileobj(rest, fh)


def _make_controller(cfg: SimConfig):
    """Build control(ref, th, px, py) -> (omega, v, omega_tilde, v_tilde).

    ref is (theta_d, pdx, pdy, omega_d, v_d), the values that the
    reference's state_at returns at the stage time: a row of its
    _stage_blocks as plain floats.
    """
    if cfg.controller == "feedforward":

        def control(ref, th, px, py):
            return ref[3], ref[4], 0.0, 0.0

        return control

    g = GAINS[cfg.controller](*(cfg.gains or ()))

    if cfg.controller == "spatial":
        k_om, k_v = g.k_omega, g.k_v

        def control(ref, th, px, py):
            thd, pdx, pdy, omd, vd = ref
            thE = th - thd
            cE = math.cos(thE)
            sE = math.sin(thE)
            pEx, pEy = _spatial_position(cE, sE, px, py, pdx, pdy)
            omt, vt = _correction_scalars(cE, sE, pEx, pEy, thd, pdx, pdy)
            omt *= k_om
            vt *= k_v
            return omd + omt, vd + vt, omt, vt

        return control

    k_x, k_y, k_th = g.k_x, g.k_y, g.k_theta

    def control(ref, th, px, py):
        thd, pdx, pdy, omd, vd = ref
        om, v = _kanayama_scalars(thd - th, th, pdx - px, pdy - py, omd, vd, k_x, k_y, k_th)
        return om, v, om - omd, v - vd

    return control


def _stage_blocks(F, dt: float, steps: int):
    """F, through on_grid, on the RK4 stage times of steps 0..steps-1, _BLOCK steps at a time.

    Yields (range(start, stop), on_k, on_mid, on_end) per block: on_k
    holds F at k dt for k = start..stop (grid points and stage 1), so
    it ends on the next block's first time; on_mid at k dt + dt/2
    (stages 2 and 3) and on_end at k dt + dt (stage 4) for k < stop.
    The last is not (k + 1) dt: the two differ in the last bit in about
    a third of the steps. F is sampled without numpy's warnings; a
    reference's grid form refuses a state that is not finite itself.
    """
    for start in range(0, steps, _BLOCK):
        stop = min(start + _BLOCK, steps)
        t = np.arange(start, stop + 1) * dt
        mid, end = t[:-1] + 0.5 * dt, t[:-1] + dt
        with np.errstate(all="ignore"):
            grids = on_grid(F, t), on_grid(F, mid), on_grid(F, end)
        yield range(start, stop), *grids


def _setup(cfg: SimConfig) -> tuple:
    """(control, blocks, ref0) of a run: its control law, its reference's _stage_blocks, t = 0 row.

    Raises ValueError if the reference is not finite at a stage time.
    """
    traj = trajectory_from_descriptor(cfg.trajectory)
    blocks = list(_stage_blocks(traj.state_at, cfg.dt, cfg.steps))
    return _make_controller(cfg), blocks, blocks[0][1][0].tolist()


def _initial_state(ref0, offset) -> tuple:
    """(theta, px, py) at t = 0: the reference pose ref0 moved by offset = (dx, dy, dtheta)."""
    thd0, pdx0, pdy0, _, _ = ref0
    dx0, dy0, dth0 = offset
    return wrap_angle(thd0 + dth0), pdx0 + dx0, pdy0 + dy0


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


# largest dt * lambda at which _rk4_step holds x_dot = -lambda x, lambda >= 0
_RK4_LIMIT = 2.785


def _rk4_step(field, s1, s2, s3, p: float, q: float, r: float, dt: float) -> tuple:
    """One classical RK4 step of the three-float state (p, q, r); returns (p, q, r, aux).

    field(s, p, q, r) returns the derivative (a, b, c) and an aux value;
    s is the stage's sample of the time-varying input: s1 at the step's
    start, s2 at its midpoint (stages 2 and 3) and s3 at its end. aux is
    stage 1's. The update is x + (dt/6) (k1 + 2 (k2 + k3) + k4). p, q
    and r may as well be numpy arrays, which it steps entry by entry: the
    linearization passes the rows of a 3 x 3 state, stacked over a block
    of steps, with the block's stage grids as s1, s2 and s3.
    """
    half = 0.5 * dt
    a1, b1, c1, aux = field(s1, p, q, r)
    a2, b2, c2, _ = field(s2, p + half * a1, q + half * b1, r + half * c1)
    a3, b3, c3, _ = field(s2, p + half * a2, q + half * b2, r + half * c2)
    a4, b4, c4, _ = field(s3, p + dt * a3, q + dt * b3, r + dt * c3)
    sixth = dt / 6.0
    return (p + sixth * (a1 + 2.0 * (a2 + a3) + a4), q + sixth * (b1 + 2.0 * (b2 + b3) + b4),
            r + sixth * (c1 + 2.0 * (c2 + c3) + c4), aux)


def _integrate(control, states: list, blocks, dt: float, data=None) -> tuple:
    """Integrate the closed loop from each state = (theta, px, py) of states at t = 0.

    blocks is the reference's _stage_blocks over the run. Each block's
    stage values are turned into Python floats once, and every state
    still running takes the block's steps, in order, before the next
    block's floats are made. A state that leaves the finite range stops
    with its SimulationDiverged (with the offending step index), and so
    does every state after it: a sweep reports its lowest-index failure,
    which a later state cannot be. The states before it run on.

    Returns (rows, diverged): the last log row of each state before the
    first that diverged, and that state's SimulationDiverged; or the last
    rows of all states and None. When data is given, a (steps + 1,
    len(CSV_COLUMNS)) array, row k of the log of the one state is
    written into it at every step.
    """
    def field(ref, th, px, py):
        # the unicycle under the control law; aux is the control, which the log row records
        u = control(ref, th, px, py)
        v = u[1]
        return u[0], v * math.cos(th), v * math.sin(th), u

    states = list(states)
    diverged = None
    for ks, on_k, on_mid, on_end in blocks:
        if not states:
            break
        refs = on_k.tolist(), on_mid.tolist(), on_end.tolist()
        for i, (th, px, py) in enumerate(states):
            try:
                for k, ref, ref_mid, ref_end in zip(ks, *refs):
                    try:
                        th1, px1, py1, u = _rk4_step(field, ref, ref_mid, ref_end, th, px, py, dt)
                        th1 = wrap_angle(th1)
                    except (OverflowError, ValueError):
                        raise SimulationDiverged(k + 1, k * dt + dt) from None
                    if data is not None:
                        data[k] = _log_row(k * dt, th, px, py, ref, u)
                    th, px, py = th1, px1, py1
                    if not (math.isfinite(th) and math.isfinite(px) and math.isfinite(py)):
                        raise SimulationDiverged(k + 1, k * dt + dt)
            except SimulationDiverged as exc:
                diverged = exc
                del states[i:]
                break
            states[i] = th, px, py
        # released before the next block's floats are made, so that one block's are alive at once
        del refs

    ref = on_k[-1].tolist()
    rows = [_log_row(ks.stop * dt, th, px, py, ref, control(ref, th, px, py))
            for th, px, py in states]
    if data is not None and rows:
        data[ks.stop] = rows[0]
    return rows, diverged


def simulate(cfg: SimConfig) -> SimLog:
    """Integrate the closed loop and return the populated log.

    Deterministic for a fixed config. Raises SimulationDiverged (with
    the offending step index) if the state leaves the finite range, and
    StepTooLarge if L rises by more than _LYAP_RISE_TOL in one step of
    a spatial run.
    """
    control, blocks, ref0 = _setup(cfg)
    data = np.empty((cfg.steps + 1, len(CSV_COLUMNS)))
    _, diverged = _integrate(control, [_initial_state(ref0, cfg.offset)], blocks, cfg.dt, data)
    if diverged is not None:
        raise diverged
    if cfg.controller == "spatial":
        lyap = data[:, COL["lyap"]]
        # a step from inf to inf is no rise: its NaN reads as -inf, without numpy's warning
        with np.errstate(invalid="ignore"):
            rise = np.fmax(np.diff(lyap), -math.inf)
        k = int(np.argmax(rise))
        if rise[k] > _LYAP_RISE_TOL:
            raise StepTooLarge(f"L rose from {lyap[k]:.6g} to {lyap[k + 1]:.6g} at step {k + 1} "
                               f"(t = {data[k + 1, 0]:.6g}): dt = {cfg.dt:g} is too large a step "
                               f"for this reference")
    return SimLog(data=data, config=cfg)


@dataclass(frozen=True)
class BasinSummary:
    """Aggregate of a Monte-Carlo convergence sweep."""

    samples: int
    converged: int
    threshold: float
    t_end: float
    seed: Optional[int]
    final_lyapunov: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def fraction(self) -> Optional[float]:
        return None if self.samples == 0 else self.converged / self.samples

    def to_dict(self) -> dict:
        return {**asdict(self), "fraction": self.fraction}


def monte_carlo_basin(cfg: SimConfig, samples: int,
                      threshold: float = _BASIN_THRESHOLD) -> BasinSummary:
    """Sweep random initial spatial errors and count convergences.

    Draws theta_E uniform on [-pi + _THETA_MARGIN, pi - _THETA_MARGIN]
    and p_E uniform on [-_P_BOX, _P_BOX]^2, places the vehicle so the
    initial spatial error is exactly the draw, runs each case, and
    counts final Lyapunov values below threshold; samples may be 0 to
    _MAX_STEPS. Deterministic for a fixed cfg.seed (None draws as 0).
    The margin keeps draws away from the antipodal equilibrium, where
    escape times blow up.

    The samples run _in_parallel, in as many contiguous ranges as
    _processes grants them, each range in one _integrate; each range
    raises its lowest-index failure, and the ranges are read in order.
    So the lowest-index sample that diverged raises SimulationDiverged,
    and for the spatial controller the lowest-index one whose L ended
    above its start raises StepTooLarge, whichever comes first.
    """
    _require_count("sample count", samples, 0)
    _require_positive("threshold", threshold)
    control, blocks, ref0 = _setup(cfg)
    _, pdx0, pdy0, _, _ = ref0
    seed = 0 if cfg.seed is None else cfg.seed
    rng = np.random.default_rng(seed)
    draws, states = [], []
    for _ in range(samples):
        thE, pEx, pEy = draw = (rng.uniform(-math.pi + _THETA_MARGIN, math.pi - _THETA_MARGIN),
                                rng.uniform(-_P_BOX, _P_BOX), rng.uniform(-_P_BOX, _P_BOX))
        # invert E_R(0) = (thE, pE): p(0) = pE + R(thE) p_d(0)
        c, s = math.cos(thE), math.sin(thE)
        dx = pEx + (c * pdx0 - s * pdy0) - pdx0
        dy = pEy + (s * pdx0 + c * pdy0) - pdy0
        draws.append(draw)
        states.append(_initial_state(ref0, (dx, dy, thE)))

    def final_lyapunov(part):
        # the samples of part in one kernel; its lowest-index failure is raised
        rows, diverged = _integrate(control, [states[i] for i in part], blocks, cfg.dt)
        finals = []
        for i, row in zip(part, rows):
            final = row[COL["lyap"]]
            start = _lyapunov_scalars(*draws[i])
            if cfg.controller == "spatial" and final > start:
                raise StepTooLarge(f"sample {i}: L rose from {start:.6g} to {final:.6g}: "
                                   f"dt = {cfg.dt:g} is too large a step for this reference")
            finals.append(final)
        if diverged is not None:
            raise diverged
        return finals

    parts = np.array_split(range(samples), _processes(samples))
    finals = [final for part in _in_parallel(final_lyapunov, parts) for final in part]
    failures = [{"index": i, "theta_E": thE, "p_E": [pEx, pEy], "final_lyapunov": final}
                for i, ((thE, pEx, pEy), final) in enumerate(zip(draws, finals))
                if not final < threshold]

    return BasinSummary(
        samples=samples, converged=samples - len(failures), threshold=threshold,
        t_end=cfg.t_end, seed=seed, final_lyapunov=finals, failures=failures,
    )


@dataclass(frozen=True)
class ComparisonRow:
    """Per-controller convergence metrics from a shared scenario."""

    controller: str
    gains: Optional[tuple]
    time_to_heading: Optional[float]
    time_to_position: Optional[float]
    final_heading_error: float
    final_position_error: float
    final_lyapunov: float

    def to_dict(self) -> dict:
        return asdict(self)


def _settle_time(t: np.ndarray, err: np.ndarray, threshold: float) -> Optional[float]:
    """First grid time after which err stays below threshold, None if never."""
    below = err < threshold
    if not below[-1]:
        return None
    # last index where the error was still at/above threshold
    above = np.nonzero(~below)[0]
    if len(above) == 0:
        return float(t[0])
    # below[-1] holds, so the index after the last one above is in range
    return float(t[above[-1] + 1])


def compare_controllers(cfgs, threshold: float = _SETTLE_THRESHOLD):
    """Run several controllers on the same scenario and tabulate metrics.

    All configs must share the trajectory and initial offset (that is
    the point of the comparison), and threshold must be positive.
    Returns (rows, logs) in input order.
    """
    _require_positive("threshold", threshold)
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("need at least one config to compare")
    ref_traj = cfgs[0].trajectory
    ref_off = tuple(cfgs[0].offset)
    for c in cfgs[1:]:
        if c.trajectory != ref_traj or tuple(c.offset) != ref_off:
            raise ValueError("comparison configs must share trajectory and offset")

    rows = []
    logs = []
    for c in cfgs:
        log = simulate(c)
        he = log.heading_error()
        pe = log.position_error()
        rows.append(
            ComparisonRow(
                controller=c.controller,
                gains=c.gains,
                time_to_heading=_settle_time(log.t, he, threshold),
                time_to_position=_settle_time(log.t, pe, threshold),
                final_heading_error=float(he[-1]),
                final_position_error=float(pe[-1]),
                final_lyapunov=float(log.lyap[-1]),
            )
        )
        logs.append(log)
    return rows, logs
