"""Fixed-step integration of the deterministic system and long-run diagnosis."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .equilibria import HYPERBOLICITY_TOL, _eigenvalues_2x2, jacobian
from .model import GridSpec, ModelParams, State, _rates, _sized, checked_state, drift

__all__ = [
    "AsymptoticKind",
    "AsymptoticVerdict",
    "BlowupError",
    "Trajectory",
    "detect_asymptotics",
    "integrate",
    "vector_field_grid",
]

DEFAULT_DT = 1e-3

# Trailing-window thresholds used by detect_asymptotics.
_STATIONARY_RANGE = 1e-6
_EQUILIBRIUM_RESIDUAL = 1e-8
_PERIOD_STABILITY = 1e-3
_MIN_SAMPLES = 1000
_REQUIRED_INTERVALS = 5


class BlowupError(RuntimeError):
    """A state became non-finite at `step`, time step*dt; last_good_index is step - 1."""

    def __init__(self, step: int, dt: float):
        super().__init__(f"non-finite state at step {step} (t={step * dt}); step or start too big")
        self.last_good_index = step - 1


def _projected(n: float, p: float, clamps: int, step: int, dt: float) -> tuple[float, float, int]:
    """A state that failed a scalar loop's guard at `step`: BlowupError if not finite
    (before the projection, which would turn -inf into 0), else projected and counted."""
    if not (math.isfinite(n) and math.isfinite(p)):
        raise BlowupError(step, dt)
    if n < 0.0:
        n = 0.0
        clamps += 1
    if p < 0.0:
        p = 0.0
        clamps += 1
    return n, p, clamps


@dataclass(frozen=True)
class Trajectory:
    """A path on the uniform grid times[i] = i * dt: integrate's RK4 solution or
    simulate_path's EM path, with its projections to an axis in clamp_count."""

    states: np.ndarray
    params: ModelParams
    dt: float
    clamp_count: int

    def __post_init__(self) -> None:
        self.states.flags.writeable = False

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def times(self) -> np.ndarray:
        """The read-only grid np.arange(len(self)) * dt, built on first read."""
        times = np.arange(len(self.states)) * self.dt
        times.flags.writeable = False
        return times


class AsymptoticKind(Enum):
    EQUILIBRIUM = "equilibrium"
    LIMIT_CYCLE = "limit_cycle"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class AsymptoticVerdict:
    kind: AsymptoticKind
    point: State | None = None
    period: float | None = None
    box: tuple[float, float, float, float] | None = None
    diagnostics: str = ""


def _step_count(t_end: float, dt: float) -> int:
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    if not (t_end >= dt and math.isfinite(float(t_end) / float(dt))):
        raise ValueError(
            f"t_end must be a finite number of steps >= 1, got t_end={t_end!r}, dt={dt!r}"
        )
    return max(1, round(float(t_end) / float(dt)))


def integrate(params: ModelParams, x0: State, t_end: float, dt: float = DEFAULT_DT) -> Trajectory:
    """March the deterministic system with classical RK4 on a fixed grid.

    The step count is round(t_end / dt), so the final time is the nearest
    grid multiple of dt.  Steps that land a component below zero are clamped
    to zero and counted; for interior starts at sane steps the count stays 0.
    A non-finite state, -inf included, aborts with BlowupError carrying the
    last good index.

    The loop is the classical RK4 step on the drift of model._rates, written
    out operand for operand on Python floats; it stores through a flat view of
    the state array and tests each step once.
    """
    n, p = checked_state(x0)
    steps = _step_count(t_end, dt)
    dt = float(dt)  # a numpy scalar would run the loop in its own precision
    m, c, k = params.m, params.c, params.k
    # Negating c is exact, so nc * p is -c * p bit for bit.
    h2, sixth, nc, inf = 0.5 * dt, dt / 6.0, -c, math.inf
    out = _sized("t_end/dt", steps, np.empty, (steps + 1, 2))
    clamps = 0
    # A cast needs a C-contiguous buffer, so the view cannot be a detached copy.
    with memoryview(out).cast("B").cast("d") as flat:
        flat[0] = n
        flat[1] = p
        for j in range(2, 2 * steps + 2, 2):
            inter = m * n * p / (1.0 + n)
            k1n = n * (1.0 - n / k) - inter
            k1p = nc * p + inter
            n1 = n + h2 * k1n
            p1 = p + h2 * k1p
            inter = m * n1 * p1 / (1.0 + n1)
            k2n = n1 * (1.0 - n1 / k) - inter
            k2p = nc * p1 + inter
            n2 = n + h2 * k2n
            p2 = p + h2 * k2p
            inter = m * n2 * p2 / (1.0 + n2)
            k3n = n2 * (1.0 - n2 / k) - inter
            k3p = nc * p2 + inter
            n3 = n + dt * k3n
            p3 = p + dt * k3p
            inter = m * n3 * p3 / (1.0 + n3)
            k4n = n3 * (1.0 - n3 / k) - inter
            k4p = nc * p3 + inter
            n = n + sixth * (k1n + 2.0 * k2n + 2.0 * k3n + k4n)
            p = p + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            # False for a negative, NaN or infinite component (or a sum past the float maximum).
            if not (n >= 0.0 and p >= 0.0 and n + p < inf):
                n, p, clamps = _projected(n, p, clamps, j // 2, dt)
            flat[j] = n
            flat[j + 1] = p
    return Trajectory(out, params, dt, clamps)


def vector_field_grid(params: ModelParams, grid: GridSpec) -> np.ndarray:
    """Drift on the grid as (resolution**2, 4) rows (n, p, dn, dp), row-major in n;
    a drift that is not finite raises ValueError naming the first such point."""
    if grid.resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {grid.resolution}")
    ns, ps = grid.axes()
    field = _sized("res", grid.resolution, np.empty, (len(ns), len(ps), 4))
    field[..., 0], field[..., 1] = ns[:, None], ps  # the "ij" mesh
    with np.errstate(over="ignore", invalid="ignore"):
        field[..., 2], field[..., 3], _, _ = _rates(params.m, params.c, params.k, ns[:, None], ps)
    field = field.reshape(-1, 4)
    finite = np.isfinite(field[:, 2:]).all(axis=1)
    if not finite.all():
        x = tuple(field[finite.argmin(), :2].tolist())
        raise ValueError(f"drift is not finite at (n, p) = {x}; grid too large")
    return field


def _upward_crossings(times: np.ndarray, values: np.ndarray, level: float) -> np.ndarray:
    """Times where values crosses level from below, linearly interpolated."""
    below = values[:-1] < level
    at_or_above = values[1:] >= level
    idx = np.nonzero(below & at_or_above)[0]
    frac = (level - values[idx]) / (values[idx + 1] - values[idx])
    return times[idx] + frac * (times[idx + 1] - times[idx])


def detect_asymptotics(traj: Trajectory) -> AsymptoticVerdict:
    """Diagnose the trailing quarter of a trajectory, its last len(traj) // 4 states.

    A window whose per-component range is below 1e-6 is an equilibrium
    (confirmed against the drift); otherwise stable spacing of the last five
    upward mean-crossings of n declares a limit cycle with that period and
    the window bounding box.  Anything else is undecided.

    A verdict the step decided is undecided too (Yee, Sweby & Griffiths,
    J. Comput. Phys. 97, 1991): one on a trajectory with projections, since
    the flow keeps both axes invariant, and an equilibrium at a source of the
    flow, which only a start on the point itself can reach.  A cycle period
    within the interval spread of a whole number of steps is noted as locked.
    """
    if len(traj) < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples, got {len(traj)}")
    if traj.clamp_count:
        return AsymptoticVerdict(
            kind=AsymptoticKind.UNDECIDED,
            diagnostics=(
                f"{traj.clamp_count} projection(s) to an axis at dt={traj.dt}: "
                f"the flow never leaves the quadrant, so the step decided the answer"
            ),
        )
    start = len(traj) - len(traj) // 4
    window = traj.states[start:]
    lo = window.min(axis=0)
    hi = window.max(axis=0)
    ranges = hi - lo
    if ranges[0] < _STATIONARY_RANGE and ranges[1] < _STATIONARY_RANGE:
        point = State(float(window[:, 0].mean()), float(window[:, 1].mean()))
        residual = drift(traj.params, point)
        if max(abs(residual.dn), abs(residual.dp)) < _EQUILIBRIUM_RESIDUAL:
            with np.errstate(over="ignore", invalid="ignore"):
                lams = _eigenvalues_2x2(jacobian(traj.params, point))
            # Sorted by real part, so the first above the tolerance makes a source.
            started_there = np.abs(traj.states[0] - point).max() < _STATIONARY_RANGE
            if lams[0].real > HYPERBOLICITY_TOL and not started_there:
                return AsymptoticVerdict(
                    kind=AsymptoticKind.UNDECIDED,
                    diagnostics=(
                        f"stationary at a source (eigenvalues {lams[0]:.6g}, {lams[1]:.6g}): "
                        f"the RK4 map at dt={traj.dt} holds a point the flow leaves"
                    ),
                )
            return AsymptoticVerdict(
                kind=AsymptoticKind.EQUILIBRIUM,
                point=point,
                diagnostics=f"window range {ranges.max():.3e}, residual ok",
            )
        return AsymptoticVerdict(
            kind=AsymptoticKind.UNDECIDED,
            diagnostics=(
                f"window stationary (range {ranges.max():.3e}) but drift "
                f"residual {max(abs(residual.dn), abs(residual.dp)):.3e} too large"
            ),
        )
    # The window's times alone, with the bits of traj.times[start:].
    times = np.arange(start, len(traj), dtype=float) * traj.dt
    crossings = _upward_crossings(times, window[:, 0], float(window[:, 0].mean()))
    if len(crossings) >= _REQUIRED_INTERVALS + 1:
        intervals = np.diff(crossings)[-_REQUIRED_INTERVALS:]
        period = float(intervals.mean())
        spread = float(np.abs(intervals - period).max())
        if spread <= _PERIOD_STABILITY * period:
            steps = round(period / traj.dt)
            locked = abs(period - steps * traj.dt) <= spread
            note = f"; the period is {steps} steps, locked to dt={traj.dt}" if locked else ""
            return AsymptoticVerdict(
                kind=AsymptoticKind.LIMIT_CYCLE,
                period=period,
                box=(float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1])),
                diagnostics=f"{len(crossings)} crossings, interval spread {spread:.3e}{note}",
            )
        return AsymptoticVerdict(
            kind=AsymptoticKind.UNDECIDED,
            diagnostics=(
                f"crossing intervals unstable: spread {spread:.3e} "
                f"vs tolerance {_PERIOD_STABILITY * period:.3e}"
            ),
        )
    return AsymptoticVerdict(
        kind=AsymptoticKind.UNDECIDED,
        diagnostics=f"only {len(crossings)} upward mean-crossings in window",
    )
