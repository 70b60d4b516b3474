"""Euler-Maruyama simulation of the demographic-noise system.

Discretization on the equidistant grid tau_i = i * delta, delta = t_end / m:

    Y_{i+1} = Y_i + mu(Y_i) delta + g(Y_i) dW_i,   dW_i ~ N(0, delta I)

Negative components produced by a step are projected back to zero; each
projection is counted so the caller can judge how often the boundary bites.
A state that is not finite raises BlowupError naming the first such step; a
component that overflows to -inf counts as not finite, not as extinct.

Reproducibility contract: the Brownian increments for a path are a pure
function of (seed, stream_index) through a counter-based generator, so any
path can be regenerated in isolation and ensembles are schedule-independent.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .model import ModelParams, State, _rates, checked_state
from .ode import BlowupError

__all__ = [
    "DESK_STEPS",
    "NoiseStream",
    "SamplePath",
    "SimConfig",
    "simulate_path",
    "strong_self_convergence",
]

# Default step count: dt = 2.5e-3 at t_end = 10.
DESK_STEPS = 4_000

_MAX_SEED = 2**64

# Steps per chunk of the ensemble driver: noise is drawn and recorded rows are
# handed over one chunk at a time.  Sets memory (runs x chunk), not results.
_CHUNK_STEPS = 256


@dataclass(frozen=True)
class SimConfig:
    """Simulation window, grid, and noise policy for one or many paths."""

    t_end: float
    m_steps: int = DESK_STEPS
    seed: int = 0
    zero_noise: bool = False

    def __post_init__(self) -> None:
        if not (self.t_end > 0.0) or not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end!r}")
        if self.m_steps < 1:
            raise ValueError(f"m_steps must be >= 1, got {self.m_steps!r}")
        if not (0 <= self.seed < _MAX_SEED):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")

    @cached_property
    def delta(self) -> float:
        return self.t_end / self.m_steps


@dataclass(frozen=True)
class SamplePath:
    """One realized path on the grid times[i] = i * delta."""

    times: np.ndarray
    states: np.ndarray
    clamp_events: int
    seed: int
    stream_index: int

    def __post_init__(self) -> None:
        self.times.flags.writeable = False
        self.states.flags.writeable = False

    def __len__(self) -> int:
        return len(self.times)


class NoiseStream:
    """Brownian increments addressed by (seed, stream_index).

    Backed by Philox keyed with the pair, so streams with different indices
    are statistically independent and each stream's increment sequence is a
    fixed function of its address: asking for more steps extends the
    sequence without disturbing the prefix.
    """

    def __init__(self, seed: int, stream_index: int):
        if not (0 <= seed < _MAX_SEED):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        if not (0 <= stream_index < _MAX_SEED):
            raise ValueError(f"stream_index must be a 64-bit unsigned integer, got {stream_index!r}")
        self.seed = seed
        self.stream_index = stream_index

    def _generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def increments(self, m_steps: int, delta: float) -> np.ndarray:
        """(m_steps, 2) array of N(0, delta) increments, one pair per step."""
        if m_steps < 1:
            raise ValueError(f"m_steps must be >= 1, got {m_steps!r}")
        if not (delta > 0.0):
            raise ValueError(f"delta must be > 0, got {delta!r}")
        draws = self._generator().standard_normal((m_steps, 2))
        return draws * math.sqrt(delta)


def _path_increments(cfg: SimConfig, stream_index: int) -> np.ndarray:
    """(m_steps, 2) increments of one path: zeros without noise, else Philox."""
    if cfg.zero_noise:
        return np.zeros((cfg.m_steps, 2))
    return NoiseStream(cfg.seed, stream_index).increments(cfg.m_steps, cfg.delta)


def _em_path(m, c, k, n, p, delta, increments, out) -> int:
    """Scalar EM from (n, p) with projection to zero; step i takes increments[i]
    and stores its state in out[i].  Returns the number of projections.

    A component that overflows to -inf is stored as NaN, not projected to 0,
    so the caller's finiteness check sees the step that blew up."""
    clamps = 0
    # Python floats: the same IEEE operations as numpy scalars, several times faster.
    for i, (dw1, dw2) in enumerate(increments.tolist()):
        dn, dp, v1, v2 = _rates(m, c, k, n, p)
        n = n + dn * delta + math.sqrt(v1) * dw1
        p = p + dp * delta + math.sqrt(v2) * dw2
        if n < 0.0:
            n = 0.0 if n > -math.inf else math.nan
            clamps += 1
        if p < 0.0:
            p = 0.0 if p > -math.inf else math.nan
            clamps += 1
        out[i, 0] = n
        out[i, 1] = p
    return clamps


def _check_finite(out: np.ndarray, delta: float) -> None:
    """BlowupError at the first row of out (row i holds step i) that is not finite."""
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise BlowupError(int(finite.argmin()), delta)


def simulate_path(
    params: ModelParams, x0: State, cfg: SimConfig, stream_index: int = 0
) -> SamplePath:
    """Simulate one path; deterministic in (params, x0, cfg, stream_index)."""
    n, p = checked_state(x0)
    delta = cfg.delta
    increments = _path_increments(cfg, stream_index)
    out = np.empty((cfg.m_steps + 1, 2))
    out[0] = n, p
    clamps = _em_path(params.m, params.c, params.k, n, p, delta, increments, out[1:])
    _check_finite(out, delta)
    times = np.arange(cfg.m_steps + 1) * delta
    return SamplePath(
        times=times, states=out, clamp_events=clamps, seed=cfg.seed, stream_index=stream_index
    )


def _ensemble_chunks(
    params: ModelParams, x0: State, cfg: SimConfig, runs: int, stride: int, workers: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Advance the paths on streams 0..runs-1 together, one step at a time.

    Yields (rows, clamps) per chunk of steps: rows is the (recorded, 2, runs)
    states of every `stride`-th step, x0 leading the first chunk; clamps the
    per-path projection counts so far.  Both buffers are reused.  One
    generator per stream makes chunked draws equal a single draw; `workers`
    threads split the draws by stream.  Matches simulate_path bit for bit,
    also in raising BlowupError at the first step with a non-finite state.
    """
    if runs < 2:
        raise ValueError(f"need at least 2 runs, got {runs}")
    if stride < 1 or cfg.m_steps % stride != 0:
        raise ValueError(f"stride must divide m_steps, got stride={stride}, m_steps={cfg.m_steps}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n0, p0 = checked_state(x0)
    steps, delta = cfg.m_steps, cfg.delta
    m, c, k = params.m, params.c, params.k
    chunk = min(_CHUNK_STEPS, steps)
    x = np.repeat(np.array([[n0], [p0]]), runs, axis=1)
    drift, var = np.empty((2, runs)), np.empty((2, runs))
    inter, one_n, n_k = np.empty(runs), np.empty(runs), np.empty(runs)
    (n, p), (dn, dp), (v1, v2) = x, drift, var
    clamps = np.zeros(runs, dtype=np.int64)
    noise = np.zeros((chunk, 2, runs))
    rows = np.empty((chunk // stride + 1, 2, runs))
    rows[0] = x
    recorded = 1
    if not cfg.zero_noise:
        generators = [NoiseStream(cfg.seed, j)._generator() for j in range(runs)]
        draws = np.empty((runs, chunk, 2))

    def draw(streams: range, size: int) -> None:
        for j in streams:
            generators[j].standard_normal(out=draws[j, :size])
        part = slice(streams.start, streams.stop)
        np.multiply(draws[part, :size], math.sqrt(delta), out=noise[:size].transpose(2, 0, 1)[part])

    parts = min(workers, runs, os.cpu_count() or 1)
    slices = [range(runs * i // parts, runs * (i + 1) // parts) for i in range(parts)]
    with ThreadPoolExecutor(max_workers=parts) as pool:
        for start in range(0, steps, chunk):
            size = min(chunk, steps - start)
            if not cfg.zero_noise:
                list(pool.map(draw, slices, [size] * parts))
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(size):
                    # Shared terms once per step: m n p / (1 + n) and n / k.
                    np.multiply(np.multiply(n, m, out=inter), p, out=inter)
                    inter /= np.add(n, 1.0, out=one_n)
                    np.divide(n, k, out=n_k)
                    # Drift and variances, operand for operand as in model._rates.
                    np.multiply(np.subtract(1.0, n_k, out=dn), n, out=dn)
                    dn -= inter
                    np.add(np.multiply(p, -c, out=dp), inter, out=dp)
                    np.multiply(np.add(n_k, 1.0, out=v1), n, out=v1)
                    v1 += inter
                    np.add(np.multiply(p, c, out=v2), inter, out=v2)
                    drift *= delta
                    drift += x
                    np.sqrt(var, out=var)
                    var *= noise[i]
                    np.add(drift, var, out=x)
                    # fmin skips NaN, so a NaN path cannot hide another's negative.
                    lowest = np.fmin.reduce(x, axis=None)
                    if lowest < 0.0:
                        if lowest == -math.inf:  # an overflow, not an extinction
                            raise BlowupError(start + i + 1, delta)
                        negative = x < 0.0
                        clamps += negative.sum(axis=0)
                        x[negative] = 0.0
                    # False for NaN and +inf.
                    if not np.maximum.reduce(x, axis=None) < math.inf:
                        raise BlowupError(start + i + 1, delta)
                    if (start + i + 1) % stride == 0:
                        rows[recorded] = x
                        recorded += 1
            yield rows[:recorded], clamps
            recorded = 0


def strong_self_convergence(
    params: ModelParams,
    x0: State,
    t_end: float,
    seed: int,
    *,
    m_base: int = 256,
    n_levels: int = 4,
    stream_index: int = 0,
    zero_noise: bool = False,
) -> list[tuple[float, float]]:
    """Terminal-state gaps between nested step sizes on one Brownian path.

    The finest grid (m_base * 2**(n_levels-1) steps) draws the increments;
    every coarser grid sums them in consecutive groups, so all levels ride
    the same Brownian path.  Returns [(delta, |Y_T(delta) - Y_T(delta/2)|)]
    per adjacent pair, coarsest first; fewer than two levels yields [].
    A level whose path is not finite at some step raises BlowupError; with
    zero_noise, a level that projects a component to zero raises ValueError.
    """
    if m_base < 1:
        raise ValueError(f"m_base must be >= 1, got {m_base!r}")
    n0, p0 = checked_state(x0)
    if n_levels < 2:
        return []
    fine_steps = m_base << (n_levels - 1)
    cfg = SimConfig(t_end=t_end, m_steps=fine_steps, seed=seed, zero_noise=zero_noise)
    fine_increments = _path_increments(cfg, stream_index)
    m, c, k = params.m, params.c, params.k
    finals = []
    for level in range(n_levels):
        level_steps = m_base << level
        level_increments = fine_increments.reshape(level_steps, -1, 2).sum(axis=1)
        delta = t_end / level_steps
        states = np.empty((level_steps + 1, 2))
        states[0] = n0, p0
        clamps = _em_path(m, c, k, n0, p0, delta, level_increments, states[1:])
        _check_finite(states, delta)
        # The noiseless flow keeps the closed quadrant, so a projection means
        # delta times a rate exceeded 1: the step, not the model, decided the end.
        if zero_noise and clamps:
            raise ValueError(f"zero-noise path projected to zero at delta={delta}; step too coarse")
        finals.append(states[-1])
    return [
        (t_end / (m_base << level), math.hypot(*(finals[level] - finals[level + 1])))
        for level in range(n_levels - 1)
    ]
