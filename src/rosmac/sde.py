"""Euler-Maruyama simulation of the demographic-noise system.

Discretization on the equidistant grid tau_i = i * delta, delta = t_end / m:

    Y_{i+1} = Y_i + mu(Y_i) delta + g(Y_i) dW_i,   dW_i ~ N(0, delta I)

Negative components produced by a step are projected back to zero; each
projection is counted so the caller can judge how often the boundary bites.
A state that is not finite raises BlowupError naming the first such step; a
component that overflows to -inf counts as not finite, not as extinct.

The origin (+0, +0) is absorbing: drift and noise amplitudes are both 0 there,
so every later step returns it unchanged.  One rule covers both drivers: a
path or run found there at a chunk start draws no more noise and stops
stepping, and +0.0, the bytes stepping would give, is written for its
remaining states.  A -0.0 component is not the origin until a step turns it
into +0.

Reproducibility contract: a path's increments are a pure function of (seed,
stream_index) through a counter-based generator whose chunked draws equal one
draw, so any path regenerates alone and ensembles are schedule-independent.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .model import ModelParams, State, checked_state
from .ode import BlowupError, _projected

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

# Steps per chunk of both EM drivers, which test for the origin at chunk
# starts.  Sets memory (runs x chunk), not results.
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

    Backed by one Philox generator keyed with the pair: streams with
    different indices are statistically independent, and each increments()
    call continues the stream's fixed sequence, so successive calls, split in
    any way, give the bits of one call.
    """

    def __init__(self, seed: int, stream_index: int):
        if not (0 <= seed < _MAX_SEED):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        if not (0 <= stream_index < _MAX_SEED):
            raise ValueError(f"stream_index must be a 64-bit unsigned integer, got {stream_index!r}")
        self.seed = seed
        self.stream_index = stream_index
        self._rng = np.random.Generator(np.random.Philox(key=np.array([seed, stream_index], dtype=np.uint64)))

    def increments(self, m_steps: int, delta: float) -> np.ndarray:
        """The stream's next m_steps pairs of N(0, delta) increments, as an (m_steps, 2) array."""
        if m_steps < 1:
            raise ValueError(f"m_steps must be >= 1, got {m_steps!r}")
        if not (delta > 0.0):
            raise ValueError(f"delta must be > 0, got {delta!r}")
        return self._rng.standard_normal((m_steps, 2)) * math.sqrt(delta)


def _draw(cfg: SimConfig, stream_index: int) -> Callable[[int], np.ndarray]:
    """draw(size) for _em_path: the next `size` increments on a fresh stream
    `stream_index`, or zeros without noise.  The address is checked either way."""
    stream = NoiseStream(cfg.seed, stream_index)
    if cfg.zero_noise:
        return lambda size: np.zeros((size, 2))
    return lambda size: stream.increments(size, cfg.delta)


def _at_origin(x: np.ndarray) -> np.ndarray:
    """Per column of the (2, ...) states x: is it the origin (+0, +0)? -0.0 is not +0."""
    return ((x == 0.0) & ~np.signbit(x)).all(axis=0)


def _em_path(m, c, k, n, p, delta, steps, draw) -> tuple[np.ndarray, int]:
    """Scalar EM from (n, p) with projection to zero: the (steps + 1, 2) states,
    row i after step i, and the number of projections.  draw(size) gives the
    next (size, 2) increments; it is called at each chunk start where the path
    is live.  A state that is not finite, -inf included, raises BlowupError at
    its step.  The origin (+0, +0) is absorbing: a path found there at a chunk
    start draws no more noise and stops stepping; its later rows keep +0.0."""
    states = np.zeros((steps + 1, 2))
    clamps = 0
    nc, sqrt, inf = -c, math.sqrt, math.inf
    # Python floats: the same IEEE operations as numpy scalars, several times
    # faster.  The rates are model._rates inlined operand for operand, each state
    # goes through a flat view of the states, and one guard per step skips the
    # projection.  Increments are drawn and converted to floats a chunk at a
    # time, so an absorbed path draws and converts no more of them.
    with memoryview(states).cast("B").cast("d") as flat:
        flat[0] = n
        flat[1] = p
        j = 2
        for start in range(0, steps, _CHUNK_STEPS):
            if _at_origin(np.array([n, p])):
                break
            for dw1, dw2 in draw(min(_CHUNK_STEPS, steps - start)).tolist():
                inter = m * n * p / (1.0 + n)
                n_k = n / k
                dn, dp = n * (1.0 - n_k) - inter, nc * p + inter
                v1, v2 = n * (1.0 + n_k) + inter, c * p + inter
                n = n + dn * delta + sqrt(v1) * dw1
                p = p + dp * delta + sqrt(v2) * dw2
                # False for a negative, NaN or infinite component (or a sum past the float maximum).
                if not (n >= 0.0 and p >= 0.0 and n + p < inf):
                    n, p, clamps = _projected(n, p, clamps, j // 2, delta)
                flat[j] = n
                flat[j + 1] = p
                j += 2
    return states, clamps


def simulate_path(
    params: ModelParams, x0: State, cfg: SimConfig, stream_index: int = 0
) -> SamplePath:
    """Simulate one path; deterministic in (params, x0, cfg, stream_index).
    Its noise is drawn a chunk at a time, and none once the path is at the origin."""
    n, p = checked_state(x0)
    # The times first, so that their integer temporary is gone before the states exist.
    times = np.arange(cfg.m_steps + 1) * cfg.delta
    draw = _draw(cfg, stream_index)
    states, clamps = _em_path(params.m, params.c, params.k, n, p, cfg.delta, cfg.m_steps, draw)
    return SamplePath(
        times=times, states=states, clamp_events=clamps, seed=cfg.seed, stream_index=stream_index
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

    The origin (+0, +0) is absorbing, and both drivers check at chunk starts:
    runs found there leave the live set, draw no more noise and stop
    stepping.  Live runs' rows are recorded compactly and scattered into
    `rows` once per chunk; a dead run's column holds +0.0, which is what
    stepping it would give.  A -0.0 component keeps its run live until it
    turns +0.
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
    clamps = np.zeros(runs, dtype=np.int64)
    rows = np.empty((chunk // stride + 1, 2, runs))
    rows[0] = x
    recorded = 1
    # Stream index of each live run, and its projection counts.
    live, live_clamps = np.arange(runs), clamps.copy()
    noise_buffer, spare = np.zeros(chunk * 2 * runs), np.empty((chunk + 1) * 2 * runs)
    if not cfg.zero_noise:
        generators = [NoiseStream(cfg.seed, j)._rng for j in range(runs)]

    def draw(positions: range, size: int) -> None:
        for i in positions:
            generators[live[i]].standard_normal(out=draws[i, :size])
        part = slice(positions.start, positions.stop)
        np.multiply(draws[part, :size], math.sqrt(delta), out=noise[:size].transpose(2, 0, 1)[part])

    parts = min(workers, runs, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=parts) as pool:
        for start in range(0, steps, chunk):
            size = min(chunk, steps - start)
            absorbed = _at_origin(x)
            if start == 0 or absorbed.any():
                rows[..., live[absorbed]] = 0.0
                kept = ~absorbed
                # compress keeps x C-contiguous; x[:, kept] would not.
                live, x, live_clamps = live[kept], x.compress(kept, axis=1), live_clamps[kept]
                count = len(live)
                # Buffers sized to the live set.  The draws are spent before the
                # steps and the compact record is filled during them, so the two
                # share memory.  Runs share x0, so the first chunk, the only one
                # with a row recorded up front, drops no run or every run.
                noise = noise_buffer[: chunk * 2 * count].reshape(chunk, 2, count)
                draws = spare[: count * chunk * 2].reshape(count, chunk, 2)
                record = spare[: len(rows) * 2 * count].reshape(len(rows), 2, count)
                if count == runs:
                    record = rows
                n, p = x
                (dn, dp), (v1, v2) = drift, var = np.empty_like(x), np.empty_like(x)
                inter, one_n, n_k = np.empty_like(n), np.empty_like(n), np.empty_like(n)
                slices = [range(count * i // parts, count * (i + 1) // parts) for i in range(parts)]
            if not count:  # all rows of this chunk are +0.0
                yield rows[: recorded + (start + size) // stride - start // stride], clamps
                recorded = 0
                continue
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
                        live_clamps += negative.sum(axis=0)
                        x[negative] = 0.0
                    # False for NaN and +inf.
                    if not np.maximum.reduce(x, axis=None) < math.inf:
                        raise BlowupError(start + i + 1, delta)
                    if (start + i + 1) % stride == 0:
                        record[recorded] = x
                        recorded += 1
            if record is not rows:
                rows[:recorded, :, live] = record[:recorded]
            clamps[live] = live_clamps
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
    every coarser grid sums them in consecutive groups, each level from its
    own fresh stream a chunk at a time, so all levels ride the same Brownian
    path.  Returns [(delta, |Y_T(delta) - Y_T(delta/2)|)] per adjacent pair,
    coarsest first; fewer than two levels yields [].
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
    m, c, k = params.m, params.c, params.k
    finals = []
    for level in range(n_levels):
        level_steps = m_base << level
        group, fine = fine_steps // level_steps, _draw(cfg, stream_index)
        delta = t_end / level_steps
        states, clamps = _em_path(m, c, k, n0, p0, delta, level_steps,
                                  lambda size: fine(size * group).reshape(size, group, 2).sum(axis=1))
        # The noiseless flow keeps the closed quadrant, so a projection means
        # delta times a rate exceeded 1: the step, not the model, decided the end.
        if zero_noise and clamps:
            raise ValueError(f"zero-noise path projected to zero at delta={delta}; step too coarse")
        finals.append(states[-1])
    return [
        (t_end / (m_base << level), math.hypot(*(finals[level] - finals[level + 1])))
        for level in range(n_levels - 1)
    ]
