"""Euler-Maruyama simulation of the demographic-noise system.

Discretization on the equidistant grid tau_i = i * delta, delta = t_end / m:

    Y_{i+1} = Y_i + mu(Y_i) delta + g(Y_i) dW_i,   dW_i ~ N(0, delta I)

One step rule, in one order.  First, a state that is not finite is a
blow-up: BlowupError names the step; a component that overflows to -inf
counts as not finite, not as extinct.  Then, a component that ends the step
below zero while its drift part alone, Y_i + mu(Y_i) delta, is below zero
too means the step is too coarse: the projection, not the noise, would
decide that component, so ValueError names the step, t, delta and the
component.  Last, each remaining negative component is projected back to
zero and counted, so the caller can judge how often the boundary bites.

Two drivers share these rules and agree bit for bit: simulate_path steps one
path through the scalar loop _em_path, and _ensemble_chunks steps the paths of
rosmac.ensemble together on arrays.

The origin (+0, +0) is absorbing: drift and noise amplitudes are both 0 there,
so every later step returns it unchanged.  One rule covers both drivers: a
path or run found there at a chunk start draws no more noise and stops
stepping, and +0.0, the bytes stepping would give, is written for its
remaining states.  A -0.0 component is not the origin until a step turns it
into +0.

There is no noise-free mode; the deterministic system is rosmac.ode's.

Reproducibility contract: a path's increments are a pure function of (seed,
stream_index) through a counter-based generator whose chunked draws equal one
draw, so any path regenerates alone and ensembles are schedule-independent.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from threading import Thread
from typing import Iterator

import numpy as np

from .model import ModelParams, State, _integer, _sized, checked_state
from .ode import BlowupError, Trajectory, _projected

__all__ = [
    "DESK_STEPS",
    "NoiseStream",
    "SimConfig",
    "simulate_path",
]

# Default step count: dt = 2.5e-3 at t_end = 10.
DESK_STEPS = 4_000

_MAX_SEED = 2**64

# Steps per chunk of both EM drivers, which test for the origin at chunk
# starts.  Sets memory (runs x chunk), not results.
_CHUNK_STEPS = 256

# Streams that one ensemble thread draws into its scratch block at a time.
_DRAW_STREAMS = 64

# Recorded rows per block that the ensemble driver yields.  Sets memory, not results.
_BLOCK_ROWS = 32


@dataclass(frozen=True)
class SimConfig:
    """Simulation window, grid and noise seed for one or many paths."""

    t_end: float
    m_steps: int = DESK_STEPS
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.t_end > 0.0) or not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end!r}")
        # Python numbers, so that delta and the scalar loop are too, whatever was passed.
        t_end, m_steps = float(self.t_end), _integer("m_steps", self.m_steps)
        if m_steps < 1:
            raise ValueError(f"m_steps must be >= 1, got {m_steps!r}")
        try:
            delta = t_end / m_steps
        except OverflowError:  # an int past the float maximum
            raise ValueError("m_steps must be less than the float maximum") from None
        if not (delta > 0.0):
            raise ValueError(f"t_end / m_steps must be > 0, got {t_end!r} / {m_steps!r}")
        seed = _integer("seed", self.seed)
        if not (0 <= seed < _MAX_SEED):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        for name, value in (("t_end", t_end), ("m_steps", m_steps), ("seed", seed)):
            object.__setattr__(self, name, value)

    @cached_property
    def delta(self) -> float:
        return self.t_end / self.m_steps


class NoiseStream:
    """Brownian increments addressed by (seed, stream_index).

    Backed by one Philox generator keyed with the pair: streams with
    different indices are statistically independent, and each increments()
    call continues the stream's fixed sequence, so successive calls, split in
    any way, give the bits of one call.
    """

    def __init__(self, seed: int, stream_index: int):
        for name, value in (("seed", seed), ("stream_index", stream_index)):
            if not (0 <= _integer(name, value) < _MAX_SEED):
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
        self._rng = np.random.Generator(np.random.Philox(key=np.array([seed, stream_index], dtype=np.uint64)))

    def increments(self, m_steps: int, delta: float) -> np.ndarray:
        """The stream's next m_steps pairs of N(0, delta) increments, as an (m_steps, 2) array."""
        if _integer("m_steps", m_steps) < 1:
            raise ValueError(f"m_steps must be >= 1, got {m_steps!r}")
        if not (0.0 < delta < math.inf):
            raise ValueError(f"delta must be finite and > 0, got {delta!r}")
        return self._rng.standard_normal((m_steps, 2)) * math.sqrt(delta)


def _at_origin(x: np.ndarray) -> np.ndarray:
    """Per column of the (2, ...) states x: is it the origin (+0, +0)? -0.0 is not +0."""
    return ((x == 0.0) & ~np.signbit(x)).all(axis=0)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _too_coarse(step: int, delta: float, component: str) -> ValueError:
    return ValueError(f"the drift alone takes {component} below 0 at step {step} "
                      f"(t={step * delta}, delta={delta}); step too coarse")


def _em_path(m, c, k, n, p, delta, steps, draw) -> tuple[np.ndarray, int]:
    """Scalar EM from (n, p) under the module's step rule: the (steps + 1, 2)
    states, row i after step i, and the number of projections.  draw(size)
    gives the next (size, 2) increments; it is called at each chunk start
    where the path is live.  The origin (+0, +0) is absorbing: a path found
    there at a chunk start draws no more noise and stops stepping; its later
    rows keep +0.0."""
    states = _sized("m_steps", steps, np.zeros, (steps + 1, 2))
    clamps = 0
    nc, sqrt, inf = -c, math.sqrt, math.inf
    # Python floats: the same IEEE operations as numpy scalars, several times
    # faster.  The rates are model._rates inlined operand for operand, the drift
    # part is held for the step rule, each state goes through a flat view of the
    # states, and one guard per step skips the rule.  Increments are drawn and
    # converted to floats a chunk at a time, so an absorbed path draws and
    # converts no more of them.
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
                n_drift, p_drift = n + dn * delta, p + dp * delta
                n = n_drift + sqrt(v1) * dw1
                p = p_drift + sqrt(v2) * dw2
                # False for a negative, NaN or infinite component (or a sum past the float maximum).
                if not (n >= 0.0 and p >= 0.0 and n + p < inf):
                    decided = n < 0.0 and n_drift < 0.0, p < 0.0 and p_drift < 0.0
                    n, p, clamps = _projected(n, p, clamps, j // 2, delta)
                    if any(decided):
                        raise _too_coarse(j // 2, delta, "np"[decided.index(True)])
                flat[j] = n
                flat[j + 1] = p
                j += 2
    return states, clamps


def simulate_path(
    params: ModelParams, x0: State, cfg: SimConfig, stream_index: int = 0
) -> Trajectory:
    """Simulate one path; deterministic in (params, x0, cfg, stream_index).
    Its noise is drawn a chunk at a time, and none once the path is at the origin.
    The path is a Trajectory whose dt is the EM step and whose clamp_count
    counts the projections."""
    n, p = checked_state(x0)
    stream = NoiseStream(cfg.seed, stream_index)
    states, clamps = _em_path(params.m, params.c, params.k, n, p, cfg.delta, cfg.m_steps,
                              lambda size: stream.increments(size, cfg.delta))
    return Trajectory(states, params, cfg.delta, clamps)


def _ensemble_chunks(
    params: ModelParams, x0: State, cfg: SimConfig, runs: int, stride: int, workers: int
) -> Iterator[tuple[np.ndarray, int]]:
    """Advance the paths on streams 0..runs-1 together, one step at a time.

    Checks its arguments when called and returns a generator that yields
    (rows, clamps) per block of recorded states: rows is the (recorded, 2,
    runs) states of every `stride`-th step, at most _BLOCK_ROWS of them, for
    every run, x0 leading the first block; clamps the number of projections
    so far.  rows is a view that the next block may overwrite.  One generator
    per stream makes chunked draws equal a single draw; the calling thread
    and `workers` - 1 helper threads, at most one thread per usable CPU,
    split the draws by stream.  Matches simulate_path bit for bit and
    applies the module's step rule to all runs at once: at the first step
    where a run breaks it, a blow-up in any run wins over a coarse step, and
    a coarse step names n if any run's n is decided, else p.

    The origin (+0, +0) is absorbing, and both drivers check at chunk starts:
    runs found there draw no more noise and stop stepping; their columns are
    +0.0 from then on, which is what stepping them would give.  A -0.0
    component keeps its run stepping until it turns +0.
    """
    if _integer("runs", runs) < 2:
        raise ValueError(f"need at least 2 runs, got {runs}")
    if _integer("stride", stride) < 1 or cfg.m_steps % stride != 0:
        raise ValueError(f"stride must divide m_steps, got stride={stride}, m_steps={cfg.m_steps}")
    if _integer("workers", workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return _stepped(params, *checked_state(x0), cfg, runs, stride, workers)


def _stepped(params, n0, p0, cfg, runs, stride, workers):
    """_ensemble_chunks' generator, from checked arguments."""
    steps, delta = cfg.m_steps, cfg.delta
    m, c, k = params.m, params.c, params.k
    chunk = min(_CHUNK_STEPS, steps)
    x = _sized("runs", runs, np.full, (2, runs), [[n0], [p0]])
    clamps = 0
    # Row i + 1 holds step i's noise, the first 2 count floats, and the recorded
    # states follow it compact, at rows r <= i + 1: a step has read its noise
    # row before it records.
    buffer = _sized("runs", runs, np.empty, (chunk + 1, 2 * runs))
    dense = _sized("runs", runs, np.empty, (_BLOCK_ROWS, 2, runs))
    recorded = 1
    live = np.arange(runs)  # the stream index of each live run
    generators = [NoiseStream(cfg.seed, j)._rng for j in range(runs)]
    parts = min(workers, runs, _usable_cpus())
    # Philox fills only contiguous arrays, so each thread draws a block of
    # streams in their own (step, component) order, then scales it into the
    # (chunk, 2, live) step layout.
    blocks = [np.empty((min(_DRAW_STREAMS, runs), chunk, 2)) for _ in range(parts)]
    failures: list[BaseException] = []

    def draw(part: int, size: int) -> None:
        try:
            block, stop = blocks[part], count * (part + 1) // parts
            for lo in range(count * part // parts, stop, len(block)):
                hi = min(lo + len(block), stop)
                for i in range(lo, hi):
                    generators[live[i]].standard_normal(out=block[i - lo, :size])
                np.multiply(block[: hi - lo, :size], math.sqrt(delta),
                            out=noise[:size].transpose(2, 0, 1)[lo:hi])
        except BaseException as error:  # raised by the calling thread once every part is drawn
            failures.append(error)

    def dense_blocks(recorded: int):
        """The chunk's first `recorded` rows as blocks of every run, and the projections so far."""
        for lo in range(0, recorded, _BLOCK_ROWS):
            part = rows[lo:min(lo + _BLOCK_ROWS, recorded)]
            if count < runs:
                # A component at a time: 3x faster than dense[:, :, live] = part.
                for component in (0, 1):
                    dense[: len(part), component, live] = part[:, component]
                part = dense[: len(part)]
            yield part, clamps

    for start in range(0, steps, chunk):
        size = min(chunk, steps - start)
        absorbed = _at_origin(x)
        if start == 0 or absorbed.any():
            kept = ~absorbed
            # compress keeps x C-contiguous; x[:, kept] would not.
            live, x = live[kept], x.compress(kept, axis=1)
            count = len(live)
            dense.fill(0.0)  # the columns of runs that have left the live set read +0.0
            rows = buffer[:, : 2 * count].reshape(chunk + 1, 2, count)
            noise = rows[1:]
            if not start:
                rows[0] = x
            n, p = x
            (dn, dp), (v1, v2) = drift, var = np.empty_like(x), np.empty_like(x)
            inter, one_n, n_k = np.empty_like(n), np.empty_like(n), np.empty_like(n)
        if not count:  # every run is at +0.0: nothing to draw or step
            yield from dense_blocks(recorded + (start + size) // stride - start // stride)
            recorded = 0
            continue
        # The calling thread draws part 0 and a helper thread each other part.
        helpers = [Thread(target=draw, args=(part, size)) for part in range(1, parts)]
        for thread in helpers:
            thread.start()
        draw(0, size)
        for thread in helpers:
            thread.join()
        if failures:
            raise failures[0]
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
                # A blow-up first: -inf is an overflow, not an extinction, and the
                # maximum is NaN or +inf where another component is not finite.
                if lowest == -math.inf or not np.maximum.reduce(x, axis=None) < math.inf:
                    raise BlowupError(start + i + 1, delta)
                if lowest < 0.0:
                    # Is a component below 0 whose drift part, still in drift, is too?
                    # var, spent, holds the larger of the two.
                    if np.fmin.reduce(np.maximum(x, drift, out=var), axis=None) < 0.0:
                        decided = ((x < 0.0) & (drift < 0.0)).any(axis=1)
                        raise _too_coarse(start + i + 1, delta, "np"[decided.argmax()])
                    negative = x < 0.0
                    clamps += np.count_nonzero(negative)
                    x[negative] = 0.0
                if (start + i + 1) % stride == 0:
                    rows[recorded] = x
                    recorded += 1
        yield from dense_blocks(recorded)
        recorded = 0
