"""Monte Carlo ensembles, streamed: run_ensemble gives mean/variance bands and
ensemble_moments gives moment series plus per-path growth-rate proxies.

Estimators follow the plain Monte Carlo forms

    mean(t) = (1/R) sum_j x_j(t)
    var(t)  = (1/R) sum_j (x_j(t) - mean(t))^2      (population divisor R)

with half-width bands mean +/- sqrt(var)/2.  Sums over runs are reduced with
an explicit pairwise tree whose shape depends only on the run count, and path
j always uses noise stream j, so results are bit-identical for any number of
worker threads.  The reductions are per time column, so each chunk of
recorded states is reduced as the driver yields it: memory is
O(runs x chunk), with no runs x recorded tensor and no ceiling on either.
The driver holds two runs x chunk buffers, the chunk's noise and its
states, which live runs record in place; the reduction adds one block of
time rows of scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ModelParams, State
from .sde import SimConfig, _ensemble_chunks

__all__ = [
    "EnsembleStats",
    "MomentSeries",
    "ensemble_moments",
    "run_ensemble",
]

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
    runs: int
    seed: int
    clamp_events_total: int = 0

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


# Time rows per block of the run-axis reduction: its scratch is two such
# blocks of runs floats.
_REDUCE_ROWS = 32


def _pairwise_sum(values: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sum the (rows, count) values over count with a fixed halving tree whose
    shape depends only on count: each level adds neighbours 2i and 2i + 1 and
    carries an odd last one.  The levels alternate between the two halves of
    the flat scratch, which holds at least rows * count floats."""
    rows, count = values.shape
    split = rows * ((count + 1) // 2)
    halves, level, acc = (scratch[:split], scratch[split:]), 0, values
    while count > 1:
        pairs, odd = divmod(count, 2)
        folded = halves[level % 2][: rows * (pairs + odd)].reshape(rows, pairs + odd)
        np.add(acc[:, 0:2 * pairs:2], acc[:, 1:2 * pairs:2], out=folded[:, :pairs])
        if odd:
            folded[:, pairs] = acc[:, count - 1]
        acc, count, level = folded, pairs + odd, level + 1
    return acc[:, 0]


def _mean_var(rows: np.ndarray) -> np.ndarray:
    """(times, 2, runs) states -> (4, times): mean and variance of n, then of p,
    reduced one component and _REDUCE_ROWS time rows at a time."""
    times, _, runs = rows.shape
    out = np.empty((4, times))
    block = min(_REDUCE_ROWS, times)
    squares, scratch = np.empty((block, runs)), np.empty(block * runs)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, times, block):
            for component in (0, 1):
                values = rows[lo:lo + block, component]
                mean, var = out[2 * component:2 * component + 2, lo:lo + block]
                deviations = squares[: len(values)]
                np.divide(_pairwise_sum(values, scratch), runs, out=mean)
                np.square(np.subtract(values, mean[:, None], out=deviations), out=deviations)
                np.divide(_pairwise_sum(deviations, scratch), runs, out=var)
    return out


def _ensemble_stats(
    times: np.ndarray, moments: np.ndarray, runs: int, seed: int, clamp_events_total: int
) -> EnsembleStats:
    """Bands from (mean_n, var_n, mean_p, var_p); ValueError where a column is not finite."""
    times = np.asarray(times, dtype=float).copy()
    mean_n, var_n, mean_p, var_p = moments
    half_n, half_p = 0.5 * np.sqrt(var_n), 0.5 * np.sqrt(var_p)
    columns = (
        *(mean_n, var_n, mean_n - half_n, mean_n + half_n),
        *(mean_p, var_p, mean_p - half_p, mean_p + half_p),
    )
    finite = np.isfinite(columns).all(axis=0)
    if not finite.all():
        t = float(times[finite.argmin()])
        raise ValueError(f"ensemble mean or variance is not finite at t={t}; states too large")
    return EnsembleStats(times, *columns, runs, seed, clamp_events_total)


def _recorded_times(cfg: SimConfig, stride: int) -> np.ndarray:
    return np.arange(cfg.m_steps // stride + 1) * (cfg.delta * stride)


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
    parts = []
    for rows, clamps in _ensemble_chunks(params, x0, cfg, runs, stride, workers):
        parts.append(_mean_var(rows))
    times = _recorded_times(cfg, stride)
    return _ensemble_stats(times, np.concatenate(parts, axis=1), runs, cfg.seed, int(clamps.sum()))


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
    times = _recorded_times(cfg, stride)
    sums = []
    proxies = np.full(runs, -np.inf)
    row = 0
    for rows, _ in _ensemble_chunks(params, x0, cfg, runs, stride, workers):
        norms = np.hypot(rows[:, 0], rows[:, 1])
        scratch = np.empty(norms.size)
        # An overflowing moment is left inf; check_moment_bound rejects it.
        with np.errstate(over="ignore"):
            sums.append([_pairwise_sum(norms ** float(p), scratch) / runs for p in p_values])
        chunk_times = times[row:row + len(rows)]
        row += len(rows)
        mask = chunk_times >= t_min
        if mask.any():
            with np.errstate(divide="ignore"):
                rates = np.log(norms[mask]) / chunk_times[mask, None]
            np.maximum(proxies, rates.max(axis=0), out=proxies)
    series = [
        MomentSeries(p=float(p), times=times.copy(), values=np.concatenate(values))
        for p, values in zip(p_values, zip(*sums))
    ]
    return series, proxies
