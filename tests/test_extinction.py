"""The ensemble driver's extinction times against references for the diffusion
it discretises (extinction_reference): the exact mean prey-extinction time on
the predator-free axis p = 0, and the mean time to the first axis from inside
the quadrant, from the backward Kolmogorov equation."""

from __future__ import annotations

import math

import numpy as np

from rosmac import ModelParams, SimConfig, State

from conftest import driver_blocks
from extinction_reference import (
    ctmc_mean_extinction_time,
    pde_mean_first_axis_time,
    sde_mean_extinction_time,
)

K = 3.0


def test_exact_references_on_the_axis():
    """The quadrature has converged at its default grid, and both means are the
    values that the axis test and the birth-death check below rest on."""
    exact = sde_mean_extinction_time(1.0, K, 1.0)
    assert abs(exact - sde_mean_extinction_time(1.0, K, 1.0, points=400_000)) < 1e-6
    assert round(exact, 4) == 9.8312
    assert round(ctmc_mean_extinction_time(1, K, 1.0), 4) == 8.2580


def _first_zero_times(params, x0, cfg, runs, workers, components):
    """Per stream, the time of the first recorded row where any of the
    `components` (0 for n, 1 for p) is +0, read from the driver's blocks, which
    hold every step; NaN for a run alive at t_end."""
    times, offset = np.full(runs, math.nan), 0
    for rows, _ in driver_blocks(params, x0, cfg, runs, workers):
        states = rows[:, components]
        zero = ((states == 0.0) & ~np.signbit(states)).any(axis=1)
        new = zero.any(axis=0) & np.isnan(times)
        times[new] = (offset + zero.argmax(axis=0)[new]) * cfg.delta
        offset += len(rows)  # the first block is the x0 row alone
    return times


def test_ensemble_prey_extinction_time_on_the_axis_matches_the_exact_mean():
    """From (1, 0) the mean over 20,000 runs must lie within 3 SE of the exact
    9.8312, plus sqrt(delta): the stated allowance for the bias of a killed
    Euler scheme (Gobet, Stoch. Proc. Appl. 87, 2000), not a fit to the gap.
    The exact means with the prey variance scaled by 2, 1.25 and 0.8 (omega
    1/2, 4/5 and 5/4) must fall outside that band, so the test has the power to
    see a wrong noise amplitude."""
    cfg = SimConfig(t_end=400.0, m_steps=40_000, seed=11)
    times = _first_zero_times(ModelParams(3.0, 1.0, K), State(1.0, 0.0), cfg, 20_000, 2, [0])
    assert not np.isnan(times).any()  # no run is alive at t_end
    mean, se = times.mean(), times.std() / math.sqrt(len(times))
    allowance = 3 * se + math.sqrt(cfg.delta)
    assert abs(mean - sde_mean_extinction_time(1.0, K, 1.0)) <= allowance
    for omega in (0.5, 0.8, 1.25):
        assert abs(mean - sde_mean_extinction_time(1.0, K, omega)) > allowance, omega


def test_ensemble_first_axis_time_matches_the_backward_kolmogorov_solve():
    """From (1, 0.6), inside the quadrant, the mean time to the first axis over
    20,000 runs must lie within 3 SE + sqrt(delta) of the solve at 200 cells,
    plus the solve's own error estimate |T_h - T_2h| against 100 cells.  This
    checks the drift and both noise amplitudes where the runs move.  The solves
    with the variances scaled by 1.25 and 0.8 (omega 0.8 and 1.25) must fall
    outside that band, and moving the reflecting edge from 20 to 30 must move
    the solve by less than its error estimate."""
    cfg = SimConfig(t_end=10.0, m_steps=4_000, seed=11)
    x0 = State(1.0, 0.6)
    times = _first_zero_times(ModelParams(3.0, 1.0, K), x0, cfg, 20_000, 2, [0, 1])
    assert not np.isnan(times).any()  # no run is alive at t_end

    def solve(omega=1.0, cells=200, edge=20.0):
        return pde_mean_first_axis_time(3.0, 1.0, K, *x0, omega, cells, edge)

    fine = solve()
    grid_error = abs(fine - solve(cells=100))
    assert abs(solve(edge=30.0) - fine) < grid_error
    mean, se = times.mean(), times.std() / math.sqrt(len(times))
    allowance = 3 * se + math.sqrt(cfg.delta) + grid_error
    assert abs(mean - fine) <= allowance
    for omega in (0.8, 1.25):
        assert abs(mean - solve(omega)) > allowance, omega


def _ssa_extinction_times(n_start, k, omega, runs, seed):
    """Gillespie's direct method for the birth-death chain (birth N, death
    N^2/(omega k)), vectorised over the runs that are alive: each run's time of
    reaching N = 0."""
    rng = np.random.Generator(np.random.Philox(seed))
    count, times = np.full(runs, n_start), np.zeros(runs)
    alive = np.arange(runs)
    while alive.size:
        n = count[alive].astype(float)
        total = n + n * n / (omega * k)
        times[alive] += rng.standard_exponential(alive.size) / total
        count[alive] += np.where(rng.random(alive.size) * total < n, 1, -1)
        alive = alive[count[alive] > 0]
    return times


def test_birth_death_sum_matches_a_direct_simulation():
    times = _ssa_extinction_times(1, K, 1.0, 40_000, seed=11)
    se = times.std() / math.sqrt(len(times))
    assert abs(times.mean() - ctmc_mean_extinction_time(1, K, 1.0)) <= 3 * se
