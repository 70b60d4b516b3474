"""Exact mean prey-extinction times on the predator-free axis p = 0; numpy only.

At p = +0 the predator stays +0, and the prey follows the one-dimensional
diffusion dn = n(1 - n/k) dt + sqrt(n(1 + n/k)/omega) dW, which the birth-death
process with birth rate N and death rate N^2/(omega k) approximates
(N = omega n).  Both mean times to reach 0 are written in log space, so that no
term overflows at large omega (Karlin & Taylor, A Second Course in Stochastic
Processes, 1981, ch. 15; Doering, Sargsyan & Sander, Multiscale Model. Simul. 3,
2005).
"""

from __future__ import annotations

import numpy as np


def _log_tails(log_f: np.ndarray, step: float) -> np.ndarray:
    """log of the trapezoid integral of f from each grid point to the last, from log f."""
    pieces = np.logaddexp(log_f[:-1], log_f[1:]) + np.log(step / 2)
    return np.append(np.logaddexp.accumulate(pieces[::-1])[::-1], -np.inf)


def sde_mean_extinction_time(n0: float, k: float, omega: float, points: int = 100_000) -> float:
    """T(n0) = int_0^n0 s(y) int_y^inf m(z) dz dy with the scale density
    s(y) = (k + y)^(-4 k omega) e^(2 omega y) and the speed density
    m(z) = 2 omega (k + z)^(4 k omega) e^(-2 omega z) / (z (1 + z/k)), on a grid
    uniform in u = log z from n0 e^-30 to n0 e^6, with n0 on the grid."""
    step = 36.0 / points
    u = np.log(n0) + step * np.arange(-round(30.0 / step), round(6.0 / step) + 1)
    z = np.exp(u)
    log_scale = -4 * k * omega * np.log(k + z) + 2 * omega * z
    # m(z) dz = m(z) z du, and m(z) z = 2 omega / ((1 + z/k) s(z)).
    log_inner = _log_tails(np.log(2 * omega) - np.log1p(z / k) - log_scale, step)
    below = u <= np.log(n0)
    return float(np.exp(_log_tails((log_scale + log_inner + u)[below], step)[0]))


def ctmc_mean_extinction_time(n_start: int, k: float, omega: float) -> float:
    """The birth-death chain's mean time from N = n_start to 0: the sum over
    j <= n_start of d_j = sum_{i >= j} (1/mu_i) prod_{l=j}^{i-1} lambda_l/mu_l,
    with lambda_i = i and mu_i = i^2/(omega k), truncated where the terms vanish."""
    i = np.arange(1, int(40 * omega * k) + n_start + 100, dtype=float)
    log_mu = 2 * np.log(i) - np.log(omega * k)
    # c_i = sum_{l < i} log(lambda_l / mu_l), so term (j, i) is exp(c_i - c_j - log mu_i).
    c = np.concatenate([[0.0], np.cumsum(np.log(i) - log_mu)[:-1]])
    log_d = np.logaddexp.accumulate((c - log_mu)[::-1])[::-1] - c
    return float(np.exp(log_d[:n_start]).sum())
