"""Mean extinction times, exact or up to a grid error; numpy only.

On the predator-free axis p = +0 the predator stays +0, and the prey
follows the one-dimensional diffusion dn = n(1 - n/k) dt +
sqrt(n(1 + n/k)/omega) dW, which the birth-death process with birth rate N and
death rate N^2/(omega k) approximates (N = omega n).  Both exact mean times to
reach 0 are written in log space, so that no term overflows at large omega (Karlin & Taylor, A Second Course in Stochastic
Processes, 1981, ch. 15; Doering, Sargsyan & Sander, Multiscale Model. Simul. 3,
2005).

Off the axis, pde_mean_first_axis_time solves the backward Kolmogorov
equation for the mean time to the first axis on a graded grid; comparing two
grids estimates its error.
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


def _graded_nodes(first: float, edge: float, cells: int) -> np.ndarray:
    """cells + 1 nodes from 0 to edge whose spacings grow by one ratio from `first`."""
    lo, hi = 1.0, 2.0
    for _ in range(100):  # bisect first * (r**cells - 1) / (r - 1) = edge for the ratio r
        ratio = 0.5 * (lo + hi)
        if first * np.expm1(cells * np.log(ratio)) / (ratio - 1.0) < edge:
            lo = ratio
        else:
            hi = ratio
    nodes = np.concatenate([[0.0], np.cumsum(first * ratio ** np.arange(cells))])
    nodes[-1] = edge
    return nodes


def _axis_weights(nodes: np.ndarray, drift: np.ndarray, diffusion: np.ndarray):
    """The weights (down, up) of the neighbours i - 1 and i + 1 at nodes 1..N of one
    axis, drift and diffusion holding one row per node: upwind drift and 3-point
    diffusion, so both are >= 0.  The outer node N reflects: its ghost N + 1
    mirrors N - 1, so its up weight moves to down."""
    h = np.diff(nodes)[:, None]
    below, above = h, np.append(h[1:], h[-1:], axis=0)
    spread = 2.0 * diffusion / (below + above)
    down = spread / below + np.maximum(-drift, 0.0) / below
    up = spread / above + np.maximum(drift, 0.0) / above
    down[-1] += up[-1]
    up[-1] = 0.0
    return down, up


def pde_mean_first_axis_time(m: float, c: float, k: float, n0: float, p0: float, omega: float,
                             cells: int = 200, edge: float = 20.0) -> float:
    """E tau from (n0, p0), tau the first time n or p is 0, from the backward
    Kolmogorov equation (Gardiner, Handbook of Stochastic Methods, ch. 5)

        mu1 T_n + mu2 T_p + v1/(2 omega) T_nn + v2/(2 omega) T_pp = -1,

    T = 0 on both axes, with the drift and variances of the README's equations:
    mu1 = n (1 - n/k) - m n p/(1 + n), mu2 = -c p + m n p/(1 + n),
    v1 = n (1 + n/k) + m n p/(1 + n) and v2 = c p + m n p/(1 + n).  Each axis has
    `cells` spacings graded geometrically from 0.2 / cells to the reflecting
    outer edge.  Upwind drift and 3-point diffusion make -L an M-matrix
    (Kushner & Dupuis, 2001), solved block-tridiagonally over prey rows, each
    block a prey node's predator column.  T(n0, p0) is read bilinearly."""
    nodes = _graded_nodes(0.2 / cells, edge, cells)  # both axes
    n, p = nodes[1:, None], nodes[None, 1:]
    interaction = m * n * p / (1.0 + n)
    mu1, mu2 = n * (1.0 - n / k) - interaction, -c * p + interaction
    v1, v2 = n * (1.0 + n / k) + interaction, c * p + interaction
    # -L T = 1: weights[i, j] of (n, p) node (i + 1, j + 1); the transposes give the p axis rows.
    n_down, n_up = _axis_weights(nodes, mu1, v1 / (2.0 * omega))
    p_down, p_up = (w.T for w in _axis_weights(nodes, mu2.T, v2.T / (2.0 * omega)))
    diagonal = n_down + n_up + p_down + p_up
    # Block Thomas: T_i = d_i + G_i T_{i+1}, G_i = M_i^-1 diag(n_up_i), over prey rows i.
    gains, offsets = np.empty((cells, cells, cells)), np.empty((cells, cells))
    gain, offset = np.zeros((cells, cells)), np.zeros(cells)
    for i in range(cells):
        block = np.diag(diagonal[i]) - np.diag(p_down[i, 1:], -1) - np.diag(p_up[i, :-1], 1)
        block -= n_down[i][:, None] * gain
        solved = np.linalg.solve(block, np.column_stack([1.0 + n_down[i] * offset, np.diag(n_up[i])]))
        offsets[i], gains[i] = solved[:, 0], solved[:, 1:]
        offset, gain = offsets[i], gains[i]
    # T on every node, axes included, and a zero row past the edge, where G is 0.
    whole = np.zeros((cells + 2, cells + 1))
    for i in reversed(range(cells)):
        whole[i + 1, 1:] = offsets[i] + gains[i] @ whole[i + 2, 1:]
    return float(np.interp(n0, nodes, [np.interp(p0, nodes, row) for row in whole[:-1]]))
