"""Grid certification of the growth bounds behind well-posedness.

Three closed-form constants control the noisy system:

    c_mono   = (5 + 6m + c)/4 + 1/(2k)
        one-sided linear-growth constant:
        x . mu(x) + ||g(x)||_F^2 / 2 <= c_mono (1 + ||x||^2)

    c_moment(p) = 1 + m + (p-1)(1 + 2m + c)/4 + (p-1)/(2k),  p >= 2
        drives the p-th moment bound
        E||X_t||^p <= 2^((p-2)/2) (1 + E||X_0||^p) exp(p c_moment t)
        (for 0 < p < 2 the bound (1 + E||X_0||^2)^(p/2) exp(p c_mono t)
        applies instead)

    c_lyap(alpha) = 3a + 5am/2 + ac/2 + a/k + a(a-1)(1 + 2/k + 2m + c)
        generator bound L V <= c_lyap V for V = (1 + ||x||^2)^alpha

With u = 1 + n^2 + p^2, drift (dn, dp) and squared noise amplitudes
(v1, v2), the generator of that V is, per component,

    L V = dn V_n + dp V_p + (v1 V_nn + v2 V_pp) / 2,
    V_n = 2a n u^(a-1),  V_nn = 2a u^(a-1) + 4a(a-1) n^2 u^(a-2)

and symmetrically in p; the diffusion is diagonal, so no mixed term enters.

The grid checks evaluate each inequality at the points of a declared box
and report the worst slack (positive slack = violation at that point).  A
pass covers those grid points only: not the space between them and not the
region outside the box.  The default generator grid starts at the interior
cut-off 1e-3, so nothing nearer the axes is checked there.  A grid too large
for float64 (a slack that overflows) raises ValueError; `verify` exits 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import MomentSeries
from .model import GridSpec, ModelParams, State, _rates, checked_state

__all__ = [
    "DEFAULT_GENERATOR_GRID",
    "DEFAULT_MONOTONICITY_GRID",
    "VerificationReport",
    "check_generator_inequality",
    "check_moment_bound",
    "check_monotonicity",
    "lyapunov_constant",
    "moment_constant",
    "monotonicity_constant",
]


DEFAULT_GENERATOR_GRID = GridSpec(1e-3, 10.0, 1e-3, 10.0, 200)
DEFAULT_MONOTONICITY_GRID = GridSpec(0.0, 10.0, 0.0, 10.0, 200)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one inequality check.

    worst_slack is the maximum of (left side - right side); the check passes
    exactly when it is <= 0.  Grid checks locate the worst state in
    worst_point; time-indexed checks locate the worst time in worst_time.
    Ties go to the earliest point in row-major grid order.
    """

    inequality_name: str
    grid: GridSpec | None
    worst_point: tuple[float, float] | None
    worst_time: float | None
    worst_slack: float
    passed: bool


def monotonicity_constant(params: ModelParams) -> float:
    return (5.0 + 6.0 * params.m + params.c) / 4.0 + 1.0 / (2.0 * params.k)


def moment_constant(params: ModelParams, p: float) -> float:
    if not (p >= 2.0):
        raise ValueError(f"moment_constant requires p >= 2, got {p!r}")
    return (
        1.0
        + params.m
        + (p - 1.0) / 4.0 * (1.0 + 2.0 * params.m + params.c)
        + (p - 1.0) / (2.0 * params.k)
    )


def lyapunov_constant(params: ModelParams, alpha: float) -> float:
    if not (alpha > 2.0):
        raise ValueError(f"lyapunov_constant requires alpha > 2, got {alpha!r}")
    m, c, k = params.m, params.c, params.k
    constant = (
        3.0 * alpha
        + 2.5 * alpha * m
        + 0.5 * alpha * c
        + alpha / k
        + alpha * (alpha - 1.0) * (1.0 + 2.0 / k + 2.0 * m + c)
    )
    if not math.isfinite(constant):
        raise ValueError(f"lyapunov constant is not finite at alpha={alpha:g}; alpha or parameters too large")
    return constant


_GRID_BLOCK_CELLS = 12_800  # points per slack evaluation: 32 rows at --res 400, about 100 KB


def _grid_report(name: str, grid: GridSpec, slack_of_block) -> VerificationReport:
    """Worst slack over the grid, evaluated a block of n-rows at a time.

    slack_of_block(ns, ps) gets a column of n values, shape (rows, 1), and the
    grid's p axis, and returns the slack at every (n, p) pair; a slack that
    ignores n is broadcast to (rows, len(ps)).  Ties go to the first point in
    row-major order.  A slack that is not finite anywhere raises ValueError
    naming the first such point.
    """
    ns, ps = grid.axes()
    rows = max(1, _GRID_BLOCK_CELLS // len(ps))
    worst_slack, worst_point = -math.inf, None
    for start in range(0, len(ns), rows):
        block = ns[start : start + rows, None]
        with np.errstate(over="ignore", invalid="ignore"):
            slack = np.broadcast_to(slack_of_block(block, ps), (len(block), len(ps)))
        finite = np.isfinite(slack)
        if not finite.all():
            i, j = np.unravel_index(finite.argmin(), slack.shape)
            point = (float(block[i, 0]), float(ps[j]))
            raise ValueError(f"{name}: slack is not finite at (n, p) = {point}; grid too large")
        i, j = np.unravel_index(slack.argmax(), slack.shape)
        if slack[i, j] > worst_slack:
            worst_slack, worst_point = float(slack[i, j]), (float(block[i, 0]), float(ps[j]))
    return VerificationReport(name, grid, worst_point, None, worst_slack, worst_slack <= 0.0)


def check_generator_inequality(
    params: ModelParams,
    alpha: float = 3.0,
    grid: GridSpec = DEFAULT_GENERATOR_GRID,
) -> VerificationReport:
    """Evaluate L V - c_lyap V on an interior grid, V = (1 + n^2 + p^2)^alpha.

    L V is the closed form in the module docstring.  Its drift and noise
    rates come from model._rates, which the EM drivers share, so a defect
    there surfaces here.
    """
    if not (grid.n_min > 0.0 and grid.p_min > 0.0):
        raise ValueError("generator check needs an interior grid (strictly positive bounds)")
    bound = lyapunov_constant(params, alpha)
    m, c, k, a = params.m, params.c, params.k, float(alpha)

    def slack_of_block(ns, ps):
        dn, dp, v1, v2 = _rates(m, c, k, ns, ps)
        u = 1.0 + ns * ns + ps * ps
        scale = 2.0 * a * u ** (a - 1.0)
        cross = 4.0 * a * (a - 1.0) * u ** (a - 2.0)
        return (
            dn * (scale * ns)
            + dp * (scale * ps)
            + 0.5 * (v1 * (scale + cross * ns * ns) + v2 * (scale + cross * ps * ps))
            - bound * u ** a
        )

    return _grid_report(f"generator_alpha={alpha:g}", grid, slack_of_block)


def check_monotonicity(
    params: ModelParams, grid: GridSpec = DEFAULT_MONOTONICITY_GRID
) -> VerificationReport:
    """Evaluate x . mu + ||g||_F^2 / 2 - c (1 + ||x||^2) on a grid.

    Valid on the closed quadrant (the boundary is allowed).
    """
    bound = monotonicity_constant(params)
    m, c, k = params.m, params.c, params.k

    def slack_of_block(ns, ps):
        dn, dp, v1, v2 = _rates(m, c, k, ns, ps)
        return ns * dn + ps * dp + 0.5 * (v1 + v2) - bound * (1.0 + ns * ns + ps * ps)

    return _grid_report("monotonicity", grid, slack_of_block)


def check_moment_bound(
    stats: MomentSeries, params: ModelParams, x0: State
) -> VerificationReport:
    """Compare an estimated moment series of order p = stats.p against its envelope.

    For p >= 2 the envelope is 2^((p-2)/2) (1 + ||x0||^p) exp(p c_moment t);
    for 0 < p < 2 it is (1 + ||x0||^2)^(p/2) exp(p c_mono t).  The start is
    deterministic, so expectations of the initial norm are plain powers.  A
    start off the closed quadrant or a NaN or +inf gap raises ValueError.
    """
    p = stats.p
    if not (0.0 < p < math.inf):
        raise ValueError(f"moment order must be finite and > 0, got {p!r}")
    n0, p0 = checked_state(x0)
    times = stats.times
    rate = moment_constant(params, p) if p >= 2.0 else monotonicity_constant(params)
    try:
        norm0_sq = n0**2 + p0**2
        if p >= 2.0:
            scale = 2.0 ** ((p - 2.0) / 2.0) * (1.0 + norm0_sq ** (p / 2.0))
        else:
            scale = (1.0 + norm0_sq) ** (p / 2.0)
    except OverflowError:  # the envelope is inf for p >= 2; below, only the square overflows
        scale = math.inf if p >= 2.0 else math.hypot(1.0, n0, p0) ** p
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = stats.values - scale * np.exp(p * rate * times)
    name = f"moment_bound_p={p:g}"
    # A gap of -inf (a finite moment under an overflowing envelope) still passes.
    undecided = ~(gaps < math.inf)
    if undecided.any():
        t = float(times[undecided.argmax()])
        raise ValueError(f"{name}: gap is not finite at t={t}; moment too large")
    worst_index = int(np.argmax(gaps))
    worst = float(gaps[worst_index])
    return VerificationReport(name, None, None, float(times[worst_index]), worst, worst <= 0.0)
