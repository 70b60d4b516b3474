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
from .model import (
    ModelParams,
    State,
    _diffusion_variances,
    _drift_terms,
    generator_apply,
    lyapunov_candidate,
)

__all__ = [
    "DEFAULT_GENERATOR_GRID",
    "DEFAULT_MONOTONICITY_GRID",
    "BoundConstants",
    "GridSpec",
    "VerificationReport",
    "bound_constants",
    "check_generator_inequality",
    "check_moment_bound",
    "check_monotonicity",
    "lyapunov_constant",
    "moment_constant",
    "monotonicity_constant",
]


@dataclass(frozen=True)
class GridSpec:
    """A uniform evaluation grid, endpoints included on both axes."""

    n_min: float
    n_max: float
    p_min: float
    p_max: float
    resolution: int

    def __post_init__(self) -> None:
        if not (
            -math.inf < self.n_min <= self.n_max < math.inf
            and -math.inf < self.p_min <= self.p_max < math.inf
        ):
            raise ValueError("grid bounds must be finite and ordered")
        if self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.n_min, self.n_max, self.resolution),
            np.linspace(self.p_min, self.p_max, self.resolution),
        )


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


@dataclass(frozen=True)
class BoundConstants:
    c_mono: float
    c_moment_p: float
    c_lyap: float
    p: float
    alpha: float


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
    return (
        3.0 * alpha
        + 2.5 * alpha * m
        + 0.5 * alpha * c
        + alpha / k
        + alpha * (alpha - 1.0) * (1.0 + 2.0 / k + 2.0 * m + c)
    )


def bound_constants(params: ModelParams, p: float = 2.0, alpha: float = 3.0) -> BoundConstants:
    return BoundConstants(
        c_mono=monotonicity_constant(params),
        c_moment_p=moment_constant(params, p),
        c_lyap=lyapunov_constant(params, alpha),
        p=p,
        alpha=alpha,
    )


def _grid_report(name: str, grid: GridSpec, slack_of_row) -> VerificationReport:
    """Worst slack over the grid, evaluated one n-row at a time.

    slack_of_row(n, ps) returns the slack at (n, p) for every p of the grid
    as one array.  Ties go to the first point in row-major order.  A slack
    that is not finite anywhere raises ValueError naming the point.
    """
    ns, ps = grid.axes()
    worst_slack, worst_point = -math.inf, None
    for n in ns.tolist():
        with np.errstate(over="ignore", invalid="ignore"):
            slack = slack_of_row(n, ps)
        finite = np.isfinite(slack)
        if not finite.all():
            point = (n, float(ps[finite.argmin()]))
            raise ValueError(f"{name}: slack is not finite at (n, p) = {point}; grid too large")
        j = int(slack.argmax())
        if slack[j] > worst_slack:
            worst_slack, worst_point = float(slack[j]), (n, float(ps[j]))
    return VerificationReport(name, grid, worst_point, None, worst_slack, worst_slack <= 0.0)


def check_generator_inequality(
    params: ModelParams,
    alpha: float = 3.0,
    grid: GridSpec = DEFAULT_GENERATOR_GRID,
    c_override: float | None = None,
) -> VerificationReport:
    """Evaluate L V - c V on an interior grid with V the radial candidate.

    The generator is applied through the same code path the rest of the
    package uses, not a re-derived formula, so a defect there surfaces here.
    c_override substitutes a deliberate constant for c_lyap (testing hook).
    """
    if not (grid.n_min > 0.0 and grid.p_min > 0.0):
        raise ValueError("generator check needs an interior grid (strictly positive bounds)")
    bound = lyapunov_constant(params, alpha) if c_override is None else float(c_override)
    field = lyapunov_candidate(alpha)

    def slack_of_row(n, ps):
        return generator_apply(params, field, (n, ps)) - bound * field.value(n, ps)

    return _grid_report(f"generator_alpha={alpha:g}", grid, slack_of_row)


def check_monotonicity(
    params: ModelParams,
    grid: GridSpec = DEFAULT_MONOTONICITY_GRID,
    c_override: float | None = None,
) -> VerificationReport:
    """Evaluate x . mu + ||g||_F^2 / 2 - c (1 + ||x||^2) on a grid.

    Valid on the closed quadrant (the boundary is allowed).  c_override
    substitutes a deliberate constant for c_mono (testing hook).
    """
    if grid.n_min < 0.0 or grid.p_min < 0.0:
        raise ValueError("monotonicity check needs a grid in the closed quadrant")
    bound = monotonicity_constant(params) if c_override is None else float(c_override)
    m, c, k = params.m, params.c, params.k

    def slack_of_row(n, ps):
        dn, dp = _drift_terms(m, c, k, n, ps)
        v1, v2 = _diffusion_variances(m, c, k, n, ps)
        return n * dn + ps * dp + 0.5 * (v1 + v2) - bound * (1.0 + n * n + ps * ps)

    return _grid_report("monotonicity", grid, slack_of_row)


def check_moment_bound(
    stats: MomentSeries, params: ModelParams, x0: State, p: float
) -> VerificationReport:
    """Compare an estimated moment series against its analytic envelope.

    For p >= 2 the envelope is 2^((p-2)/2) (1 + ||x0||^p) exp(p c_moment t);
    for 0 < p < 2 it is (1 + ||x0||^2)^(p/2) exp(p c_mono t).  The start is
    deterministic, so expectations of the initial norm are plain powers.
    """
    if not (p > 0.0):
        raise ValueError(f"moment order must be > 0, got {p!r}")
    if float(stats.p) != float(p):
        raise ValueError(f"series was built for p={stats.p}, asked to check p={p}")
    norm0_sq = float(x0[0]) ** 2 + float(x0[1]) ** 2
    times = stats.times
    if p >= 2.0:
        rate = moment_constant(params, p)
        envelope = 2.0 ** ((p - 2.0) / 2.0) * (1.0 + norm0_sq ** (p / 2.0)) * np.exp(p * rate * times)
    else:
        rate = monotonicity_constant(params)
        envelope = (1.0 + norm0_sq) ** (p / 2.0) * np.exp(p * rate * times)
    gaps = stats.values - envelope
    worst_index = int(np.argmax(gaps))
    worst = float(gaps[worst_index])
    return VerificationReport(
        inequality_name=f"moment_bound_p={p:g}",
        grid=None,
        worst_point=None,
        worst_time=float(times[worst_index]),
        worst_slack=worst,
        passed=worst <= 0.0,
    )
