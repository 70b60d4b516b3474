"""Equilibrium structure of the reduced system: location, stability, extinction.

The deterministic field always fixes the origin and the prey-only point
(k, 0).  A coexistence point exists exactly when m > c and k (m - c) > c; it
sits at n* = c/(m - c) with p* chosen to null the prey equation.  Stability
is read off the 2x2 Jacobian in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .model import ModelParams, State, drift

__all__ = [
    "HYPERBOLICITY_TOL",
    "Equilibrium",
    "EquilibriumKind",
    "ExtinctionOutcome",
    "ExtinctionVerdict",
    "Stability",
    "classify",
    "coexistence_exists",
    "coexistence_point",
    "extinction_check",
    "find_equilibria",
    "hopf_threshold",
    "jacobian",
    "trace_identity_check",
]

# Real parts closer to zero than this are not trusted to carry a sign.
HYPERBOLICITY_TOL = 1e-9

# A candidate equilibrium must null the drift to this residual before
# classification is meaningful.
_RESIDUAL_TOL = 1e-10

# Below this margin on k(m-c) - c the coexistence point is numerically
# indistinguishable from the prey-only point and is reported as absent.
_COLLISION_TOL = 1e-12


class EquilibriumKind(Enum):
    ORIGIN = "origin"
    PREY_ONLY = "prey_only"
    COEXISTENCE = "coexistence"


class Stability(Enum):
    SADDLE = "saddle"
    SINK = "sink"
    SOURCE = "source"
    NON_HYPERBOLIC = "non_hyperbolic"


@dataclass(frozen=True)
class Equilibrium:
    point: State
    kind: EquilibriumKind
    classification: Stability | None = None
    eigenvalues: tuple[complex, complex] | None = None


class ExtinctionOutcome(Enum):
    PREDATOR_EXTINCT_LOW_GAIN = "predator_extinct_low_gain"
    PREDATOR_EXTINCT_K_BOUND = "predator_extinct_k_bound"
    COEXISTENCE_POSSIBLE = "coexistence_possible"


@dataclass(frozen=True)
class ExtinctionVerdict:
    outcome: ExtinctionOutcome
    rationale: str


def coexistence_exists(params: ModelParams) -> bool:
    """True when a coexistence equilibrium exists with a usable margin."""
    return params.m > params.c and params.k * (params.m - params.c) - params.c > _COLLISION_TOL


def coexistence_point(params: ModelParams) -> State:
    """Closed-form coexistence equilibrium; requires coexistence_exists."""
    if not coexistence_exists(params):
        raise ValueError(
            "no coexistence equilibrium: need m > c and k(m - c) > c "
            f"(got m={params.m}, c={params.c}, k={params.k})"
        )
    gap = params.m - params.c
    n_star = params.c / gap
    p_star = (params.k * gap - params.c) / (params.k * gap * gap)
    return State(n_star, p_star)


def jacobian(params: ModelParams, x: State) -> np.ndarray:
    """Jacobian of the drift at x, as a 2x2 array."""
    n, p = x
    m, c, k = params.m, params.c, params.k
    denom = 1.0 + n
    response = m * n / denom
    sensitivity = m * p / (denom * denom)
    return np.array(
        [
            [1.0 - 2.0 * n / k - sensitivity, -response],
            [sensitivity, -c + response],
        ]
    )


def _eigenvalues_2x2(matrix: np.ndarray) -> tuple[complex, complex]:
    """Eigenvalues of a real 2x2 matrix via the characteristic quadratic.

    The larger-magnitude root is formed without cancellation and the other
    recovered from the product, so a tiny eigenvalue keeps full precision.
    """
    tr = float(matrix[0][0] + matrix[1][1])
    det = float(matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0])
    disc = tr * tr - 4.0 * det
    if disc < 0.0:
        half_im = 0.5 * math.sqrt(-disc)
        lams = (complex(0.5 * tr, -half_im), complex(0.5 * tr, half_im))
    else:
        root = math.sqrt(disc)
        big = 0.5 * (tr + root) if tr >= 0.0 else 0.5 * (tr - root)
        if big == 0.0:
            lams = (0j, 0j)
        else:
            lams = (complex(det / big), complex(big))
    return tuple(sorted(lams, key=lambda z: (z.real, z.imag)))  # type: ignore[return-value]


def _stability_from_real_parts(re_a: float, re_b: float) -> Stability:
    if min(abs(re_a), abs(re_b)) <= HYPERBOLICITY_TOL:
        return Stability.NON_HYPERBOLIC
    if re_a * re_b < 0.0:
        return Stability.SADDLE
    return Stability.SINK if re_a < 0.0 else Stability.SOURCE


def classify(params: ModelParams, equilibrium: Equilibrium) -> Equilibrium:
    """Fill in eigenvalues and a stability label for an equilibrium.

    Refuses points that do not actually null the drift (residual above
    1e-10 or NaN), so stale or hand-mangled candidates fail loudly, and
    eigenvalues that are not finite (parameters too large for float64).
    """
    x = equilibrium.point
    residual = drift(params, x)
    if not (abs(residual.dn) <= _RESIDUAL_TOL and abs(residual.dp) <= _RESIDUAL_TOL):
        raise ValueError(f"not an equilibrium: drift residual {residual!r} at {x!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        lams = _eigenvalues_2x2(jacobian(params, x))
    if not np.isfinite(lams).all():
        raise ValueError(f"eigenvalues at {x!r} are not finite; parameters too large")
    label = _stability_from_real_parts(lams[0].real, lams[1].real)
    return replace(equilibrium, classification=label, eigenvalues=lams)


def find_equilibria(params: ModelParams) -> list[Equilibrium]:
    """All equilibria of the reduced system, classified.

    Always contains the origin and the prey-only point, in that order; the
    coexistence point is appended when it exists.  Within 1e-12 of the
    existence boundary k(m - c) = c the coexistence point collides with the
    prey-only point and is reported as absent.
    """
    found = [
        Equilibrium(State(0.0, 0.0), EquilibriumKind.ORIGIN),
        Equilibrium(State(params.k, 0.0), EquilibriumKind.PREY_ONLY),
    ]
    if coexistence_exists(params):
        found.append(Equilibrium(coexistence_point(params), EquilibriumKind.COEXISTENCE))
    return [classify(params, e) for e in found]


def hopf_threshold(m: float, c: float) -> float:
    """Capacity at which the coexistence point switches sink/source.

    Below (m + c)/(m - c) the coexistence point attracts; above it repels
    and a stable cycle takes over.  Defined only for m > c.
    """
    if not (m > c):
        raise ValueError(f"hopf_threshold requires m > c, got m={m}, c={c}")
    return (m + c) / (m - c)


def extinction_check(params: ModelParams) -> ExtinctionVerdict:
    """Decide whether the predator is doomed on parameter grounds alone."""
    m, c, k = params.m, params.c, params.k
    if m <= c:
        return ExtinctionVerdict(
            ExtinctionOutcome.PREDATOR_EXTINCT_LOW_GAIN,
            f"per-capita predation gain m*n/(1+n) stays below m={m} <= c={c}, "
            "so predator density decays regardless of prey abundance",
        )
    margin = k * (m - c) - c
    if margin <= _COLLISION_TOL:
        note = (
            " (margin within 1e-12 of zero: the coexistence point collides "
            "with the prey-only point and is treated as absent)"
            if abs(margin) <= _COLLISION_TOL
            else ""
        )
        return ExtinctionVerdict(
            ExtinctionOutcome.PREDATOR_EXTINCT_K_BOUND,
            f"capacity too small: k(m-c)={k * (m - c)} <= c={c} keeps the "
            f"saturated gain m*k/(1+k) at or below mortality{note}",
        )
    return ExtinctionVerdict(
        ExtinctionOutcome.COEXISTENCE_POSSIBLE,
        f"m={m} > c={c} and k(m-c)={k * (m - c)} > c: a coexistence "
        "equilibrium exists and the predator is not doomed by parameters",
    )


def trace_identity_check(params: ModelParams) -> tuple[float, float]:
    """Two routes to the same number at the coexistence point.

    Returns ((1 + n*) * trace(J), (2 n*/k) * ((k - 1)/2 - n*)); the two are
    equal up to rounding, which pins both the Jacobian and the closed-form
    equilibrium at once.
    """
    point = coexistence_point(params)
    jac = jacobian(params, point)
    lhs = (1.0 + point.n) * float(jac[0][0] + jac[1][1])
    rhs = (2.0 * point.n / params.k) * (0.5 * (params.k - 1.0) - point.n)
    return lhs, rhs
