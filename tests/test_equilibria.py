from __future__ import annotations

import math

import numpy as np
import pytest

from rosmac import (
    HYPERBOLICITY_TOL,
    EquilibriumKind,
    ExtinctionOutcome,
    ModelParams,
    Stability,
    State,
    coexistence_exists,
    coexistence_point,
    drift,
    extinction_check,
    find_equilibria,
    hopf_threshold,
    jacobian,
    trace_identity_check,
)
from rosmac.equilibria import _classified, _eigenvalues_2x2

from conftest import CYCLE_PARAMS, SINK_PARAMS


def _log_uniform_params(rng):
    lo, hi = math.log(0.1), math.log(10.0)
    m, c, k = np.exp(rng.uniform(lo, hi, size=3))
    return ModelParams(m=float(m), c=float(c), k=float(k))


def test_coexistence_point_reference_values():
    point = coexistence_point(CYCLE_PARAMS)
    assert point.n == pytest.approx(0.5, abs=1e-15)
    assert point.p == pytest.approx(5.0 / 12.0, abs=1e-15)
    point = coexistence_point(SINK_PARAMS)
    assert point.n == pytest.approx(0.5, abs=1e-15)
    assert point.p == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_coexistence_point_nulls_drift():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        params = _log_uniform_params(rng)
        if not coexistence_exists(params):
            continue
        residual = drift(params, coexistence_point(params))
        assert max(abs(residual.dn), abs(residual.dp)) < 1e-12
        checked += 1


def test_coexistence_absent_raises():
    starved = ModelParams(m=1.0, c=2.0, k=5.0)
    assert not coexistence_exists(starved)
    with pytest.raises(ValueError):
        coexistence_point(starved)


def test_find_equilibria_cycle_parameters():
    origin, prey_only, coexist = find_equilibria(CYCLE_PARAMS)
    assert origin.kind is EquilibriumKind.ORIGIN
    assert origin.point == State(0.0, 0.0)
    assert origin.classification is Stability.SADDLE
    assert prey_only.kind is EquilibriumKind.PREY_ONLY
    assert prey_only.point == State(3.0, 0.0)
    assert prey_only.classification is Stability.SADDLE
    assert coexist.kind is EquilibriumKind.COEXISTENCE
    # Above the oscillation threshold k = 2 the interior point repels.
    assert coexist.classification is Stability.SOURCE
    lam_a, lam_b = coexist.eigenvalues
    assert lam_a.imag != 0.0
    assert lam_a == lam_b.conjugate()
    assert lam_a.real == pytest.approx(1.0 / 18.0, rel=1e-12)


def test_find_equilibria_sink_parameters():
    equilibria = find_equilibria(SINK_PARAMS)
    assert [e.kind for e in equilibria] == [
        EquilibriumKind.ORIGIN,
        EquilibriumKind.PREY_ONLY,
        EquilibriumKind.COEXISTENCE,
    ]
    assert equilibria[2].classification is Stability.SINK


def test_find_equilibria_without_coexistence():
    params = ModelParams(m=0.5, c=1.0, k=4.0)
    equilibria = find_equilibria(params)
    assert len(equilibria) == 2
    # With m <= c the prey-only point attracts instead of saddling.
    assert equilibria[1].classification is Stability.SINK


def test_origin_eigenvalues_are_one_and_minus_c():
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = _log_uniform_params(rng)
        origin = _classified(params, State(0.0, 0.0), EquilibriumKind.ORIGIN)
        values = sorted(origin.eigenvalues, key=lambda z: z.real)
        assert values[0] == pytest.approx(-params.c, rel=1e-14)
        assert values[1] == pytest.approx(1.0, rel=1e-14)


def test_classify_rejects_non_equilibrium():
    with pytest.raises(ValueError):
        _classified(CYCLE_PARAMS, State(1.0, 1.0), EquilibriumKind.COEXISTENCE)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_classify_rejects_nan_residuals_and_non_finite_eigenvalues():
    with pytest.raises(ValueError, match="not an equilibrium"):
        _classified(CYCLE_PARAMS, State(0.5, math.nan), EquilibriumKind.COEXISTENCE)
    # A finite prey-only point whose Jacobian entry m k / (1 + k) squares past float64.
    huge_m = ModelParams(m=1e300, c=1.0, k=3.0)
    with pytest.raises(ValueError, match="eigenvalues"):
        _classified(huge_m, State(3.0, 0.0), EquilibriumKind.PREY_ONLY)
    # (k, 0) nulls the drift exactly, but m * n overflows before its product
    # with p = 0: the residual reads NaN at a finite point.
    for params in (ModelParams(m=3.0, c=1.0, k=1e308), ModelParams(m=1e300, c=1e-300, k=1e300)):
        with pytest.raises(ValueError, match=r"^drift residual is not finite at State\(n=1e\+30\d, p=0.0\); "
                                             "parameters too large$"):
            find_equilibria(params)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(50):
        params = _log_uniform_params(rng)
        n = float(rng.uniform(0.05, 8.0))
        p = float(rng.uniform(0.05, 8.0))
        jac = jacobian(params, State(n, p))
        fd = np.empty((2, 2))
        for j, (dn_step, dp_step) in enumerate(((h, 0.0), (0.0, h))):
            plus = drift(params, State(n + dn_step, p + dp_step))
            minus = drift(params, State(n - dn_step, p - dp_step))
            fd[0, j] = (plus.dn - minus.dn) / (2.0 * h)
            fd[1, j] = (plus.dp - minus.dp) / (2.0 * h)
        scale = max(1.0, np.abs(jac).max())
        assert np.abs(jac - fd).max() < 1e-6 * scale


def test_eigenvalues_match_lapack():
    rng = np.random.default_rng(13)
    for _ in range(100):
        params = _log_uniform_params(rng)
        for eq in find_equilibria(params):
            ours = np.sort_complex(np.array(eq.eigenvalues))
            lapack = np.sort_complex(np.linalg.eigvals(jacobian(params, eq.point)))
            scale = max(1.0, np.abs(lapack).max())
            assert np.abs(ours - lapack).max() < 1e-9 * scale


def test_eigenvalues_of_the_zero_matrix_are_zero():
    # Trace and discriminant are both 0: no larger root to recover the other from.
    assert _eigenvalues_2x2(np.zeros((2, 2))) == (0j, 0j)


def test_classification_law_over_random_parameters():
    """Labels must follow the sign rules predicted by the linearization.

    Origin: always a saddle.  Prey-only: saddle exactly when the saturated
    gain m k/(1+k) exceeds mortality c, otherwise a sink.  Coexistence:
    sink below the threshold capacity (m+c)/(m-c), source above it.
    Draws landing within 1e-4 of any boundary are rejected as undecidable.
    """
    rng = np.random.default_rng(77)
    kept = 0
    for _ in range(1000):
        params = _log_uniform_params(rng)
        m, c, k = params.m, params.c, params.k
        gain_margin = m * k / (1.0 + k) - c
        if abs(gain_margin) < 1e-4:
            continue
        if m > c and abs(k - hopf_threshold(m, c)) < 1e-4:
            continue
        kept += 1

        equilibria = find_equilibria(params)
        assert equilibria[0].classification is Stability.SADDLE
        expected_prey = Stability.SADDLE if gain_margin > 0.0 else Stability.SINK
        assert equilibria[1].classification is expected_prey

        if coexistence_exists(params):
            assert len(equilibria) == 3
            expected_inner = (
                Stability.SOURCE if k > hopf_threshold(m, c) else Stability.SINK
            )
            assert equilibria[2].classification is expected_inner
        else:
            assert len(equilibria) == 2
    assert kept >= 990


def _classify_by_trace_det(params, equilibrium):
    """Stability from the signs of the Jacobian's trace and determinant only.

    An independent route to find_equilibria's classification: the smallest
    real-part magnitude is bounded through the root product rather than by
    forming the roots.
    """
    jac = jacobian(params, equilibrium.point)
    tr = float(jac[0][0] + jac[1][1])
    det = float(jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0])
    disc = tr * tr - 4.0 * det
    if disc < 0.0:
        # Complex pair: both real parts equal tr/2.
        if abs(tr) <= 2.0 * HYPERBOLICITY_TOL:
            return Stability.NON_HYPERBOLIC
        return Stability.SINK if tr < 0.0 else Stability.SOURCE
    big_mag = 0.5 * (abs(tr) + math.sqrt(disc))
    if big_mag <= HYPERBOLICITY_TOL:
        return Stability.NON_HYPERBOLIC
    small_mag = abs(det) / big_mag
    if small_mag <= HYPERBOLICITY_TOL:
        return Stability.NON_HYPERBOLIC
    if det < 0.0:
        return Stability.SADDLE
    return Stability.SINK if tr < 0.0 else Stability.SOURCE


def test_two_classification_routes_agree():
    rng = np.random.default_rng(19)
    compared = 0
    for _ in range(300):
        params = _log_uniform_params(rng)
        for eq in find_equilibria(params):
            assert _classify_by_trace_det(params, eq) is eq.classification
            compared += 1
    assert compared >= 600


def test_hopf_threshold_reference_and_domain():
    assert hopf_threshold(3.0, 1.0) == 2.0
    assert hopf_threshold(2.0, 1.0) == 3.0
    with pytest.raises(ValueError):
        hopf_threshold(1.0, 1.0)
    with pytest.raises(ValueError):
        hopf_threshold(0.5, 1.0)


def test_stability_flips_across_hopf_threshold():
    for k, expected in ((1.999, Stability.SINK), (2.001, Stability.SOURCE)):
        params = ModelParams(m=3.0, c=1.0, k=k)
        inner = find_equilibria(params)[2]
        assert inner.classification is expected


def test_trace_identity_reference_value():
    lhs, rhs = trace_identity_check(CYCLE_PARAMS)
    assert lhs == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert rhs == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_trace_identity_holds_over_random_parameters():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 300:
        params = _log_uniform_params(rng)
        if not coexistence_exists(params):
            continue
        lhs, rhs = trace_identity_check(params)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs), abs(rhs))
        checked += 1


def test_extinction_check_three_verdicts():
    low_gain = extinction_check(ModelParams(m=1.0, c=2.0, k=5.0))
    assert low_gain.outcome is ExtinctionOutcome.PREDATOR_EXTINCT_LOW_GAIN

    small_k = extinction_check(ModelParams(m=2.0, c=1.0, k=0.5))
    assert small_k.outcome is ExtinctionOutcome.PREDATOR_EXTINCT_K_BOUND

    viable = extinction_check(CYCLE_PARAMS)
    assert viable.outcome is ExtinctionOutcome.COEXISTENCE_POSSIBLE
    for verdict in (low_gain, small_k, viable):
        assert verdict.rationale


def test_extinction_check_flags_boundary_collision():
    # k (m - c) = c exactly: the interior point degenerates onto (k, 0).
    verdict = extinction_check(ModelParams(m=2.0, c=1.0, k=1.0))
    assert verdict.outcome is ExtinctionOutcome.PREDATOR_EXTINCT_K_BOUND
    assert "collides" in verdict.rationale
    assert not coexistence_exists(ModelParams(m=2.0, c=1.0, k=1.0))
    assert len(find_equilibria(ModelParams(m=2.0, c=1.0, k=1.0))) == 2


def test_coexistence_survives_just_above_collision():
    params = ModelParams(m=2.0, c=1.0, k=1.0 + 1e-9)
    assert coexistence_exists(params)
    assert len(find_equilibria(params)) == 3
