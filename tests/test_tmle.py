"""Targeted maximum likelihood estimation of the ATT."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from attbench.dgp import SCENARIOS, outcome_mean, treatment_logit_terms
from attbench.errors import FlatOutcomeError, ZeroSeError
from attbench.propensity import PsVector, estimate_ps, truncate_ps
from attbench import tmle
from attbench.tmle import MAX_TARGETING_ROUNDS, tmle_att
from attbench.glm import fit_ols
from attbench.weighting import ols_arm_predictions, ols_outcome_design


def ols_arms(x, y, z):
    """``(q1, q0)`` of the least-squares outcome fit, as the harness forms them for AIPW."""
    return ols_arm_predictions(fit_ols(ols_outcome_design(x, z), y), x)


def ps_of(values) -> PsVector:
    values = np.asarray(values, dtype=np.float64)
    return PsVector(values, np.ones(values.size, dtype=bool))


def count_rounds(monkeypatch) -> list:
    """A list that gets one entry per targeting round ``tmle_att`` runs
    (one ``_solve_fluctuation`` call each)."""
    rounds, solve = [], tmle._solve_fluctuation

    def counted(*args):
        rounds.append(None)
        return solve(*args)

    monkeypatch.setattr(tmle, "_solve_fluctuation", counted)
    return rounds


def s1_cohort(np_rng, n, setting=1):
    spec = SCENARIOS[1]
    x = np_rng.standard_normal((n, 3))
    ps_true = expit(-1.464120 + treatment_logit_terms(spec, x[:, 0], x[:, 1]))
    z = (np_rng.uniform(size=n) < ps_true).astype(np.int64)
    if z.min() == z.max():  # pragma: no cover - vanishing probability
        z[:2] = [1, 0]
    y = outcome_mean(spec, setting, x, z, False) + np.sqrt(2.0) * np_rng.standard_normal(n)
    return x, z, y, ps_true


def estimated_fit(np_rng, n):
    x, z, y, _ = s1_cohort(np_rng, n)
    q1, q0 = ols_arms(x, y, z)
    ps = truncate_ps(estimate_ps(x, z))
    return tmle_att(y, z, q1, q0, ps)


class TestTargeting:
    def test_mean_eif_solved_on_estimated_fits(self, np_rng):
        for _ in range(30):
            fit = estimated_fit(np_rng, 500)
            assert fit.targeting_converged
            assert abs(float(fit.eif_values.mean())) < 1e-6

    def test_true_models_need_almost_no_fluctuation(self, np_rng):
        n = 10_000
        x, z, y, ps_true = s1_cohort(np_rng, n)
        q1 = outcome_mean(SCENARIOS[1], 1, x, np.ones(n), False)
        q0 = outcome_mean(SCENARIOS[1], 1, x, np.zeros(n), False)
        ps = truncate_ps(ps_of(np.clip(ps_true, 1e-8, 1 - 1e-8)))
        fit = tmle_att(y, z, q1, q0, ps)
        # Targeting barely moves the plug-in contrast.  The contrast moves
        # about 25 outcome units per unit of fluctuation coefficient here,
        # so this bounds the coefficient near 0.01.
        plug_in = float((q1 - q0)[z == 1].mean())
        assert abs(fit.att - plug_in) < 0.25

    def test_consistent_on_homogeneous_effect(self, np_rng):
        atts = [estimated_fit(np_rng, 10_000).att for _ in range(50)]
        assert abs(float(np.mean(atts)) - 1.0) < 0.05

    def test_balanced_design_with_saturated_truth_is_mean_difference(self, np_rng, monkeypatch):
        # Constant ps equal to the treated fraction plus group-mean
        # predictions solve the score equation immediately: no update,
        # att is the difference of group means.
        n = 20
        z = np.array([1] * 10 + [0] * 10)
        y = np_rng.standard_normal(n)
        q1 = np.full(n, y[z == 1].mean())
        q0 = np.full(n, y[z == 0].mean())
        rounds = count_rounds(monkeypatch)
        fit = tmle_att(y, z, q1, q0, ps_of(np.full(n, 0.5)))
        expected = y[z == 1].mean() - y[z == 0].mean()
        assert fit.att == pytest.approx(expected, abs=1e-10)
        assert fit.targeting_converged
        assert len(rounds) == 1

    def test_location_scale_equivariance(self, np_rng):
        n = 400
        x, z, y, _ = s1_cohort(np_rng, n)
        q1, q0 = ols_arms(x, y, z)
        ps = truncate_ps(estimate_ps(x, z))
        base = tmle_att(y, z, q1, q0, ps)
        a, b = 3.5, -7.0
        moved = tmle_att(a * y + b, z, a * q1 + b, a * q0 + b, ps)
        assert moved.att == pytest.approx(a * base.att, abs=1e-8)
        assert moved.theoretical_se == pytest.approx(a * base.theoretical_se, rel=1e-10)


class TestReportedQuantities:
    def test_se_and_p_match_eif_variance(self, np_rng):
        fit = estimated_fit(np_rng, 600)
        n = fit.eif_values.size
        expected_se = float(np.sqrt(np.var(fit.eif_values, ddof=1) / n))
        assert fit.theoretical_se == pytest.approx(expected_se, rel=1e-12)
        expected_p = 2 * stats.norm.sf(abs(fit.att) / expected_se)
        assert fit.p_value == pytest.approx(expected_p, rel=1e-10)

    def test_zero_se_raises(self, np_rng, monkeypatch):
        # Constant influence values give a zero SE; a zero variance stands in for them.
        monkeypatch.setattr(np, "var", lambda values, ddof: 0.0)
        with pytest.raises(ZeroSeError):
            estimated_fit(np_rng, 200)

    def test_extreme_outcome_scale_reports_not_raises(self, np_rng, monkeypatch):
        n = 200
        x, z, y, _ = s1_cohort(np_rng, n)
        y = 1e10 * y
        q1, q0 = ols_arms(x, y, z)
        ps = truncate_ps(estimate_ps(x, z))
        rounds = count_rounds(monkeypatch)
        fit = tmle_att(y, z, q1, q0, ps)
        assert np.isfinite(fit.att)
        assert isinstance(fit.targeting_converged, bool)
        assert len(rounds) <= MAX_TARGETING_ROUNDS
        if not fit.targeting_converged:
            assert len(rounds) == MAX_TARGETING_ROUNDS


class TestValidation:
    def test_flat_outcome_rejected(self):
        n = 10
        z = np.array([1, 0] * 5)
        with pytest.raises(FlatOutcomeError):
            tmle_att(
                np.ones(n),
                z,
                np.ones(n),
                np.ones(n),
                ps_of(np.full(n, 0.5)),
            )
