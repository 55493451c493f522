"""Inverse-probability and augmented weighting estimators."""

import numpy as np
import pytest
from scipy.special import expit

from attbench.dgp import SCENARIOS, outcome_mean, treatment_logit_terms
from attbench.errors import AllTrimmedError, ZeroSeError
from attbench.propensity import PsVector, estimate_ps, trim_ps
from attbench.glm import fit_ols
from attbench.numeric import RngStream
from attbench.weighting import aipw_att, fit_outcome_models, ipw_att, ols_arm_predictions, ols_outcome_design


def ols_arms(x, y, z):
    """``(q1, q0)`` of the least-squares outcome fit, as the harness forms them for AIPW."""
    return ols_arm_predictions(fit_ols(ols_outcome_design(x, z), y), x)


def ps_of(values, kept=None) -> PsVector:
    values = np.asarray(values, dtype=np.float64)
    if kept is None:
        kept = np.ones(values.size, dtype=bool)
    return PsVector(values, kept)


def random_cohort(np_rng, n):
    x = np_rng.standard_normal(n)
    ps_true = np.clip(expit(0.3 + 0.8 * x), 1e-6, 1 - 1e-6)
    z = (np_rng.uniform(size=n) < ps_true).astype(np.int64)
    y = 1.0 + 2.0 * x + z + np_rng.standard_normal(n)
    return x, z, y, ps_true


class TestIpwAtt:
    def test_constant_ps_gives_group_mean_difference(self, np_rng):
        y = np_rng.standard_normal(40)
        z = np.array([1, 0] * 20)
        est = ipw_att(y, z, ps_of(np.full(40, 0.5)))
        expected = y[z == 1].mean() - y[z == 0].mean()
        assert est.att == pytest.approx(expected, abs=1e-12)

    def test_hand_evaluated_terms(self):
        # Treated mean 2; controls at ps 0.2 carry weight 0.25 each and
        # average to 1; att is exactly 1.  (Doubling the two-point version
        # keeps the same term values while giving nonzero residuals.)
        y = np.array([2.3, 1.7, 1.4, 0.6])
        z = np.array([1, 1, 0, 0])
        est = ipw_att(y, z, ps_of([0.8, 0.8, 0.2, 0.2]))
        assert est.att == pytest.approx(1.0, abs=1e-15)

    def test_treated_ps_never_enters(self, np_rng):
        x, z, y, ps_true = random_cohort(np_rng, 200)
        base = ipw_att(y, z, ps_of(ps_true))
        jittered = ps_true.copy()
        jittered[z == 1] = np_rng.uniform(0.1, 0.9, size=int(z.sum()))
        moved = ipw_att(y, z, ps_of(jittered))
        assert moved.att == pytest.approx(base.att, abs=1e-12)
        assert moved.theoretical_se == pytest.approx(base.theoretical_se, abs=1e-12)

    def test_invariant_to_control_odds_rescaling(self, np_rng):
        # Multiplying every control's odds by a constant rescales all
        # control weights together, which a ratio of sums cannot see.
        x, z, y, ps_true = random_cohort(np_rng, 200)
        base = ipw_att(y, z, ps_of(ps_true))
        odds = ps_true / (1.0 - ps_true) * 3.0
        rescaled = odds / (1.0 + odds)
        est = ipw_att(y, z, ps_of(np.where(z == 1, ps_true, rescaled)))
        assert est.att == pytest.approx(base.att, abs=1e-12)
        assert est.theoretical_se == pytest.approx(base.theoretical_se, abs=1e-12)

    def test_outcome_shift_invariance(self, np_rng):
        x, z, y, ps_true = random_cohort(np_rng, 150)
        base = ipw_att(y, z, ps_of(ps_true))
        shifted = ipw_att(y + 11.0, z, ps_of(ps_true))
        assert shifted.att == pytest.approx(base.att, abs=1e-12)

    def test_trimming_equals_manual_subset(self, np_rng):
        x, z, y, ps_true = random_cohort(np_rng, 300)
        spread = np.clip(expit(3.0 * x), 1e-3, 1 - 1e-3)
        trimmed = trim_ps(ps_of(spread), delta=0.1)
        assert 0 < trimmed.n_dropped < 300
        est = ipw_att(y, z, trimmed)
        kept = trimmed.kept_mask
        manual = ipw_att(y[kept], z[kept], ps_of(spread[kept]))
        assert est.att == manual.att
        assert est.theoretical_se == manual.theoretical_se

    def test_single_arm_after_trimming_raises(self):
        y = np.arange(4.0)
        z = np.array([1, 1, 0, 0])
        kept = np.array([True, True, False, False])
        with pytest.raises(AllTrimmedError):
            ipw_att(y, z, ps_of([0.5, 0.5, 0.5, 0.5], kept))

    def test_zero_influence_raises(self):
        with pytest.raises(ZeroSeError):
            ipw_att(np.array([2.0, 1.0]), np.array([1, 0]), ps_of([0.8, 0.2]))

    def test_theoretical_se_calibrated_when_ps_known(self, np_rng):
        atts = []
        ses = []
        for _ in range(400):
            x, z, y, ps_true = random_cohort(np_rng, 400)
            if z.min() == z.max():
                continue
            est = ipw_att(y, z, ps_of(ps_true))
            atts.append(est.att)
            ses.append(est.theoretical_se)
        ratio = np.std(atts, ddof=1) / np.mean(ses)
        assert 0.85 < ratio < 1.15


class TestAipwAtt:
    def test_zero_residuals_give_ps_weighted_contrast(self, np_rng):
        for _ in range(5):
            n = 80
            q1 = np_rng.standard_normal(n)
            q0 = np_rng.standard_normal(n)
            z = (np_rng.uniform(size=n) < 0.4).astype(np.int64)
            z[:2] = [1, 0]
            y = np.where(z == 1, q1, q0)
            values = np_rng.uniform(0.1, 0.9, size=n)
            est = aipw_att(y, z, ps_of(values), q1, q0)
            expected = float((values * (q1 - q0)).sum() / values.sum())
            assert est.att == pytest.approx(expected, abs=1e-13)

    def test_zero_outcome_model_reduces_to_ipw(self, np_rng):
        x, z, y, ps_true = random_cohort(np_rng, 120)
        zeros = np.zeros_like(y)
        plain = ipw_att(y, z, ps_of(ps_true))
        augmented = aipw_att(y, z, ps_of(ps_true), zeros, zeros)
        assert augmented.att == plain.att
        assert augmented.theoretical_se == plain.theoretical_se
        assert augmented.p_value == plain.p_value

    def test_double_robustness_against_distorted_ps(self, np_rng):
        # Correct outcome model, squared-and-clamped propensity: the
        # residual corrections vanish in expectation, so the estimate
        # stays near the homogeneous effect of 1.
        spec = SCENARIOS[1]
        n = 10_000
        x = np_rng.standard_normal((n, 3))
        logit = -1.464120 + treatment_logit_terms(spec, x[:, 0], x[:, 1])
        ps_true = expit(logit)
        z = (np_rng.uniform(size=n) < ps_true).astype(np.int64)
        y = outcome_mean(spec, 1, x, z, False) + np.sqrt(2.0) * np_rng.standard_normal(n)
        q1 = outcome_mean(spec, 1, x, np.ones(n), False)
        q0 = outcome_mean(spec, 1, x, np.zeros(n), False)
        distorted = np.clip(ps_true**2, 0.05, 0.95)
        est = aipw_att(y, z, ps_of(distorted), q1, q0)
        assert abs(est.att - 1.0) < 0.05

    def test_double_robustness_against_zero_outcome_model(self, np_rng):
        spec = SCENARIOS[1]
        n = 10_000
        x = np_rng.standard_normal((n, 3))
        logit = -1.464120 + treatment_logit_terms(spec, x[:, 0], x[:, 1])
        ps_true = np.clip(expit(logit), 1e-8, 1 - 1e-8)
        z = (np_rng.uniform(size=n) < ps_true).astype(np.int64)
        y = outcome_mean(spec, 1, x, z, False) + np.sqrt(2.0) * np_rng.standard_normal(n)
        zeros = np.zeros(n)
        est = aipw_att(y, z, ps_of(ps_true), zeros, zeros)
        assert abs(est.att - 1.0) < 0.05

    def test_joint_shift_invariance(self, np_rng):
        x, z, y, ps_true = random_cohort(np_rng, 150)
        q1 = 1.0 + 2.0 * x + 1.0
        q0 = 1.0 + 2.0 * x
        base = aipw_att(y, z, ps_of(ps_true), q1, q0)
        shifted = aipw_att(y + 4.0, z, ps_of(ps_true), q1 + 4.0, q0 + 4.0)
        assert shifted.att == pytest.approx(base.att, abs=1e-12)

    def test_prediction_length_mismatch_rejected(self, np_rng):
        x, z, y, ps_true = random_cohort(np_rng, 30)
        with pytest.raises(ValueError, match="length"):
            aipw_att(y, z, ps_of(ps_true), np.zeros(29), np.zeros(30))

    def test_theoretical_se_calibrated_when_models_known(self, np_rng):
        atts = []
        ses = []
        for _ in range(400):
            x, z, y, ps_true = random_cohort(np_rng, 400)
            if z.min() == z.max():
                continue
            q1 = 1.0 + 2.0 * x + 1.0
            q0 = 1.0 + 2.0 * x
            est = aipw_att(y, z, ps_of(ps_true), q1, q0)
            atts.append(est.att)
            ses.append(est.theoretical_se)
        ratio = np.std(atts, ddof=1) / np.mean(ses)
        assert 0.85 < ratio < 1.15


class TestFittedScoreCorrection:
    """SE behavior when the scores carry their model's score columns."""

    @staticmethod
    def cohort_2d(np_rng, n):
        x = np_rng.standard_normal((n, 2))
        ps_true = expit(0.2 + 0.9 * x[:, 0] - 0.4 * x[:, 1])
        z = (np_rng.uniform(size=n) < ps_true).astype(np.int64)
        if z.min() == z.max():  # pragma: no cover - vanishing probability
            z[:2] = [1, 0]
        y = 1.0 + 1.5 * x[:, 0] + 0.8 * x[:, 1] + z + np_rng.standard_normal(n)
        return x, z, y

    def test_point_estimate_unchanged_se_never_larger(self, np_rng):
        x, z, y = self.cohort_2d(np_rng, 500)
        fitted = estimate_ps(x, z)
        with_basis = ipw_att(y, z, fitted)
        plain = ipw_att(y, z, ps_of(fitted.values))
        assert with_basis.att == plain.att
        assert with_basis.theoretical_se <= plain.theoretical_se

    def test_corrected_se_tracks_fitted_weight_sampling(self, np_rng):
        atts, ses = [], []
        for _ in range(300):
            x, z, y = self.cohort_2d(np_rng, 400)
            est = ipw_att(y, z, estimate_ps(x, z))
            atts.append(est.att)
            ses.append(est.theoretical_se)
        ratio = float(np.std(atts, ddof=1) / np.mean(ses))
        assert 0.85 < ratio < 1.15

    def test_known_weights_formula_overstates_fitted_weight_spread(self, np_rng):
        # Direction sanity: fitting the weights on the sample shrinks the
        # estimator's actual spread well below the known-weights formula,
        # which is the whole reason the projection is removed.
        atts, plain_ses = [], []
        for _ in range(300):
            x, z, y = self.cohort_2d(np_rng, 400)
            fitted = estimate_ps(x, z)
            atts.append(ipw_att(y, z, fitted).att)
            plain_ses.append(ipw_att(y, z, ps_of(fitted.values)).theoretical_se)
        assert float(np.mean(plain_ses)) > 1.15 * float(np.std(atts, ddof=1))

    def test_correct_outcome_model_needs_no_correction(self, np_rng):
        # The augmented influence values are orthogonal to the score
        # space when both working models are right, so the projection
        # removes almost nothing.
        n = 10_000
        x, z, y = self.cohort_2d(np_rng, n)
        base = 1.0 + 1.5 * x[:, 0] + 0.8 * x[:, 1]
        q1, q0 = base + 1.0, base
        fitted = estimate_ps(x, z)
        adjusted = aipw_att(y, z, fitted, q1, q0)
        plain = aipw_att(y, z, ps_of(fitted.values), q1, q0)
        assert adjusted.theoretical_se <= plain.theoretical_se
        assert adjusted.theoretical_se >= 0.99 * plain.theoretical_se

    def test_tiny_samples_skip_the_projection(self):
        y = np.array([2.3, 1.7, 1.4, 0.6])
        z = np.array([1, 1, 0, 0])
        values = np.array([0.8, 0.8, 0.2, 0.2])
        wide = np.arange(20.0).reshape(4, 5)
        kept = np.ones(4, dtype=bool)
        with_basis = ipw_att(y, z, PsVector(values, kept, False, wide))
        plain = ipw_att(y, z, ps_of(values))
        assert with_basis.theoretical_se == plain.theoretical_se


class TestFitOutcomeModels:
    def test_balanced_duplication_zeroes_treatment_coefficient(self, np_rng):
        x = np_rng.standard_normal((30, 2))
        y_half = x @ np.array([1.0, -0.5]) + 2.0
        x_full = np.vstack([x, x])
        z = np.concatenate([np.zeros(30), np.ones(30)])
        q1, q0 = ols_arms(x_full, np.concatenate([y_half, y_half]), z)
        np.testing.assert_allclose(q1, q0, atol=1e-10)

    def test_noiseless_linear_truth_recovers_contrast(self, np_rng):
        x = np_rng.standard_normal((60, 3))
        z = (np_rng.uniform(size=60) < 0.5).astype(np.float64)
        z[:2] = [1.0, 0.0]
        y = 2.0 + x @ np.array([1.0, 0.5, -1.0]) + 1.7 * z
        q1, q0 = ols_arms(x, y, z)
        np.testing.assert_allclose(q1 - q0, np.full(60, 1.7), atol=1e-8)

    def test_ensemble_beats_linear_model_on_quadratic_truth(self, np_rng):
        spec = SCENARIOS[1]
        n = 10_000
        x = np_rng.standard_normal((n, 3))
        ps_true = expit(-1.46 + treatment_logit_terms(spec, x[:, 0], x[:, 1]))
        z = (np_rng.uniform(size=n) < ps_true).astype(np.float64)
        y = outcome_mean(spec, 2, x, z, False) + np.sqrt(2.0) * np_rng.standard_normal(n)
        truth_q0 = outcome_mean(spec, 2, x, np.zeros(n), False)
        _, q0_ols = ols_arms(x, y, z)
        _, q0_sl = fit_outcome_models(x, y, z, RngStream(7))
        mse_ols = float(np.mean((q0_ols - truth_q0) ** 2))
        mse_sl = float(np.mean((q0_sl - truth_q0) ** 2))
        assert mse_sl < mse_ols
