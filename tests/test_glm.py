"""Least squares and IRLS logistic regression against dense oracles."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from attbench.errors import OneClassError, RankDeficientError
from attbench.glm import (
    IRLS_SCORE_TOL,
    PROB_CLAMP,
    SEPARATION_COEF_BOUND,
    _fit_stack,
    _logistic_intercepts,
    _weighted_grams,
    fit_folds,
    fit_logistic,
    fit_mean_folds,
    fit_ols,
)
from attbench.numeric import wald_estimate
from attbench.superlearner import EnsembleFit, expand_degree2, predict_ensemble

from naive_oracles import naive_fit_logistic, naive_fit_ols, naive_fold_fits


def _design(np_rng, n, p):
    return np.column_stack([np.ones(n), np_rng.standard_normal((n, p - 1))])


class TestOls:
    def test_exact_data_recovered_exactly(self, np_rng):
        x = _design(np_rng, 30, 4)
        beta = np.array([1.0, -2.0, 0.5, 3.0])
        fit = fit_ols(x, x @ beta)
        np.testing.assert_allclose(fit.coefficients, beta, atol=1e-10)
        # se**2 / diag((X'X)^-1) is the residual variance.
        assert np.max(fit.standard_errors**2 / np.diag(np.linalg.inv(x.T @ x))) < 1e-20

    def test_matches_normal_equation_oracle(self, np_rng):
        for _ in range(25):
            n = int(np_rng.integers(10, 80))
            p = int(np_rng.integers(1, 6))
            x = _design(np_rng, n, max(p, 1) + 1)
            y = np_rng.standard_normal(n)
            fit = fit_ols(x, y)
            expected = np.linalg.solve(x.T @ x, x.T @ y)
            np.testing.assert_allclose(fit.coefficients, expected, atol=1e-8)

    def test_standard_errors_match_closed_form(self, np_rng):
        x = _design(np_rng, 60, 3)
        y = np_rng.standard_normal(60)
        fit = fit_ols(x, y)
        resid = y - x @ fit.coefficients
        sigma2 = resid @ resid / (60 - 3)
        inverse_diagonal = np.diag(np.linalg.inv(x.T @ x))
        expected_se = np.sqrt(sigma2 * inverse_diagonal)
        np.testing.assert_allclose(fit.standard_errors**2 / inverse_diagonal, sigma2, rtol=1e-12)
        np.testing.assert_allclose(fit.standard_errors, expected_se, atol=1e-10)

    def test_duplicate_column_raises(self, np_rng):
        base = _design(np_rng, 20, 2)
        x = np.column_stack([base, base[:, 1]])
        with pytest.raises(RankDeficientError):
            fit_ols(x, np_rng.standard_normal(20))

    def test_underdetermined_rejected(self, np_rng):
        x = _design(np_rng, 3, 3)
        with pytest.raises(ValueError):
            fit_ols(x, np.ones(3))


class TestWaldTest:
    """LR's test of a least-squares coefficient: :func:`wald_estimate` on
    ``n - p`` degrees of freedom."""

    def test_zero_coefficient_gives_p_one(self):
        assert wald_estimate(0.0, 1.0, 9).p_value == 1.0

    def test_matches_t_distribution_oracle(self, np_rng):
        x = _design(np_rng, 40, 3)
        y = np_rng.standard_normal(40)
        fit = fit_ols(x, y)
        for j in range(3):
            df = y.size - fit.coefficients.size
            est = wald_estimate(float(fit.coefficients[j]), float(fit.standard_errors[j]), df)
            expected_t = fit.coefficients[j] / fit.standard_errors[j]
            assert est.p_value == pytest.approx(2 * stats.t.sf(abs(expected_t), 37), abs=1e-14)


class TestLogistic:
    def test_recovers_coefficients_in_large_samples(self, np_rng):
        n = 40_000
        x = _design(np_rng, n, 3)
        beta = np.array([-0.4, 0.8, -1.2])
        y = (np_rng.random(n) < expit(x @ beta)).astype(float)
        fit = fit_logistic(x, y)
        assert not fit.separated
        np.testing.assert_allclose(fit.coefficients, beta, atol=0.06)

    def test_converged_score_is_small(self, np_rng):
        x = _design(np_rng, 500, 3)
        y = (np_rng.random(500) < expit(x[:, 1])).astype(float)
        fit = fit_logistic(x, y)
        score = x.T @ (y - fit.fitted_probabilities)
        assert np.max(np.abs(score)) <= IRLS_SCORE_TOL

    def test_analytic_score_matches_finite_differences(self, np_rng):
        x = _design(np_rng, 50, 3)
        y = (np_rng.random(50) < 0.5).astype(float)
        beta = np_rng.standard_normal(3) * 0.5

        def loglik(b):
            eta = x @ b
            return float(y @ eta - np.logaddexp(0.0, eta).sum())

        analytic = x.T @ (y - expit(x @ beta))
        h = 1e-6
        for j in range(3):
            bump = np.zeros(3)
            bump[j] = h
            fd = (loglik(beta + bump) - loglik(beta - bump)) / (2 * h)
            assert abs(analytic[j] - fd) < 1e-5

    def test_separated_data_flagged_and_clamped(self):
        x = np.column_stack([np.ones(20), np.linspace(-2, 2, 20)])
        y = (x[:, 1] > 0).astype(float)
        fit = fit_logistic(x, y)
        assert fit.separated
        assert fit.fitted_probabilities.min() >= PROB_CLAMP
        assert fit.fitted_probabilities.max() <= 1 - PROB_CLAMP
        assert np.max(np.abs(fit.coefficients)) > SEPARATION_COEF_BOUND

    def test_single_class_raises(self, np_rng):
        x = _design(np_rng, 30, 2)
        with pytest.raises(OneClassError):
            fit_logistic(x, np.zeros(30))

    def test_non_binary_rejected(self, np_rng):
        x = _design(np_rng, 10, 2)
        with pytest.raises(ValueError):
            fit_logistic(x, np.linspace(0, 1, 10))

    def test_predict_clamps_new_data(self, np_rng):
        x = _design(np_rng, 200, 2)
        y = (np_rng.random(200) < expit(2 * x[:, 1])).astype(float)
        fit = fit_logistic(x, y)
        # All weight on the main-effects learner, fitted on x = [1, covariate].
        coefficients = (np.zeros(1), fit.coefficients, np.zeros(3))
        ensemble = EnsembleFit(coefficients, np.array([0.0, 1.0, 0.0]), "binomial", False)
        preds = predict_ensemble(ensemble, np.array([[50.0], [-50.0]]))
        assert preds[0] <= 1 - PROB_CLAMP
        assert preds[1] >= PROB_CLAMP


def _reference_case(case):
    """A design and a 0/1 response for one of the single-fit reference cases."""
    rng = np.random.default_rng(11)
    x = _design(rng, 60, 3)
    y = (rng.random(60) < expit(x @ np.array([-0.5, 1.0, -0.8]))).astype(float)
    if case == "separated":
        x = np.column_stack([np.ones(20), np.linspace(-2, 2, 20)])
        y = (x[:, 1] > 0).astype(float)
    elif case == "duplicate-column":
        x = np.column_stack([x, x[:, 2]])
    elif case == "n-le-p":
        x, y = x[:3], np.array([0.0, 1.0, 1.0])
    elif case == "one-class":
        y = np.ones(60)
    elif case == "non-binary":
        y = np.linspace(0, 1, 60)
    return x, y


@pytest.mark.parametrize(
    "case", ["well-posed", "separated", "duplicate-column", "n-le-p", "one-class", "non-binary"]
)
@pytest.mark.parametrize(
    "fit, reference", [(fit_ols, naive_fit_ols), (fit_logistic, naive_fit_logistic)], ids=["ols", "logistic"]
)
def test_single_fit_matches_one_design_reference(fit, reference, case):
    """The one-row stack against the one-design Cholesky fits it replaced."""
    x, y = _reference_case(case)
    try:
        expected = reference(x, y)
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            fit(x, y)
        assert type(raised.value) is type(exc)
        return
    got = fit(x, y)
    # Relative 1e-12, with absolute floors at 1e-12 of each quantity's scale
    # for values that are round-off: a coefficient that is zero in exact
    # arithmetic, and the residuals of the one-class response's exact fit.
    scale = np.abs(expected.coefficients).max()
    np.testing.assert_allclose(got.coefficients, expected.coefficients, rtol=1e-12, atol=1e-12 * scale)
    if fit is fit_ols:
        mean_square = float(np.mean(y**2))
        floor = 1e-12 * np.sqrt(mean_square / y.size)
        np.testing.assert_allclose(got.standard_errors, expected.standard_errors, rtol=1e-12, atol=floor)
    else:
        np.testing.assert_allclose(got.fitted_probabilities, expected.fitted_probabilities, rtol=1e-12, atol=0)
        assert got.separated == expected.separated


def _folds(rng, n, k_folds=10):
    folds = np.empty(n, dtype=np.intp)
    folds[rng.permutation(n)] = np.arange(n) % k_folds
    return folds


def _degree2_treatment(seed, n, scale):
    """A degree-2 design of three normal covariates and a treatment drawn
    from scenario 2's quadratic logit, multiplied by ``scale``."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    logit = 1.25 * x[:, 0] + x[:, 1] + 0.5 * x[:, 0] ** 2 + 0.5 * x[:, 1] ** 2 + 0.75 * x[:, 0] * x[:, 1]
    z = (rng.random(n) < expit(scale * (logit - 1.0))).astype(float)
    return np.column_stack([np.ones(n), expand_degree2(x)]), z, _folds(rng, n)


def fold_separated(design, y, folds, family, k_folds=10):
    """Each training fold's separation flag, as the engine's stack behind
    ``fit_folds`` returns it."""
    train = (folds != np.arange(k_folds + 1)[:, None]).astype(np.float64)
    _, separated, _ = _fit_stack(design, y, train, family)
    return separated[:k_folds]


class TestFoldFits:
    """The stacked fold fits against one fit per training fold."""

    def test_well_posed_logistic_matches_per_fold_fits(self):
        design, z, folds = _degree2_treatment(seed=1, n=200, scale=0.5)
        expected, converged, separated = naive_fold_fits(design, z, folds, "binomial")
        fits = fit_folds(design, z, folds, 10, "binomial")
        assert converged.all() and not separated.any()
        np.testing.assert_array_equal(fold_separated(design, z, folds, "binomial"), separated)
        np.testing.assert_allclose(fits.out_of_fold, expected, rtol=0, atol=1e-10)

    def test_separated_folds_match_per_fold_fits(self):
        # Six of the ten training folds separate; the rest converge.
        design, z, folds = _degree2_treatment(seed=8, n=100, scale=3.0)
        expected, converged, separated = naive_fold_fits(design, z, folds, "binomial")
        fits = fit_folds(design, z, folds, 10, "binomial")
        assert separated.any() and converged.any()
        np.testing.assert_array_equal(fold_separated(design, z, folds, "binomial"), separated)
        np.testing.assert_allclose(fits.out_of_fold, expected, rtol=0, atol=1e-10)

    def test_ols_matches_per_fold_fits(self, np_rng):
        x = _design(np_rng, 90, 4)
        y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + np_rng.standard_normal(90)
        folds = _folds(np_rng, 90)
        expected, _, _ = naive_fold_fits(x, y, folds, "gaussian")
        fits = fit_folds(x, y, folds, 10, "gaussian")
        np.testing.assert_allclose(fits.out_of_fold, expected, rtol=0, atol=1e-10)
        assert not fold_separated(x, y, folds, "gaussian").any()

    def test_duplicate_column_raises(self, np_rng):
        base = _design(np_rng, 60, 3)
        x = np.column_stack([base, base[:, 2]])
        y = np_rng.standard_normal(60)
        folds = _folds(np_rng, 60)
        with pytest.raises(RankDeficientError):
            naive_fold_fits(x, y, folds, "gaussian")
        with pytest.raises(RankDeficientError):
            fit_ols(x, y)
        with pytest.raises(RankDeficientError):
            fit_folds(x, y, folds, 10, "gaussian")

    @pytest.mark.parametrize(
        "seed, scale, separated",
        [(1, 0.5, False), (8, 3.0, False), (8, 5.0, True)],
        ids=["well-posed", "separated-fold", "separated-refit"],
    )
    def test_logistic_refit_row_matches_single_fit(self, seed, scale, separated):
        design, z, folds = _degree2_treatment(seed=seed, n=200 if seed == 1 else 100, scale=scale)
        fits = fit_folds(design, z, folds, 10, "binomial")
        single = fit_logistic(design, z)
        assert fold_separated(design, z, folds, "binomial").any() == (scale > 1.0)
        assert single.separated == fits.refit_separated == separated
        np.testing.assert_allclose(fits.refit_coefficients, single.coefficients, rtol=0, atol=1e-10)

    def test_ols_refit_row_matches_single_fit(self, np_rng):
        x = _design(np_rng, 90, 4)
        y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + np_rng.standard_normal(90)
        fits = fit_folds(x, y, _folds(np_rng, 90), 10, "gaussian")
        assert fits.refit_separated is False
        np.testing.assert_allclose(fits.refit_coefficients, fit_ols(x, y).coefficients, rtol=0, atol=1e-10)

    def test_single_class_fold_raises(self, np_rng):
        x = _design(np_rng, 40, 2)
        z = np.zeros(40)
        folds = _folds(np_rng, 40)
        z[folds == 3] = 1.0  # every other fold trains on fold 3's ones; fold 3 on zeros only
        with pytest.raises(OneClassError):
            fit_folds(x, z, folds, 10, "binomial")

    def test_small_folds_rejected(self, np_rng):
        # Two folds of three rows leave three training rows for three parameters.
        x = _design(np_rng, 6, 3)
        with pytest.raises(ValueError):
            fit_folds(x, np_rng.standard_normal(6), _folds(np_rng, 6, k_folds=2), 2, "gaussian")


class TestMeanFolds:
    """The intercept-only fits from per-fold counts against the engine's
    fits of a column of ones."""

    @staticmethod
    def _data(n, prevalence, family):
        rng = np.random.default_rng(int(n / prevalence))
        z = (rng.random(n) < prevalence).astype(float)
        y = z if family == "binomial" else 1.0 + 2.0 * z + rng.standard_normal(n)
        return y, _folds(rng, n)

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("n", [100, 250, 1000])
    @pytest.mark.parametrize("prevalence", [0.5, 0.2, 0.05])
    def test_matches_the_engine_on_a_column_of_ones(self, family, n, prevalence):
        y, folds = self._data(n, prevalence, family)
        engine = fit_folds(np.ones((n, 1)), y, folds, 10, family)
        got = fit_mean_folds(y, folds, 10, family)
        np.testing.assert_allclose(got.out_of_fold, engine.out_of_fold, rtol=1e-13, atol=0)
        np.testing.assert_allclose(got.refit_coefficients, engine.refit_coefficients, rtol=1e-13, atol=0)
        assert got.refit_coefficients.shape == engine.refit_coefficients.shape == (1,)
        assert got.refit_separated is engine.refit_separated is False
        separated = fold_separated(np.ones((n, 1)), y, folds, family)
        assert not separated.any()
        if family == "binomial":
            # The folds' flags from their counts and sums, as fit_mean_folds forms them.
            counts = n - np.bincount(folds, minlength=10)
            sums = y.sum() - np.bincount(folds, weights=y, minlength=10)
            np.testing.assert_array_equal(_logistic_intercepts(counts, sums)[1], separated)

    def test_separation_rule_matches_the_engine(self):
        # The engine weighs rows by their weights, so a 0 row and a 1 row
        # weighted (count - sum, sum) stand for count rows.  A logit beyond
        # SEPARATION_COEF_BOUND needs a share of positives below 3.1e-7.
        counts = np.array([4e6, 4e6, 1e7, 3e6, 200.0, 90.0])
        sums = np.array([1.0, 4e6 - 1.0, 2.0, 1.0, 3.0, 45.0])
        weights = np.column_stack([counts - sums, sums])
        beta, separated, _ = _fit_stack(np.ones((2, 1)), np.array([0.0, 1.0]), weights, "binomial")
        got = _logistic_intercepts(counts, sums)
        np.testing.assert_array_equal(got[1], separated)
        np.testing.assert_array_equal(separated, [True, True, True, False, False, False])
        np.testing.assert_allclose(got[0], beta[:, 0], rtol=1e-13, atol=1e-15)

    def test_single_class_training_fold_raises_as_the_engine(self):
        y, folds = self._data(100, 0.2, "binomial")
        y[:] = 0.0
        y[folds == 3] = 1.0  # fold 3 trains on zeros only
        with pytest.raises(OneClassError):
            fit_folds(np.ones((100, 1)), y, folds, 10, "binomial")
        with pytest.raises(OneClassError):
            fit_mean_folds(y, folds, 10, "binomial")

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_too_few_training_rows_raise_as_the_engine(self, family):
        # Two folds of one row leave one training row for one parameter.
        y, folds = np.array([0.0, 1.0]), np.array([0, 1])
        with pytest.raises(ValueError, match="more observations than parameters"):
            fit_folds(np.ones((2, 1)), y, folds, 2, family)
        with pytest.raises(ValueError, match="more observations than parameters"):
            fit_mean_folds(y, folds, 2, family)

    def test_non_binary_response_raises_as_the_engine(self):
        y, folds = self._data(100, 0.2, "gaussian")
        with pytest.raises(ValueError, match="0/1"):
            fit_folds(np.ones((100, 1)), y, folds, 10, "binomial")
        with pytest.raises(ValueError, match="0/1"):
            fit_mean_folds(y, folds, 10, "binomial")


def _gathered_grams(design, weights):
    """The gram stack built from two gathered column-pair arrays and two scatters."""
    p = design.shape[1]
    rows, cols = np.tril_indices(p)
    columns = design.T.copy()
    pairs = (columns[rows] * columns[cols]).T
    lower = weights @ pairs
    out = np.empty((weights.shape[0], p, p))
    out[:, rows, cols] = lower
    out[:, cols, rows] = lower
    return out


@pytest.mark.parametrize("p", [1, 4, 10, 14])
def test_weighted_grams_equal_the_gathered_construction(p):
    rng = np.random.default_rng(p)
    design = np.column_stack([np.ones(300), rng.standard_normal((300, p - 1))])
    weights = np.vstack([(rng.random((11, 300)) < 0.9).astype(float), rng.random((2, 300))])
    got = _weighted_grams(design)(weights)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _gathered_grams(design, weights))
    assert np.array_equal(got, got.transpose(0, 2, 1))
