"""Stacked ensemble: simplex weights, CV dominance, fold handling."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from attbench import superlearner
from attbench.errors import OneClassError
from attbench.glm import _fit_stack, fit_folds, fit_logistic, fit_mean_folds
from attbench.numeric import rng_stream
from attbench.propensity import estimate_ps
from attbench.superlearner import (
    K_FOLDS,
    LEARNER_KINDS,
    EnsembleFit,
    _assign_folds,
    _learner_design,
    expand_degree2,
    fit_superlearner,
    predict_ensemble,
    simplex_weights,
)

from naive_oracles import naive_gaussian_library, naive_simplex_weights


def _raises_one_class(y, folds, family):
    """Whether ``fit_mean_folds`` rejects ``folds`` with :class:`OneClassError`,
    the error on which ``fit_superlearner`` refolds."""
    try:
        fit_mean_folds(y, folds, K_FOLDS, family)
    except OneClassError:
        return True
    return False


def fold_assignment(y, family, seed):
    """The folds ``fit_superlearner`` draws from ``rng_stream(seed)``, refold included."""
    rng = rng_stream(seed)
    folds = _assign_folds(y.size, K_FOLDS, rng)
    if _raises_one_class(y, folds, family):
        folds = _assign_folds(y.size, K_FOLDS, rng)
    return folds


def level_one(fit, x, y, seed):
    """The out-of-fold predictions ``fit_superlearner`` stacked for ``fit``,
    one column per learner, rebuilt from the folds it drew from ``rng_stream(seed)``."""
    folds = fold_assignment(y, fit.family, seed)
    columns = [fit_mean_folds(y, folds, K_FOLDS, fit.family).out_of_fold]
    for kind in LEARNER_KINDS[1:]:
        columns.append(fit_folds(_learner_design(kind, x), y, folds, K_FOLDS, fit.family).out_of_fold)
    return np.column_stack(columns)


def learner_predictions(fit, k, x):
    """Learner ``k``'s refit prediction on ``x``: the ensemble's, with all weight on it."""
    return predict_ensemble(replace(fit, weights=np.eye(len(LEARNER_KINDS))[k]), x)


class TestDegree2Expansion:
    def test_feature_count(self, np_rng):
        for d in (1, 2, 3, 5):
            x = np_rng.standard_normal((7, d))
            assert expand_degree2(x).shape == (7, 2 * d + d * (d - 1) // 2)

    def test_column_content(self):
        x = np.array([[2.0, 3.0, 4.0]])
        expanded = expand_degree2(x)
        np.testing.assert_allclose(
            expanded[0], [2, 3, 4, 4, 9, 16, 6, 8, 12]
        )

    def test_squares_of_01_columns_omitted(self, np_rng):
        # Columns: continuous, 0/1, all ones, continuous.  Only the two
        # continuous columns keep their squares; every product stays.
        n = 30
        x = np.column_stack(
            [np_rng.standard_normal(n), (np_rng.random(n) < 0.5).astype(float), np.ones(n), np_rng.standard_normal(n)]
        )
        i, j = np.triu_indices(4, 1)
        expected = np.column_stack([x, x[:, 0] ** 2, x[:, 3] ** 2, x[:, i] * x[:, j]])
        np.testing.assert_array_equal(expand_degree2(x), expected)


class TestSimplexWeights:
    def test_single_column_gets_unit_weight(self, np_rng):
        z = np_rng.standard_normal((30, 1))
        w, obj = simplex_weights(z, z[:, 0])
        assert w == pytest.approx([1.0])
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_perfect_column_dominates(self, np_rng):
        y = np_rng.standard_normal(50)
        z = np.column_stack([y, y + np_rng.standard_normal(50)])
        w, obj = simplex_weights(z, y)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-9)
        assert obj == 0.0

    def test_valid_simplex_point(self, np_rng):
        for _ in range(30):
            k = int(np_rng.integers(1, 5))
            z = np_rng.standard_normal((40, k))
            w, _ = simplex_weights(z, np_rng.standard_normal(40))
            assert np.all(w >= 0)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_constrained_optimizer(self, np_rng):
        for _ in range(10):
            z = np_rng.standard_normal((60, 3))
            y = np_rng.standard_normal(60)
            w, obj = simplex_weights(z, y)

            def objective(v):
                r = z @ v - y
                return float(r @ r) / 60

            oracle = minimize(
                objective,
                np.full(3, 1 / 3),
                method="SLSQP",
                bounds=[(0, 1)] * 3,
                constraints=[{"type": "eq", "fun": lambda v: v.sum() - 1}],
            )
            assert obj <= oracle.fun + 1e-8
            assert obj == pytest.approx(objective(w), abs=1e-12)

    def test_noise_column_never_hurts(self, np_rng):
        for _ in range(20):
            z = np_rng.standard_normal((40, 2))
            y = np_rng.standard_normal(40)
            _, obj_small = simplex_weights(z, y)
            noisy = np.column_stack([z, np_rng.standard_normal(40)])
            _, obj_big = simplex_weights(noisy, y)
            assert obj_big <= obj_small + 1e-12

    def test_duplicated_column_leaves_predictions_invariant(self, np_rng):
        z = np_rng.standard_normal((50, 2))
        y = 0.7 * z[:, 0] + 0.3 * z[:, 1] + 0.1 * np_rng.standard_normal(50)
        w_base, obj_base = simplex_weights(z, y)
        dup = np.column_stack([z, z[:, 1]])
        w_dup, obj_dup = simplex_weights(dup, y)
        assert obj_dup == pytest.approx(obj_base, abs=1e-10)
        np.testing.assert_allclose(dup @ w_dup, z @ w_base, atol=1e-8)


class TestSimplexAgainstLoop:
    """The batched support solve against one ``lstsq`` per support."""

    @staticmethod
    def _level_one(np_rng, n, k):
        # Out-of-fold probabilities of learners of varying quality, and a
        # response that is 0/1 or a noisy mixture of the columns.
        truth = np_rng.random(n)
        z = np.clip(truth[:, None] + np_rng.normal(0.0, np_rng.uniform(0.05, 0.4, k), (n, k)), 0.01, 0.99)
        if np_rng.random() < 0.5:
            return z, (np_rng.random(n) < truth).astype(float)
        return z, z @ np_rng.dirichlet(np.ones(k)) + 0.1 * np_rng.standard_normal(n)

    @pytest.mark.parametrize("n", [100, 250, 1000])
    def test_weights_and_objective_match_loop(self, np_rng, n):
        for k in (1, 2, 3, 4):
            for _ in range(10):
                z, y = self._level_one(np_rng, n, k)
                w, obj = simplex_weights(z, y)
                w_loop, obj_loop = naive_simplex_weights(z, y)
                np.testing.assert_allclose(w, w_loop, rtol=0, atol=1e-12)
                assert obj == pytest.approx(obj_loop, rel=0, abs=1e-12)

    @pytest.mark.parametrize("n", [100, 250, 1000])
    def test_duplicated_learner_matches_loop(self, np_rng, n):
        # Every support holding both copies has a singular KKT system; it
        # ties with the support holding one copy, which the tie rule keeps.
        for k in (2, 3):
            for _ in range(10):
                z, y = self._level_one(np_rng, n, k)
                dup = np.column_stack([z, z[:, -1]])
                w, obj = simplex_weights(dup, y)
                w_loop, obj_loop = naive_simplex_weights(dup, y)
                assert obj == pytest.approx(obj_loop, rel=0, abs=1e-12)
                np.testing.assert_allclose(dup @ w, dup @ w_loop, rtol=0, atol=1e-12)
                np.testing.assert_allclose(w, w_loop, rtol=0, atol=1e-12)

    def test_vertex_objective_equals_learner_risk(self, np_rng):
        # The risk of a single learner is computed as fit_superlearner's
        # cv_risks are, so a winning vertex reproduces it bit for bit.
        # Learners 1 and 2 are learner 0 shifted up; its errors have mean zero.
        y = np_rng.standard_normal(200)
        noise = 0.1 * np_rng.standard_normal(200)
        z = (y + noise - noise.mean())[:, None] + np.array([0.0, 0.5, 1.0])
        w, obj = simplex_weights(z, y)
        np.testing.assert_array_equal(w, [1.0, 0.0, 0.0])
        assert obj == np.mean((z - y[:, None]) ** 2, axis=0)[0]


def _folds_trainable_loop(y, folds, k_folds):
    """Every training fold holds both classes, checked one fold at a time."""
    for f in range(k_folds):
        train = y[folds != f]
        if train.min() == train.max():
            return False
    return True


class TestFoldsTrainable:
    def test_matches_the_per_fold_loop_on_random_folds(self):
        verdicts = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 60))
            y = (rng.random(n) < rng.uniform(0.02, 0.2)).astype(float)
            if y.max() == 0.0:
                continue
            folds = _assign_folds(n, 10, rng_stream(seed))
            expected = _folds_trainable_loop(y, folds, 10)
            assert _raises_one_class(y, folds, "binomial") is not expected
            assert _raises_one_class(y, folds, "gaussian") is False
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_single_class_training_fold(self):
        folds = _assign_folds(40, 10, rng_stream(3))
        y = (folds == 7).astype(float)  # fold 7 trains on zeros only
        assert _folds_trainable_loop(y, folds, 10) is False
        assert _raises_one_class(y, folds, "binomial") is True
        assert _raises_one_class(y, folds, "gaussian") is False
        y[folds == 2] = 1.0  # now every training fold holds both classes
        assert _folds_trainable_loop(y, folds, 10) is True
        assert _raises_one_class(y, folds, "binomial") is False


class TestFitSuperlearner:
    def test_cv_objective_dominates_every_learner(self, np_rng):
        for trial in range(5):
            x = np_rng.standard_normal((120, 3))
            y = x[:, 0] + 0.5 * x[:, 1] ** 2 + np_rng.standard_normal(120)
            fit = fit_superlearner(x, y, "gaussian", rng=rng_stream(trial))
            z = level_one(fit, x, y, trial)
            weights, objective = simplex_weights(z, y)
            np.testing.assert_array_equal(weights, fit.weights)
            assert objective <= np.mean((z - y[:, None]) ** 2, axis=0).min() + 1e-10

    def test_quadratic_truth_prefers_degree2(self, np_rng):
        x = np_rng.standard_normal((400, 2))
        y = 1.75 * x[:, 0] ** 2 + 0.3 * np_rng.standard_normal(400)
        fit = fit_superlearner(x, y, "gaussian", rng=rng_stream(3))
        z = level_one(fit, x, y, 3)
        _, objective = simplex_weights(z, y)
        main_effects_risk = np.mean((z[:, 1] - y) ** 2)
        assert objective <= main_effects_risk + 1e-10
        assert fit.weights[2] > 0.5

    def test_mean_only_learner_predicts_grand_mean(self, np_rng):
        x = np_rng.standard_normal((60, 2))
        y = np_rng.standard_normal(60) + 4.0
        fit = fit_superlearner(x, y, "gaussian", rng=rng_stream(1))
        preds = learner_predictions(fit, 0, x)
        np.testing.assert_allclose(preds, np.full(60, y.mean()), atol=1e-10)

    def test_binary_feature_matches_lstsq_oracle(self, np_rng):
        # The outcome ensemble's features end in the binary treatment z,
        # whose square equals z: the degree-2 learner must leave that square out.
        x = np_rng.standard_normal((90, 3))
        z = (np_rng.random(90) < 0.4).astype(float)
        y = x[:, 0] + 0.5 * x[:, 1] ** 2 + z + np_rng.standard_normal(90)
        features = np.column_stack([x, z])
        fit = fit_superlearner(features, y, "gaussian", rng=rng_stream(5))
        risks, predictions = naive_gaussian_library(features, y, fold_assignment(y, "gaussian", 5), binary_column=3)
        level_one_risks = np.mean((level_one(fit, features, y, 5) - y[:, None]) ** 2, axis=0)
        np.testing.assert_allclose(level_one_risks, risks, rtol=0, atol=1e-9)
        for k, expected in enumerate(predictions):
            np.testing.assert_allclose(learner_predictions(fit, k, features), expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed", [2, 23])
    def test_refits_match_single_fits(self, seed):
        # Scenario 2's quadratic treatment logit, sharpened: at seed 23 six
        # training folds of the degree-2 learner separate but its refit does
        # not; at seed 2 the refit separates too.  The ensemble's flag, like
        # estimate_ps's, follows the refits alone.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((100, 3))
        logit = 1.25 * x[:, 0] + x[:, 1] + 0.5 * x[:, 0] ** 2 + 0.5 * x[:, 1] ** 2 + 0.75 * x[:, 0] * x[:, 1]
        z = (rng.random(100) < expit(3.0 * (logit - 1.0))).astype(float)
        fit = fit_superlearner(x, z, "binomial", rng=rng_stream(seed))
        singles = []
        for kind, coefficients in zip(LEARNER_KINDS, fit.coefficients):
            design = _learner_design(kind, x)
            single = fit_logistic(design, z)
            np.testing.assert_allclose(coefficients, single.coefficients, rtol=0, atol=1e-10)
            singles.append(single.separated)
        assert singles == [False, False, seed == 2]
        assert fit.separated == any(singles)
        train = (fold_assignment(z, "binomial", seed) != np.arange(11)[:, None]).astype(np.float64)
        assert _fit_stack(design, z, train, "binomial")[1][:10].sum() == (10 if seed == 2 else 6)
        assert estimate_ps(x, z, "ensemble", rng_stream(seed)).separated == (seed == 2)

    def test_deterministic_given_stream(self, np_rng):
        x = np_rng.standard_normal((80, 3))
        y = x[:, 0] + np_rng.standard_normal(80)
        a = fit_superlearner(x, y, "gaussian", rng=rng_stream(7))
        b = fit_superlearner(x, y, "gaussian", rng=rng_stream(7))
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(predict_ensemble(a, x), predict_ensemble(b, x))
        assert a.separated == b.separated
        for ca, cb in zip(a.coefficients, b.coefficients, strict=True):
            np.testing.assert_array_equal(ca, cb)

    def test_binomial_predictions_stay_inside_unit_interval(self, np_rng):
        x = np_rng.standard_normal((150, 3))
        z = (np_rng.random(150) < 0.3).astype(float)
        fit = fit_superlearner(x, z, "binomial", rng=rng_stream(2))
        preds = predict_ensemble(fit, x)
        assert preds.min() > 0.0
        assert preds.max() < 1.0

    def test_single_class_raises(self, np_rng):
        x = np_rng.standard_normal((40, 2))
        with pytest.raises(OneClassError):
            fit_superlearner(x, np.zeros(40), "binomial", rng=rng_stream(0))

    def test_lone_positive_fails_even_after_refold(self, np_rng):
        # One positive unit leaves its training folds single-class under
        # every possible fold assignment, so the refold cannot help.
        x = np_rng.standard_normal((24, 2))
        z = np.zeros(24)
        z[5] = 1.0
        with pytest.raises(OneClassError):
            fit_superlearner(x, z, "binomial", rng=rng_stream(0))

    def test_library_is_the_learner_table(self, np_rng):
        x = np_rng.standard_normal((60, 2))
        fit = fit_superlearner(x, np_rng.standard_normal(60), "gaussian", rng=rng_stream(0))
        widths = [_learner_design(kind, x).shape[1] for kind in LEARNER_KINDS]
        assert [coefficients.size for coefficients in fit.coefficients] == widths
        assert fit.family == "gaussian"
        assert fit.separated is False

    def test_learners_fit_prefixes_of_one_design(self, np_rng, monkeypatch):
        # The outcome ensemble's features: three continuous covariates and a
        # 0/1 treatment, whose square the degree-2 design leaves out.
        n, d = 90, 4
        features = np.column_stack([np_rng.standard_normal((n, 3)), (np_rng.random(n) < 0.4).astype(float)])
        y = features[:, 0] + 0.5 * features[:, 1] ** 2 + features[:, 3] + np_rng.standard_normal(n)
        designs = [_learner_design(kind, features) for kind in LEARNER_KINDS]
        widest = designs[-1]
        assert widest.shape[1] == 1 + d + (d - 1) + d * (d - 1) // 2
        for design in designs:
            assert design.flags.f_contiguous
            np.testing.assert_array_equal(design, widest[:, : design.shape[1]])

        stacked = []

        def capture(z, response):
            stacked.append(z)
            return simplex_weights(z, response)

        monkeypatch.setattr(superlearner, "simplex_weights", capture)
        fit = fit_superlearner(features, y, "gaussian", rng=rng_stream(5))
        assert [c.size for c in fit.coefficients] == [1, 1 + d, widest.shape[1]]
        folds = fold_assignment(y, "gaussian", 5)
        expected = [fit_mean_folds(y, folds, K_FOLDS, "gaussian").out_of_fold]
        for coefficients in fit.coefficients[1:]:
            expected.append(fit_folds(widest[:, : coefficients.size], y, folds, K_FOLDS, "gaussian").out_of_fold)
        (z,) = stacked
        for k, column in enumerate(expected):
            assert np.array_equal(z[:, k], column)

    def test_predict_rejects_covariates_misaligned_with_the_fit(self, np_rng):
        # A continuous column where the fit saw a 0/1 one gives the degree-2
        # design one more column than the degree-2 learner has coefficients.
        n = 120
        x = np_rng.standard_normal((n, 2))
        z = (np_rng.random(n) < 0.5).astype(float)
        y = x[:, 0] ** 2 + x[:, 0] * z + 0.1 * np_rng.standard_normal(n)
        fit = fit_superlearner(np.column_stack([x, z]), y, "gaussian", rng=rng_stream(4))
        assert fit.weights[2] > 0.0
        predict_ensemble(fit, np.column_stack([x, np.ones(n)]))
        with pytest.raises(ValueError, match="glm_degree2 design"):
            predict_ensemble(fit, np.column_stack([x, np_rng.standard_normal(n)]))

    def test_unknown_family_rejected(self, np_rng):
        x = np_rng.standard_normal((60, 2))
        with pytest.raises(ValueError, match="unknown family"):
            fit_superlearner(x, np_rng.standard_normal(60), "poisson", rng=rng_stream(0))
