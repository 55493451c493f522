"""Propensity estimation plus the trim/truncate split."""

import numpy as np
import pytest
from scipy.special import expit

from attbench.errors import AllTrimmedError, OneClassError
from attbench.glm import IRLS_SCORE_TOL, fit_logistic
from attbench.numeric import RngStream
from attbench.propensity import (
    PsVector,
    estimate_ps,
    trim_ps,
    truncate_ps,
    truncation_bound,
)


def _ps(values, kept=None):
    values = np.asarray(values, dtype=float)
    if kept is None:
        kept = np.ones(values.size, dtype=bool)
    return PsVector(values, kept)


def _cohort(np_rng, n=300):
    x = np_rng.standard_normal((n, 3))
    z = (np_rng.random(n) < expit(-1 + x[:, 0])).astype(np.int64)
    return x, z


class TestPsVector:
    def test_rejects_boundary_values(self):
        with pytest.raises(ValueError):
            _ps([0.5, 1.0])
        with pytest.raises(ValueError):
            _ps([0.0, 0.5])

    def test_rejects_mask_length_mismatch(self):
        with pytest.raises(ValueError):
            PsVector(np.array([0.5]), np.array([True, False]))

    def test_rejects_malformed_score_basis(self):
        values = np.array([0.4, 0.6])
        kept = np.ones(2, dtype=bool)
        with pytest.raises(ValueError, match="one row per unit"):
            PsVector(values, kept, False, np.zeros(2))
        with pytest.raises(ValueError, match="one row per unit"):
            PsVector(values, kept, False, np.zeros((3, 2)))


class TestEstimatePs:
    def test_logistic_matches_glm_oracle(self, np_rng):
        x, z = _cohort(np_rng)
        ps = estimate_ps(x, z, "logistic")
        design = np.column_stack([np.ones(len(z)), x])
        oracle = fit_logistic(design, z.astype(float)).fitted_probabilities
        np.testing.assert_allclose(ps.values, np.clip(oracle, 1e-8, 1 - 1e-8))
        assert ps.kept_mask.all()

    def test_ensemble_source_inside_unit_interval(self, np_rng):
        x, z = _cohort(np_rng, n=150)
        ps = estimate_ps(x, z, "ensemble", rng=RngStream(5))
        assert ps.values.min() > 0.0
        assert ps.values.max() < 1.0

    def test_single_class_raises(self, np_rng):
        x = np_rng.standard_normal((50, 2))
        with pytest.raises(OneClassError):
            estimate_ps(x, np.zeros(50, dtype=int), "logistic")

    def test_unknown_method_rejected(self, np_rng):
        x, z = _cohort(np_rng, n=60)
        with pytest.raises(ValueError):
            estimate_ps(x, z, "forest")

    def test_logistic_score_basis_columns_sum_to_zero(self, np_rng):
        # The basis rows are the per-unit score contributions of the
        # fitted model, so at the optimum each column sums to the
        # solver's score tolerance at worst.
        x, z = _cohort(np_rng)
        ps = estimate_ps(x, z, "logistic")
        assert ps.score_basis is not None
        assert ps.score_basis.shape == (len(z), x.shape[1] + 1)
        assert np.max(np.abs(ps.score_basis.sum(axis=0))) <= IRLS_SCORE_TOL

    def test_ensemble_carries_no_score_basis(self, np_rng):
        x, z = _cohort(np_rng, n=150)
        assert estimate_ps(x, z, "ensemble", rng=RngStream(5)).score_basis is None


class TestTrim:
    def test_drops_only_outside_band(self):
        trimmed = trim_ps(_ps([0.01, 0.5, 0.99]), delta=0.05)
        np.testing.assert_array_equal(trimmed.kept_mask, [False, True, False])
        np.testing.assert_array_equal(trimmed.values, [0.01, 0.5, 0.99])
        assert trimmed.n_dropped == 2

    def test_boundary_value_is_kept(self):
        trimmed = trim_ps(_ps([0.05, 0.95, 0.049]), delta=0.05)
        np.testing.assert_array_equal(trimmed.kept_mask, [True, True, False])

    def test_score_basis_survives_trim_and_truncate(self, np_rng):
        x, z = _cohort(np_rng)
        ps = estimate_ps(x, z, "logistic")
        trimmed = trim_ps(ps, delta=0.05)
        np.testing.assert_array_equal(trimmed.score_basis, ps.score_basis)
        truncated = truncate_ps(ps, len(z))
        np.testing.assert_array_equal(truncated.score_basis, ps.score_basis)

    def test_idempotent(self):
        once = trim_ps(_ps([0.02, 0.3, 0.8, 0.97]))
        twice = trim_ps(once)
        np.testing.assert_array_equal(once.kept_mask, twice.kept_mask)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_everything_outside_raises(self):
        with pytest.raises(AllTrimmedError):
            trim_ps(_ps([0.001, 0.999]), delta=0.05)

    def test_delta_range_checked(self):
        with pytest.raises(ValueError):
            trim_ps(_ps([0.5]), delta=0.5)
        with pytest.raises(ValueError):
            trim_ps(_ps([0.5]), delta=-0.01)


class TestTruncate:
    def test_bound_at_n_1000(self):
        assert truncation_bound(1000) == pytest.approx(5 / (np.sqrt(1000) * np.log(1000)))
        assert truncation_bound(1000) == pytest.approx(0.02289, abs=5e-6)

    def test_upper_bound_at_n_500(self):
        assert 1 - truncation_bound(500) == pytest.approx(0.96402, abs=5e-6)

    def test_clamps_without_dropping(self):
        ps = _ps([0.001, 0.4, 0.999])
        truncated = truncate_ps(ps, 1000)
        bound = truncation_bound(1000)
        np.testing.assert_array_equal(truncated.kept_mask, ps.kept_mask)
        assert truncated.values[0] == pytest.approx(bound)
        assert truncated.values[1] == pytest.approx(0.4)
        assert truncated.values[2] == pytest.approx(1 - bound)

    def test_interior_values_untouched(self, np_rng):
        values = np_rng.uniform(0.1, 0.9, size=50)
        truncated = truncate_ps(_ps(values), 1000)
        np.testing.assert_array_equal(truncated.values, values)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            truncation_bound(7)

    def test_band_must_be_nonempty(self):
        # 5/(sqrt(n) ln n) only drops below 0.5 from n = 15 on.
        with pytest.raises(ValueError):
            truncation_bound(14)
        assert truncation_bound(15) < 0.5
