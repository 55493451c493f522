"""Random streams, the Cholesky path, the sample covariance, the logistic
function and the p-values, the last two against SciPy as a reference."""

import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from attbench.errors import NonFiniteEstimateError, NonSpdError, ZeroSeError
from attbench.numeric import (
    Estimate,
    cholesky_factor,
    expit,
    logit,
    pack_stream_id,
    rng_stream,
    sample_covariance,
    solve_from_factor,
    solve_spd_stack,
    substream,
    two_sided_p,
    wald_estimate,
)


class TestRngStream:
    def test_same_coordinates_reproduce_draws(self):
        a = rng_stream(42, 7).standard_normal(1000)
        b = rng_stream(42, 7).standard_normal(1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_stream_ids_decorrelate(self):
        a = rng_stream(42, 1).standard_normal(100_000)
        b = rng_stream(42, 2).standard_normal(100_000)
        assert not np.array_equal(a[:100], b[:100])
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02

    def test_distinct_master_seeds_differ(self):
        a = rng_stream(1, 0).standard_normal(50)
        b = rng_stream(2, 0).standard_normal(50)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            rng_stream(seed)
        with pytest.raises(ValueError, match="stream_id"):
            rng_stream(0, seed)

    def test_substream_matches_packed_id(self):
        packed = pack_stream_id(31, 5, 1, 2)
        direct = rng_stream(9, packed)
        derived = substream(9, cell_code=31, replicate=5, attempt=1, purpose=2)
        np.testing.assert_array_equal(direct.standard_normal(20), derived.standard_normal(20))

    def test_packed_ids_unique_over_small_grid(self):
        seen = set()
        for cell in range(3):
            for rep in range(4):
                for attempt in range(3):
                    for purpose in range(3):
                        seen.add(pack_stream_id(cell, rep, attempt, purpose))
        assert len(seen) == 3 * 4 * 3 * 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cell_code": -1, "replicate": 0, "attempt": 0, "purpose": 0},
            {"cell_code": 0, "replicate": 65536, "attempt": 0, "purpose": 0},
            {"cell_code": 0, "replicate": 0, "attempt": 256, "purpose": 0},
            {"cell_code": 0, "replicate": 0, "attempt": 0, "purpose": 16},
        ],
    )
    def test_packing_range_checks(self, kwargs):
        with pytest.raises(ValueError):
            pack_stream_id(kwargs["cell_code"], kwargs["replicate"], kwargs["attempt"], kwargs["purpose"])


def bernoulli(rng, p):
    """A treatment draw as ``generate_dataset`` makes it: one uniform per unit."""
    return (rng.random(p.size) < p).astype(np.int64)


class TestSampling:
    def test_std_normal_moments(self, rng):
        draws = rng.standard_normal(1_000_000)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.std() - 1.0) < 0.005

    def test_bernoulli_degenerate_probabilities(self, rng):
        assert bernoulli(rng, np.zeros(500)).sum() == 0
        assert bernoulli(rng, np.ones(500)).sum() == 500

    def test_bernoulli_hits_target_rate(self, rng):
        p = np.full(200_000, 0.3)
        draws = bernoulli(rng, p)
        # 6 sigma band around 0.3 for n = 2e5
        assert abs(draws.mean() - 0.3) < 6 * np.sqrt(0.3 * 0.7 / p.size)
        assert set(np.unique(draws)) <= {0, 1}


def _random_spd(np_rng, d):
    b = np_rng.standard_normal((d + 3, d))
    gram = b.T @ b
    return (gram + gram.T) / 2 + 0.5 * np.eye(d)


def _verdicts(stack):
    """Whether :func:`cholesky_factor` accepts each matrix of ``stack``."""
    verdicts = []
    for matrix in stack:
        try:
            cholesky_factor(matrix)
            verdicts.append(True)
        except NonSpdError:
            verdicts.append(False)
    return verdicts


class TestCholesky:
    def test_identity_solve_returns_rhs(self):
        rhs = np.array([3.0, -1.0, 2.5])
        out = solve_from_factor(cholesky_factor(np.eye(3)), rhs)
        np.testing.assert_allclose(out, rhs, atol=1e-14)

    def test_factor_reconstructs_matrix(self, np_rng):
        for _ in range(20):
            d = int(np_rng.integers(1, 8))
            mat = _random_spd(np_rng, d)
            lower = cholesky_factor(mat)
            np.testing.assert_allclose(lower @ lower.T, mat, atol=1e-10)
            assert np.allclose(lower, np.tril(lower))

    def test_solve_matches_dense_oracle(self, np_rng):
        for _ in range(20):
            d = int(np_rng.integers(1, 8))
            mat = _random_spd(np_rng, d)
            rhs = np_rng.standard_normal(d)
            expected = np.linalg.solve(mat, rhs)
            np.testing.assert_allclose(solve_from_factor(cholesky_factor(mat), rhs), expected, atol=1e-9)

    def test_indefinite_matrix_raises(self):
        with pytest.raises(NonSpdError):
            cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_tiny_pivot_raises(self):
        with pytest.raises(NonSpdError):
            cholesky_factor(np.array([[1e-13]]))

    def test_stacked_solve_flags_what_cholesky_factor_rejects(self, np_rng):
        spd = [(lambda a: a @ a.T + 3 * np.eye(3))(np_rng.standard_normal((3, 3))) for _ in range(3)]
        indefinite = np.diag([1.0, -1.0, 1.0])
        tiny_pivot = np.diag([1.0, 1e-13, 1.0])
        stack = np.stack([spd[0], indefinite, spd[1], tiny_pivot, spd[2]])
        rhs = np_rng.standard_normal((5, 3))
        solutions, ok = solve_spd_stack(stack, rhs)
        np.testing.assert_array_equal(ok, [True, False, True, False, True])
        for matrix, b, x, passed in zip(stack, rhs, solutions, ok):
            if passed:
                expected = solve_from_factor(cholesky_factor(matrix), b)
                np.testing.assert_allclose(x, expected, rtol=1e-12, atol=0)
            else:
                with pytest.raises(NonSpdError):
                    cholesky_factor(matrix)
                np.testing.assert_array_equal(x, 0.0)

    def test_stacked_solve_of_spd_stack(self, np_rng):
        a = np_rng.standard_normal((4, 5, 5))
        stack = a @ a.transpose(0, 2, 1) + np.eye(5)
        rhs = np_rng.standard_normal((4, 5))
        solutions, ok = solve_spd_stack(stack, rhs)
        assert ok.all()
        np.testing.assert_allclose(np.einsum("kij,kj->ki", stack, solutions), rhs, atol=1e-12)

    def test_one_row_stack(self, np_rng):
        matrix = _random_spd(np_rng, 5)
        rhs = np_rng.standard_normal(5)
        solutions, ok = solve_spd_stack(matrix[None], rhs[None])
        assert solutions.shape == (1, 5) and ok.tolist() == [True]
        np.testing.assert_allclose(solutions[0], np.linalg.solve(matrix, rhs), rtol=1e-10, atol=0)

    def test_mixed_stack_follows_cholesky_factor(self, np_rng):
        # hidden_tiny_pivot has no diagonal entry below 1 but a second pivot
        # of 1e-13, so only its factor, not the matrix, shows the failure.
        spd = [_random_spd(np_rng, 3) for _ in range(3)]
        indefinite = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        tiny_pivot = np.diag([1.0, 1e-13, 1.0])
        hidden_tiny_pivot = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-13, 0.0], [0.0, 0.0, 1.0]])
        stack = np.stack([spd[0], indefinite, tiny_pivot, spd[1], hidden_tiny_pivot, spd[2]])
        rhs = np_rng.standard_normal((6, 3))
        before = stack.copy(), rhs.copy()
        solutions, ok = solve_spd_stack(stack, rhs)
        np.testing.assert_array_equal(ok, _verdicts(stack))
        np.testing.assert_array_equal(ok, [True, False, False, True, False, True])
        assert np.array_equal(solutions[~ok], np.zeros((3, 3)))
        np.testing.assert_allclose(solutions[ok], np.linalg.solve(stack[ok], rhs[ok][..., None])[..., 0], rtol=1e-10)
        np.testing.assert_array_equal(stack, before[0])
        np.testing.assert_array_equal(rhs, before[1])

    @staticmethod
    def _indefinite(np_rng, d):
        # One negative eigenvalue behind a full rotation, so no diagonal entry gives it away.
        q = np_rng.standard_normal((d, d))
        return q @ np.diag([1.0] * (d - 1) + [-1.0]) @ q.T

    @pytest.mark.parametrize("failing", [0, 10])
    @pytest.mark.parametrize("p", [4, 10])
    def test_fallback_when_the_stacked_factorization_raises(self, np_rng, p, failing):
        stack = np.stack([_random_spd(np_rng, p) for _ in range(11)])
        stack[failing] = self._indefinite(np_rng, p)
        rhs = np_rng.standard_normal((11, p))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(stack)
        solutions, ok = solve_spd_stack(stack, rhs)
        np.testing.assert_array_equal(ok, _verdicts(stack))
        assert ok.sum() == 10 and not ok[failing]
        np.testing.assert_array_equal(solutions[failing], 0.0)
        for matrix, b, x in zip(stack[ok], rhs[ok], solutions[ok]):
            np.testing.assert_allclose(x, np.linalg.solve(matrix, b), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("p", [4, 10])
    def test_all_failing_stack_gives_zeros(self, np_rng, p):
        stack = np.stack([self._indefinite(np_rng, p) for _ in range(11)])
        solutions, ok = solve_spd_stack(stack, np_rng.standard_normal((11, p)))
        assert ok.dtype == bool and not ok.any()
        assert solutions.shape == (11, p)
        np.testing.assert_array_equal(solutions, 0.0)

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            solve_from_factor(cholesky_factor(np.eye(2)), np.ones(3))


class TestSampleCovariance:
    def test_matches_two_pass_oracle(self, np_rng):
        x = np_rng.standard_normal((40, 3))
        centered = x - x.mean(axis=0)
        expected = centered.T @ centered / 39
        got = sample_covariance(x)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert got.shape == (3, 3)

    def test_result_is_exactly_symmetric(self, np_rng):
        for _ in range(50):
            x = np_rng.standard_normal((int(np_rng.integers(2, 30)), int(np_rng.integers(1, 6))))
            cov = sample_covariance(x)
            assert np.array_equal(cov, cov.T)

    def test_row_permutation_invariance(self, np_rng):
        x = np_rng.standard_normal((25, 4))
        perm = np_rng.permutation(25)
        np.testing.assert_allclose(
            sample_covariance(x), sample_covariance(x[perm]), atol=1e-12
        )

    def test_constant_column_raises(self, np_rng):
        # A zero-variance covariate reaches no whitening: its pivot fails the floor.
        for constant in (1.0, 0.1, -3.7):
            x = np.column_stack([np_rng.standard_normal(10), np.full(10, constant), np.arange(10.0)])
            with pytest.raises(NonSpdError):
                cholesky_factor(sample_covariance(x))


def _ulps(values, reference):
    return np.abs(values - reference) / np.spacing(np.abs(reference))


class TestLogistic:
    GRID = np.linspace(-708.0, 708.0, 400_001)

    def test_expit_within_two_ulp_of_an_extended_precision_reference(self):
        if np.finfo(np.longdouble).nmant < 63:
            pytest.skip("long double is no wider than double here")
        reference = (1.0 / (1.0 + np.exp(-self.GRID.astype(np.longdouble)))).astype(np.float64)
        assert _ulps(expit(self.GRID), reference).max() <= 2.0

    def test_expit_within_four_ulp_of_scipy(self):
        # Each is within 2 ulp of the exact value, on either side of it.
        assert _ulps(expit(self.GRID), special.expit(self.GRID)).max() <= 4.0

    def test_expit_is_the_plain_formula_in_place(self):
        x = np.linspace(-800.0, 40.0, 1001)
        with np.errstate(over="ignore"):
            expected = 1.0 / (1.0 + np.exp(-x))
        buf = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expit(buf, out=buf) is buf
        assert np.array_equal(buf, expected)
        assert buf[0] == 0.0 and expit(np.array([np.inf]))[0] == 1.0 and np.isnan(expit(np.array([np.nan]))[0])

    def test_expit_is_monotone_across_consecutive_doubles(self, np_rng):
        # Runs of 2**12 consecutive doubles from 1024 starting points in
        # [-75, 75]: the sigmoid of each is at most the next one's.
        starts = np_rng.uniform(-75.0, 75.0, 1024).view(np.int64)
        bits = (starts[:, None] + np.arange(2**12)).ravel()
        # A negative double's bit pattern grows as the value falls.
        x = np.sort(bits.view(np.float64).reshape(1024, -1), axis=1)
        assert np.all(np.diff(x, axis=1) > 0.0)
        assert np.all(np.diff(expit(x), axis=1) >= 0.0)

    def test_logit_matches_scipy(self):
        p = np.linspace(1e-12, 1.0 - 1e-12, 200_001)
        ours, scipys = logit(p), special.logit(p)
        # SciPy switches to log1p near one half, where the plain formula's
        # error is absolute, about an ulp of 1.
        away = (p < 0.3) | (p > 0.65)
        assert _ulps(ours[away], scipys[away]).max() <= 2.0
        assert np.abs(ours - scipys).max() <= 2.0 * np.spacing(1.0)
        assert np.array_equal(expit(logit(np.array([0.5]))), [0.5])


class TestTwoSidedP:
    DFS = [*range(1, 41), 45, 47, 49, 50, 60, 99, 100, 145, 245, 250, 495, 500, 995, 999, 1000]
    STATS = [*np.linspace(0.0, 40.0, 161), 1e-3, 0.05, 0.3, 0.7, 1.7, 1.96, 2.5, 2.99, 3.01, 3.5, 4.5]

    def test_t_tail_matches_scipy(self):
        worst, smallest = 0.0, 1.0
        for df in self.DFS:
            for t in self.STATS:
                expected = 2.0 * stats.t.sf(t, df)
                got = two_sided_p(-t, df)
                assert got == two_sided_p(t, df)
                if expected == 0.0:
                    assert got < 1e-300
                    continue
                worst = max(worst, abs(got / expected - 1.0))
                smallest = min(smallest, expected)
        assert worst <= 1e-11
        assert smallest < 1e-200

    def test_t_tail_in_the_p_values_near_alpha(self, np_rng):
        # Random statistics near the 0.05 threshold, where a p-value decides
        # a type-I error.
        for df in np_rng.integers(1, 1001, 200).tolist():
            t = stats.t.isf(0.025, df) * np_rng.uniform(0.9, 1.1)
            assert two_sided_p(t, df) == pytest.approx(2.0 * stats.t.sf(t, df), rel=1e-11)

    def test_normal_tail_matches_scipy(self):
        z = np.linspace(0.0, 37.0, 3701)
        expected = 2.0 * stats.norm.sf(z)
        got = np.array([two_sided_p(v) for v in -z])
        assert expected.min() < 1e-290
        assert np.abs(got / expected - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("df", [None, 1, 2, 7, 30, 995])
    def test_edges_as_scipy(self, df):
        assert math.isnan(two_sided_p(float("nan"), df))
        assert two_sided_p(float("inf"), df) == 0.0
        assert two_sided_p(float("-inf"), df) == 0.0
        # Finite, but its square overflows; SciPy's tail is 0 there too.
        assert two_sided_p(1e160, df) == 0.0
        assert two_sided_p(0.0, df) == 1.0
        assert two_sided_p(np.float64(2.0), df) == two_sided_p(2.0, df)


class TestWaldEstimate:
    @pytest.mark.parametrize("df", [None, 37])
    def test_is_the_estimate_with_the_p_value_of_att_over_se(self, df):
        for att, se in ((0.4, 0.25), (-1.3, 0.5), (0.0, 2.0)):
            assert wald_estimate(att, se, df) == Estimate(att, se, two_sided_p(att / se, df))

    def test_zero_se_raises(self):
        for df in (None, 9):
            with pytest.raises(ZeroSeError):
                wald_estimate(1.0, 0.0, df)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_att_or_se_raises(self, value):
        for df in (None, 9):
            with pytest.raises(NonFiniteEstimateError):
                wald_estimate(value, 0.5, df)
            with pytest.raises(NonFiniteEstimateError):
                wald_estimate(0.5, value, df)
