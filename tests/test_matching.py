"""Greedy matching, coarsened strata, and paired-t estimation."""

import numpy as np
import pytest
from scipy import stats

from attbench.dgp import CellConfig, generate_replicate
from attbench.errors import (
    NoMatchesError,
    NonSpdError,
    TooFewPairsError,
    ZeroSeError,
)
from attbench.harness import oracle_intercepts
from attbench import matching
from attbench.matching import (
    MatchSet,
    caliper_block,
    cem_att,
    cem_match,
    matched_att,
    mdm_match,
    psm_match,
)
from attbench.propensity import estimate_ps

from naive_oracles import (
    mahalanobis_distance,
    match_tuples,
    naive_bin_signatures,
    naive_cem_differences,
    naive_cem_retained,
    naive_matched_differences,
    naive_mdm,
    naive_paired_t,
    naive_psm,
    row_gather_distances,
)


def psm(values, z, ratio=1) -> MatchSet:
    """PSM on scores ``values`` through their caliper block, as the harness runs it."""
    return psm_match(caliper_block(np.asarray(values, dtype=np.float64), z), ratio)


def mdm(x, z, values) -> MatchSet:
    """MDM on covariates ``x`` through the caliper block of scores ``values``."""
    return mdm_match(x, caliper_block(np.asarray(values, dtype=np.float64), z))


def match_set(pairs, discarded=(), ratio=1) -> MatchSet:
    """A :class:`MatchSet` from ``(treated, controls)`` tuples, rows padded to ``ratio`` controls."""
    rows = [(t, *cs) + (-1,) * (ratio - len(cs)) for t, cs in pairs]
    return MatchSet(np.array(rows, dtype=np.intp).reshape(-1, 1 + ratio), np.array(discarded, dtype=np.intp))


def check_match_contract(matches, z, ratio):
    """Raise ``AssertionError`` unless ``matches`` keeps the :class:`MatchSet`
    contract for treatment ``z`` and at most ``ratio`` controls a unit."""
    pairs, discarded = matches.pairs, matches.discarded_treated
    assert pairs.ndim == 2 and pairs.shape[1] == 1 + ratio and pairs.shape[0] >= 1
    # Each treated index once across the two, and together every treated unit.
    assert np.array_equal(np.sort(np.concatenate([pairs[:, 0], discarded])), np.flatnonzero(z == 1))
    controls = pairs[:, 1:]
    found = controls >= 0
    # One to ratio controls a row, with -1 only after the last.
    assert np.all(found | (controls == -1))
    assert found[:, 0].all()
    assert not np.any(~found[:, :-1] & found[:, 1:])
    used = controls[found]
    assert np.all(z[used] == 0)
    assert np.unique(used).size == used.size


def small_instances(np_rng, trials):
    """Random ``(x, z, ps values)`` of 5-12 units with both arms present."""
    for _ in range(trials):
        n = int(np_rng.integers(5, 13))
        z = np.zeros(n, dtype=np.int64)
        z[np_rng.choice(n, size=int(np_rng.integers(1, n - 1)), replace=False)] = 1
        yield np_rng.standard_normal((n, 2)), z, np_rng.uniform(0.05, 0.95, size=n)


class TestMatchSet:
    """The contract of the greedy walk's output, and the check that holds it to it."""

    def test_reused_control_rejected(self):
        with pytest.raises(AssertionError):
            check_match_contract(match_set(((0, (2,)), (1, (2,)))), np.array([1, 1, 0, 0]), 1)

    def test_duplicate_treated_rejected(self):
        with pytest.raises(AssertionError):
            check_match_contract(match_set(((0, (2,)), (0, (3,)))), np.array([1, 1, 0, 0]), 1)

    def test_too_many_controls_rejected(self):
        z = np.array([1, 0, 0])
        with pytest.raises(AssertionError):
            check_match_contract(match_set(((0, (1, 2)),), ratio=2), z, 1)
        with pytest.raises(AssertionError):
            check_match_contract(MatchSet(np.array([[0, -1]]), np.array([], dtype=np.intp)), z, 1)
        # A pad before a control.
        with pytest.raises(AssertionError):
            check_match_contract(MatchSet(np.array([[0, 1, -1, 2]]), np.array([], dtype=np.intp)), z, 3)
        check_match_contract(MatchSet(np.array([[0, 1, 2, -1]]), np.array([], dtype=np.intp)), z, 3)

    def test_matched_and_discarded_overlap_rejected(self):
        with pytest.raises(AssertionError):
            check_match_contract(match_set(((0, (1,)),), (0,)), np.array([1, 0]), 1)

    def test_n_pairs(self):
        # One row per matched treated unit; the benchmark's trace counts them as len(pairs).
        z = np.array([1, 1, 0])
        matches = psm([0.6, 0.01, 0.595], z)
        check_match_contract(matches, z, 1)
        assert len(matches.pairs) == 1
        assert len(matches.pairs) + len(matches.discarded_treated) == 2

    def test_walk_output_keeps_contract_on_small_instances(self, np_rng):
        checked = 0
        for x, z, values in small_instances(np_rng, 300):
            for ratio, match in ((1, lambda: psm(values, z, 1)), (2, lambda: psm(values, z, 2)),
                                 (1, lambda: mdm(x, z, values))):
                try:
                    matches = match()
                except NoMatchesError:
                    continue
                check_match_contract(matches, z, ratio)
                checked += 1
        assert checked > 600


class TestPsmMatch:
    def test_single_treated_takes_equal_ps_control(self):
        matches = psm([0.5, 0.5, 0.9], np.array([1, 0, 0]))
        assert match_tuples(matches) == (((0, (1,)),), ())

    def test_scarce_control_goes_to_higher_ps_treated(self):
        # Both treated units sit within the caliper of control 2; the far
        # 0.999 control only widens the caliper.  Greedy order hands the
        # one usable control to the higher-ps treated unit.
        matches = psm([0.52, 0.50, 0.51, 0.999], np.array([1, 1, 0, 0]))
        assert match_tuples(matches) == (((0, (2,)),), (1,))

    def test_treated_ps_tie_breaks_to_lowest_index(self):
        matches = psm(
            [0.6, 0.6, 0.59, 0.58, 0.01], np.array([1, 1, 0, 0, 0])
        )
        assert match_tuples(matches)[0] == ((0, (2,)), (1, (3,)))

    def test_control_distance_tie_breaks_to_lowest_index(self):
        matches = psm([0.6, 0.59, 0.59, 0.01], np.array([1, 0, 0, 0]))
        assert match_tuples(matches)[0] == ((0, (1,)),)

    def test_ratio_two_takes_two_nearest(self):
        matches = psm(
            [0.6, 0.595, 0.585, 0.575, 0.01],
            np.array([1, 0, 0, 0, 0]),
            ratio=2,
        )
        assert match_tuples(matches)[0] == ((0, (1, 2)),)
        assert matches.pairs.shape == (1, 3)

    def test_ratio_two_accepts_a_single_eligible_control(self):
        matches = psm(
            [0.6, 0.595, 0.01, 0.012], np.array([1, 0, 0, 0]), ratio=2
        )
        assert match_tuples(matches)[0] == ((0, (1,)),)

    def test_exhausted_pool_discards_remaining_treated(self):
        matches = psm([0.6, 0.01, 0.595], np.array([1, 1, 0]))
        assert match_tuples(matches) == (((0, (2,)),), (1,))

    def test_every_treated_out_of_caliper_raises(self):
        with pytest.raises(NoMatchesError):
            psm([0.95, 0.94, 0.05, 0.06], np.array([1, 1, 0, 0]))

    def test_single_class_raises(self):
        with pytest.raises(NoMatchesError):
            psm([0.4, 0.5, 0.6], np.array([1, 1, 1]))

    def test_matches_naive_oracle_on_small_instances(self, np_rng):
        for trial in range(300):
            n = int(np_rng.integers(4, 13))
            z = np.zeros(n, dtype=np.int64)
            n_treated = int(np_rng.integers(1, n))
            z[np_rng.choice(n, size=n_treated, replace=False)] = 1
            values = np_rng.uniform(0.05, 0.95, size=n)
            ratio = 1 if trial % 2 == 0 else 2
            try:
                expected_pairs, expected_discarded = naive_psm(values, z, ratio)
                if not expected_pairs:
                    expected_pairs = None
            except Exception:  # pragma: no cover - oracle itself never raises
                raise
            if expected_pairs is None:
                with pytest.raises(NoMatchesError):
                    psm(values, z, ratio)
                continue
            matches = psm(values, z, ratio)
            assert match_tuples(matches) == (tuple(expected_pairs), tuple(expected_discarded))

    def test_permutation_equivariance(self, np_rng):
        n = 40
        values = np_rng.uniform(0.1, 0.9, size=n)
        z = (np_rng.uniform(size=n) < 0.4).astype(np.int64)
        z[:2] = [1, 0]
        base = psm(values, z)
        perm = np_rng.permutation(n)
        # new_index[old] = position of old unit after permutation
        new_index = np.empty(n, dtype=np.int64)
        new_index[perm] = np.arange(n)
        permuted_pairs, permuted_discarded = match_tuples(psm(values[perm], z[perm]))
        base_pairs, base_discarded = match_tuples(base)
        mapped_pairs = {
            (int(new_index[t]), tuple(int(new_index[c]) for c in cs))
            for t, cs in base_pairs
        }
        mapped_discarded = {int(new_index[t]) for t in base_discarded}
        assert set(permuted_pairs) == mapped_pairs
        assert set(permuted_discarded) == mapped_discarded

    def test_reduces_imbalance_on_simulated_cohort(self):
        cfg = CellConfig(
            scenario=1,
            setting=1,
            prevalence_label="0.20",
            null_effect=False,
            n_reps=1,
            master_seed=20240817,
        )
        data, _ = generate_replicate(cfg, alpha0=-1.464120, replicate=0)
        ps = estimate_ps(data.observed_covariates, data.z)
        matches = psm(ps.values, data.z)
        x1 = data.x[:, 0]

        def abs_smd(treated_idx, control_idx):
            t = x1[treated_idx]
            c = x1[control_idx]
            pooled = np.sqrt((t.var(ddof=1) + c.var(ddof=1)) / 2.0)
            return abs(t.mean() - c.mean()) / pooled

        before = abs_smd(np.flatnonzero(data.z == 1), np.flatnonzero(data.z == 0))
        matched_t = matches.pairs[:, 0]
        matched_c = matches.pairs[:, 1]
        after = abs_smd(matched_t, matched_c)
        assert after < before


def random_spd(np_rng, d):
    g = np_rng.standard_normal((d, d))
    g = g @ g.T
    return (g + g.T) / 2.0 + 0.5 * np.eye(d)


class TestMahalanobisDistance:
    def test_identity_covariance_is_euclidean(self, np_rng):
        for _ in range(20):
            u = np_rng.standard_normal(3)
            v = np_rng.standard_normal(3)
            d = mahalanobis_distance(u, v, np.eye(3))
            assert d == pytest.approx(float(np.linalg.norm(u - v)), abs=1e-12)

    def test_zero_at_equal_points(self, np_rng):
        u = np_rng.standard_normal(4)
        assert mahalanobis_distance(u, u, random_spd(np_rng, 4)) == 0.0

    def test_agrees_with_explicit_inverse(self, np_rng):
        for _ in range(50):
            cov = random_spd(np_rng, 3)
            u = np_rng.standard_normal(3)
            v = np_rng.standard_normal(3)
            inv = np.linalg.inv(cov)
            expected = float(np.sqrt((u - v) @ inv @ (u - v)))
            assert mahalanobis_distance(u, v, cov) == pytest.approx(
                expected, rel=1e-10, abs=1e-12
            )

    def test_non_spd_rejected(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NonSpdError):
            mahalanobis_distance(np.ones(2), np.zeros(2), singular)


class TestMdmMatch:
    def test_caliper_screens_out_covariate_neighbor(self):
        # Control 1 is closest in covariate space but far in logit ps;
        # the caliper screen forces the distant-covariate control 2.
        x = np.array([[0.0], [0.01], [5.0]])
        matches = mdm(x, np.array([1, 0, 0]), [0.5, 0.05, 0.5])
        assert match_tuples(matches)[0] == ((0, (2,)),)

    def test_equal_ps_reduces_to_nearest_covariate(self):
        x = np.array([[0.0], [1.0], [0.2], [1.1], [10.0]])
        matches = mdm(
            x, np.array([1, 1, 0, 0, 0]), [0.5, 0.5, 0.5, 0.5, 0.5]
        )
        assert match_tuples(matches)[0] == ((0, (2,)), (1, (3,)))

    def test_affine_transform_leaves_matching_unchanged(self, np_rng):
        n = 40
        x = np_rng.standard_normal((n, 3))
        z = (np_rng.uniform(size=n) < 0.35).astype(np.int64)
        z[:2] = [1, 0]
        values = np_rng.uniform(0.2, 0.8, size=n)
        transform = np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.3], [0.0, 0.3, 1.0]])
        shifted = x @ transform.T + np.array([3.0, -1.0, 0.5])
        assert match_tuples(mdm(x, z, values)) == match_tuples(mdm(shifted, z, values))

    def test_matches_naive_oracle_on_small_instances(self, np_rng):
        for _ in range(200):
            n = int(np_rng.integers(5, 13))
            z = np.zeros(n, dtype=np.int64)
            n_treated = int(np_rng.integers(1, n - 1))
            z[np_rng.choice(n, size=n_treated, replace=False)] = 1
            x = np_rng.standard_normal((n, 2))
            values = np_rng.uniform(0.05, 0.95, size=n)
            expected_pairs, expected_discarded = naive_mdm(x, z, values)
            if not expected_pairs:
                with pytest.raises(NoMatchesError):
                    mdm(x, z, values)
                continue
            matches = mdm(x, z, values)
            assert match_tuples(matches) == (tuple(expected_pairs), tuple(expected_discarded))

    def test_pair_distances_equal_row_gather_formula(self, np_rng):
        # Equal bits, because sum(axis=1) adds fewer than eight terms left
        # to right, as the coordinate loop does.
        for _ in range(200):
            n = int(np_rng.integers(20, 120))
            z = np.zeros(n, dtype=np.int64)
            z[np_rng.choice(n, size=int(np_rng.integers(2, n - 1)), replace=False)] = 1
            white = matching._whiten(np_rng.standard_normal((n, int(np_rng.integers(2, 6)))))
            block = caliper_block(np_rng.uniform(0.05, 0.95, size=n), z)
            assert block.within.any()
            assert np.array_equal(matching._pair_distances(white, block), row_gather_distances(white, block))

    def test_collinear_covariates_raise(self, np_rng):
        v = np_rng.standard_normal(12)
        x = np.column_stack([v, 2.0 * v])
        z = np.array([1, 0] * 6)
        with pytest.raises(NonSpdError):
            mdm(x, z, np.full(12, 0.5))

    def test_single_class_raises(self, np_rng):
        x = np_rng.standard_normal((6, 2))
        with pytest.raises(NoMatchesError):
            mdm(x, np.ones(6, dtype=np.int64), np.full(6, 0.5))


class TestCemMatch:
    def test_unit_range_two_bins(self):
        x = np.array([[0.0], [0.2], [0.3], [0.7], [1.0]])
        codes = cem_match(x, np.array([1, 0, 1, 0, 0]), n_bins=2).codes
        assert codes[1] == codes[2]  # 0.2 and 0.3 share a bin
        assert codes[1] != codes[3]  # 0.2 and 0.7 do not
        assert codes[4] == codes[3]  # the maximum lands in the top bin, not past it

    def test_treated_only_stratum_not_retained(self):
        x = np.array([[0.1], [0.2], [0.9], [0.95]])
        strata = cem_match(x, np.array([1, 1, 1, 0]), n_bins=2)
        np.testing.assert_array_equal(
            strata.retained, np.array([False, False, True, True])
        )

    def test_retention_matches_enumeration_oracle(self, np_rng):
        for n_bins in (2, 5):
            x = np_rng.standard_normal((60, 2))
            z = (np_rng.uniform(size=60) < 0.3).astype(np.int64)
            z[:2] = [1, 0]
            strata = cem_match(x, z, n_bins)
            signatures = naive_bin_signatures(x, n_bins)
            for i in range(60):
                members = [j for j in range(60) if signatures[j] == signatures[i]]
                assert all(strata.codes[j] == strata.codes[i] for j in members)
                has_both = any(z[j] == 1 for j in members) and any(
                    z[j] == 0 for j in members
                )
                assert strata.retained[i] == has_both

    def test_four_bins_refine_two_bins(self, np_rng):
        x = np_rng.standard_normal((50, 3))
        z = np.array([1, 0] * 25)
        coarse = cem_match(x, z, 2).codes
        fine = cem_match(x, z, 4).codes
        # Every fine stratum lies inside one coarse stratum.
        assert len(set(zip(fine, coarse))) == len(set(fine))

    def test_constant_covariate_rejected(self):
        x = np.column_stack([np.arange(4.0), np.full(4, 7.0)])
        with pytest.raises(ValueError, match="non-constant"):
            cem_match(x, np.array([1, 0, 1, 0]), 2)

    def test_stratum_codes_beyond_64_bits_rejected(self, np_rng):
        x = np_rng.standard_normal((8, 64))
        with pytest.raises(ValueError, match="overflow"):
            cem_match(x, np.array([1, 0] * 4), 2)
        assert cem_match(x[:, :63], np.array([1, 0] * 4), 2).retained.shape == (8,)


class TestMatchedAtt:
    def test_textbook_two_pair_example(self):
        # Differences (0, 2): att 1, sd sqrt(2), se 1, t 1 with 1 df.
        y = np.array([0.0, 2.0, 0.0, 0.0])
        est = matched_att(y, match_set(((0, (2,)), (1, (3,)))))
        assert est.att == pytest.approx(1.0, abs=1e-15)
        assert est.theoretical_se == pytest.approx(1.0, abs=1e-15)
        assert est.p_value == pytest.approx(0.5, abs=1e-12)

    def test_constant_differences_raise_zero_variance(self):
        y = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ZeroSeError):
            matched_att(y, match_set(((0, (2,)), (1, (3,)))))

    def test_ratio_two_uses_control_mean(self):
        # Treated outcome 4 against controls (1, 3) gives a difference of 2.
        y = np.array([4.0, 1.0, 3.0, 7.0, 7.0])
        est = matched_att(y, match_set(((0, (1, 2)), (3, (4,))), ratio=2))
        assert est.att == pytest.approx(1.0, abs=1e-15)
        assert est.theoretical_se == pytest.approx(1.0, abs=1e-15)

    def test_single_pair_rejected(self):
        with pytest.raises(TooFewPairsError):
            matched_att(np.array([1.0, 0.0]), match_set(((0, (1,)),)))

    def test_treated_shift_moves_att_exactly(self, np_rng):
        y = np_rng.standard_normal(20)
        matches = psm(np_rng.uniform(0.3, 0.7, 20), np.array([1, 0] * 10))
        base = matched_att(y, matches)
        shifted = y.copy()
        for t in matches.pairs[:, 0]:
            shifted[t] += 2.5
        assert matched_att(shifted, matches).att == pytest.approx(
            base.att + 2.5, abs=1e-12
        )

    def test_invariant_under_pair_relabeling(self, np_rng):
        y = np_rng.standard_normal(12)
        pairs = ((0, (6,)), (1, (7,)), (2, (8,)), (3, (9,)), (4, (10,)), (5, (11,)))
        base = matched_att(y, match_set(pairs))
        shuffled = matched_att(y, match_set(pairs[::-1]))
        assert shuffled.att == pytest.approx(base.att, abs=1e-12)
        assert shuffled.theoretical_se == pytest.approx(base.theoretical_se, abs=1e-12)
        assert shuffled.p_value == pytest.approx(base.p_value, abs=1e-12)


class TestCemAtt:
    def test_single_stratum_equals_unadjusted_difference(self, np_rng):
        y = np_rng.standard_normal(30)
        z = (np_rng.uniform(size=30) < 0.5).astype(np.int64)
        z[:2] = [1, 0]
        x = np_rng.standard_normal((30, 2))
        strata = cem_match(x, z, n_bins=1)
        assert strata.retained.all()
        est = cem_att(y, z, strata)
        expected = y[z == 1].mean() - y[z == 0].mean()
        assert est.att == pytest.approx(expected, abs=1e-12)

    def test_three_strata_hand_enumeration(self):
        x = np.array([[0.1], [0.2], [0.3], [1.1], [1.2], [2.1], [2.2], [2.9]])
        z = np.array([1, 0, 0, 1, 0, 1, 0, 1])
        y = np.array([1.0, 2.0, 4.0, 5.0, 1.0, 2.0, 0.0, 6.0])
        strata = cem_match(x, z, n_bins=3)
        assert strata.retained.all()
        est = cem_att(y, z, strata)
        # Differences per treated unit: 1-3, 5-1, 2-0, 6-0.
        diffs = np.array([-2.0, 4.0, 2.0, 6.0])
        assert est.att == pytest.approx(2.5, abs=1e-15)
        assert est.theoretical_se == pytest.approx(
            diffs.std(ddof=1) / 2.0, abs=1e-15
        )
        t_stat = 2.5 / est.theoretical_se
        assert est.p_value == pytest.approx(2 * stats.t.sf(t_stat, 3), abs=1e-15)

    def test_balanced_arms_give_zero_att(self):
        # Within each stratum the treated outcomes straddle the control
        # mean symmetrically, so the differences cancel exactly.
        x = np.array([[0.1], [0.2], [0.3], [0.4], [1.1], [1.2], [1.3]])
        z = np.array([1, 1, 0, 0, 1, 1, 0])
        y = np.array([1.0, 3.0, 1.0, 3.0, 4.0, 6.0, 5.0])
        strata = cem_match(x, z, n_bins=2)
        est = cem_att(y, z, strata)
        assert est.att == 0.0

    def test_no_retained_treated_raises(self):
        x = np.array([[0.1], [0.2], [0.9], [0.95]])
        z = np.array([1, 1, 0, 0])
        with pytest.raises(TooFewPairsError):
            cem_att(np.arange(4.0), z, cem_match(x, z, 2))


def assert_same_estimate(est, differences):
    # The package computes the t tail itself, SciPy's to round-off.
    att, se, p_value = naive_paired_t(differences)
    assert (est.att, est.theoretical_se) == (att, se)
    assert est.p_value == pytest.approx(p_value, rel=1e-11)


class TestLoopOracles:
    """The vectorized strata and differences equal the loops they replace."""

    def test_cem_retention_and_estimate(self, np_rng):
        for trial in range(150):
            n_bins = (1, 2, 5)[trial % 3]
            n = int(np_rng.integers(8, 120))
            d = int(np_rng.integers(1, 4))
            x = np_rng.standard_normal((n, d))
            z = (np_rng.uniform(size=n) < np_rng.uniform(0.2, 0.6)).astype(np.int64)
            z[:4] = [1, 0, 1, 0]
            y = np_rng.standard_normal(n) * 3.0 + 1.0
            strata = cem_match(x, z, n_bins)
            signatures = naive_bin_signatures(x, n_bins)
            # The codes number the bin signatures one to one.
            assert len(set(zip(strata.codes, signatures))) == len(set(strata.codes)) == len(set(signatures))
            retained = naive_cem_retained(signatures, z)
            np.testing.assert_array_equal(strata.retained, retained)
            diffs = naive_cem_differences(y, z, signatures, retained)
            if diffs.size < 2:
                with pytest.raises(TooFewPairsError):
                    cem_att(y, z, strata)
                continue
            assert_same_estimate(cem_att(y, z, strata), diffs)

    def test_cem_strata_with_one_control(self):
        # Five bins over three covariates leave retained strata with a
        # single control, whose outcome is then the stratum mean.
        rng = np.random.default_rng(7)
        x = rng.standard_normal((60, 3))
        z = np.array([1, 1, 0] * 20)
        y = rng.standard_normal(60)
        strata = cem_match(x, z, 5)
        codes = strata.codes[(z == 0) & strata.retained].tolist()
        assert any(codes.count(c) == 1 for c in codes)
        diffs = naive_cem_differences(y, z, naive_bin_signatures(x, 5), strata.retained)
        assert_same_estimate(cem_att(y, z, strata), diffs)

    def test_matched_att_mixing_one_and_two_controls(self, np_rng):
        sizes_seen = set()
        for trial in range(100):
            n = int(np_rng.integers(20, 200))
            z = (np_rng.uniform(size=n) < 0.3).astype(np.int64)
            z[:2] = [1, 0]
            values = np.round(np_rng.uniform(0.1, 0.9, size=n), 2 + trial % 2)
            y = np_rng.standard_normal(n) * 10.0
            try:
                matches = psm(values, z, ratio=1 + trial % 2)
            except NoMatchesError:
                continue
            pairs, _ = match_tuples(matches)
            sizes_seen.update(len(cs) for _, cs in pairs)
            diffs = naive_matched_differences(y, pairs)
            if diffs.size < 2:
                continue
            assert_same_estimate(matched_att(y, matches), diffs)
        assert sizes_seen == {1, 2}


@pytest.fixture(scope="module")
def design_intercepts():
    pairs = [(s, label) for s in (1, 2, 3) for label in ("0.05", "0.10")]
    return oracle_intercepts(pairs, 42, 20_000)


class TestGreedyWalkAtDesignSizes:
    """PSM and MDM keep the match contract and agree with the longhand
    oracles beyond toy sizes."""

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    @pytest.mark.parametrize("label", ["0.05", "0.10"])
    def test_simulated_cohorts(self, design_intercepts, scenario, label):
        cfg = CellConfig(
            scenario=scenario,
            setting=1,
            prevalence_label=label,
            null_effect=False,
            n_reps=1,
            master_seed=20240817,
        )
        data, _ = generate_replicate(cfg, design_intercepts[(scenario, label)], replicate=0)
        assert data.x.shape[0] == {"0.05": 1000, "0.10": 500}[label]
        x, z = data.observed_covariates, data.z
        ps = estimate_ps(x, z)
        for ratio in (1, 2):
            pairs, discarded = naive_psm(ps.values, z, ratio)
            matches = psm(ps.values, z, ratio)
            check_match_contract(matches, z, ratio)
            assert match_tuples(matches) == (tuple(pairs), tuple(discarded))
        pairs, discarded = naive_mdm(x, z, ps.values)
        matches = mdm(x, z, ps.values)
        check_match_contract(matches, z, 1)
        assert match_tuples(matches) == (tuple(pairs), tuple(discarded))

    def test_rounded_scores_and_duplicate_controls(self, np_rng):
        # Scores on a 0.01 grid tie among treated units (greedy order) and
        # among controls (equal distances); copied control rows tie the
        # Mahalanobis distance exactly.  A tie broken toward any index but
        # the lowest fails here.
        ties = 0
        for trial in range(30):
            n = int(np_rng.integers(180, 221))
            z = (np_rng.uniform(size=n) < 0.35).astype(np.int64)
            z[:2] = [1, 0]
            values = np.round(np_rng.uniform(0.15, 0.85, size=n), 2)
            x = np_rng.standard_normal((n, 3))
            controls = np.flatnonzero(z == 0)
            copies = np_rng.choice(controls, size=controls.size // 3, replace=False)
            sources = np_rng.choice(controls, size=copies.size)
            x[copies] = x[sources]
            values[copies] = values[sources]
            ties += np.unique(values[z == 1]).size < (z == 1).sum()
            for ratio in (1, 2):
                pairs, discarded = naive_psm(values, z, ratio)
                matches = psm(values, z, ratio)
                check_match_contract(matches, z, ratio)
                assert match_tuples(matches) == (tuple(pairs), tuple(discarded))
            pairs, discarded = naive_mdm(x, z, values)
            matches = mdm(x, z, values)
            check_match_contract(matches, z, 1)
            assert match_tuples(matches) == (tuple(pairs), tuple(discarded))
        assert ties == 30
