"""Cohort generation, intercept calibration, and ground-truth effects."""

import tracemalloc

import numpy as np
import pytest

from scipy.special import expit

from attbench import dgp
from attbench.dgp import (
    PREVALENCE_LABELS,
    PREVALENCE_VALUES,
    SAMPLE_SIZES,
    SCENARIOS,
    CellConfig,
    calibrate_intercept,
    generate_dataset,
    generate_replicate,
    outcome_mean,
    prevalence_label_for,
    treatment_logit_terms,
    true_att,
)
from attbench.errors import DegenerateDrawError
from attbench.harness import oracle_stream
from attbench.numeric import PURPOSE_CALIBRATION, rng_stream, substream

from naive_oracles import naive_calibrate_intercept, naive_treatment_logit_terms, naive_true_att

# Intercepts and heterogeneous-effect truths frozen from a 10^7-draw
# Monte Carlo oracle run before the main build (two independent seeds
# agreed to ~2e-3); tolerances cover both oracles' sampling error.
ALPHA_GOLDENS = {
    (1, "0.05"): -3.026970,
    (1, "0.20"): -1.464120,
    (1, "0.50"): -0.069449,
    (2, "0.20"): -2.896427,
    (3, "0.20"): -1.485100,
    (3, "0.33"): -0.787596,
}
TRUTH_GOLDENS = {
    (1, "0.20"): 1.127673,
    (2, "0.20"): 2.166719,
    (3, "0.20"): 1.127469,
    (1, "0.50"): 1.074856,
}


DESIGN_PAIRS = [(s, p) for s in sorted(SCENARIOS) for p in PREVALENCE_VALUES]


def count_expit_passes(monkeypatch) -> list[int]:
    """Record the size of each array ``dgp`` passes through ``expit``: in a
    calibration of ``oracle_n`` rows, one pass over its sample adds up to
    ``oracle_n``, however many leaves it takes."""
    calls: list[int] = []

    def counting_expit(x, *args, **kwargs):
        calls.append(np.size(x))
        return expit(x, *args, **kwargs)

    monkeypatch.setattr(dgp, "expit", counting_expit)
    return calls


def cfg_for(scenario=1, setting=1, label="0.20", null=False, seed=20240817):
    return CellConfig(
        scenario=scenario,
        setting=setting,
        prevalence_label=label,
        null_effect=null,
        n_reps=1,
        master_seed=seed,
    )


class TestDesignTables:
    def test_scenario_coefficients(self):
        s1 = SCENARIOS[1]
        assert (s1.coef_x1, s1.coef_x2, s1.coef_x1_sq, s1.coef_x2_sq, s1.coef_x1_x2) == (
            0.1,
            0.1,
            0.05,
            0.02,
            0.02,
        )
        s2 = SCENARIOS[2]
        assert (s2.coef_x1, s2.coef_x2, s2.coef_x1_sq, s2.coef_x2_sq, s2.coef_x1_x2) == (
            1.25,
            1.0,
            0.5,
            0.5,
            0.75,
        )
        s3 = SCENARIOS[3]
        assert (s3.coef_x1, s3.coef_x2, s3.coef_x1_sq, s3.coef_x2_sq, s3.coef_x1_x2) == (
            0.1,
            0.1,
            0.05,
            0.02,
            0.02,
        )
        assert (s3.coef_x4, s3.coef_x4_sq) == (0.05, 0.02)
        assert s3.includes_x4 and not s1.includes_x4
        # Scenario 3 draws x4 as a fourth column and hides it; scenario 1 hides nothing.
        for scenario, width in ((1, 3), (3, 4)):
            cfg = cfg_for(scenario=scenario)
            data = generate_dataset(cfg, -1.4851, substream(123, cell_code=cfg.cell_code))
            assert data.x.shape[1] == width
            np.testing.assert_array_equal(data.observed_covariates, data.x[:, :3])

    def test_prevalence_table_keeps_fifty_expected_treated(self):
        assert PREVALENCE_LABELS == ("0.05", "0.10", "0.20", "0.33", "0.50")
        assert SAMPLE_SIZES == (1000, 500, 250, 150, 100)
        for value, n in zip(PREVALENCE_VALUES, SAMPLE_SIZES):
            assert n == round(50 / value)
            assert value * n == pytest.approx(50)

    def test_prevalence_label_lookup(self):
        assert prevalence_label_for(0.05) == "0.05"
        assert prevalence_label_for(1.0 / 3.0) == "0.33"
        assert prevalence_label_for("0.33") == "0.33"
        assert prevalence_label_for("0.2") == "0.20"
        with pytest.raises(ValueError, match="not in the design"):
            prevalence_label_for(0.4)

    def test_cell_config_accessors(self):
        cfg = cfg_for(scenario=2, setting=3, label="0.33", null=True)
        assert cfg.prevalence_index == 3
        assert PREVALENCE_VALUES[cfg.prevalence_index] == pytest.approx(1.0 / 3.0)
        assert cfg.n == 150
        assert cfg.cell_code == 2 * 1000 + 3 * 100 + 3 * 10 + 1
        assert cfg.name == "s2t3p033_null"

    def test_cell_config_validation(self):
        with pytest.raises(ValueError, match="scenario"):
            cfg_for(scenario=4)
        with pytest.raises(ValueError, match="setting"):
            cfg_for(setting=0)
        with pytest.raises(ValueError, match="prevalence"):
            cfg_for(label="0.25")
        with pytest.raises(ValueError, match="n_reps"):
            CellConfig(1, 1, "0.20", False, 0, 1)


class TestOutcomeMean:
    def test_formula_by_direct_recomputation(self, np_rng):
        x = np_rng.standard_normal((50, 4))
        z = (np_rng.uniform(size=50) < 0.5).astype(np.float64)
        x1, x3, x4 = x[:, 0], x[:, 2], x[:, 3]
        base = 1.5 * x1 + 0.75 * x3
        cases = {
            (1, 1): base + z,
            (1, 2): base + 1.75 * x1**2 + z,
            (1, 3): base + z + 1.5 * x1 * z,
            (3, 1): base + 5.0 * x4 + z,
            (3, 3): base + 5.0 * x4 + z + 1.5 * x1 * z,
        }
        for (scen, setting), expected in cases.items():
            got = outcome_mean(SCENARIOS[scen], setting, x, z, False)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_null_zeroes_every_treatment_term(self, np_rng):
        x = np_rng.standard_normal((50, 4))
        z = (np_rng.uniform(size=50) < 0.5).astype(np.float64)
        for scen in (1, 2, 3):
            for setting in (1, 2, 3):
                spec = SCENARIOS[scen]
                under_z = outcome_mean(spec, setting, x, z, True)
                under_flip = outcome_mean(spec, setting, x, 1.0 - z, True)
                np.testing.assert_array_equal(under_z, under_flip)

    def test_setting3_null_drops_interaction(self, np_rng):
        x = np_rng.standard_normal((50, 3))
        z = np.ones(50)
        spec = SCENARIOS[1]
        np.testing.assert_array_equal(
            outcome_mean(spec, 3, x, z, True), outcome_mean(spec, 1, x, z, True)
        )


class TestCalibrateIntercept:
    def test_low_prevalence_needs_negative_intercept(self):
        a = calibrate_intercept(SCENARIOS[1], 0.05, rng_stream(11, 0), oracle_n=10**5)
        assert a < 0

    def test_monotone_in_prevalence(self):
        a_half = calibrate_intercept(SCENARIOS[1], 0.50, rng_stream(11, 1), oracle_n=10**5)
        a_fifth = calibrate_intercept(SCENARIOS[1], 0.20, rng_stream(11, 2), oracle_n=10**5)
        assert a_half > a_fifth

    @pytest.mark.parametrize("scenario,label", sorted(ALPHA_GOLDENS))
    def test_matches_frozen_oracle(self, scenario, label):
        golden = ALPHA_GOLDENS[(scenario, label)]
        value = calibrate_intercept(
            SCENARIOS[scenario],
            PREVALENCE_VALUES[PREVALENCE_LABELS.index(label)],
            rng_stream(5150, 9),
            oracle_n=10**6,
        )
        assert value == pytest.approx(golden, abs=1.5e-3)

    def test_deterministic_in_stream(self):
        a = calibrate_intercept(SCENARIOS[1], 0.2, rng_stream(99, 1), oracle_n=10**5)
        b = calibrate_intercept(SCENARIOS[1], 0.2, rng_stream(99, 1), oracle_n=10**5)
        assert a == b

    def test_every_design_target_lies_inside_the_bracket(self):
        # The calibration raises nothing because of this: on each oracle
        # stream of a run, at the smallest size the command line accepts,
        # the bracket's ends give prevalences far outside 0.05 to 0.50.
        lo, hi = dgp._BISECTION_BRACKET
        for scenario, spec in SCENARIOS.items():
            for seed in range(50):
                for label in PREVALENCE_LABELS:
                    rng = oracle_stream(seed, scenario, label, PURPOSE_CALIBRATION)
                    terms = treatment_logit_terms(spec, *dgp._draw_treatment_covariates(spec, 1000, rng))
                    assert np.mean(expit(lo + terms)) < 0.01, (scenario, seed, label)
                    assert np.mean(expit(hi + terms)) > 0.99, (scenario, seed, label)

    @pytest.mark.parametrize(
        "oracle_n,seeds",
        [(10**4, range(10)), (10**5, range(10)), (10**6, (42,)), (10**6 + 7, (43,))],
        ids=["1e4", "1e5", "1e6", "1e6+7"],
    )
    def test_equals_plain_bisection(self, oracle_n, seeds):
        for seed in seeds:
            for scenario, prevalence in DESIGN_PAIRS:
                stream = (seed, 10 * scenario + PREVALENCE_VALUES.index(prevalence))
                fast = calibrate_intercept(SCENARIOS[scenario], prevalence, rng_stream(*stream), oracle_n)
                plain = naive_calibrate_intercept(SCENARIOS[scenario], prevalence, rng_stream(*stream), oracle_n)
                assert fast == plain, (seed, scenario, prevalence)

    @pytest.mark.parametrize("guess", [np.nan, 15.0, -19.9, 20.0], ids=["nan", "far", "near-edge", "edge"])
    def test_uncertified_guess_falls_back_to_plain_bisection(self, monkeypatch, guess):
        monkeypatch.setattr(dgp, "_newton_root", lambda terms, prevalence, buf: guess)
        for i, (scenario, prevalence) in enumerate(DESIGN_PAIRS):
            spec = SCENARIOS[scenario]
            fast = calibrate_intercept(spec, prevalence, rng_stream(5, i), 10**4)
            plain = naive_calibrate_intercept(spec, prevalence, rng_stream(5, i), 10**4)
            assert fast == plain, (i, prevalence)

    def test_well_posed_call_makes_few_passes(self, monkeypatch):
        calls = count_expit_passes(monkeypatch)
        for seed in range(3):
            for scenario, prevalence in DESIGN_PAIRS:
                calls.clear()
                calibrate_intercept(SCENARIOS[scenario], prevalence, rng_stream(seed, scenario), oracle_n=10**5)
                assert sum(calls) <= 12 * 10**5, (seed, scenario, prevalence)


def guess_leaf(alpha: float) -> tuple[float, float]:
    return dgp._bisect(lambda mid: mid < alpha)


def next_leaf_midpoint(alpha: float) -> float:
    lo, hi = guess_leaf(alpha)
    return hi + (hi - lo) / 2.0


# Guesses at a calibrated intercept ``a``: in its leaf, beside it, at the
# last midpoint the bisection moved ``hi`` to, in the next leaf, at and
# beyond the bracket, and not finite.
ADVERSARIAL_GUESSES = {
    "ulp-up": lambda a: float(np.nextafter(a, np.inf)),
    "ulp-down": lambda a: float(np.nextafter(a, -np.inf)),
    "plus-1e-9": lambda a: a + 1e-9,
    "minus-1e-9": lambda a: a - 1e-9,
    "midpoint": lambda a: guess_leaf(a)[1],
    "next-leaf": next_leaf_midpoint,
    "bracket-top": lambda a: 20.0,
    "bracket-bottom": lambda a: -20.0,
    "inf": lambda a: np.inf,
    "minus-inf": lambda a: -np.inf,
    "nan": lambda a: np.nan,
    "outside": lambda a: 25.0,
}


class TestLeafCertificate:
    """A guess only decides which leaf is certified; the result is always
    the plain bisection's."""

    @pytest.mark.parametrize("oracle_n", [10**4, 10**5], ids=["1e4", "1e5"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_stored_intercept_certifies_in_two_passes(self, monkeypatch, oracle_n, seed):
        calls = count_expit_passes(monkeypatch)
        for scenario, prevalence in DESIGN_PAIRS:
            stream = (seed, 10 * scenario + PREVALENCE_VALUES.index(prevalence))
            spec = SCENARIOS[scenario]
            fresh = calibrate_intercept(spec, prevalence, rng_stream(*stream), oracle_n)
            calls.clear()
            again = calibrate_intercept(spec, prevalence, rng_stream(*stream), oracle_n, guess=fresh)
            assert sum(calls) == 2 * oracle_n, (scenario, prevalence)
            assert again == naive_calibrate_intercept(spec, prevalence, rng_stream(*stream), oracle_n)

    @pytest.mark.parametrize("guess_of", list(ADVERSARIAL_GUESSES.values()), ids=list(ADVERSARIAL_GUESSES))
    def test_adversarial_guess_keeps_the_bits(self, guess_of):
        for scenario, prevalence in DESIGN_PAIRS:
            stream = (4, 10 * scenario + PREVALENCE_VALUES.index(prevalence))
            spec = SCENARIOS[scenario]
            plain = naive_calibrate_intercept(spec, prevalence, rng_stream(*stream), 10**4)
            guess = guess_of(plain)
            assert calibrate_intercept(spec, prevalence, rng_stream(*stream), 10**4, guess=guess) == plain, guess

    def test_guess_in_its_leaf_takes_two_passes_and_a_miss_falls_back(self, monkeypatch):
        spec, prevalence, stream = SCENARIOS[2], 0.10, (4, 21)
        plain = naive_calibrate_intercept(spec, prevalence, rng_stream(*stream), 10**4)
        calls = count_expit_passes(monkeypatch)
        # In the leaf, at its upper end (a midpoint), in the next leaf, NaN.
        guesses = [(np.nextafter(plain, np.inf), 2), (guess_leaf(plain)[1], 2)]
        guesses += [(next_leaf_midpoint(plain), 41), (np.nan, 41)]
        for guess, passes in guesses:
            calls.clear()
            assert calibrate_intercept(spec, prevalence, rng_stream(*stream), 10**4, guess=float(guess)) == plain
            assert sum(calls) == passes * 10**4, guess


class TestTreatmentLogitTerms:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_equals_one_expression_and_leaves_inputs(self, scenario):
        spec = SCENARIOS[scenario]
        draws = np.random.default_rng(scenario).standard_normal((1000, 3)) * 3.0
        x1, x2, x4 = draws[:, 0], draws[:, 1], draws[:, 2]
        before = draws.copy()
        given = (x1, x2, x4)
        assert np.array_equal(treatment_logit_terms(spec, *given), naive_treatment_logit_terms(spec, *given))
        if not spec.includes_x4:
            assert np.array_equal(treatment_logit_terms(spec, x1, x2), naive_treatment_logit_terms(spec, x1, x2))
        assert np.array_equal(draws, before)


class TestGenerateDataset:
    def test_bit_identical_on_same_stream(self):
        cfg = cfg_for()
        draw = lambda: generate_dataset(cfg, -1.464120, substream(123, cell_code=cfg.cell_code))
        a, b = draw(), draw()
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.y, b.y)

    def test_shapes_and_hidden_columns(self):
        cfg = cfg_for(scenario=3)
        data = generate_dataset(cfg, -1.485100, substream(123, cell_code=cfg.cell_code))
        assert data.x.shape == (250, 4)
        assert data.observed_covariates.shape == (250, 3)
        np.testing.assert_array_equal(data.observed_covariates, data.x[:, :3])

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_observed_covariates_are_the_first_three_in_column_major_order(self, scenario):
        # The estimators' last bits depend on this order (see README, Design decisions).
        cfg = cfg_for(scenario=scenario)
        data = generate_dataset(cfg, -1.4851, substream(123, cell_code=cfg.cell_code))
        observed = data.observed_covariates
        assert observed.flags.f_contiguous
        assert observed.dtype == np.float64
        np.testing.assert_array_equal(observed, data.x[:, :3])

    def test_outcome_equals_mean_plus_noise_structure(self):
        # Residuals against the known systematic part must be the noise
        # draw itself: variance 2 within 5% pooled over 100 cohorts.
        cfg = cfg_for(label="0.05")
        residuals = []
        for rep in range(100):
            data, _ = generate_replicate(cfg, -3.026970, rep)
            mean = outcome_mean(SCENARIOS[1], 1, data.x, data.z, False)
            residuals.append(data.y - mean)
        pooled = np.concatenate(residuals)
        assert pooled.size == 100_000
        assert float(pooled.var(ddof=1)) == pytest.approx(2.0, rel=0.05)

    def test_treated_fraction_tracks_prevalence(self):
        cfg = cfg_for()
        fractions = [
            generate_replicate(cfg, -1.464120, rep)[0].z.mean() for rep in range(200)
        ]
        assert float(np.mean(fractions)) == pytest.approx(0.20, abs=0.02)

    def test_degenerate_draw_raises(self):
        cfg = cfg_for(label="0.50")
        with pytest.raises(DegenerateDrawError):
            generate_dataset(cfg, -30.0, substream(123, cell_code=cfg.cell_code))


class TestGenerateReplicate:
    def test_attempt_zero_on_clean_draw(self):
        data, attempt = generate_replicate(cfg_for(), -1.464120, 0)
        assert attempt == 0
        assert data.x.shape[0] == 250

    def test_redraw_uses_next_substream_and_reports_attempt(self):
        # At this intercept roughly half the n=100 draws are degenerate,
        # so specific replicates deterministically need redraws.
        cfg = cfg_for(label="0.50", seed=777)
        data, attempt = generate_replicate(cfg, -4.1, 1)
        assert attempt == 3
        assert int(data.z.sum()) >= 2
        again, attempt_again = generate_replicate(cfg, -4.1, 1)
        assert attempt_again == attempt
        np.testing.assert_array_equal(again.y, data.y)

    def test_redraw_in_one_replicate_leaves_others_alone(self):
        cfg = cfg_for(label="0.50", seed=777)
        direct = generate_dataset(
            cfg, -4.1, substream(777, cell_code=cfg.cell_code, replicate=2, attempt=0)
        )
        via_harness, attempt = generate_replicate(cfg, -4.1, 2)
        assert attempt == 0
        np.testing.assert_array_equal(direct.y, via_harness.y)

    def test_hopeless_cell_raises_after_bounded_attempts(self):
        with pytest.raises(DegenerateDrawError, match="no viable draw"):
            generate_replicate(cfg_for(label="0.50"), -30.0, 0)


class TestTrueAtt:
    def test_homogeneous_settings_are_exact(self):
        rng = rng_stream(1, 0)
        assert true_att(SCENARIOS[1], 1, -1.46, rng) == (1.0, 0.0)
        assert true_att(SCENARIOS[2], 2, -2.90, rng) == (1.0, 0.0)

    def test_null_is_exact_zero(self):
        assert true_att(SCENARIOS[1], 3, -1.46, rng_stream(1, 0), null_effect=True) == (
            0.0,
            0.0,
        )

    def test_heterogeneous_truth_exceeds_one(self):
        att, se = true_att(
            SCENARIOS[2], 3, -2.896427, rng_stream(5150, 11), oracle_n=10**6
        )
        assert att > 1.0
        assert 0.0 < se < 0.01

    @pytest.mark.parametrize("scenario,label", sorted(TRUTH_GOLDENS))
    def test_matches_frozen_oracle(self, scenario, label):
        golden = TRUTH_GOLDENS[(scenario, label)]
        alpha0 = ALPHA_GOLDENS[(scenario, label)]
        att, se = true_att(
            SCENARIOS[scenario], 3, alpha0, rng_stream(5150, 11), oracle_n=10**6
        )
        assert att == pytest.approx(golden, abs=8e-3)
        assert se < 4e-3

    def test_oracle_error_covers_seed_variation(self):
        a1, s1 = true_att(SCENARIOS[1], 3, -1.464120, rng_stream(2, 0), oracle_n=10**6)
        a2, s2 = true_att(SCENARIOS[1], 3, -1.464120, rng_stream(3, 0), oracle_n=10**6)
        assert abs(a1 - a2) < 6.0 * (s1 + s2)

    @pytest.mark.parametrize("oracle_n", [1000, 123457, 10**6, 10**6 + 7, 2 * 10**6 + 3])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_equals_whole_chunk_oracle(self, scenario, oracle_n):
        spec, alpha0 = SCENARIOS[scenario], ALPHA_GOLDENS[(scenario, "0.20")]
        streamed = true_att(spec, 3, alpha0, rng_stream(17, scenario), oracle_n)
        assert streamed == naive_true_att(spec, alpha0, rng_stream(17, scenario), oracle_n)

    @pytest.mark.parametrize("leaf", [128, 1000, 2**21])
    def test_leaf_size_moves_no_bit(self, monkeypatch, leaf):
        spec, alpha0 = SCENARIOS[3], ALPHA_GOLDENS[(3, "0.20")]
        expected = true_att(spec, 3, alpha0, rng_stream(17, 3), 2 * 10**5 + 3)
        intercept = calibrate_intercept(spec, 0.2, rng_stream(17, 4), 10**5 + 3)
        monkeypatch.setattr(dgp, "_ORACLE_LEAF", leaf)
        assert true_att(spec, 3, alpha0, rng_stream(17, 3), 2 * 10**5 + 3) == expected
        assert calibrate_intercept(spec, 0.2, rng_stream(17, 4), 10**5 + 3) == intercept


def traced_peak_mb(fn, *args) -> float:
    """Peak of the memory ``tracemalloc`` saw allocated during ``fn(*args)``,
    numpy's array buffers included, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestOracleMemory:
    """The oracles hold leaves, not their whole sample: scenario 3 at 10^6
    draws 24 MB of normals."""

    def test_true_att_holds_leaves_only(self):
        assert traced_peak_mb(true_att, SCENARIOS[3], 3, ALPHA_GOLDENS[(3, "0.20")], rng_stream(1, 3), 10**6) < 4.0

    def test_calibration_holds_its_terms_and_leaves(self):
        # 8 MB of logit terms are kept for every pass; the rest is leaves.
        assert traced_peak_mb(calibrate_intercept, SCENARIOS[3], 0.2, rng_stream(1, 4), 10**6) < 12.0


class TestPairwiseTree:
    """``dgp._pairwise_sum`` reproduces numpy's own summation order: if a
    numpy release sums differently, this fails before any stored truth or
    intercept moves."""

    @pytest.mark.parametrize("leaf", [128, 2**15])
    @pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, 1000, 32768, 32769, 123457, 10**6, 10**6 + 7])
    def test_leaf_sums_added_up_the_tree_equal_np_sum(self, monkeypatch, n, leaf):
        rng = np.random.default_rng(n)
        # Mixed signs over 16 decades: most additions round, and many cancel.
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        x[::97] = 1e16
        x[1::97] = -1e16
        monkeypatch.setattr(dgp, "_ORACLE_LEAF", leaf)
        leaves = []

        def leaf_sum(lo, hi):
            leaves.append((lo, hi))
            return np.sum(x[lo:hi])

        assert dgp._pairwise_sum(0, n, leaf_sum) == np.sum(x)
        assert [lo for lo, _ in leaves] == [0] + [hi for _, hi in leaves[:-1]] and leaves[-1][1] == n
        assert max(hi - lo for lo, hi in leaves) <= leaf
