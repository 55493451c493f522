"""Replicate execution, aggregation, and the deterministic result store."""

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import signal
import time
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from attbench import dgp, glm, harness, weighting
from attbench.dgp import CellConfig, generate_replicate
from attbench.errors import (
    CorruptManifestError,
    InsufficientReplicatesError,
    NoMatchesError,
    PartialGridError,
    StoreMismatchError,
)
from attbench.harness import (
    METHODS,
    RECORD_COLUMNS,
    EstimateRecord,
    MethodMetrics,
    aggregate_cell,
    read_metrics_csv,
    read_records_csv,
    run_grid,
    run_replicate,
    write_records_csv,
)
from attbench.matching import caliper_block, psm_match
from attbench.numeric import MAX_REPLICATES, wald_estimate
from attbench.propensity import PsVector, estimate_ps

GRID_METHODS = ("LR", "CEM2", "IPW")


def cfg_for(scenario=1, setting=1, label="0.20", null=False, n_reps=1, seed=321):
    return CellConfig(
        scenario=scenario,
        setting=setting,
        prevalence_label=label,
        null_effect=null,
        n_reps=n_reps,
        master_seed=seed,
    )


def rec(method="LR", replicate=0, att=1.0, se=0.1, p=0.5, n_disc=0, flags=""):
    return EstimateRecord(method, replicate, att, se, p, n_disc, flags)


def failed_rec(method, replicate, error="NoMatchesError"):
    nan = float("nan")
    return EstimateRecord(method, replicate, nan, nan, nan, 0, f"failed:{error}")


class TestRunReplicate:
    def test_full_roster_one_record_each(self):
        records = run_replicate(cfg_for(label="0.50"), -0.0694, 0)
        assert tuple(r.method for r in records) == METHODS
        assert {r.replicate for r in records} == {0}

    def test_identical_on_repeat(self):
        twice = [run_replicate(cfg_for(label="0.50"), -0.0694, 3) for _ in range(2)]
        assert twice[0] == twice[1]

    def test_method_subset_respected(self):
        records = run_replicate(cfg_for(label="0.50"), -0.0694, 0, methods=("PSM", "IPW"))
        assert tuple(r.method for r in records) == ("PSM", "IPW")

    def test_unknown_method_fails_before_the_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("the cohort was drawn before the methods were looked up")

        monkeypatch.setattr(harness, "generate_replicate", no_draw)
        with pytest.raises(KeyError, match="OLS"):
            run_replicate(cfg_for(label="0.50"), -0.0694, 0, methods=("LR", "OLS"))

    def test_redraw_reaches_record_flags(self):
        cfg = cfg_for(label="0.50", seed=777)
        _, attempt = generate_replicate(cfg, -4.1, 1)
        assert attempt > 0
        records = run_replicate(cfg, -4.1, 1, methods=("LR",))
        assert "redrawn" in records[0].flags

    def test_psm_discard_count_matches_match_set(self):
        cfg = cfg_for(scenario=2, label="0.50")
        records = run_replicate(cfg, 0.048, 0, methods=("PSM",))
        ds, _ = generate_replicate(cfg, 0.048, 0)
        matches = psm_match(caliper_block(estimate_ps(ds.observed_covariates, ds.z).values, ds.z), 1)
        assert records[0].n_discarded == len(matches.discarded_treated) > 0

    def test_failures_flagged_never_raised(self):
        # At this intercept the n=100 cell draws 2-4 treated units, which
        # breaks different methods on different replicates; every failure
        # must surface as a flagged record with NaN estimates.
        cfg = cfg_for(label="0.50")
        for replicate in range(12):
            records = run_replicate(cfg, -4.2, replicate)
            assert tuple(r.method for r in records) == METHODS
            for r in records:
                if r.failed:
                    assert math.isnan(r.att) and math.isnan(r.p_value)
                    assert any(f.startswith("failed:") for f in r.flags.split(";"))

    def test_tmle_zero_se_is_a_flagged_failure(self, monkeypatch):
        # TMLE's SE is the root of its influence values' variance; a zero
        # variance makes it zero, which fails TMLE_SL as it would any method.
        cfg = cfg_for(label="0.50")
        expected = run_replicate(cfg, -0.0694, 0)
        monkeypatch.setattr(np, "var", lambda values, ddof: 0.0)
        records = run_replicate(cfg, -0.0694, 0)
        assert records[:-1] == expected[:-1] and not any(r.failed for r in expected)
        tmle_record = records[-1]
        assert tmle_record.method == "TMLE_SL"
        assert tmle_record.flags == "failed:ZeroSeError"
        assert math.isnan(tmle_record.att) and math.isnan(tmle_record.p_value)

    def test_nan_se_is_a_flagged_failure(self, monkeypatch):
        # An estimate with a NaN SE has no p-value: it fails the replicate,
        # and the cell counts it in failure_rate, not as a gap in type1_rate.
        cfg = cfg_for(label="0.50")
        expected = run_replicate(cfg, -0.0694, 0, methods=("LR", "IPW"))
        monkeypatch.setattr(harness, "ipw_att", lambda *args: wald_estimate(0.1, float("nan")))
        records = [
            record
            for replicate in range(2)
            for record in run_replicate(cfg, -0.0694, replicate, methods=("LR", "IPW"))
        ]
        assert records[0] == expected[0] and not any(r.failed for r in expected)
        ipw = [r for r in records if r.method == "IPW"]
        assert all(r.flags == "failed:NonFiniteEstimateError" for r in ipw)
        assert all(math.isnan(r.att) and math.isnan(r.p_value) for r in ipw)
        lr_metrics, ipw_metrics = aggregate_cell(records, truth=0.0, n_reps=2)
        assert (ipw_metrics.n_valid, ipw_metrics.failure_rate) == (0, 1.0)
        assert lr_metrics.failure_rate == 0.0

    def test_shared_input_failure_hits_all_consumers_alike(self):
        # Replicate 5 trims every control away: IPW and AIPW consume the
        # same memoized trimming failure, and both stacked methods share
        # the same ensemble failure.
        records = {r.method: r for r in run_replicate(cfg_for(label="0.50"), -4.2, 5)}
        assert "failed:AllTrimmedError" in records["IPW"].flags
        assert records["IPW"].flags == records["AIPW"].flags
        assert records["AIPW_SL"].failed
        assert records["AIPW_SL"].flags == records["TMLE_SL"].flags

    def test_method_table_calls_each_estimator_as_a_module_global(self, monkeypatch):
        # A table that bound estimator functions at import would bypass
        # these replacements and count nothing.
        expected = {
            "generate_replicate": 1,
            "estimate_ps": 2,
            "trim_ps": 1,
            "truncate_ps": 1,
            "fit_ols": 1,
            "wald_estimate": 1,
            "cem_match": 2,
            "cem_att": 2,
            "caliper_block": 1,
            "psm_match": 2,
            "mdm_match": 1,
            "matched_att": 3,
            "ols_outcome_design": 1,
            "ols_arm_predictions": 1,
            "fit_outcome_models": 1,
            "ipw_att": 1,
            "aipw_att": 2,
            "tmle_att": 1,
        }
        calls = Counter()
        for name in expected:
            real = getattr(harness, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(harness, name, counting)
        records = harness.run_replicate(cfg_for(label="0.50"), -0.0694, 0, METHODS)
        assert not any(r.failed for r in records)
        assert dict(calls) == expected

    def test_every_engine_design_is_column_major(self, monkeypatch):
        # The same design in C and in F order can give fits that differ by
        # round-off (see glm.fit_folds), so every design any method hands
        # the fitting engine is in F order.
        real, column_major = glm._fit_stack, []

        def recording(design, *args):
            column_major.append(design.flags.f_contiguous)
            return real(design, *args)

        monkeypatch.setattr(glm, "_fit_stack", recording)
        pairs = [(scenario, label) for scenario in (1, 2, 3) for label in ("0.05", "0.50")]
        for (scenario, label), alpha0 in harness.oracle_intercepts(pairs, 42, 10**5).items():
            for setting in (1, 2, 3):
                for null in (False, True):
                    calls = len(column_major)
                    run_replicate(cfg_for(scenario, setting, label, null), alpha0, 0)
                    assert len(column_major) > calls
        assert all(column_major)

    def test_matching_failure_instance(self):
        records = {r.method: r for r in run_replicate(cfg_for(label="0.50"), -4.2, 11)}
        for method in ("PSM", "PSM_1:2", "MDM"):
            assert "failed:TooFewPairsError" in records[method].flags
        assert not records["LR"].failed


def counting_calls(monkeypatch, module, name, calls: Counter) -> None:
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def edit_cohorts(monkeypatch, edit) -> None:
    """Make ``run_replicate`` see ``edit(ds)`` in place of each drawn cohort ``ds``."""
    real = harness.generate_replicate

    def drawn(*args):
        ds, attempt = real(*args)
        return edit(ds), attempt

    monkeypatch.setattr(harness, "generate_replicate", drawn)


class TestSharedNuisances:
    """LR and AIPW share one least-squares outcome fit, and PSM, PSM_1:2
    and MDM one caliper block; a failure of either reaches each of its
    consumers as the same flag."""

    @pytest.mark.parametrize(
        "methods, shared",
        [(("LR", "AIPW"), "fit_ols"), (("PSM", "PSM_1:2", "MDM"), "caliper_block")],
        ids=["outcome-fit", "caliper-block"],
    )
    def test_built_once_per_replicate(self, monkeypatch, methods, shared):
        calls = Counter()
        counting_calls(monkeypatch, harness, shared, calls)
        # A fit through weighting's fit_ols would be a second one.
        counting_calls(monkeypatch, weighting, "fit_ols", calls)
        for replicate in range(3):
            records = run_replicate(cfg_for(label="0.50"), -0.0694, replicate, methods)
            assert not any(r.failed for r in records)
        assert dict(calls) == {shared: 3}

    def test_rank_deficient_outcome_design_flags_lr_and_aipw_alike(self, monkeypatch):
        def collinear(ds):
            x = ds.x.copy()
            x[:, 2] = x[:, 0] + x[:, 1]
            return dataclasses.replace(ds, x=x)

        edit_cohorts(monkeypatch, collinear)
        records = {r.method: r for r in run_replicate(cfg_for(label="0.50"), -0.0694, 0, ("LR", "AIPW", "IPW"))}
        assert records["LR"].flags == records["AIPW"].flags == "failed:RankDeficientError"
        assert not records["IPW"].failed

    @pytest.mark.parametrize("score_fits", [False, True], ids=["score-fit-fails", "caliper-block-fails"])
    def test_one_arm_score_failure_flags_matchers_alike(self, monkeypatch, score_fits):
        edit_cohorts(monkeypatch, lambda ds: dataclasses.replace(ds, z=np.zeros_like(ds.z)))
        if score_fits:
            # A score for the one-arm cohort, so the caliper block is what fails.
            monkeypatch.setattr(
                harness, "estimate_ps", lambda x, z, *args, **kwargs: PsVector(
                    np.full(z.size, 0.5), np.ones(z.size, dtype=bool)
                )
            )
        calls = Counter()
        counting_calls(monkeypatch, harness, "caliper_block", calls)
        records = run_replicate(cfg_for(label="0.50"), -0.0694, 0, ("PSM", "PSM_1:2", "MDM"))
        error = "NoMatchesError" if score_fits else "OneClassError"
        assert {r.flags for r in records} == {f"failed:{error}"}
        assert calls["caliper_block"] == int(score_fits)


class TestReplicateIndependence:
    """Replicate r's records do not depend on how many replicates its cell runs."""

    CELLS = (dict(scenario=2, setting=3, label="0.50"), dict(scenario=3, setting=1, label="0.20", null=True))

    @pytest.mark.parametrize("cell", CELLS, ids=["s2t3p050_effect", "s3t1p020_null"])
    def test_run_replicate_ignores_n_reps(self, cell):
        alpha0 = harness.oracle_intercepts([(cell["scenario"], cell["label"])], 42, 10**5)
        alpha0 = alpha0[(cell["scenario"], cell["label"])]
        for replicate in (0, 1):
            four = run_replicate(cfg_for(**cell, n_reps=4), alpha0, replicate)
            two = run_replicate(cfg_for(**cell, n_reps=2), alpha0, replicate)
            assert tuple(r.method for r in four) == METHODS
            # repr keeps every float bit and lets NaN fields of failed records compare.
            assert repr(four) == repr(two)

    def test_cell_worker_prefix_ignores_n_reps(self):
        cell = dict(scenario=3, setting=3, label="0.05")
        alpha0 = harness.oracle_intercepts([(3, "0.05")], 42, 10**5)[(3, "0.05")]
        four = harness._cell_worker((cfg_for(**cell, n_reps=4), alpha0, METHODS))
        two = harness._cell_worker((cfg_for(**cell, n_reps=2), alpha0, METHODS))
        assert len(four) == 4 * len(METHODS) and len(two) == 2 * len(METHODS) == 20
        assert repr(four[:20]) == repr(two)

    def test_grid_records_ignore_n_reps(self, tmp_path):
        stores = {}
        for n_reps in (4, 2):
            cells = [cfg_for(**cell, n_reps=n_reps) for cell in self.CELLS]
            run_small_grid(tmp_path / str(n_reps), cells=cells, methods=METHODS)
            stores[n_reps] = {
                cfg.name: (tmp_path / str(n_reps) / "cells" / f"{cfg.name}_records.csv").read_text().splitlines()
                for cfg in cells
            }
        replicate = RECORD_COLUMNS.index("replicate")
        for name, rows in stores[4].items():
            first_two = [row for row in rows[1:] if row.split(",")[replicate] in ("0", "1")]
            assert len(first_two) == 2 * len(METHODS)
            assert {row.split(",")[0] for row in first_two} == set(METHODS)
            assert [rows[0]] + first_two == stores[2][name]


class TestAggregateCell:
    def test_exact_estimates_have_zero_bias_and_mse(self):
        records = [rec(replicate=i, att=2.5) for i in range(5)]
        (m,) = aggregate_cell(records, truth=2.5, n_reps=5)
        assert m.bias == 0.0
        assert m.mse == 0.0
        assert m.n_valid == 5
        assert m.failure_rate == 0.0

    def test_alternating_unit_errors(self):
        records = [
            rec(replicate=i, att=1.0 + (1.0 if i % 2 == 0 else -1.0)) for i in range(200)
        ]
        (m,) = aggregate_cell(records, truth=1.0, n_reps=200)
        assert m.bias == 0.0
        assert m.mse == pytest.approx(1.0, abs=1e-12)
        assert m.empirical_sd == pytest.approx(math.sqrt(200.0 / 199.0), rel=1e-12)
        assert m.empirical_sd == pytest.approx(1.0025, abs=1e-4)

    def test_large_p_values_give_zero_type1(self):
        records = [rec(replicate=i, p=0.99) for i in range(10)]
        (m,) = aggregate_cell(records, truth=1.0, n_reps=10)
        assert m.type1_rate == 0.0

    def test_mse_identity(self, np_rng):
        records = [
            rec(replicate=i, att=float(a), se=float(s), p=float(p))
            for i, (a, s, p) in enumerate(
                zip(
                    np_rng.standard_normal(50),
                    np_rng.uniform(0.05, 0.2, 50),
                    np_rng.uniform(size=50),
                )
            )
        ]
        (m,) = aggregate_cell(records, truth=0.3, n_reps=50)
        reconstructed = m.bias**2 + m.empirical_sd**2 * (49.0 / 50.0)
        assert m.mse == pytest.approx(reconstructed, abs=1e-10)
        assert m.avg_theoretical_sd == pytest.approx(
            np.mean([r.theoretical_se for r in records]), rel=1e-12
        )

    def test_failures_excluded_from_moments(self):
        good = [rec(replicate=i, att=1.0, p=0.001) for i in range(7)]
        bad = [failed_rec("LR", 7 + i) for i in range(3)]
        (m,) = aggregate_cell(good + bad, truth=1.0, n_reps=10)
        assert m.n_valid == 7
        assert m.failure_rate == pytest.approx(0.3)
        assert m.bias == 0.0
        assert m.type1_rate == 1.0

    def test_under_two_valid_replicates_yield_nan_moments(self):
        records = [rec(replicate=0)] + [failed_rec("LR", 1 + i) for i in range(4)]
        (m,) = aggregate_cell(records, truth=1.0, n_reps=5)
        assert m.n_valid == 1
        assert math.isnan(m.bias) and math.isnan(m.mse) and math.isnan(m.type1_rate)
        assert m.failure_rate == pytest.approx(0.8)

    def test_methods_reported_in_roster_order(self):
        records = [rec(method="IPW"), rec(method="IPW", replicate=1)]
        records += [rec(method="CEM2"), rec(method="CEM2", replicate=1)]
        metrics = aggregate_cell(records, truth=1.0, n_reps=2)
        assert [m.method for m in metrics] == ["CEM2", "IPW"]

    def test_empty_or_single_replicate_rejected(self):
        with pytest.raises(InsufficientReplicatesError):
            aggregate_cell([], truth=1.0, n_reps=5)
        with pytest.raises(InsufficientReplicatesError):
            aggregate_cell([rec()], truth=1.0, n_reps=1)


class TestRecordStore:
    def test_roundtrip(self, tmp_path):
        records = [
            rec(method="PSM", replicate=1, att=0.25, se=0.5, p=0.617, n_disc=3, flags="redrawn"),
            rec(method="LR", replicate=0, att=-1.5, se=0.25, p=1e-9),
            failed_rec("MDM", 0),
        ]
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        back = read_records_csv(path)
        assert len(back) == 3
        by_key = {(r.method, r.replicate): r for r in back}
        for original in records:
            loaded = by_key[(original.method, original.replicate)]
            assert loaded.flags == original.flags
            assert loaded.n_discarded == original.n_discarded
            for f in ("att", "theoretical_se", "p_value"):
                a, b = getattr(loaded, f), getattr(original, f)
                assert (math.isnan(a) and math.isnan(b)) or a == b

    def test_write_order_is_canonical(self, tmp_path):
        records = [rec(method=m, replicate=i) for i in (1, 0) for m in ("IPW", "LR")]
        write_records_csv(tmp_path / "a.csv", records)
        write_records_csv(tmp_path / "b.csv", records[::-1])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        loaded = read_records_csv(tmp_path / "a.csv")
        assert [(r.replicate, r.method) for r in loaded] == [
            (0, "LR"),
            (0, "IPW"),
            (1, "LR"),
            (1, "IPW"),
        ]

    def test_unexpected_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,replicate,att\nLR,0,1.0\n")
        with pytest.raises(CorruptManifestError, match=f"store table {re.escape(str(path))} has columns"):
            read_records_csv(path)

    @pytest.mark.parametrize(
        "reader, row",
        [
            (read_records_csv, "LR,two,1.0,0.5,0.3,0,"),
            (read_records_csv, "LR,0,1.0"),
            (read_metrics_csv, "LR,two,0.1,0.2,0.2,0.05,nan,0.0"),
            (read_metrics_csv, "LR,3,0.1,0.2"),
            (read_metrics_csv, "LR,3,0.1,0.2,0.2,0.05,nan,0.0,0.0"),
        ],
        ids=["records-text-int", "records-short", "metrics-text-int", "metrics-short", "metrics-long"],
    )
    def test_unreadable_row_names_the_file_and_line(self, tmp_path, reader, row):
        columns = RECORD_COLUMNS if reader is read_records_csv else harness.METRIC_COLUMNS
        path = tmp_path / "table.csv"
        path.write_text(",".join(columns) + "\n" + row + "\n")
        with pytest.raises(CorruptManifestError, match=f"store table {re.escape(str(path))} line 2 cannot be read"):
            reader(path)

    def test_metrics_read_back_rewrite_the_same_bytes(self, tmp_path):
        # CEM2 has one valid replicate of three, so its moments are NaN.
        records = [
            rec(method=m, replicate=i, att=0.1 * i - 0.3, se=0.2 + i, p=0.01 * i) for i in range(3) for m in ("LR", "IPW")
        ]
        records += [rec(method="CEM2", att=0.5), failed_rec("CEM2", 1), failed_rec("CEM2", 2)]
        metrics = aggregate_cell(records, truth=-0.1, n_reps=3)
        assert math.isnan(metrics[1].bias) and metrics[1].method == "CEM2"
        harness.write_metrics_csv(tmp_path / "a.csv", metrics)
        harness.write_metrics_csv(tmp_path / "b.csv", read_metrics_csv(tmp_path / "a.csv"))
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


class TestStoreTextFormat:
    """The exact text of every store table: floats as their shortest
    round-trip repr (nan, signed zero and subnormal-scale values included,
    numpy scalars written like Python floats), flags as the record holds them."""

    NAN = float("nan")
    SUM = 0.1 + 0.2
    NP_SUM = np.float64(0.1) + np.float64(0.2)

    def test_records_text(self, tmp_path):
        records = [
            rec(method="IPW", replicate=1, att=self.NP_SUM, se=np.float64(1e-300), p=-0.0, n_disc=2,
                flags="nonconverged;redrawn;trimmed"),
            rec(method="LR", replicate=1, att=-0.0, se=self.SUM, p=1e-300),
            failed_rec("MDM", 0),
            rec(method="LR", replicate=0, att=np.float64(-2.5), se=0.1, p=np.float64(1.0), flags="redrawn"),
        ]
        write_records_csv(tmp_path / "records.csv", records)
        assert (tmp_path / "records.csv").read_text() == (
            "method,replicate,att,theoretical_se,p_value,n_discarded,flags\n"
            "LR,0,-2.5,0.1,1.0,0,redrawn\n"
            "MDM,0,nan,nan,nan,0,failed:NoMatchesError\n"
            "LR,1,-0.0,0.30000000000000004,1e-300,0,\n"
            "IPW,1,0.30000000000000004,1e-300,-0.0,2,nonconverged;redrawn;trimmed\n"
        )

    def test_metrics_text(self, tmp_path):
        metrics = [
            MethodMetrics("LR", 3, self.NP_SUM, -0.0, 1e-300, self.SUM, 0.0, 0.25),
            MethodMetrics("MDM", 1, self.NAN, self.NAN, self.NAN, self.NAN, self.NAN, 2.0 / 3.0),
        ]
        harness.write_metrics_csv(tmp_path / "metrics.csv", metrics)
        assert (tmp_path / "metrics.csv").read_text() == (
            "method,n_valid,bias,empirical_sd,avg_theoretical_sd,mse,type1_rate,failure_rate\n"
            "LR,3,0.30000000000000004,-0.0,1e-300,0.30000000000000004,0.0,0.25\n"
            "MDM,1,nan,nan,nan,nan,nan,0.6666666666666666\n"
        )

    def test_oracle_tables_text(self, tmp_path):
        intercepts = {(2, "0.50"): -0.0, (1, "0.05"): self.NP_SUM, (1, "0.20"): 1e-300}
        harness.write_calibration_csv(tmp_path / "calibration.csv", 42, 100000, intercepts)
        assert (tmp_path / "calibration.csv").read_text() == (
            "scenario,prevalence,oracle_seed,oracle_n,alpha0\n"
            "1,0.05,42,100000,0.30000000000000004\n"
            "1,0.20,42,100000,1e-300\n"
            "2,0.50,42,100000,-0.0\n"
        )
        truths = {
            (3, 3, "0.05", False): (np.float64(1.5) + self.SUM, np.float64(1e-300)),
            (3, 3, "0.05", True): (0.0, -0.0),
            (1, 2, "0.33", False): (1.0, self.NAN),
        }
        harness.write_truths_csv(tmp_path / "truths.csv", 7, 1000, truths)
        assert (tmp_path / "truths.csv").read_text() == (
            "scenario,setting,prevalence,arm,oracle_seed,oracle_n,truth,oracle_se\n"
            "1,2,0.33,effect,7,1000,1.0,nan\n"
            "3,3,0.05,effect,7,1000,1.8,1e-300\n"
            "3,3,0.05,null,7,1000,0.0,-0.0\n"
        )


def small_cells(n_reps=3, seed=555):
    return [
        cfg_for(label="0.50", n_reps=n_reps, seed=seed),
        cfg_for(label="0.33", n_reps=n_reps, seed=seed),
    ]


def run_small_grid(outdir, cells=None, **kwargs):
    kwargs.setdefault("methods", GRID_METHODS)
    kwargs.setdefault("calibration_n", 10**5)
    kwargs.setdefault("truth_n", 10**4)
    return run_grid(cells if cells is not None else small_cells(), outdir, **kwargs)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestRunGrid:
    def test_store_layout_and_counts(self, tmp_path):
        computed = run_small_grid(tmp_path)
        assert computed == ["s1t1p050_effect", "s1t1p033_effect"]
        for name in computed:
            records = read_records_csv(tmp_path / "cells" / f"{name}_records.csv")
            assert len(records) == 3 * len(GRID_METHODS)
            for method in GRID_METHODS:
                assert sum(r.method == method for r in records) == 3
            metrics = read_metrics_csv(tmp_path / "cells" / f"{name}_metrics.csv")
            assert [m.method for m in metrics] == list(GRID_METHODS)
            assert all(m.n_valid == 3 for m in metrics)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema_version"] == 3
        assert manifest["master_seed"] == 555
        assert set(manifest["cells"]) == set(computed)
        for name, entry in manifest["cells"].items():
            assert entry["complete"] is True
            assert entry["truth"] == 1.0
            records = (tmp_path / "cells" / f"{name}_records.csv").read_bytes()
            assert entry["records_sha256"] == hashlib.sha256(records).hexdigest()
        assert (tmp_path / "calibration.csv").exists()
        assert (tmp_path / "truths.csv").exists()

    def test_goldens_record_oracle_seed(self, tmp_path):
        run_small_grid(tmp_path, oracle_seed=9)
        calibration = (tmp_path / "calibration.csv").read_text().splitlines()
        assert calibration[0] == "scenario,prevalence,oracle_seed,oracle_n,alpha0"
        assert all(line.split(",")[2] == "9" for line in calibration[1:])

    def test_manifest_holds_only_the_keys_read_back(self, tmp_path):
        run_small_grid(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest.keys() == {
            "schema_version", "master_seed", "oracle_seed", "calibration_n", "truth_n",
            "calibration_sha256", "truths_sha256", "cells",
        }
        for name in ("calibration", "truths"):
            table = (tmp_path / f"{name}.csv").read_bytes()
            assert manifest[f"{name}_sha256"] == hashlib.sha256(table).hexdigest()
        for entry in manifest["cells"].values():
            assert entry.keys() == {
                "alpha0", "complete", "methods", "metrics_sha256", "n_reps", "records_sha256", "truth",
            }

    def test_resume_drops_top_level_keys_it_does_not_write(self, tmp_path):
        run_small_grid(tmp_path)
        before = tree_bytes(tmp_path)
        edit_manifest(
            tmp_path,
            lambda m: m.update(
                methods=list(GRID_METHODS), package_version="0.0.1", decisions={"trim_delta": 0.05}, unknown=[1],
                intercepts={"s1_p0.50": -0.07}, truths={"s1_t1_p0.50_effect": {"value": 1.0, "oracle_se": 0.0}},
            ),
        )
        assert run_small_grid(tmp_path) == []
        assert tree_bytes(tmp_path) == before

    def test_identical_stores_across_runs(self, tmp_path):
        run_small_grid(tmp_path / "a")
        run_small_grid(tmp_path / "b")
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_identical_stores_across_parallelism(self, tmp_path):
        run_small_grid(tmp_path / "serial", parallelism=1)
        run_small_grid(tmp_path / "parallel", parallelism=2)
        assert tree_bytes(tmp_path / "serial") == tree_bytes(tmp_path / "parallel")

    def test_pool_starts_at_most_one_worker_per_cell(self, tmp_path, monkeypatch):
        # A stand-in pool: it records its size and runs each cell inline, so
        # no process starts however many workers are asked for.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        # run_grid imports the pool from concurrent.futures when it needs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        run_small_grid(tmp_path / "pooled", parallelism=64)
        assert sizes == [2]
        run_small_grid(tmp_path / "serial", parallelism=1)
        assert tree_bytes(tmp_path / "pooled") == tree_bytes(tmp_path / "serial")

    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch):
        assert run_small_grid(tmp_path) == ["s1t1p050_effect", "s1t1p033_effect"]
        before = tree_bytes(tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("a completed cell was recomputed, read or aggregated again")

        for name in ("run_replicate", "read_records_csv", "aggregate_cell", "write_metrics_csv"):
            monkeypatch.setattr(harness, name, boom)
        assert run_small_grid(tmp_path) == []
        assert tree_bytes(tmp_path) == before

    def test_progress_lines_count_cells_and_time_the_oracles(self, tmp_path):
        lines: list[str] = []
        run_small_grid(tmp_path / "logged", log=lines.append)
        assert lines[0] == "calibrating 2 treatment intercepts"
        assert re.fullmatch(r"oracles took \d+\.\d\d s", lines[1])
        assert lines[2:] == ["finished cell s1t1p050_effect (1/2)", "finished cell s1t1p033_effect (2/2)"]
        lines.clear()
        run_small_grid(tmp_path / "logged", log=lines.append)
        assert lines[2:] == ["reusing completed cell s1t1p050_effect (1/2)", "reusing completed cell s1t1p033_effect (2/2)"]
        run_small_grid(tmp_path / "quiet")
        assert tree_bytes(tmp_path / "logged") == tree_bytes(tmp_path / "quiet")

    def test_partial_failure_persists_good_cells_then_resumes(self, tmp_path, monkeypatch):
        real = run_replicate

        def flaky(cfg, alpha0, replicate, methods=None):
            if cfg.prevalence_label == "0.33":
                raise NoMatchesError("synthetic breakage")
            return real(cfg, alpha0, replicate, methods)

        monkeypatch.setattr("attbench.harness.run_replicate", flaky)
        with pytest.raises(PartialGridError) as excinfo:
            run_small_grid(tmp_path / "store")
        assert str(excinfo.value) == "1 cells failed: ['s1t1p033_effect']"
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert set(manifest["cells"]) == {"s1t1p050_effect"}

        monkeypatch.undo()
        calls = Counter()
        for name in ("read_records_csv", "aggregate_cell"):
            counting_calls(monkeypatch, harness, name, calls)
        # Only the failed cell is computed; the good one is reused unread.
        assert run_small_grid(tmp_path / "store") == ["s1t1p033_effect"]
        assert dict(calls) == {"aggregate_cell": 1}
        run_small_grid(tmp_path / "fresh")
        assert tree_bytes(tmp_path / "store") == tree_bytes(tmp_path / "fresh")

    def test_interrupted_grid_records_its_finished_cells(self, tmp_path, monkeypatch):
        real = run_replicate
        writes: Counter = Counter()
        counting_calls(monkeypatch, harness, "_write_manifest", writes)

        def interrupted(cfg, alpha0, replicate, methods=None):
            if cfg.prevalence_label == "0.33":
                raise KeyboardInterrupt
            return real(cfg, alpha0, replicate, methods)

        monkeypatch.setattr("attbench.harness.run_replicate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_small_grid(tmp_path)
        # A short grid writes its manifest once, as it stops.
        assert writes["_write_manifest"] == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["cells"]) == {"s1t1p050_effect"}

    def test_hard_killed_grid_resumes_to_a_fresh_store(self, tmp_path):
        # A hard kill skips run_grid's `finally`, so the manifest misses every
        # cell finished since its last write; the resume recomputes them.
        def killed_in_the_second_cell():
            real = harness.run_replicate

            def dying(cfg, alpha0, replicate, methods=None):
                if cfg.prevalence_label == "0.33":
                    os._exit(9)
                return real(cfg, alpha0, replicate, methods)

            harness.run_replicate = dying
            run_small_grid(tmp_path / "store")

        process = multiprocessing.get_context("fork").Process(target=killed_in_the_second_cell)
        process.start()
        process.join()
        assert process.exitcode == 9
        assert (tmp_path / "store" / "cells" / "s1t1p050_effect_records.csv").exists()
        run_small_grid(tmp_path / "store")
        run_small_grid(tmp_path / "fresh")
        assert tree_bytes(tmp_path / "store") == tree_bytes(tmp_path / "fresh")

    def test_interrupted_pool_starts_no_queued_cell(self, tmp_path, monkeypatch):
        # Forked workers inherit this run_replicate: it marks each cell's
        # start and sleeps, so the first cell finishes while most still queue.
        real = run_replicate
        started = tmp_path / "started"
        started.mkdir()

        def marked(cfg, alpha0, replicate, methods=None):
            (started / cfg.name).touch()
            time.sleep(0.2)
            return real(cfg, alpha0, replicate, methods)

        def log(message):
            if message.startswith("finished cell"):
                raise KeyboardInterrupt

        labels = dgp.PREVALENCE_LABELS[1:]
        cells = [cfg_for(label=label, null=null, n_reps=2) for label in labels for null in (False, True)]
        monkeypatch.setattr(harness, "run_replicate", marked)
        with pytest.raises(KeyboardInterrupt):
            run_small_grid(tmp_path / "store", cells=cells, parallelism=2, log=log)
        assert 1 <= len(list(started.iterdir())) < len(cells)
        monkeypatch.undo()
        run_small_grid(tmp_path / "store", cells=cells)
        run_small_grid(tmp_path / "fresh", cells=cells)
        assert tree_bytes(tmp_path / "store") == tree_bytes(tmp_path / "fresh")

    def test_pool_workers_ignore_sigint(self, tmp_path, monkeypatch):
        # A worker that a Ctrl-C interrupts inside the pool's queue code can
        # keep the queue's lock and hang the pool, so only the parent hears it.
        real = run_replicate
        handlers = tmp_path / "handlers"
        handlers.mkdir()

        def recording(cfg, alpha0, replicate, methods=None):
            (handlers / f"{cfg.name}_{replicate}").write_text(repr(signal.getsignal(signal.SIGINT)))
            return real(cfg, alpha0, replicate, methods)

        monkeypatch.setattr(harness, "run_replicate", recording)
        run_small_grid(tmp_path / "store", parallelism=2)
        seen = {path.read_text() for path in handlers.iterdir()}
        assert seen == {repr(signal.SIG_IGN)}

    def test_grid_validation(self, tmp_path):
        with pytest.raises(ValueError, match="no cells"):
            run_small_grid(tmp_path, cells=[])
        with pytest.raises(ValueError, match="duplicate"):
            run_small_grid(tmp_path, cells=small_cells() + small_cells()[:1])
        mixed = [cfg_for(label="0.50", n_reps=2, seed=1), cfg_for(label="0.33", n_reps=2, seed=2)]
        with pytest.raises(ValueError, match="master seed"):
            run_small_grid(tmp_path, cells=mixed)
        with pytest.raises(ValueError, match="no methods"):
            run_small_grid(tmp_path, methods=())
        # One replicate cannot be aggregated, and stream ids stop at MAX_REPLICATES.
        for n_reps in (1, MAX_REPLICATES + 1):
            with pytest.raises(ValueError, match=re.escape(f"n_reps must lie in [2, {MAX_REPLICATES}]")):
                run_small_grid(tmp_path, cells=[cfg_for(label="0.50", n_reps=n_reps)])
        assert list(tmp_path.iterdir()) == []

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown methods"):
            run_small_grid(tmp_path, methods=("PSM", "OLS"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("oracle_n", [0, -5])
    def test_empty_oracle_sample_rejected(self, tmp_path, oracle_n):
        # A drawn truth over no rows would divide by zero.
        setting3 = [cfg_for(setting=3, label="0.50", n_reps=2)]
        for sizes in ({"calibration_n": oracle_n}, {"truth_n": oracle_n}):
            with pytest.raises(ValueError, match="oracle sizes must be positive"):
                run_small_grid(tmp_path, cells=setting3, **sizes)
        assert list(tmp_path.iterdir()) == []

    def test_repeated_methods_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate methods"):
            run_small_grid(tmp_path / "store", methods=("PSM", "LR", "PSM"))
        assert not (tmp_path / "store").exists()

    def test_store_refuses_other_master_seed(self, tmp_path):
        run_small_grid(tmp_path)
        with pytest.raises(ValueError, match="different master seed"):
            run_small_grid(tmp_path, cells=small_cells(seed=556))

    @pytest.mark.parametrize("stored", [2, None], ids=["schema-2", "no-schema"])
    def test_store_of_another_schema_refused_before_writing(self, tmp_path, stored):
        # A store written before SciPy left the runtime holds records of its
        # round-off; it is refused, not resumed.
        run_small_grid(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        if stored is None:
            del manifest["schema_version"]
        else:
            manifest["schema_version"] = stored
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        before = tree_bytes(tmp_path)
        expected = f"different schema version (schema_version {stored} in the store, 3 now)"
        with pytest.raises(StoreMismatchError, match=re.escape(expected)):
            run_small_grid(tmp_path)
        assert tree_bytes(tmp_path) == before


def truth_cells():
    """One drawn (setting-3 effect) truth, its null arm, and a second pair."""
    return [
        cfg_for(setting=3, label="0.50", n_reps=3, seed=555),
        cfg_for(setting=3, label="0.50", null=True, n_reps=3, seed=555),
        cfg_for(setting=1, label="0.33", n_reps=3, seed=555),
    ]


def edit_manifest(store: Path, edit) -> None:
    manifest = json.loads((store / "manifest.json").read_text())
    edit(manifest)
    (store / "manifest.json").write_text(json.dumps(manifest))


def edit_table(store: Path, name: str, old: str, new: str) -> None:
    path = store / name
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def edit_truths_csv(store: Path, old: str, new: str) -> None:
    edit_table(store, "truths.csv", old, new)


def edit_drawn_truth_value(store: Path) -> None:
    line = next(l for l in (store / "truths.csv").read_text().splitlines() if l.startswith("1,3,0.50,effect,"))
    fields = line.split(",")
    fields[6] = repr(float(fields[6]) + 1e-9)
    edit_truths_csv(store, line, ",".join(fields))


def resign_table(store: Path, name: str) -> None:
    """Record the sha256 of oracle table ``name``, as edited, in the manifest."""
    digest = hashlib.sha256((store / name).read_bytes()).hexdigest()
    edit_manifest(store, lambda m: m.update({harness.ORACLE_DIGESTS[name]: digest}))


def shift_stored_intercept(store: Path, label: str, shift) -> None:
    """Give pair (1, ``label``) ``shift(alpha0)`` in ``calibration.csv``, re-signed."""
    line = next(l for l in (store / "calibration.csv").read_text().splitlines() if l.startswith(f"1,{label},"))
    fields = line.split(",")
    fields[4] = repr(shift(float(fields[4])))
    edit_table(store, "calibration.csv", line, ",".join(fields))
    resign_table(store, "calibration.csv")


def set_digest(name: str, value):
    return lambda store: edit_manifest(store, lambda m: m.update({harness.ORACLE_DIGESTS[name]: value}))


def drop_digest(name: str):
    return lambda store: edit_manifest(store, lambda m: m.pop(harness.ORACLE_DIGESTS[name]))


DRAWN = (3, False)  # (setting, null_effect) of each truth key in truth_cells()
NULL = (3, True)
OTHER = (1, False)
ALL = {DRAWN, NULL, OTHER}


class TestTruthReuse:
    """A run reuses each truth of a ``truths.csv`` that matches its digest
    when the pair's intercept in a ``calibration.csv`` that matches its
    digest recomputes to the same bits, and draws every other truth."""

    @pytest.fixture
    def calls(self, monkeypatch) -> list[tuple[int, bool]]:
        seen: list[tuple[int, bool]] = []
        real = harness.true_att

        def recording(spec, setting, alpha0, rng, oracle_n, null_effect=False):
            seen.append((setting, null_effect))
            return real(spec, setting, alpha0, rng, oracle_n=oracle_n, null_effect=null_effect)

        monkeypatch.setattr(harness, "true_att", recording)
        return seen

    def test_resume_draws_no_truth_and_keeps_every_byte(self, tmp_path, monkeypatch):
        run_small_grid(tmp_path, cells=truth_cells())
        before = tree_bytes(tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("a stored truth was recomputed")

        monkeypatch.setattr(harness, "true_att", boom)
        lines: list[str] = []
        run_small_grid(tmp_path, cells=truth_cells(), log=lines.append)
        assert tree_bytes(tmp_path) == before
        assert not any(line.startswith("computing setting-3 truth") for line in lines)

    @pytest.mark.parametrize(
        "damage, recomputed",
        [
            (edit_drawn_truth_value, ALL),
            (lambda store: (store / "truths.csv").unlink(), ALL),
            (lambda store: edit_truths_csv(store, "oracle_se", "se"), ALL),
            (lambda store: edit_truths_csv(store, "1,3,0.50,effect,7,", "1,3,0.50,effect,8,"), ALL),
            (drop_digest("truths.csv"), ALL),
            (set_digest("truths.csv", "0" * 64), ALL),
            (set_digest("truths.csv", 5), ALL),
            (lambda store: edit_table(store, "calibration.csv", "1,0.33,7,", "1,0.33,8,"), ALL),
            (lambda store: (store / "calibration.csv").unlink(), ALL),
            (lambda store: edit_table(store, "calibration.csv", "alpha0", "alpha"), ALL),
            (drop_digest("calibration.csv"), ALL),
            (set_digest("calibration.csv", "0" * 64), ALL),
            (set_digest("calibration.csv", None), ALL),
            (lambda store: shift_stored_intercept(store, "0.33", lambda a: a + 1e-12), {OTHER}),
        ],
        ids=[
            "truths-csv-value-edited", "truths-csv-deleted", "truths-csv-bad-header", "truths-csv-other-oracle-seed",
            "truths-digest-missing", "truths-digest-edited", "truths-digest-not-a-string",
            "calibration-csv-edited", "calibration-csv-deleted", "calibration-csv-bad-header",
            "calibration-digest-missing", "calibration-digest-edited", "calibration-digest-not-a-string",
            "calibration-intercept-edited-and-resigned",
        ],
    )
    def test_each_miss_recomputes_its_key_only(self, tmp_path, calls, damage, recomputed):
        # A table that fails its digest key redraws every truth it held; an
        # intercept that fails its pair redraws that pair's truths.
        run_small_grid(tmp_path / "fresh", cells=truth_cells(), oracle_seed=7)
        run_small_grid(tmp_path / "store", cells=truth_cells(), oracle_seed=7)
        damage(tmp_path / "store")
        calls.clear()
        lines: list[str] = []
        run_small_grid(tmp_path / "store", cells=truth_cells(), oracle_seed=7, log=lines.append)
        assert sorted(calls) == sorted(recomputed)
        drawn_line = "computing setting-3 truth for scenario 1, prevalence 0.50 from 10000 draws"
        assert (drawn_line in lines) == (DRAWN in recomputed)
        assert tree_bytes(tmp_path / "store") == tree_bytes(tmp_path / "fresh")

    def test_subset_resume_writes_only_its_keys(self, tmp_path, calls):
        run_small_grid(tmp_path / "subset", cells=truth_cells()[2:])
        run_small_grid(tmp_path / "full", cells=truth_cells())
        fresh_full = tree_bytes(tmp_path / "full")
        calls.clear()
        run_small_grid(tmp_path / "full", cells=truth_cells()[2:])
        assert calls == []
        for name in ("calibration.csv", "truths.csv"):
            assert (tmp_path / "full" / name).read_bytes() == (tmp_path / "subset" / name).read_bytes()
        full, subset = (json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("full", "subset"))
        for key in ("calibration_sha256", "truths_sha256"):
            assert full[key] == subset[key]
        # A cell's files do not depend on its sibling cells.
        for cfg in truth_cells()[2:]:
            for kind, path in harness.cell_paths(tmp_path / "subset", cfg.name).items():
                assert path.read_bytes() == fresh_full[f"cells/{cfg.name}_{kind}.csv"]
        # The full grid again: its dropped truths are drawn anew, to the same bytes.
        run_small_grid(tmp_path / "full", cells=truth_cells())
        assert sorted(calls) == sorted([DRAWN, NULL])
        assert tree_bytes(tmp_path / "full") == fresh_full

    def test_store_without_table_digests_draws_its_truths_once(self, tmp_path, monkeypatch, calls):
        # A store written before the tables had digests kept each intercept
        # and truth in the manifest as well; it resumes every cell unread.
        run_small_grid(tmp_path / "fresh", cells=truth_cells())
        run_small_grid(tmp_path / "store", cells=truth_cells())

        def as_older_store(m):
            for key in harness.ORACLE_DIGESTS.values():
                del m[key]
            alpha = m["cells"][DRAWN_CELL]["alpha0"]
            m["intercepts"] = {"s1_p0.33": m["cells"]["s1t1p033_effect"]["alpha0"], "s1_p0.50": alpha}
            m["truths"] = {
                f"s1_t{cfg.setting}_p{cfg.prevalence_label}_{dgp.ARMS[cfg.null_effect]}": {
                    "value": m["cells"][cfg.name]["truth"], "oracle_se": 0.0
                }
                for cfg in truth_cells()
            }

        edit_manifest(tmp_path / "store", as_older_store)
        cell_calls = reuse_calls(monkeypatch)
        calls.clear()
        assert run_small_grid(tmp_path / "store", cells=truth_cells()) == []
        assert cell_calls == []
        assert sorted(calls) == sorted(ALL)
        assert tree_bytes(tmp_path / "store") == tree_bytes(tmp_path / "fresh")
        calls.clear()
        run_small_grid(tmp_path / "store", cells=truth_cells())
        assert calls == []


def count_calibration_passes(monkeypatch) -> list[int]:
    """The size of each array ``dgp`` passes through ``expit``: a pass over
    a calibration sample adds up to its size, however many leaves it takes.
    On a resume that reuses every cell and truth, only the calibrations
    make any."""
    calls: list[int] = []
    real = dgp.expit

    def counting(x, *args, **kwargs):
        calls.append(np.size(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(dgp, "expit", counting)
    return calls


class TestOracleIntercepts:
    """The intercept table ``run`` writes, and ``ps-hist`` reads one pair of."""

    DESIGN = [(scenario, label) for scenario in (1, 2, 3) for label in dgp.PREVALENCE_LABELS]

    def test_default_design_yields_15_intercepts_rising_with_prevalence(self):
        intercepts = harness.oracle_intercepts(self.DESIGN, 42, 50_000)
        assert list(intercepts) == self.DESIGN
        for scenario in (1, 2, 3):
            ordered = [intercepts[(scenario, label)] for label in dgp.PREVALENCE_LABELS]
            assert ordered == sorted(ordered)

    def test_repeatable_and_independent_of_the_other_pairs(self):
        pair = (1, "0.20")
        alone = harness.oracle_intercepts([pair], 42, 50_000)
        assert harness.oracle_intercepts([pair], 42, 50_000) == alone
        assert harness.oracle_intercepts([(2, "0.50"), pair], 42, 50_000)[pair] == alone[pair]

    def test_seed_sensitivity_is_oracle_noise_sized(self):
        pair = (1, "0.20")
        alphas = [harness.oracle_intercepts([pair], seed, 100_000)[pair] for seed in (42, 43)]
        # Binomial oracle noise, delta-method through the mean logistic
        # density (~0.14 at this design point): about 0.009 per run at
        # n = 1e5, so three standard errors on the difference plus the
        # bisection tolerance stays well under 0.06.
        assert alphas[0] != alphas[1]
        assert abs(alphas[0] - alphas[1]) < 0.06


class TestInterceptResume:
    """A resume certifies each stored intercept in two passes over its
    redrawn calibration sample; a damaged one costs passes, not bytes."""

    def test_resume_makes_two_passes_per_pair(self, tmp_path, monkeypatch):
        run_small_grid(tmp_path, cells=truth_cells())
        before = tree_bytes(tmp_path)
        passes = count_calibration_passes(monkeypatch)
        run_small_grid(tmp_path, cells=truth_cells())
        assert sum(passes) == 2 * 2 * 10**5
        assert tree_bytes(tmp_path) == before

    def test_one_ulp_off_intercept_keeps_the_oracle_tables(self, tmp_path, monkeypatch):
        run_small_grid(tmp_path, cells=truth_cells())
        before = tree_bytes(tmp_path)
        shift_stored_intercept(tmp_path, "0.50", lambda alpha: float(np.nextafter(alpha, np.inf)))
        passes = count_calibration_passes(monkeypatch)
        lines: list[str] = []
        run_small_grid(tmp_path, cells=truth_cells(), log=lines.append)
        assert "computing setting-3 truth for scenario 1, prevalence 0.50 from 10000 draws" in lines
        # Two passes per intercept, then the setting-3 truth's draw.
        assert sum(passes) == 2 * 2 * 10**5 + 10**4
        assert tree_bytes(tmp_path) == before


def reuse_calls(monkeypatch) -> list[tuple[str, str]]:
    """``(function, cell)`` for each cell computed, read or aggregated."""
    calls: list[tuple[str, str]] = []
    real_replicate, real_read, real_aggregate = harness.run_replicate, harness.read_records_csv, harness.aggregate_cell

    def replicate(cfg, alpha0, replicate, methods=None):
        calls.append(("run_replicate", cfg.name))
        return real_replicate(cfg, alpha0, replicate, methods)

    def read(path):
        calls.append(("read_records_csv", Path(path).name.removesuffix("_records.csv")))
        return real_read(path)

    def aggregate(records, truth, n_reps):
        calls.append(("aggregate_cell", ""))
        return real_aggregate(records, truth, n_reps)

    monkeypatch.setattr(harness, "run_replicate", replicate)
    monkeypatch.setattr(harness, "read_records_csv", read)
    monkeypatch.setattr(harness, "aggregate_cell", aggregate)
    return calls


DRAWN_CELL = "s1t3p050_effect"  # the cell of truth_cells() whose truth is drawn


def edit_cell_entry(name: str, **values):
    return lambda store: edit_manifest(store, lambda m: m["cells"][name].update(values))


def edit_metrics_csv(store: Path) -> None:
    path = store / "cells" / f"{DRAWN_CELL}_metrics.csv"
    path.write_text(path.read_text().replace("LR,3,", "LR,2,", 1))


def drop_metrics_digests(store: Path) -> None:
    """The store as a version without metrics digests left it."""
    edit_manifest(store, lambda m: [entry.pop("metrics_sha256") for entry in m["cells"].values()])


def heals(name: str) -> list[tuple[str, str]]:
    return [("read_records_csv", name), ("aggregate_cell", "")]


class TestCellReuse:
    """A resume reuses a completed cell by its digests alone; a cell whose
    metrics file or truth disagrees heals from its records, and one drawn
    under another intercept is recomputed."""

    def test_entry_records_the_metrics_digest(self, tmp_path):
        run_small_grid(tmp_path, cells=truth_cells())
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for name, entry in manifest["cells"].items():
            metrics = (tmp_path / "cells" / f"{name}_metrics.csv").read_bytes()
            assert entry["metrics_sha256"] == hashlib.sha256(metrics).hexdigest()

    @pytest.mark.parametrize(
        "damage, expected",
        [
            (lambda store: (store / "cells" / f"{DRAWN_CELL}_metrics.csv").unlink(), heals(DRAWN_CELL)),
            (edit_metrics_csv, heals(DRAWN_CELL)),
            (edit_cell_entry(DRAWN_CELL, metrics_sha256="0" * 64), heals(DRAWN_CELL)),
            (edit_cell_entry(DRAWN_CELL, truth=0.5), heals(DRAWN_CELL)),
            (edit_cell_entry("s1t1p033_effect", truth=1), heals("s1t1p033_effect")),
            (drop_metrics_digests, [call for cfg in truth_cells() for call in heals(cfg.name)]),
            (edit_cell_entry(DRAWN_CELL, alpha0=0.25), [("run_replicate", DRAWN_CELL)] * 3 + [("aggregate_cell", "")]),
            (edit_cell_entry(DRAWN_CELL, alpha0="-0.07"), [("run_replicate", DRAWN_CELL)] * 3 + [("aggregate_cell", "")]),
        ],
        ids=[
            "metrics-deleted", "metrics-edited", "metrics-digest-edited", "truth-edited", "truth-an-int",
            "no-metrics-digests", "alpha0-edited", "alpha0-a-string",
        ],
    )
    def test_resume_touches_only_the_damaged_cell(self, tmp_path, monkeypatch, damage, expected):
        run_small_grid(tmp_path / "fresh", cells=truth_cells())
        run_small_grid(tmp_path / "store", cells=truth_cells())
        damage(tmp_path / "store")
        calls = reuse_calls(monkeypatch)
        lines: list[str] = []
        run_small_grid(tmp_path / "store", cells=truth_cells(), log=lines.append)
        assert calls == expected
        assert tree_bytes(tmp_path / "store") == tree_bytes(tmp_path / "fresh")
        recomputed = {cell for call, cell in expected if call == "run_replicate"}
        assert sum(line.startswith("reusing completed cell") for line in lines) == 3 - len(recomputed)

    def test_older_entry_keeps_its_truth_se_until_it_heals(self, tmp_path, monkeypatch):
        # Older stores wrote each truth's oracle SE into its cells' entries
        # as well; nothing reads it, so only a heal or a recomputation drops it.
        run_small_grid(tmp_path / "fresh", cells=truth_cells())
        run_small_grid(tmp_path / "store", cells=truth_cells())
        edit_manifest(tmp_path / "store", lambda m: [e.update(truth_oracle_se=0.5) for e in m["cells"].values()])
        edit_metrics_csv(tmp_path / "store")
        calls = reuse_calls(monkeypatch)
        assert run_small_grid(tmp_path / "store", cells=truth_cells()) == []
        assert calls == heals(DRAWN_CELL)
        store, fresh = tree_bytes(tmp_path / "store"), tree_bytes(tmp_path / "fresh")
        expected = json.loads(fresh.pop("manifest.json"))
        for name, entry in expected["cells"].items():
            if name != DRAWN_CELL:
                entry["truth_oracle_se"] = 0.5
        assert json.loads(store.pop("manifest.json")) == expected
        assert store == fresh

    @pytest.mark.parametrize(
        "damage",
        [
            edit_metrics_csv,
            edit_cell_entry(DRAWN_CELL, truth=0.5, stale="a key no run writes"),
            lambda store: edit_manifest(store, lambda m: m["cells"][DRAWN_CELL].pop("metrics_sha256")),
        ],
        ids=["metrics-edited", "truth-edited-with-a-stale-key", "no-metrics-digest"],
    )
    def test_heal_rewrites_the_metrics_file_and_the_whole_entry_only(self, tmp_path, damage):
        run_small_grid(tmp_path, cells=truth_cells())
        fresh = json.loads((tmp_path / "manifest.json").read_text())["cells"]
        records = tmp_path / "cells" / f"{DRAWN_CELL}_records.csv"
        # An old timestamp, so a rewrite shows whatever the file system's clock resolution.
        os.utime(records, ns=(10**18, 10**18))
        before = records.read_bytes()
        damage(tmp_path)
        run_small_grid(tmp_path, cells=truth_cells())
        assert records.read_bytes() == before
        assert records.stat().st_mtime_ns == 10**18
        healed = json.loads((tmp_path / "manifest.json").read_text())["cells"]
        computed_keys = fresh["s1t1p033_effect"].keys()
        assert healed[DRAWN_CELL].keys() == computed_keys
        assert healed == fresh
