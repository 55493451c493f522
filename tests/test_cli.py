"""Command line interface: config layering, subcommands, exit codes."""

import csv
import json
import shutil
from pathlib import Path

import pytest

from attbench.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    OUTPUT_DIR_ENV,
    ConfigError,
    RunConfig,
    _config_from_sources,
    build_cells,
    build_parser,
    main,
)
from attbench.errors import PartialGridError
from attbench.harness import aggregate_cell, read_records_csv


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def parse_run(*flags):
    return build_parser().parse_args(["run", *flags])


class TestConfigLayering:
    def test_defaults_give_full_design(self):
        cells = build_cells(RunConfig())
        assert len(cells) == 90
        assert len({c.name for c in cells}) == 90
        assert sum(c.null_effect for c in cells) == 45

    def test_subset_flags(self):
        cfg = _config_from_sources(
            parse_run("--scenarios", "2", "--settings", "1,3", "--prevalences", "0.20", "--arms", "effect")
        )
        cells = build_cells(cfg)
        assert [c.name for c in cells] == ["s2t1p020_effect", "s2t3p020_effect"]

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_reps": 50, "master_seed": 7, "scenarios": [3]}))
        cfg = _config_from_sources(parse_run("--config", str(config), "--n-reps", "7"))
        assert cfg.n_reps == 7
        assert cfg.master_seed == 7
        assert cfg.scenarios == (3,)

    def test_output_dir_precedence(self, tmp_path, monkeypatch):
        assert _config_from_sources(parse_run()).output_dir == "attbench-out"
        monkeypatch.setenv(OUTPUT_DIR_ENV, "from-env")
        assert _config_from_sources(parse_run()).output_dir == "from-env"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"output_dir": "from-config"}))
        assert _config_from_sources(parse_run("--config", str(config))).output_dir == "from-config"
        assert (
            _config_from_sources(
                parse_run("--config", str(config), "--output-dir", "from-flag")
            ).output_dir
            == "from-flag"
        )

    def test_prevalence_values_normalize_to_labels(self, tmp_path):
        cfg = _config_from_sources(parse_run("--prevalences", "0.3333333333333333,0.05"))
        assert cfg.prevalences == ("0.33", "0.05")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"prevalences": [0.2, "0.05"], "methods": None}))
        assert _config_from_sources(parse_run("--config", str(config))).prevalences == ("0.20", "0.05")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--scenarios", "4"),
            ("--settings", "0"),
            ("--prevalences", "0.17"),
            ("--arms", "effect,placebo"),
            ("--methods", "OLS"),
            ("--n-reps", "1"),
            ("--parallelism", "0"),
            ("--master-seed", "-1"),
            ("--truth-n", "10"),
            ("--n-reps", "65537"),
            ("--methods", "PSM,PSM"),
            ("--prevalences", "0.5,0.50"),
            ("--arms", "effect,effect"),
            ("--scenarios", "1,1"),
            ("--settings", "1,1"),
        ],
    )
    def test_invalid_values_rejected(self, flags):
        with pytest.raises(ConfigError):
            _config_from_sources(parse_run(*flags))

    def test_config_file_problems_rejected(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match="cannot read"):
            _config_from_sources(parse_run("--config", str(missing)))
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            _config_from_sources(parse_run("--config", str(bad_json)))
        non_object = tmp_path / "list.json"
        non_object.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            _config_from_sources(parse_run("--config", str(non_object)))
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"replications": 5}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            _config_from_sources(parse_run("--config", str(unknown)))
        wrong_types = (
            {"n_reps": "5"},
            {"parallelism": "2"},
            {"prevalences": 0.2},
            {"scenarios": 1},
            {"master_seed": 1.5},
            {"n_reps": True},
            {"arms": [["effect"]]},
        )
        for loaded in wrong_types:
            typed = tmp_path / "typed.json"
            typed.write_text(json.dumps(loaded))
            with pytest.raises(ConfigError, match=f"config key '{next(iter(loaded))}' must be"):
                _config_from_sources(parse_run("--config", str(typed)))

    def test_repeated_values_in_config_file_rejected(self, tmp_path):
        repeated = (
            {"scenarios": [2, 1, 2]},
            {"settings": [3, 3]},
            {"prevalences": [0.5, "0.50"]},
            {"arms": ["null", "null"]},
            {"methods": ["LR", "LR"]},
        )
        for loaded in repeated:
            config = tmp_path / "repeated.json"
            config.write_text(json.dumps(loaded))
            with pytest.raises(ConfigError, match=f"{next(iter(loaded))} repeat"):
                _config_from_sources(parse_run("--config", str(config)))


SMOKE_FLAGS = (
    "--scenarios", "1",
    "--settings", "1",
    "--prevalences", "0.50",
    "--arms", "effect",
    "--methods", "LR,IPW",
    "--n-reps", "2",
    "--calibration-n", "100000",
    "--truth-n", "1000",
    "--quiet",
)


class TestCmdRun:
    def test_smoke_run_writes_store(self, tmp_path, capsys):
        code = main(["run", *SMOKE_FLAGS, "--output-dir", str(tmp_path / "store")])
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["methods"] == ["LR", "IPW"]
        assert set(manifest["cells"]) == {"s1t1p050_effect"}
        assert "store written" in capsys.readouterr().err

    def test_output_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env-store"))
        assert main(["run", *SMOKE_FLAGS]) == EXIT_OK
        assert (tmp_path / "env-store" / "manifest.json").exists()

    def test_config_error_exit_code(self, capsys):
        assert main(["run", "--scenarios", "8"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_repeated_grid_value_exit_code(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["run", *SMOKE_FLAGS, "--methods", "PSM,PSM", "--output-dir", str(store)]) == EXIT_CONFIG
        assert "methods repeat ['PSM']" in capsys.readouterr().err
        assert not store.exists()

    def test_partial_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def partial(*args, **kwargs):
            raise PartialGridError({"s1t1p050_effect": ValueError("boom")})

        monkeypatch.setattr("attbench.cli.run_grid", partial)
        code = main(["run", *SMOKE_FLAGS, "--output-dir", str(tmp_path)])
        assert code == EXIT_PARTIAL
        assert "run incomplete" in capsys.readouterr().err

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "flag, value, words",
        [
            ("--master-seed", "7", "master seed"),
            ("--oracle-seed", "7", "oracle seed"),
            ("--calibration-n", "300000", "calibration n"),
            ("--truth-n", "2000", "truth n"),
        ],
    )
    def test_store_built_under_other_parameters_exit_code(self, tmp_path, capsys, flag, value, words):
        store = tmp_path / "store"
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_OK
        before = tree_bytes(store)
        capsys.readouterr()
        assert main(["run", *SMOKE_FLAGS, flag, value, "--output-dir", str(store)]) == EXIT_CONFIG
        assert f"different {words}" in capsys.readouterr().err
        assert tree_bytes(store) == before

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda lines: lines[:1] + [l for l in lines[1:] if int(l.split(",")[1]) < 2],
            lambda lines: lines + ["LR,garbage,1.0,0.1,0.5,0,"],
            lambda lines: lines[:-1] + [",".join(lines[-1].split(",")[:2])],
        ],
        ids=["cut-to-2-of-5-replicates", "garbage-row", "short-row"],
    )
    def test_corrupted_records_are_recomputed(self, tmp_path, capsys, corrupt):
        store = tmp_path / "store"
        flags = [*SMOKE_FLAGS, "--n-reps", "5", "--output-dir", str(store)]
        assert main(["run", *flags]) == EXIT_OK
        pristine = tree_bytes(store)
        records = store / "cells" / "s1t1p050_effect_records.csv"
        records.write_text("\n".join(corrupt(records.read_text().splitlines())) + "\n")
        capsys.readouterr()
        assert main(["report", "--store", str(store)]) == EXIT_CONFIG
        assert "s1t1p050_effect" in capsys.readouterr().err
        assert main(["run", *flags]) == EXIT_OK
        assert tree_bytes(store) == pristine

    def test_malformed_manifest_exit_code(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_OK
        # Cut JSON; "cells" not an object; a cell entry not an object.
        for text in ("{\n", '{"cells": []}\n', '{"cells": {"s1t1p050_effect": "complete"}}\n'):
            (store / "manifest.json").write_text(text)
            before = tree_bytes(store)
            capsys.readouterr()
            assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_CONFIG
            assert str(store / "manifest.json") in capsys.readouterr().err
            assert tree_bytes(store) == before


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# Each subcommand that writes into --output-dir, at its cheapest.
WRITING_COMMANDS = {
    "run": ("run", *SMOKE_FLAGS),
    "calibrate": ("calibrate", "--scenarios", "1", "--prevalences", "0.50", "--oracle-n", "1000"),
    "ps-hist": ("ps-hist", "--scenario", "1", "--n", "100", "--oracle-n", "1000"),
}


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_output_dir_naming_a_file_exit_code(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    assert main([*WRITING_COMMANDS[command], "--output-dir", str(taken)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: cannot create output directory {taken}" in err
    assert "Traceback" not in err
    assert taken.read_text() == "a file\n"


@pytest.mark.parametrize("command", ["run", "report"])
def test_manifest_naming_a_directory_exit_code(tmp_path, capsys, command):
    (tmp_path / "manifest.json").mkdir()
    if command == "run":
        argv = ["run", *SMOKE_FLAGS, "--output-dir", str(tmp_path)]
    else:
        argv = ["report", "--store", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG
    assert f"error: manifest {tmp_path / 'manifest.json'} cannot be read" in capsys.readouterr().err
    assert (tmp_path / "manifest.json").is_dir() and tree_bytes(tmp_path) == {}


def test_cells_naming_a_file_exit_code(tmp_path, capsys):
    (tmp_path / "cells").write_text("a file\n")
    assert main(["run", *SMOKE_FLAGS, "--output-dir", str(tmp_path)]) == EXIT_CONFIG
    assert f"error: store {tmp_path}: cannot create {tmp_path / 'cells'}" in capsys.readouterr().err
    assert tree_bytes(tmp_path) == {"cells": b"a file\n"}


class TestCmdCalibrate:
    def test_default_design_yields_15_intercepts(self, tmp_path, capsys):
        outdir = tmp_path / "cal"
        code = main(["calibrate", "--oracle-n", "50000", "--output-dir", str(outdir)])
        assert code == EXIT_OK
        lines = (outdir / "calibration.csv").read_text().splitlines()
        assert lines[0] == "scenario,prevalence,oracle_seed,oracle_n,alpha0"
        assert len(lines) == 16
        table = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(table) == 16  # header + one row per (scenario, prevalence)
        alphas = {}
        for line in lines[1:]:
            scenario, label, seed, n, alpha = line.split(",")
            assert (seed, n) == ("42", "50000")
            alphas[(int(scenario), label)] = float(alpha)
        # Prevalence rises with the intercept, scenario by scenario.
        for scenario in (1, 2, 3):
            ordered = [alphas[(scenario, p)] for p in ("0.05", "0.10", "0.20", "0.33", "0.50")]
            assert ordered == sorted(ordered)

    def test_idempotent(self, tmp_path):
        args = ["calibrate", "--scenarios", "1", "--prevalences", "0.20",
                "--oracle-n", "50000", "--output-dir", str(tmp_path)]
        assert main(args) == EXIT_OK
        first = (tmp_path / "calibration.csv").read_bytes()
        assert main(args) == EXIT_OK
        assert (tmp_path / "calibration.csv").read_bytes() == first

    def test_seed_sensitivity_is_oracle_noise_sized(self, tmp_path):
        alphas = []
        for seed in ("42", "43"):
            outdir = tmp_path / seed
            main(["calibrate", "--scenarios", "1", "--prevalences", "0.20",
                  "--oracle-seed", seed, "--oracle-n", "100000", "--output-dir", str(outdir)])
            line = (outdir / "calibration.csv").read_text().splitlines()[1]
            alphas.append(float(line.split(",")[4]))
        # Binomial oracle noise, delta-method through the mean logistic
        # density (~0.14 at this design point): about 0.009 per run at
        # n = 1e5, so three standard errors on the difference plus the
        # bisection tolerance stays well under 0.06.
        assert alphas[0] != alphas[1]
        assert abs(alphas[0] - alphas[1]) < 0.06

    def test_invalid_scenario_exit_code(self, capsys):
        assert main(["calibrate", "--scenarios", "7"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert main(["calibrate", "--oracle-n", "0"]) == EXIT_CONFIG
        assert main(["calibrate", "--oracle-seed", "-1"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_calibrate_ps_hist_and_run_agree_on_intercepts(self, tmp_path, capsys):
        oracle = ["--oracle-seed", "7", "--oracle-n", "100000"]
        assert main(["calibrate", "--scenarios", "1", "--prevalences", "0.50", *oracle,
                     "--output-dir", str(tmp_path / "cal")]) == EXIT_OK
        assert main(["ps-hist", "--scenario", "1", "--prevalence", "0.50", "--n", "1000", *oracle,
                     "--output-dir", str(tmp_path / "hist")]) == EXIT_OK
        hist_out = capsys.readouterr().out
        assert main(["run", *SMOKE_FLAGS, "--oracle-seed", "7", "--calibration-n", "100000",
                     "--output-dir", str(tmp_path / "run")]) == EXIT_OK
        table = (tmp_path / "cal" / "calibration.csv").read_text()
        assert (tmp_path / "run" / "calibration.csv").read_text() == table
        alpha0 = float(table.splitlines()[1].split(",")[4])
        assert f"alpha0 {alpha0:.6f}" in hist_out


def read_hist(path: Path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [(float(r["bin_lo"]), float(r["bin_hi"]), int(r["count"])) for r in rows]


def tail_mass_from(stdout: str) -> float:
    for line in stdout.splitlines():
        if line.startswith("mass outside"):
            return float(line.split(":")[1])
    raise AssertionError("tail mass line missing")


class TestCmdPsHist:
    def hist(self, tmp_path, capsys, scenario):
        code = main(["ps-hist", "--scenario", str(scenario), "--n", "50000",
                     "--oracle-n", "100000", "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_hist(tmp_path / f"ps_hist_s{scenario}_p020.csv")
        return rows, tail_mass_from(capsys.readouterr().out)

    def test_moderate_design_keeps_mass_central(self, tmp_path, capsys):
        rows, tail = self.hist(tmp_path, capsys, scenario=1)
        assert len(rows) == 20
        assert sum(count for _, _, count in rows) == 50000
        assert tail < 0.01

    def test_strong_design_spills_into_extreme_bins(self, tmp_path, capsys):
        rows, tail = self.hist(tmp_path, capsys, scenario=2)
        assert sum(count for _, _, count in rows) == 50000
        assert tail > 0.05
        assert rows[0][2] > 0 and rows[-1][2] > 0

    def test_bad_arguments_exit_code(self, capsys):
        assert main(["ps-hist", "--scenario", "5"]) == EXIT_CONFIG
        assert main(["ps-hist", "--scenario", "1", "--bins", "1"]) == EXIT_CONFIG
        assert main(["ps-hist", "--scenario", "1", "--oracle-seed", "-1"]) == EXIT_CONFIG
        assert main(["ps-hist", "--scenario", "1", "--oracle-n", "10"]) == EXIT_CONFIG
        capsys.readouterr()


REPORT_COLUMNS = (
    "scenario,setting,prevalence,method,n_valid,bias,empirical_sd,"
    "avg_theoretical_sd,mse,type1_rate,failure_rate"
)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("report-store")
    code = main(["run",
                 "--scenarios", "1", "--settings", "1",
                 "--prevalences", "0.50", "--arms", "effect,null",
                 "--methods", "LR,IPW", "--n-reps", "3",
                 "--calibration-n", "100000", "--truth-n", "1000",
                 "--quiet", "--output-dir", str(path)])
    assert code == EXIT_OK
    return path


class TestCmdReport:
    def test_missing_store_exit_code(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path / "void")]) == EXIT_CONFIG
        assert "no manifest" in capsys.readouterr().err

    # A completed cell entry that lacks "truth", which `report` reads.
    NO_TRUTH = json.dumps({"cells": {"s1t1p050_effect": {
        "complete": True, "n_reps": 2, "null_effect": False, "prevalence": "0.50", "scenario": 1, "setting": 1,
    }}})

    @pytest.mark.parametrize(
        "text",
        [
            "{\n", "[]\n", '{"cells": []}\n', '{"cells": {"s1t1p050_effect": "complete"}}\n', NO_TRUTH,
            {"n_reps": "3"}, {"truth": "1.0"}, {"scenario": [1]}, {"n_reps": 1}, {"n_reps": 4},
        ],
        ids=[
            "cut-json", "not-an-object", "cells-not-an-object", "cell-not-an-object", "cell-without-truth",
            "n-reps-a-string", "truth-a-string", "scenario-a-list", "n-reps-below-2", "n-reps-not-the-records",
        ],
    )
    def test_malformed_manifest_exit_code(self, store, tmp_path, capsys, text):
        if isinstance(text, dict):
            # A store whose records check out, with one key of one completed
            # cell set to a value of the wrong JSON type.
            shutil.copytree(store, tmp_path, dirs_exist_ok=True)
            manifest = json.loads((tmp_path / "manifest.json").read_text())
            manifest["cells"]["s1t1p050_effect"].update(text)
            text = json.dumps(manifest)
        (tmp_path / "manifest.json").write_text(text)
        assert main(["report", "--store", str(tmp_path)]) == EXIT_CONFIG
        assert str(tmp_path / "manifest.json") in capsys.readouterr().err

    def test_store_without_completed_cells(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text(json.dumps({"cells": {}}))
        assert main(["report", "--store", str(tmp_path)]) == EXIT_CONFIG
        assert "no completed cells" in capsys.readouterr().err

    def test_report_merges_arms_per_method(self, store, capsys):
        assert main(["report", "--store", str(store)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == REPORT_COLUMNS.split(",")
        assert len(out) == 3  # header + LR + IPW
        lines = (store / "report.csv").read_text().splitlines()
        assert lines[0] == REPORT_COLUMNS
        assert [l.split(",")[3] for l in lines[1:]] == ["LR", "IPW"]
        for line in lines[1:]:
            parts = line.split(",")
            assert "nan" not in parts[5:]

    def test_report_matches_raw_record_recomputation(self, store, capsys):
        assert main(["report", "--store", str(store)]) == EXIT_OK
        capsys.readouterr()
        manifest = json.loads((store / "manifest.json").read_text())
        expected = {}
        for name, entry in manifest["cells"].items():
            records = read_records_csv(store / "cells" / f"{name}_records.csv")
            metrics = aggregate_cell(records, entry["truth"], entry["n_reps"])
            for m in metrics:
                slot = expected.setdefault(m.method, {})
                if entry["null_effect"]:
                    slot["type1_rate"] = m.type1_rate
                else:
                    slot["bias"], slot["mse"] = m.bias, m.mse
        for line in (store / "report.csv").read_text().splitlines()[1:]:
            parts = line.split(",")
            method = parts[3]
            assert parts[5] == repr(expected[method]["bias"])
            assert parts[8] == repr(expected[method]["mse"])
            assert parts[9] == repr(expected[method]["type1_rate"])

    def test_report_is_deterministic(self, store, capsys):
        assert main(["report", "--store", str(store)]) == EXIT_OK
        first_out = capsys.readouterr().out
        first_csv = (store / "report.csv").read_bytes()
        assert main(["report", "--store", str(store)]) == EXIT_OK
        assert capsys.readouterr().out == first_out
        assert (store / "report.csv").read_bytes() == first_csv
