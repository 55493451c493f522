"""Command line interface: run's flags and their checks, subcommands, exit codes."""

import csv
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from attbench import cli, harness
from attbench.cli import (
    DEFAULT_OUTPUT_DIR,
    DESIGN_LISTS,
    EXIT_CONFIG,
    EXIT_OK,
    OUTPUT_DIR_ENV,
    ConfigError,
    _validate_run_config,
    build_cells,
    build_parser,
    main,
)
from attbench.dgp import PREVALENCE_LABELS
from attbench.harness import aggregate_cell, read_records_csv


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def parse_run(*flags):
    return build_parser().parse_args(["run", *flags])


class TestConfigLayering:
    def test_defaults_give_full_design(self):
        args = _validate_run_config(parse_run())
        assert {name: getattr(args, name) for name in DESIGN_LISTS} == DESIGN_LISTS
        assert (args.n_reps, args.master_seed, args.parallelism) == (200, 42, 1)
        cells = build_cells(vars(args), args.n_reps, args.master_seed)
        assert len(cells) == 90
        assert len({c.name for c in cells}) == 90
        assert sum(c.null_effect for c in cells) == 45

    def test_subset_flags(self):
        args = _validate_run_config(
            parse_run("--scenarios", "2", "--settings", "1,3", "--prevalences", "0.20", "--arms", "effect")
        )
        cells = build_cells(vars(args), args.n_reps, args.master_seed)
        assert [c.name for c in cells] == ["s2t1p020_effect", "s2t3p020_effect"]

    def test_output_dir_precedence(self, monkeypatch):
        assert _validate_run_config(parse_run()).output_dir == "attbench-out"
        monkeypatch.setenv(OUTPUT_DIR_ENV, "from-env")
        assert _validate_run_config(parse_run()).output_dir == "from-env"
        assert _validate_run_config(parse_run("--output-dir", "from-flag")).output_dir == "from-flag"

    def test_prevalence_values_normalize_to_labels(self):
        args = _validate_run_config(parse_run("--prevalences", "0.3333333333333333,0.05"))
        assert args.prevalences == ("0.33", "0.05")

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
            _validate_run_config(parse_run(*flags))


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
        assert set(manifest["cells"]) == {"s1t1p050_effect"}
        assert all(entry["methods"] == ["LR", "IPW"] for entry in manifest["cells"].values())
        assert "store written" in capsys.readouterr().err

    def test_output_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env-store"))
        assert main(["run", *SMOKE_FLAGS]) == EXIT_OK
        assert (tmp_path / "env-store" / "manifest.json").exists()

    def test_empty_output_dir_variable_means_the_default_for_run_and_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(OUTPUT_DIR_ENV, "")
        assert main(["run", *SMOKE_FLAGS]) == EXIT_OK
        assert main(["report"]) == EXIT_OK
        assert (tmp_path / DEFAULT_OUTPUT_DIR / "report.csv").exists()

    def test_reordered_methods_resume_the_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_OK
        before = tree_bytes(store)
        capsys.readouterr()
        loud = [flag for flag in SMOKE_FLAGS if flag != "--quiet"]
        assert main(["run", *loud, "--methods", "IPW,LR", "--output-dir", str(store)]) == EXIT_OK
        assert "reusing completed cell s1t1p050_effect" in capsys.readouterr().err
        assert tree_bytes(store) == before

    def test_run_that_writes_a_cell_deletes_the_stale_report(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_OK
        assert main(["report", "--store", str(store)]) == EXIT_OK
        # A resume that reuses every cell keeps the report, which still holds.
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_OK
        assert (store / "report.csv").is_file()
        # The later --n-reps wins, so the cell is computed again.
        assert main(["run", *SMOKE_FLAGS, "--n-reps", "3", "--output-dir", str(store)]) == EXIT_OK
        assert not (store / "report.csv").exists()
        # A cell computed again for its missing metrics file drops it too.
        assert main(["report", "--store", str(store)]) == EXIT_OK
        (store / "cells" / "s1t1p050_effect_metrics.csv").unlink()
        assert main(["run", *SMOKE_FLAGS, "--n-reps", "3", "--output-dir", str(store)]) == EXIT_OK
        assert not (store / "report.csv").exists()

    def test_config_error_exit_code(self, capsys):
        assert main(["run", "--scenarios", "8"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_repeated_grid_value_exit_code(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["run", *SMOKE_FLAGS, "--methods", "PSM,PSM", "--output-dir", str(store)]) == EXIT_CONFIG
        assert "methods repeat ['PSM']" in capsys.readouterr().err
        assert not store.exists()

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_calibrate_is_not_a_command(self, tmp_path, monkeypatch, capsys):
        # `run` writes the intercept table, and `ps-hist` prints one pair's.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["calibrate"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "argument command: invalid choice: 'calibrate'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert build_parser().format_usage() == "usage: attbench [-h] {run,ps-hist,report} ...\n"

    def test_config_is_not_a_flag(self, tmp_path, monkeypatch, capsys):
        # Each of run's parameters has one source, its flag.
        config = tmp_path / "f.json"
        config.write_text(json.dumps({"n_reps": 2}))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(config)])
        assert exit_info.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: --config {config}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--scenarios", "", "scenarios must be a non-empty subset of [1, 2, 3]"),
            ("--scenarios", "1,1", "scenarios repeat [1]; list each value once"),
            ("--scenarios", "7", "scenarios must be a non-empty subset of [1, 2, 3]"),
            ("--prevalences", "", f"prevalences must be a non-empty subset of {list(PREVALENCE_LABELS)}"),
            ("--prevalences", "0.50,0.5", "prevalences repeat ['0.50']; list each value once"),
            ("--prevalences", "0.17", f"prevalence 0.17 is not in the design: {PREVALENCE_LABELS}"),
            ("--prevalences", "abc", f"prevalence 'abc' is not in the design: {PREVALENCE_LABELS}"),
        ],
        ids=["empty-scenarios", "repeated-scenarios", "unknown-scenario",
             "empty-prevalences", "repeated-prevalences", "unknown-prevalence", "malformed-prevalence"],
    )
    def test_bad_list_exit_code_and_message(self, tmp_path, monkeypatch, capsys, flag, value, message):
        # ps-hist answers its bad values with these messages too (TestCmdPsHist).
        monkeypatch.chdir(tmp_path)
        assert main(["run", flag, value]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

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

    def test_records_with_a_resigned_header_exit_code(self, tmp_path, capsys):
        # The records file passes its digest, but the deleted metrics file
        # does not, so the run computes the cell again without reading it.
        store = tmp_path / "store"
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_OK
        pristine = tree_bytes(store)
        records = store / "cells" / "s1t1p050_effect_records.csv"
        records.write_text(records.read_text().replace("p_value", "p", 1))
        resign(store, "s1t1p050_effect", "records")
        (store / "cells" / "s1t1p050_effect_metrics.csv").unlink()
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_OK
        assert tree_bytes(store) == pristine

    def test_records_with_a_resigned_bad_row_exit_code(self, tmp_path, capsys):
        # As above, but the header stands and one row's replicate is text.
        store = tmp_path / "store"
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_OK
        pristine = tree_bytes(store)
        records = store / "cells" / "s1t1p050_effect_records.csv"
        lines = records.read_text().splitlines()
        lines[1] = lines[1].replace(",0,", ",zero,", 1)
        records.write_text("\n".join(lines) + "\n")
        resign(store, "s1t1p050_effect", "records")
        (store / "cells" / "s1t1p050_effect_metrics.csv").unlink()
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_OK
        assert tree_bytes(store) == pristine

    def test_oracle_table_with_a_resigned_header_exit_code(self, tmp_path, capsys):
        # run parses an oracle table that passes its digest, and stops at its header.
        store = tmp_path / "store"
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_OK
        truths = store / "truths.csv"
        truths.write_text(truths.read_text().replace("oracle_se", "se", 1))
        manifest = json.loads((store / "manifest.json").read_text())
        manifest["truths_sha256"] = hashlib.sha256(truths.read_bytes()).hexdigest()
        (store / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: store table {truths} has columns" in err
        assert "Traceback" not in err

    def test_store_of_an_older_schema_exit_code(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_OK
        manifest = json.loads((store / "manifest.json").read_text())
        manifest["schema_version"] = 2
        (store / "manifest.json").write_text(json.dumps(manifest))
        before = tree_bytes(store)
        capsys.readouterr()
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(store)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "different schema version" in err
        assert err.rstrip().endswith("; rebuild it in a fresh --output-dir")
        assert "the store's parameters" not in err
        assert tree_bytes(store) == before

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


def resign(store: Path, name: str, kind: str) -> None:
    """Record the sha256 of cell ``name``'s ``kind`` file, as edited, in the manifest."""
    manifest = json.loads((store / "manifest.json").read_text())
    digest = hashlib.sha256((store / "cells" / f"{name}_{kind}.csv").read_bytes()).hexdigest()
    manifest["cells"][name][f"{kind}_sha256"] = digest
    (store / "manifest.json").write_text(json.dumps(manifest))


# Each subcommand that writes into --output-dir, at its cheapest.
WRITING_COMMANDS = {
    "run": ("run", *SMOKE_FLAGS),
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


@pytest.mark.parametrize("source", ["flag", "environment", "default"])
def test_every_command_finds_the_same_store_directory(tmp_path, monkeypatch, source):
    # The flag beats the variable, which beats the default; each command
    # writes into the one directory, and none other appears.
    monkeypatch.chdir(tmp_path)
    if source != "default":
        monkeypatch.setenv(OUTPUT_DIR_ENV, "from-env")
    expected = {"flag": "from-flag", "environment": "from-env", "default": DEFAULT_OUTPUT_DIR}[source]
    flag = ["--output-dir", "from-flag"] if source == "flag" else []
    commands = [
        ([*WRITING_COMMANDS["ps-hist"], *flag], "ps_hist_s1_p020.csv"),
        ([*WRITING_COMMANDS["run"], *flag], "manifest.json"),
        (["report", *(["--store", "from-flag"] if flag else [])], "report.csv"),
    ]
    for argv, written in commands:
        assert main(argv) == EXIT_OK, argv
        assert (tmp_path / expected / written).is_file(), argv
        assert [p.name for p in tmp_path.iterdir()] == [expected], argv


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


# Each size flag, after the command's other sizes at their least, so only
# the size under test is large.
SIZE_FLAGS = {
    "ps-hist-n": ("ps-hist", "--scenario", "1", "--oracle-n", "1000", "--n"),
    "ps-hist-bins": ("ps-hist", "--scenario", "1", "--oracle-n", "1000", "--n", "100", "--bins"),
    "ps-hist-oracle-n": ("ps-hist", "--scenario", "1", "--n", "100", "--oracle-n"),
    "run-calibration-n": ("run", *SMOKE_FLAGS, "--calibration-n"),
}


# Both sizes lie past the address space, so no host can try to fill them:
# numpy can represent an array of 2**45 float64 values but not allocate it
# (MemoryError), and cannot represent one of 2**62 (the size check refuses it).
@pytest.mark.parametrize("size", [2**45, 2**62], ids=["2**45", "2**62"])
@pytest.mark.parametrize("flag", SIZE_FLAGS)
def test_oversized_size_exit_code(tmp_path, capsys, flag, size):
    assert main([*SIZE_FLAGS[flag], str(size), "--output-dir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, name",
    [("run", "calibration.csv"), ("run", "truths.csv"), ("run", "report.csv"), ("ps-hist", "ps_hist_s1_p020.csv")],
)
def test_store_file_naming_a_directory_exit_code(tmp_path, capsys, command, name):
    (tmp_path / name).mkdir()
    assert main([*WRITING_COMMANDS[command], "--output-dir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / name) in err
    assert "Traceback" not in err
    assert (tmp_path / name).is_dir()


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

    @pytest.mark.parametrize(
        "run_flags, hist_flags",
        [
            (["--scenarios", "7"], ["--scenario", "7"]),
            (["--prevalences", "0.17"], ["--scenario", "1", "--prevalence", "0.17"]),
            (["--prevalences", "abc"], ["--scenario", "1", "--prevalence", "abc"]),
        ],
        ids=["unknown-scenario", "unknown-prevalence", "malformed-prevalence"],
    )
    def test_bad_value_exit_code_and_message_are_runs(self, tmp_path, monkeypatch, capsys, run_flags, hist_flags):
        monkeypatch.chdir(tmp_path)
        assert main(["run", *run_flags]) == EXIT_CONFIG
        message = capsys.readouterr().err
        assert main(["ps-hist", *hist_flags, "--oracle-n", "1000"]) == EXIT_CONFIG
        assert capsys.readouterr().err == message
        assert message.startswith("error: ") and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["abc", ""], ids=["malformed", "empty"])
    def test_malformed_prevalence_names_the_design(self, tmp_path, monkeypatch, capsys, value):
        # The empty string reaches the parser only through ps-hist: run's
        # flag drops empty list items.
        message = f"error: prevalence {value!r} is not in the design: {PREVALENCE_LABELS}\n"
        monkeypatch.chdir(tmp_path)
        if value:
            assert main(["run", "--prevalences", value]) == EXIT_CONFIG
            assert capsys.readouterr().err == message
        assert main(["ps-hist", "--scenario", "1", "--prevalence", value, "--oracle-n", "1000"]) == EXIT_CONFIG
        assert capsys.readouterr().err == message
        assert list(tmp_path.iterdir()) == []

    def test_ps_hist_and_run_agree_on_intercepts(self, tmp_path, capsys):
        assert main(["ps-hist", "--scenario", "1", "--prevalence", "0.50", "--n", "1000", "--oracle-seed", "7",
                     "--oracle-n", "100000", "--output-dir", str(tmp_path / "hist")]) == EXIT_OK
        hist_out = capsys.readouterr().out
        assert main(["run", *SMOKE_FLAGS, "--oracle-seed", "7", "--calibration-n", "100000",
                     "--output-dir", str(tmp_path / "run")]) == EXIT_OK
        (row,) = (tmp_path / "run" / "calibration.csv").read_text().splitlines()[1:]
        assert row.startswith("1,0.50,7,100000,")
        assert f"alpha0 {float(row.split(',')[4]):.6f}" in hist_out

    def test_bad_arguments_exit_code(self, capsys):
        assert main(["ps-hist", "--scenario", "5"]) == EXIT_CONFIG
        assert main(["ps-hist", "--scenario", "1", "--bins", "1"]) == EXIT_CONFIG
        assert main(["ps-hist", "--scenario", "1", "--oracle-seed", "-1"]) == EXIT_CONFIG
        assert main(["ps-hist", "--scenario", "1", "--oracle-n", "10"]) == EXIT_CONFIG
        capsys.readouterr()


REPORT_COLUMNS = (
    "scenario,setting,prevalence,method,n_valid,bias,empirical_sd,"
    "avg_theoretical_sd,mse,type1_rate,failure_rate,power"
)


REPORT_STORE_FLAGS = (
    "--scenarios", "1", "--settings", "1",
    "--prevalences", "0.50", "--arms", "effect,null",
    "--methods", "LR,IPW", "--n-reps", "3",
    "--calibration-n", "100000", "--truth-n", "1000",
    "--quiet",
)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("report-store")
    assert main(["run", *REPORT_STORE_FLAGS, "--output-dir", str(path)]) == EXIT_OK
    return path


def edit_metrics(store: Path) -> None:
    path = store / "cells" / "s1t1p050_effect_metrics.csv"
    path.write_text(path.read_text().replace("LR,3,", "LR,2,", 1))


class TestCmdReport:
    def test_missing_store_exit_code(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path / "void")]) == EXIT_CONFIG
        assert "no manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["{\n", "[]\n", '{"cells": []}\n', '{"cells": {"s1t1p050_effect": "complete"}}\n'],
        ids=["cut-json", "not-an-object", "cells-not-an-object", "cell-not-an-object"],
    )
    def test_malformed_manifest_exit_code(self, tmp_path, capsys, text):
        (tmp_path / "manifest.json").write_text(text)
        assert main(["report", "--store", str(tmp_path)]) == EXIT_CONFIG
        assert str(tmp_path / "manifest.json") in capsys.readouterr().err

    def test_cell_coordinates_come_from_its_name(self, store, tmp_path, capsys):
        # Entries carrying the coordinate keys an older `run` wrote, each
        # with a wrong value, report the same: only the name counts.
        assert main(["report", "--store", str(store)]) == EXIT_OK
        shutil.copytree(store, tmp_path, dirs_exist_ok=True)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for name, entry in manifest["cells"].items():
            entry.update(
                cell_code=999, n=7, null_effect=name.endswith("_effect"), prevalence="0.05", scenario=3, setting=3
            )
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "report.csv").unlink()
        assert main(["report", "--store", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "report.csv").read_bytes() == (store / "report.csv").read_bytes()
        capsys.readouterr()

    def test_cell_named_outside_the_design_exit_code(self, store, tmp_path, capsys):
        shutil.copytree(store, tmp_path, dirs_exist_ok=True)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["cells"]["s4t1p050_effect"] = manifest["cells"]["s1t1p050_effect"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["report", "--store", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "completed cell s4t1p050_effect is not a cell of the design" in err
        assert "Traceback" not in err

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
            metrics = aggregate_cell(records, entry["truth"])
            for m in metrics:
                slot = expected.setdefault(m.method, {})
                if name.endswith("_null"):
                    slot["type1_rate"] = m.type1_rate
                else:
                    slot["bias"], slot["mse"] = m.bias, m.mse
        for line in (store / "report.csv").read_text().splitlines()[1:]:
            parts = line.split(",")
            method = parts[3]
            assert parts[5] == repr(expected[method]["bias"])
            assert parts[8] == repr(expected[method]["mse"])
            assert parts[9] == repr(expected[method]["type1_rate"])

    def test_power_is_the_effect_arms_rejection_rate(self, tmp_path, capsys):
        # A hand-built store: setting 1 ran both arms, each with its own
        # rejection rate; setting 2 ran the null arm alone.
        rows = {
            "s1t1p050_effect": "LR,4,0.1,0.2,0.2,0.05,0.75,0.0",
            "s1t1p050_null": "LR,4,0.0,0.2,0.2,0.04,0.25,0.0",
            "s1t2p050_null": "LR,4,0.0,0.2,0.2,0.04,0.5,0.0",
        }
        (tmp_path / "cells").mkdir()
        cells = {}
        for name, row in rows.items():
            paths = harness.cell_paths(tmp_path, name)
            paths["records"].write_text("")
            paths["metrics"].write_text(",".join(harness.METRIC_COLUMNS) + "\n" + row + "\n")
            digests = {f"{kind}_sha256": hashlib.sha256(path.read_bytes()).hexdigest() for kind, path in paths.items()}
            cells[name] = {"complete": True, **digests}
        (tmp_path / "manifest.json").write_text(json.dumps({"cells": cells}))
        assert main(["report", "--store", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        with open(tmp_path / "report.csv", newline="") as handle:
            report = list(csv.DictReader(handle))
        got = [(r["setting"], r["type1_rate"], r["power"]) for r in report]
        assert got == [("1", "0.25", "0.75"), ("2", "0.5", "nan")]

    def test_report_reads_no_records(self, store, capsys, monkeypatch):
        assert main(["report", "--store", str(store)]) == EXIT_OK
        expected = (store / "report.csv").read_bytes()

        def boom(*args, **kwargs):
            raise AssertionError("report read or aggregated records")

        for module in (cli, harness):
            for name in ("read_records_csv", "aggregate_cell"):
                monkeypatch.setattr(module, name, boom)
        (store / "report.csv").unlink()
        assert main(["report", "--store", str(store)]) == EXIT_OK
        assert (store / "report.csv").read_bytes() == expected
        capsys.readouterr()

    @pytest.mark.parametrize(
        "damage",
        [lambda store: (store / "cells" / "s1t1p050_effect_metrics.csv").unlink(), edit_metrics],
        ids=["metrics-deleted", "metrics-edited"],
    )
    def test_damaged_metrics_exit_code_until_run_heals(self, store, tmp_path, capsys, damage):
        assert main(["report", "--store", str(store)]) == EXIT_OK
        shutil.copytree(store, tmp_path, dirs_exist_ok=True)
        damage(tmp_path)
        capsys.readouterr()
        assert main(["report", "--store", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cell s1t1p050_effect:" in err and "rerun `attbench run`" in err
        assert main(["run", *REPORT_STORE_FLAGS, "--output-dir", str(tmp_path)]) == EXIT_OK
        assert main(["report", "--store", str(tmp_path)]) == EXIT_OK
        assert tree_bytes(tmp_path) == tree_bytes(store)
        capsys.readouterr()

    def test_metrics_with_a_resigned_header_exit_code(self, store, tmp_path, capsys):
        shutil.copytree(store, tmp_path, dirs_exist_ok=True)
        metrics = tmp_path / "cells" / "s1t1p050_effect_metrics.csv"
        metrics.write_text(metrics.read_text().replace("mse", "mean_squared_error", 1))
        resign(tmp_path, "s1t1p050_effect", "metrics")
        capsys.readouterr()
        assert main(["report", "--store", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: store table {metrics} has columns" in err
        assert "Traceback" not in err

    def test_metrics_with_a_resigned_bad_row_exit_code(self, store, tmp_path, capsys):
        shutil.copytree(store, tmp_path, dirs_exist_ok=True)
        metrics = tmp_path / "cells" / "s1t1p050_effect_metrics.csv"
        metrics.write_text(metrics.read_text().replace("LR,3,", "LR,two,", 1))
        resign(tmp_path, "s1t1p050_effect", "metrics")
        capsys.readouterr()
        assert main(["report", "--store", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: store table {metrics} line 2 cannot be read" in err
        assert "Traceback" not in err

    def test_report_is_deterministic(self, store, capsys):
        assert main(["report", "--store", str(store)]) == EXIT_OK
        first_out = capsys.readouterr().out
        first_csv = (store / "report.csv").read_bytes()
        assert main(["report", "--store", str(store)]) == EXIT_OK
        assert capsys.readouterr().out == first_out
        assert (store / "report.csv").read_bytes() == first_csv
