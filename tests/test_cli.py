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
    EXIT_INTERRUPTED,
    EXIT_OK,
    MAX_SIZE,
    build_cells,
    build_parser,
    main,
)
from attbench.dgp import PREVALENCE_LABELS
from attbench.harness import aggregate_cell, read_records_csv


def parse_run(*flags):
    return build_parser().parse_args(["run", *flags])


@pytest.fixture
def rejected(tmp_path, monkeypatch, capsys):
    """``rejected(argv)`` runs ``main(argv)`` in the empty ``tmp_path``,
    checks that it exits 2 while its command line is parsed, with no
    traceback and nothing written, and returns its stderr."""
    monkeypatch.chdir(tmp_path)

    def check(argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        err = capsys.readouterr().err
        assert exit_info.value.code == EXIT_CONFIG
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
        return err

    return check


def subset_rule(name):
    return f"{name} must be a non-empty subset of {list(DESIGN_LISTS[name])}"


def repeat_rule(name, repeated):
    return f"{name} repeat {repeated}; list each value once"


def prevalence_rule(text):
    return f"prevalence {text} is not in the design: {PREVALENCE_LABELS}"


SEED_RULE = "must lie in [0, 4294967295]"
ORACLE_SIZE_RULE = f"must lie in [1000, {MAX_SIZE}]"
PS_HIST = ("ps-hist", "--scenario", "1")
# Each row: a command, a flag, a value that breaks the flag's rule, and the
# rule's text.  Every flag of run and ps-hist that takes a value, the
# directory flags aside, has a row.
FLAG_RULES = [
    (("run",), "--scenarios", "4", subset_rule("scenarios")),
    (("run",), "--settings", "0", subset_rule("settings")),
    (("run",), "--prevalences", "0.17", prevalence_rule("0.17")),
    (("run",), "--arms", "effect,placebo", subset_rule("arms")),
    (("run",), "--methods", "OLS", subset_rule("methods")),
    (("run",), "--n-reps", "1", "must lie in [2, 65536]"),
    (("run",), "--parallelism", "0", "must be at least 1"),
    (("run",), "--master-seed", "-1", SEED_RULE),
    (("run",), "--truth-n", "10", ORACLE_SIZE_RULE),
    (("run",), "--n-reps", "65537", "must lie in [2, 65536]"),
    (("run",), "--methods", "PSM,PSM", repeat_rule("methods", ["PSM"])),
    (("run",), "--prevalences", "0.5,0.50", repeat_rule("prevalences", ["0.50"])),
    (("run",), "--arms", "effect,effect", repeat_rule("arms", ["effect"])),
    (("run",), "--scenarios", "1,1", repeat_rule("scenarios", [1])),
    (("run",), "--settings", "1,1", repeat_rule("settings", [1])),
    (("run",), "--scenarios", "one", subset_rule("scenarios")),
    (("run",), "--settings", "", subset_rule("settings")),
    (("run",), "--arms", "", subset_rule("arms")),
    (("run",), "--methods", ",", subset_rule("methods")),
    (("run",), "--n-reps", "abc", "invalid int value: 'abc'"),
    (("run",), "--master-seed", str(2**32), SEED_RULE),
    (("run",), "--oracle-seed", "-1", SEED_RULE),
    (("run",), "--oracle-seed", str(2**32), SEED_RULE),
    (("run",), "--calibration-n", "999", ORACLE_SIZE_RULE),
    (("run",), "--calibration-n", str(2**62), ORACLE_SIZE_RULE),
    (("run",), "--truth-n", str(2**62), ORACLE_SIZE_RULE),
    (("run",), "--parallelism", "two", "invalid int value: 'two'"),
    (("ps-hist",), "--scenario", "5", subset_rule("scenarios")),
    (("ps-hist",), "--scenario", "1,2", subset_rule("scenarios")),
    (PS_HIST, "--prevalence", "0.17", prevalence_rule("0.17")),
    (PS_HIST, "--prevalence", "0.20,0.50", prevalence_rule("'0.20,0.50'")),
    (PS_HIST, "--n", "99", f"must lie in [100, {MAX_SIZE}]"),
    (PS_HIST, "--n", str(2**62), f"must lie in [100, {MAX_SIZE}]"),
    (PS_HIST, "--bins", "1", f"must lie in [2, {MAX_SIZE}]"),
    (PS_HIST, "--bins", str(2**62), f"must lie in [2, {MAX_SIZE}]"),
    (PS_HIST, "--oracle-seed", "-1", SEED_RULE),
    (PS_HIST, "--oracle-seed", str(2**32), SEED_RULE),
    (PS_HIST, "--oracle-n", "10", ORACLE_SIZE_RULE),
    (PS_HIST, "--oracle-n", str(2**62), ORACLE_SIZE_RULE),
]


class TestConfigLayering:
    def test_defaults_give_full_design(self):
        args = parse_run()
        assert {name: getattr(args, name) for name in DESIGN_LISTS} == DESIGN_LISTS
        assert (args.n_reps, args.master_seed, args.parallelism) == (200, 42, 1)
        cells = build_cells(vars(args), args.n_reps, args.master_seed)
        assert len(cells) == 90
        assert len({c.name for c in cells}) == 90
        assert sum(c.null_effect for c in cells) == 45

    def test_subset_flags(self):
        args = parse_run("--scenarios", "2", "--settings", "1,3", "--prevalences", "0.20", "--arms", "effect")
        cells = build_cells(vars(args), args.n_reps, args.master_seed)
        assert [c.name for c in cells] == ["s2t1p020_effect", "s2t3p020_effect"]

    def test_output_dir_precedence(self):
        # The flag, else the default; an empty flag means the default.
        assert parse_run().output_dir == "attbench-out"
        assert parse_run("--output-dir", "").output_dir == "attbench-out"
        assert parse_run("--output-dir", "from-flag").output_dir == "from-flag"

    def test_prevalence_values_normalize_to_labels(self):
        args = parse_run("--prevalences", "0.3333333333333333,0.05")
        assert args.prevalences == ("0.33", "0.05")
        assert parse_run("--prevalences", "0.3333333333333333").prevalences == ("0.33",)

    def test_range_ends_are_accepted(self):
        assert [parse_run("--n-reps", n).n_reps for n in ("2", "65536")] == [2, 65536]
        args = parse_run("--master-seed", str(2**32 - 1), "--oracle-seed", "0", "--calibration-n", "1000",
                         "--truth-n", str(MAX_SIZE), "--methods", " IPW , LR ", "--scenarios", "3,,1")
        assert (args.master_seed, args.oracle_seed, args.calibration_n, args.truth_n) == (2**32 - 1, 0, 1000, MAX_SIZE)
        assert (args.methods, args.scenarios) == (("IPW", "LR"), (3, 1))
        args = build_parser().parse_args(["ps-hist", "--scenario", "3", "--prevalence", "0.5", "--bins", "2",
                                          "--n", "100", "--oracle-seed", str(2**32 - 1), "--oracle-n", "1000"])
        assert (args.scenario, args.prevalence, args.bins, args.n, args.oracle_seed) == (3, "0.50", 2, 100, 2**32 - 1)

    @pytest.mark.parametrize("flags", FLAG_RULES)
    def test_invalid_values_rejected(self, rejected, flags):
        command, flag, value, rule = flags
        assert rejected([*command, flag, value]).endswith(f"error: argument {flag}: {rule}\n")


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

    def test_config_error_exit_code(self, rejected):
        # argparse's usage line, then one error line.
        err = rejected(["run", "--scenarios", "8"])
        assert err.startswith("usage: attbench run [-h]")
        assert err.splitlines()[-1] == f"attbench run: error: argument --scenarios: {subset_rule('scenarios')}"

    def test_repeated_grid_value_exit_code(self, rejected):
        # A later flag wins, and its bad value stops the run before its store exists.
        err = rejected(["run", *SMOKE_FLAGS, "--methods", "PSM,PSM", "--output-dir", "store"])
        assert err.endswith("error: argument --methods: methods repeat ['PSM']; list each value once\n")

    def test_interrupt_exit_code(self, tmp_path, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_grid", interrupted)
        assert main(["run", *SMOKE_FLAGS, "--output-dir", str(tmp_path)]) == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert err == "interrupted: the finished cells are kept; rerun the same command to resume\n"

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
    def test_bad_list_exit_code_and_message(self, rejected, flag, value, message):
        # ps-hist answers its bad values with these messages too (TestCmdPsHist).
        assert rejected(["run", flag, value]).endswith(f"error: argument {flag}: {message}\n")

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
    assert err.startswith("error: ") and str(taken) in err
    assert "Traceback" not in err
    assert taken.read_text() == "a file\n"


@pytest.mark.parametrize("source", ["flag", "default"])
def test_every_command_finds_the_same_store_directory(tmp_path, monkeypatch, source):
    # The flag, else the default; each command writes into the one
    # directory, and none other appears.
    monkeypatch.chdir(tmp_path)
    expected = {"flag": "from-flag", "default": DEFAULT_OUTPUT_DIR}[source]
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


def exit_code(argv) -> int:
    """``main(argv)``'s exit code, argparse's exit included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# Both sizes lie past the address space, so no host can try to fill them:
# numpy can represent an array of 2**45 float64 values but not allocate it
# (MemoryError), and cannot represent one of 2**62 (the parser refuses it).
@pytest.mark.parametrize("size", [2**45, 2**62], ids=["2**45", "2**62"])
@pytest.mark.parametrize("flag", SIZE_FLAGS)
def test_oversized_size_exit_code(tmp_path, capsys, flag, size):
    assert exit_code([*SIZE_FLAGS[flag], str(size), "--output-dir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error: " in err.splitlines()[-1]
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
    def test_bad_value_exit_code_and_message_are_runs(self, rejected, run_flags, hist_flags):
        # The same rule text after each command's own flag name.
        def rule(err):
            return err.splitlines()[-1].split(": ", 3)[3]

        assert rule(rejected(["ps-hist", *hist_flags, "--oracle-n", "1000"])) == rule(rejected(["run", *run_flags]))

    @pytest.mark.parametrize("value", ["abc", ""], ids=["malformed", "empty"])
    def test_malformed_prevalence_names_the_design(self, rejected, value):
        # The empty string reaches the prevalence rule only through ps-hist:
        # run's flag drops empty list items.
        message = f"prevalence {value!r} is not in the design: {PREVALENCE_LABELS}\n"
        if value:
            assert rejected(["run", "--prevalences", value]).endswith(f"error: argument --prevalences: {message}")
        err = rejected(["ps-hist", "--scenario", "1", "--prevalence", value, "--oracle-n", "1000"])
        assert err.endswith(f"error: argument --prevalence: {message}")

    def test_ps_hist_and_run_agree_on_intercepts(self, tmp_path, capsys):
        assert main(["ps-hist", "--scenario", "1", "--prevalence", "0.50", "--n", "1000", "--oracle-seed", "7",
                     "--oracle-n", "100000", "--output-dir", str(tmp_path / "hist")]) == EXIT_OK
        hist_out = capsys.readouterr().out
        assert main(["run", *SMOKE_FLAGS, "--oracle-seed", "7", "--calibration-n", "100000",
                     "--output-dir", str(tmp_path / "run")]) == EXIT_OK
        (row,) = (tmp_path / "run" / "calibration.csv").read_text().splitlines()[1:]
        assert row.startswith("1,0.50,7,100000,")
        assert f"alpha0 {float(row.split(',')[4]):.6f}" in hist_out

    def test_bad_arguments_exit_code(self, rejected, monkeypatch):
        # Each is refused before the intercept is calibrated.
        def calibrated(*args, **kwargs):
            raise AssertionError("ps-hist calibrated an intercept")

        monkeypatch.setattr(cli, "oracle_intercepts", calibrated)
        rejected(["ps-hist", "--scenario", "5"])
        rejected(["ps-hist", "--scenario", "1", "--bins", "1"])
        rejected(["ps-hist", "--scenario", "1", "--oracle-seed", "-1"])
        rejected(["ps-hist", "--scenario", "1", "--oracle-n", "10"])


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
