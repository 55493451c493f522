"""Command line front end.

Four subcommands: ``calibrate`` writes the golden intercept table,
``run`` executes a simulation grid into a result store, ``ps-hist``
summarizes the true propensity distribution of a scenario, and
``report`` condenses a store into one table merging effect and null
cells.

Configuration is declarative: ``run`` reads an optional JSON config file
and any command line flag overrides the corresponding config key.  The
default output directory comes from ``ATTBENCH_OUTPUT_DIR`` when set.
Exit codes: 0 on success, 2 for configuration problems (a store built
under other parameters, or records that fail their digest, included), 3
when a run finished only partially (completed cells are on disk and a
rerun will resume).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .dgp import (
    PREVALENCE_LABELS,
    SCENARIOS,
    SETTING_IDS,
    CellConfig,
    draw_true_propensity,
    prevalence_label_for,
)
from .errors import CorruptManifestError, EstimationError, PartialGridError, StoreMismatchError
from .harness import (
    METHODS,
    METRIC_COLUMNS,
    aggregate_cell,
    oracle_intercepts,
    oracle_stream,
    read_manifest,
    read_records_csv,
    records_intact,
    run_grid,
    write_calibration_csv,
    write_csv,
)
from .numeric import MAX_REPLICATES, PURPOSE_PS_HIST

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3
OUTPUT_DIR_ENV = "ATTBENCH_OUTPUT_DIR"
DEFAULT_OUTPUT_DIR = "attbench-out"
ARMS = ("effect", "null")
REPORT_COLUMNS = ("scenario", "setting", "prevalence") + METRIC_COLUMNS


class ConfigError(Exception):
    """Bad configuration file or flag values."""


@dataclass
class RunConfig:
    """Everything a grid run needs; defaults reproduce the full design."""

    scenarios: tuple[int, ...] = (1, 2, 3)
    settings: tuple[int, ...] = (1, 2, 3)
    prevalences: tuple[str | float, ...] = PREVALENCE_LABELS
    arms: tuple[str, ...] = ARMS
    methods: tuple[str, ...] | None = None
    n_reps: int = 200
    master_seed: int = 42
    oracle_seed: int = 42
    calibration_n: int = 10**6
    truth_n: int = 10**7
    parallelism: int = 1
    output_dir: str = DEFAULT_OUTPUT_DIR


def _fits_type(value, hint) -> bool:
    """Whether a value loaded from JSON fits a ``RunConfig`` field type:
    tuples come from JSON arrays, and integers exclude bools."""
    if get_origin(hint) is UnionType:
        return any(_fits_type(value, h) for h in get_args(hint))
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_fits_type(v, get_args(hint)[0]) for v in value)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, hint)


def _validate_oracle_args(seeds: dict[str, int], sizes: dict[str, int]) -> None:
    for name, seed in seeds.items():
        if not 0 <= seed < 2**32:
            raise ConfigError(f"{name} must lie in [0, 2**32)")
    if min(sizes.values()) < 1000:
        raise ConfigError("oracle sample sizes below 1000 are meaningless")


def _output_dir(flag: str | None) -> Path:
    """``flag``, else ``ATTBENCH_OUTPUT_DIR``, else the default, created as a directory or :class:`ConfigError`."""
    outdir = Path(flag or os.environ.get(OUTPUT_DIR_ENV) or DEFAULT_OUTPUT_DIR)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: {exc}") from exc
    return outdir


def _validate_run_config(cfg: RunConfig) -> RunConfig:
    bad_scenarios = set(cfg.scenarios) - set(SCENARIOS)
    if not cfg.scenarios or bad_scenarios:
        raise ConfigError(f"scenarios must be a non-empty subset of {sorted(SCENARIOS)}")
    bad_settings = set(cfg.settings) - set(SETTING_IDS)
    if not cfg.settings or bad_settings:
        raise ConfigError(f"settings must be a non-empty subset of {list(SETTING_IDS)}")
    try:
        prevalences = tuple(prevalence_label_for(p) for p in cfg.prevalences)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not prevalences:
        raise ConfigError("prevalences must be non-empty")
    bad_arms = set(cfg.arms) - set(ARMS)
    if not cfg.arms or bad_arms:
        raise ConfigError(f"arms must be a non-empty subset of {list(ARMS)}")
    if cfg.methods is not None:
        bad_methods = set(cfg.methods) - set(METHODS)
        if not cfg.methods or bad_methods:
            raise ConfigError(f"methods must be a non-empty subset of {list(METHODS)}")
    lists = dict(
        scenarios=cfg.scenarios, settings=cfg.settings, prevalences=prevalences, arms=cfg.arms, methods=cfg.methods or ()
    )
    for name, values in lists.items():
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ConfigError(f"{name} repeat {repeated}; list each value once")
    if not 2 <= cfg.n_reps <= MAX_REPLICATES:
        raise ConfigError(f"n_reps must lie in [2, {MAX_REPLICATES}]")
    if cfg.parallelism < 1:
        raise ConfigError("parallelism must be at least 1")
    _validate_oracle_args(
        {"master_seed": cfg.master_seed, "oracle_seed": cfg.oracle_seed},
        {"calibration_n": cfg.calibration_n, "truth_n": cfg.truth_n},
    )
    cfg.prevalences = prevalences
    return cfg


def _config_from_sources(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if os.environ.get(OUTPUT_DIR_ENV):
        cfg.output_dir = os.environ[OUTPUT_DIR_ENV]
    known = {f.name for f in fields(RunConfig)}
    if args.config is not None:
        try:
            with open(args.config) as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        hints = get_type_hints(RunConfig)
        for key, value in loaded.items():
            if not _fits_type(value, hints[key]):
                wanted = RunConfig.__annotations__[key]
                raise ConfigError(f"config key {key!r} must be {wanted}, got {json.dumps(value)}")
            setattr(cfg, key, tuple(value) if isinstance(value, list) else value)
    # Flags win over the config file.
    for name in known:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            setattr(cfg, name, flag_value)
    return _validate_run_config(cfg)


def build_cells(cfg: RunConfig) -> list[CellConfig]:
    cells = []
    for scenario in cfg.scenarios:
        for setting in cfg.settings:
            for label in cfg.prevalences:
                for arm in cfg.arms:
                    cells.append(
                        CellConfig(
                            scenario=scenario,
                            setting=setting,
                            prevalence_label=label,
                            null_effect=(arm == "null"),
                            n_reps=cfg.n_reps,
                            master_seed=cfg.master_seed,
                        )
                    )
    return cells


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_sources(args)
    cells = build_cells(cfg)
    try:
        run_grid(
            cells,
            _output_dir(cfg.output_dir),
            parallelism=cfg.parallelism,
            oracle_seed=cfg.oracle_seed,
            calibration_n=cfg.calibration_n,
            truth_n=cfg.truth_n,
            methods=cfg.methods,
            log=_log if not args.quiet else None,
        )
    except PartialGridError as exc:
        _log(f"run incomplete: {exc}")
        return EXIT_PARTIAL
    except StoreMismatchError as exc:
        _log(f"error: {exc}; use a fresh --output-dir or the store's parameters")
        return EXIT_CONFIG
    except EstimationError as exc:
        _log(f"run failed: {exc}")
        return EXIT_CONFIG
    _log(f"store written to {cfg.output_dir}")
    return EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    scenarios = args.scenarios or (1, 2, 3)
    if set(scenarios) - set(SCENARIOS):
        raise ConfigError(f"scenarios must be a subset of {sorted(SCENARIOS)}")
    try:
        labels = tuple(prevalence_label_for(p) for p in (args.prevalences or PREVALENCE_LABELS))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _validate_oracle_args({"oracle_seed": args.oracle_seed}, {"oracle_n": args.oracle_n})
    outdir = _output_dir(args.output_dir)

    intercepts = oracle_intercepts(
        [(scenario, label) for scenario in scenarios for label in labels], args.oracle_seed, args.oracle_n
    )
    path = outdir / "calibration.csv"
    write_calibration_csv(path, args.oracle_seed, args.oracle_n, intercepts)
    print(f"{'scenario':>8} {'prevalence':>10} {'alpha0':>12}")
    for (scenario, label), alpha in sorted(intercepts.items()):
        print(f"{scenario:>8} {label:>10} {alpha:>12.6f}")
    _log(f"calibration table written to {path}")
    return EXIT_OK


def cmd_ps_hist(args: argparse.Namespace) -> int:
    if args.scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {sorted(SCENARIOS)}")
    try:
        label = prevalence_label_for(args.prevalence)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.bins < 2 or args.n < 100:
        raise ConfigError("need at least 2 bins and 100 draws")
    _validate_oracle_args({"oracle_seed": args.oracle_seed}, {"oracle_n": args.oracle_n})
    outdir = _output_dir(args.output_dir)
    pair = (args.scenario, label)
    alpha0 = oracle_intercepts([pair], args.oracle_seed, args.oracle_n)[pair]
    draw_rng = oracle_stream(args.oracle_seed, args.scenario, label, PURPOSE_PS_HIST)
    _, scores = draw_true_propensity(SCENARIOS[args.scenario], alpha0, args.n, draw_rng)
    edges = np.linspace(0.0, 1.0, args.bins + 1)
    counts, _ = np.histogram(scores, bins=edges)

    path = outdir / f"ps_hist_s{args.scenario}_p{label.replace('.', '')}.csv"
    write_csv(path, ("bin_lo", "bin_hi", "count"), zip(edges[:-1], edges[1:], counts))
    tail_mass = float(np.mean((scores < 0.05) | (scores > 0.95)))
    print(f"scenario {args.scenario}, prevalence {label}, n {args.n}")
    print(f"alpha0 {alpha0:.6f}")
    print(f"mass outside [0.05, 0.95]: {tail_mass:.4f}")
    _log(f"histogram written to {path}")
    return EXIT_OK


# The keys of a completed cell entry that `report` reads, with their JSON
# types.  Types compare exactly, so a boolean is not taken for an integer.
_REPORTED_CELL_KEYS = {
    "scenario": ("integer", (int,)),
    "setting": ("integer", (int,)),
    "prevalence": ("string", (str,)),
    "null_effect": ("boolean", (bool,)),
    "truth": ("number", (float, int)),
    "n_reps": ("integer", (int,)),
}


def _report_rows(store: Path) -> list[tuple]:
    manifest_path = store / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest in {store}")
    manifest = read_manifest(manifest_path)
    cells = {
        name: entry for name, entry in manifest.get("cells", {}).items() if entry.get("complete")
    }
    if not cells:
        raise ConfigError(f"store {store} has no completed cells")

    groups: dict[tuple[int, int, str], dict[str, dict]] = {}
    for name, entry in cells.items():
        for field_name, (json_type, types) in _REPORTED_CELL_KEYS.items():
            if field_name not in entry:
                raise CorruptManifestError(f"manifest {manifest_path}: completed cell {name} lacks '{field_name}'")
            if type(entry[field_name]) not in types:
                raise CorruptManifestError(
                    f"manifest {manifest_path}: completed cell {name} has {field_name} "
                    f"{json.dumps(entry[field_name])}, not a JSON {json_type}"
                )
        key = (entry["scenario"], entry["setting"], entry["prevalence"])
        arm = "null" if entry["null_effect"] else "effect"
        truth, n_reps = entry["truth"], entry["n_reps"]
        records_path = store / "cells" / f"{name}_records.csv"
        if not records_intact(records_path, entry):
            raise ConfigError(f"records of cell {name} are missing or fail their digest; rerun `attbench run`")
        records = read_records_csv(records_path)
        replicates = len({r.replicate for r in records})
        if n_reps < 2 or replicates != n_reps:
            raise CorruptManifestError(
                f"manifest {manifest_path}: completed cell {name} has n_reps {n_reps} over "
                f"{replicates} recorded replicates; a cell needs the same count, at least 2"
            )
        metrics = aggregate_cell(records, truth, n_reps)
        groups.setdefault(key, {})[arm] = {m.method: m for m in metrics}

    rows = []
    for key in sorted(groups):
        effect_arm, null_arm = groups[key].get("effect", {}), groups[key].get("null", {})
        for method in (m for m in METHODS if m in effect_arm or m in null_arm):
            effect, null = effect_arm.get(method), null_arm.get(method)
            # The effect arm's moments, the null arm's type-I rate, and the
            # counts of whichever arm ran; a column with no arm reads NaN.
            either = effect or null
            source = {"type1_rate": null, "method": either, "n_valid": either, "failure_rate": either}
            rows.append(key + tuple(getattr(source.get(c, effect), c, math.nan) for c in METRIC_COLUMNS))
    return rows


def cmd_report(args: argparse.Namespace) -> int:
    store = Path(args.store or os.environ.get(OUTPUT_DIR_ENV, DEFAULT_OUTPUT_DIR))
    rows = _report_rows(store)
    path = store / "report.csv"
    write_csv(path, REPORT_COLUMNS, rows)

    def cell_text(value) -> str:
        if isinstance(value, float):
            return "-" if math.isnan(value) else f"{value:.4f}"
        return str(value)

    table = [[cell_text(value) for value in row] for row in [REPORT_COLUMNS, *rows]]
    widths = [max(map(len, column)) for column in zip(*table)]
    for line in table:
        print("  ".join(text.rjust(width) for text, width in zip(line, widths)))
    _log(f"report written to {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="attbench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a simulation grid into a result store")
    run.add_argument("--config", help="JSON config file; flags override its keys")
    run.add_argument("--scenarios", type=_int_list, default=None, help="e.g. 1,2,3")
    run.add_argument("--settings", type=_int_list, default=None, help="e.g. 1,2,3")
    run.add_argument("--prevalences", type=_str_list, default=None, help="e.g. 0.05,0.20")
    run.add_argument("--arms", type=_str_list, default=None, help="subset of effect,null")
    run.add_argument("--methods", type=_str_list, default=None, help=f"subset of {','.join(METHODS)}")
    run.add_argument("--n-reps", dest="n_reps", type=int, default=None)
    run.add_argument("--master-seed", dest="master_seed", type=int, default=None)
    run.add_argument("--oracle-seed", dest="oracle_seed", type=int, default=None)
    run.add_argument("--calibration-n", dest="calibration_n", type=int, default=None)
    run.add_argument("--truth-n", dest="truth_n", type=int, default=None)
    run.add_argument("--parallelism", type=int, default=None)
    run.add_argument("--output-dir", dest="output_dir", default=None)
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=cmd_run)

    calibrate = sub.add_parser("calibrate", help="write the golden intercept table")
    calibrate.add_argument("--scenarios", type=_int_list, default=None)
    calibrate.add_argument("--prevalences", type=_str_list, default=None)
    calibrate.add_argument("--oracle-seed", dest="oracle_seed", type=int, default=42)
    calibrate.add_argument("--oracle-n", dest="oracle_n", type=int, default=10**6)
    calibrate.add_argument("--output-dir", dest="output_dir", default=None)
    calibrate.set_defaults(func=cmd_calibrate)

    ps_hist = sub.add_parser("ps-hist", help="histogram the true propensity distribution")
    ps_hist.add_argument("--scenario", type=int, required=True)
    ps_hist.add_argument("--prevalence", default="0.20")
    ps_hist.add_argument("--n", type=int, default=100_000)
    ps_hist.add_argument("--bins", type=int, default=20)
    ps_hist.add_argument("--oracle-seed", dest="oracle_seed", type=int, default=42)
    ps_hist.add_argument("--oracle-n", dest="oracle_n", type=int, default=10**6)
    ps_hist.add_argument("--output-dir", dest="output_dir", default=None)
    ps_hist.set_defaults(func=cmd_ps_hist)

    report = sub.add_parser("report", help="summarize a result store")
    report.add_argument("--store", default=None, help="result store directory")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CorruptManifestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
