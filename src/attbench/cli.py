"""Command line front end.

Three subcommands: ``run`` executes a simulation grid into a result
store, ``ps-hist`` summarizes the true propensity distribution of a
scenario, and ``report`` joins the metrics files ``run`` wrote into one
table merging effect and null cells.

Each parameter has one source, its flag, and each default is stated once:
an omitted list flag means the design's whole list, and every other
default is the parser's.  Every list a command takes, ``ps-hist``'s
included, follows one rule: a non-empty subset of the design, each value
once.  Every command finds its store directory by one rule too: its flag,
else ``ATTBENCH_OUTPUT_DIR`` when set and non-empty, else
``attbench-out``.
Exit codes: 0 on success, 2 for configuration problems (a store built
under other parameters, a store file that cannot be read or written, a
store table that passes its digest but cannot be parsed, and a size this
host cannot allocate, included).  ``report`` also exits 2 on a cell whose
records or metrics fail their digest; ``run`` computes such a cell
again, and parses no cell file.  No estimation error stops a command: a
method's failure on a replicate is a flagged record, and the intercept
calibration raises none.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .dgp import (
    ARMS,
    DEFAULT_CALIBRATION_N,
    DEFAULT_TRUTH_N,
    PREVALENCE_LABELS,
    SCENARIOS,
    SETTING_IDS,
    CellConfig,
    draw_true_propensity,
    prevalence_label_for,
)
from .errors import CorruptManifestError, StoreMismatchError
from .harness import (
    DEFAULT_ORACLE_SEED,
    MANIFEST_NAME,
    METHODS,
    METRIC_COLUMNS,
    REPORT_NAME,
    cell_intact,
    cell_paths,
    oracle_intercepts,
    oracle_stream,
    read_manifest,
    read_metrics_csv,
    run_grid,
    write_csv,
)
# Not called here: perfbench/spans.py wraps these two names in this module.
from .harness import aggregate_cell, read_records_csv  # noqa: F401
from .numeric import MAX_REPLICATES, PURPOSE_PS_HIST
from .propensity import TRIM_DELTA

EXIT_OK = 0
EXIT_CONFIG = 2
OUTPUT_DIR_ENV = "ATTBENCH_OUTPUT_DIR"
DEFAULT_OUTPUT_DIR = "attbench-out"
# The largest size a command takes.  One numpy array holds at most this many
# units of three float64 covariates, as ps-hist draws them; past it numpy
# raises ValueError, where a size it can represent but not allocate raises
# MemoryError, which exits 2 as well.
MAX_SIZE = np.iinfo(np.intp).max // 24
REPORT_COLUMNS = ("scenario", "setting", "prevalence") + METRIC_COLUMNS + ("power",)
# The design's values of each list a command takes, in order.
DESIGN_LISTS = {
    "scenarios": tuple(sorted(SCENARIOS)),
    "settings": SETTING_IDS,
    "prevalences": PREVALENCE_LABELS,
    "arms": ARMS,
    "methods": METHODS,
}


class ConfigError(Exception):
    """Bad flag values."""


def _validate_oracle_args(seeds: dict[str, int], sizes: dict[str, int]) -> None:
    for name, seed in seeds.items():
        if not 0 <= seed < 2**32:
            raise ConfigError(f"{name} must lie in [0, 2**32)")
    if not all(1000 <= size <= MAX_SIZE for size in sizes.values()):
        raise ConfigError(f"oracle sample sizes must lie in [1000, {MAX_SIZE}]")


def _store_dir(chosen: str | None) -> str:
    """The store directory of every command: ``chosen`` (its flag), else
    ``$ATTBENCH_OUTPUT_DIR``, else ``attbench-out``.  An empty value counts
    as unset."""
    return chosen or os.environ.get(OUTPUT_DIR_ENV) or DEFAULT_OUTPUT_DIR


def _output_dir(chosen: str | None) -> Path:
    """The :func:`_store_dir` of ``chosen``, created as a directory, or :class:`ConfigError`."""
    outdir = Path(_store_dir(chosen))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: {exc}") from exc
    return outdir


def _subset(name: str, values) -> tuple:
    """``values`` as a non-empty subset of ``DESIGN_LISTS[name]``, each value
    once, or :class:`ConfigError`; ``None`` means the whole list.  A
    prevalence may be given as any value that names a label."""
    design = DESIGN_LISTS[name]
    if values is None:
        return design
    try:
        values = tuple(prevalence_label_for(v) for v in values) if name == "prevalences" else tuple(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not values or set(values) - set(design):
        raise ConfigError(f"{name} must be a non-empty subset of {list(design)}")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{name} repeat {repeated}; list each value once")
    return values


def _validate_run_config(args: argparse.Namespace) -> argparse.Namespace:
    """``run``'s parsed flags, checked, with each list made a design subset
    by :func:`_subset` and the store directory found by :func:`_store_dir`."""
    for name in DESIGN_LISTS:
        setattr(args, name, _subset(name, getattr(args, name)))
    if not 2 <= args.n_reps <= MAX_REPLICATES:
        raise ConfigError(f"n_reps must lie in [2, {MAX_REPLICATES}]")
    if args.parallelism < 1:
        raise ConfigError("parallelism must be at least 1")
    _validate_oracle_args(
        {"master_seed": args.master_seed, "oracle_seed": args.oracle_seed},
        {"calibration_n": args.calibration_n, "truth_n": args.truth_n},
    )
    args.output_dir = _store_dir(args.output_dir)
    return args


def build_cells(lists, n_reps: int, master_seed: int) -> list[CellConfig]:
    """The cells of the grid over ``lists``' scenarios, settings, prevalences and arms."""
    grid = (lists["scenarios"], lists["settings"], lists["prevalences"], lists["arms"])
    return [
        CellConfig(scenario, setting, label, arm == "null", n_reps, master_seed)
        for scenario, setting, label, arm in itertools.product(*grid)
    ]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    args = _validate_run_config(args)
    cells = build_cells(vars(args), args.n_reps, args.master_seed)
    try:
        run_grid(
            cells,
            _output_dir(args.output_dir),
            parallelism=args.parallelism,
            oracle_seed=args.oracle_seed,
            calibration_n=args.calibration_n,
            truth_n=args.truth_n,
            methods=args.methods,
            log=_log if not args.quiet else None,
        )
    except StoreMismatchError as exc:
        # No flag sets the schema version: only a fresh store has this one.
        hint = "use a fresh --output-dir or the store's parameters"
        if "schema_version" in exc.differing:
            hint = "rebuild it in a fresh --output-dir"
        _log(f"error: {exc}; {hint}")
        return EXIT_CONFIG
    _log(f"store written to {args.output_dir}")
    return EXIT_OK


def cmd_ps_hist(args: argparse.Namespace) -> int:
    _subset("scenarios", [args.scenario])
    (label,) = _subset("prevalences", [args.prevalence])
    if not (2 <= args.bins <= MAX_SIZE and 100 <= args.n <= MAX_SIZE):
        raise ConfigError(f"need 2 to {MAX_SIZE} bins and 100 to {MAX_SIZE} draws")
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
    # The tails are what trim_ps drops.
    lower, upper = TRIM_DELTA, 1.0 - TRIM_DELTA
    tail_mass = float(np.mean((scores < lower) | (scores > upper)))
    print(f"scenario {args.scenario}, prevalence {label}, n {args.n}")
    print(f"alpha0 {alpha0:.6f}")
    print(f"mass outside [{lower}, {upper}]: {tail_mass:.4f}")
    _log(f"histogram written to {path}")
    return EXIT_OK


def _report_rows(store: Path) -> list[tuple]:
    manifest_path = store / MANIFEST_NAME
    if not manifest_path.exists():
        raise ConfigError(f"no manifest in {store}")
    manifest = read_manifest(manifest_path)
    cells = {
        name: entry for name, entry in manifest.get("cells", {}).items() if entry.get("complete")
    }
    if not cells:
        raise ConfigError(f"store {store} has no completed cells")

    # A cell's name fixes its scenario, setting, prevalence and arm alone.
    design = {cfg.name: cfg for cfg in build_cells(DESIGN_LISTS, n_reps=1, master_seed=0)}
    groups: dict[tuple[int, int, str], dict[bool, dict]] = {}
    for name, entry in cells.items():
        if name not in design:
            raise CorruptManifestError(f"manifest {manifest_path}: completed cell {name} is not a cell of the design")
        cfg = design[name]
        key = (cfg.scenario, cfg.setting, cfg.prevalence_label)
        if not cell_intact(store, name, entry):
            raise ConfigError(f"cell {name}: records or metrics missing or failing their digest; rerun `attbench run`")
        metrics = read_metrics_csv(cell_paths(store, name)["metrics"])
        groups.setdefault(key, {})[cfg.null_effect] = {m.method: m for m in metrics}

    rows = []
    for key in sorted(groups):
        effect_arm, null_arm = groups[key].get(False, {}), groups[key].get(True, {})
        for method in (m for m in METHODS if m in effect_arm or m in null_arm):
            effect, null = effect_arm.get(method), null_arm.get(method)
            # The effect arm's moments, the null arm's type-I rate, the
            # counts of whichever arm ran, and the effect arm's rejection
            # rate as its power; a column with no arm reads NaN.
            either = effect or null
            source = {"type1_rate": null, "method": either, "n_valid": either, "failure_rate": either}
            moments = tuple(getattr(source.get(c, effect), c, math.nan) for c in METRIC_COLUMNS)
            rows.append(key + moments + (getattr(effect, "type1_rate", math.nan),))
    return rows


def cmd_report(args: argparse.Namespace) -> int:
    store = Path(_store_dir(args.store))
    rows = _report_rows(store)
    path = store / REPORT_NAME
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
    run.add_argument("--scenarios", type=_int_list, default=None, help="e.g. 1,2,3")
    run.add_argument("--settings", type=_int_list, default=None, help="e.g. 1,2,3")
    run.add_argument("--prevalences", type=_str_list, default=None, help="e.g. 0.05,0.20")
    run.add_argument("--arms", type=_str_list, default=None, help="subset of effect,null")
    run.add_argument("--methods", type=_str_list, default=None, help=f"subset of {','.join(METHODS)}")
    run.add_argument("--n-reps", dest="n_reps", type=int, default=200)
    run.add_argument("--master-seed", dest="master_seed", type=int, default=42)
    run.add_argument("--oracle-seed", dest="oracle_seed", type=int, default=DEFAULT_ORACLE_SEED)
    run.add_argument("--calibration-n", dest="calibration_n", type=int, default=DEFAULT_CALIBRATION_N)
    run.add_argument("--truth-n", dest="truth_n", type=int, default=DEFAULT_TRUTH_N)
    run.add_argument("--parallelism", type=int, default=1)
    run.add_argument("--output-dir", dest="output_dir", default=None)
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=cmd_run)

    ps_hist = sub.add_parser("ps-hist", help="histogram the true propensity distribution")
    ps_hist.add_argument("--scenario", type=int, required=True)
    ps_hist.add_argument("--prevalence", default="0.20")
    ps_hist.add_argument("--n", type=int, default=100_000)
    ps_hist.add_argument("--bins", type=int, default=20)
    ps_hist.add_argument("--oracle-seed", dest="oracle_seed", type=int, default=DEFAULT_ORACLE_SEED)
    ps_hist.add_argument("--oracle-n", dest="oracle_n", type=int, default=DEFAULT_CALIBRATION_N)
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
    # An OSError is a file the command could not open, such as a store file
    # that is a directory; its text names the path.  A MemoryError is a size
    # this host cannot allocate; numpy's names the array.
    except (ConfigError, CorruptManifestError, OSError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
