"""Command line front end.

Three subcommands: ``run`` executes a simulation grid into a result
store, ``ps-hist`` summarizes the true propensity distribution of a
scenario, and ``report`` joins the metrics files ``run`` wrote into one
table merging effect and null cells.

Each parameter has one source, its flag, and each default is stated once,
at the flag: an omitted list flag means the design's whole list, and an
omitted (or empty) store directory flag means ``attbench-out``.  Each
flag's rule is its argparse ``type``, built by :func:`_design_subset` or
:func:`_int_range`, so a bad value ends the command while its command line
is parsed, before anything is written, with argparse's usage line and exit
2.  Every list a command takes, ``ps-hist``'s one scenario and prevalence
included, follows one rule: a non-empty subset of the design, each value
once.
Exit codes: 0 on success, 2 for configuration problems (a bad flag value,
a store built under other parameters, a store file that cannot be read or
written, a store table that passes its digest but cannot be parsed, and a
size this host cannot allocate, included), and 130 on an interrupt
(Ctrl-C), after which the same command resumes from the cells it finished.
``report`` also exits 2 on a cell whose records or metrics fail their
digest; ``run`` computes such a cell again, and parses no cell file.  No
estimation error stops a command: a method's failure on a replicate is a
flagged record, and the intercept calibration raises none.
"""

from __future__ import annotations

import argparse
import itertools
import math
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
EXIT_INTERRUPTED = 130
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
    """A store ``report`` cannot summarize."""


def _design_subset(name: str, one: bool = False):
    """An argparse type: a comma list of ``DESIGN_LISTS[name]`` values, a
    non-empty subset of the design with each value once, as a tuple; with
    ``one``, a single value, not split.  A prevalence may be given as any
    value that names a label."""
    design = DESIGN_LISTS[name]
    convert = prevalence_label_for if name == "prevalences" else type(design[0])
    rule = f"{name} must be a non-empty subset of {list(design)}"

    def parse(text: str):
        parts = [text] if one else [part.strip() for part in text.split(",") if part.strip()]
        try:
            values = tuple(map(convert, parts))
        except ValueError as exc:
            # A prevalence's message names the design; a non-integer breaks the rule.
            raise argparse.ArgumentTypeError(str(exc) if name == "prevalences" else rule) from None
        if not values or set(values) - set(design):
            raise argparse.ArgumentTypeError(rule)
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise argparse.ArgumentTypeError(f"{name} repeat {repeated}; list each value once")
        return values[0] if one else values

    return parse


def _int_range(lo: int, hi: float = math.inf):
    """An argparse type: an integer in ``[lo, hi]``."""
    rule = f"must lie in [{lo}, {hi}]" if hi < math.inf else f"must be at least {lo}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(rule)
        return value

    return parse


SEED = _int_range(0, 2**32 - 1)
ORACLE_SIZE = _int_range(1000, MAX_SIZE)


def _directory(text: str) -> str:
    """An argparse type: a store directory, empty meaning the default."""
    return text or DEFAULT_OUTPUT_DIR


def build_cells(lists, n_reps: int, master_seed: int) -> list[CellConfig]:
    """The cells of the grid over ``lists``' scenarios, settings, prevalences and arms."""
    grid = (lists["scenarios"], lists["settings"], lists["prevalences"], lists["arms"])
    return [
        CellConfig(scenario, setting, label, arm == "null", n_reps, master_seed)
        for scenario, setting, label, arm in itertools.product(*grid)
    ]


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    cells = build_cells(vars(args), args.n_reps, args.master_seed)
    try:
        run_grid(
            cells,
            args.output_dir,
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
    outdir, label = Path(args.output_dir), args.prevalence
    outdir.mkdir(parents=True, exist_ok=True)
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
    store = Path(args.store)
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
    for name, design in DESIGN_LISTS.items():
        values = ",".join(map(str, design))
        run.add_argument(f"--{name}", type=_design_subset(name), default=design, help=f"subset of {values} (all)")
    run.add_argument("--n-reps", type=_int_range(2, MAX_REPLICATES), default=200)
    run.add_argument("--master-seed", type=SEED, default=42)
    run.add_argument("--oracle-seed", type=SEED, default=DEFAULT_ORACLE_SEED)
    run.add_argument("--calibration-n", type=ORACLE_SIZE, default=DEFAULT_CALIBRATION_N)
    run.add_argument("--truth-n", type=ORACLE_SIZE, default=DEFAULT_TRUTH_N)
    run.add_argument("--parallelism", type=_int_range(1), default=1)
    run.add_argument("--output-dir", type=_directory, default=DEFAULT_OUTPUT_DIR)
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=cmd_run)

    ps_hist = sub.add_parser("ps-hist", help="histogram the true propensity distribution")
    ps_hist.add_argument("--scenario", type=_design_subset("scenarios", one=True), required=True)
    ps_hist.add_argument("--prevalence", type=_design_subset("prevalences", one=True), default="0.20")
    ps_hist.add_argument("--n", type=_int_range(100, MAX_SIZE), default=100_000)
    ps_hist.add_argument("--bins", type=_int_range(2, MAX_SIZE), default=20)
    ps_hist.add_argument("--oracle-seed", type=SEED, default=DEFAULT_ORACLE_SEED)
    ps_hist.add_argument("--oracle-n", type=ORACLE_SIZE, default=DEFAULT_CALIBRATION_N)
    ps_hist.add_argument("--output-dir", type=_directory, default=DEFAULT_OUTPUT_DIR)
    ps_hist.set_defaults(func=cmd_ps_hist)

    report = sub.add_parser("report", help="summarize a result store")
    report.add_argument("--store", type=_directory, default=DEFAULT_OUTPUT_DIR, help="result store directory")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # An OSError is a file the command could not open, such as a store file
    # that is a directory; its text names the path.  A MemoryError is a size
    # this host cannot allocate; numpy's names the array.
    except (ConfigError, CorruptManifestError, OSError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONFIG
    # run_grid lists each cell in the manifest once it is stored.
    except KeyboardInterrupt:
        print("interrupted: the finished cells are kept; rerun the same command to resume", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
