"""Replicate execution, cell aggregation, and the on-disk result store.

One replicate draws a cohort and runs every requested estimator on it,
each a function of the replicate in one method table.  Estimators share
intermediates (the logistic propensity fit and its caliper block, the
least-squares outcome fit, the stacked propensity and outcome fits)
through a memo that also caches failures, so two methods consuming the
same broken input report the same failure.  A failed method still emits
a record, flagged ``failed:<ErrorType>``, never a silent gap.

Cells are independent given the master seed, so the grid parallelizes
over cells with each worker deriving its streams from stable
coordinates.  The store is written deterministically: every table goes
through one CSV writer, whose rows list the columns in order and whose
floats are their shortest round-trip ``repr``, and back through one
reader, which checks its header; the manifest has sorted JSON keys;
nothing holds a timestamp.  Equal configurations therefore
produce byte-identical files at any worker count.  A manifest tracks
completed cells, with the digests of each cell's records and metrics
files, and lets an interrupted grid resume without recomputation: a
completed cell whose digests, intercept and truth all check out is
reused without reading its records.  The two oracle tables are the only
stored copy of the intercepts and truths, each vouched for by its own
digest in the manifest.  A resume reuses each true ATT of a vouched
``truths.csv`` whose pair's intercept in a vouched ``calibration.csv``
recomputes to the same bits.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dgp import (
    ARMS,
    DEFAULT_CALIBRATION_N,
    DEFAULT_TRUTH_N,
    PREVALENCE_LABELS,
    PREVALENCE_VALUES,
    SCENARIOS,
    CellConfig,
    calibrate_intercept,
    generate_replicate,
    true_att,
)
from .errors import (
    CorruptManifestError,
    EstimationError,
    InsufficientReplicatesError,
    PartialGridError,
    StoreMismatchError,
)
from .glm import fit_ols
from .matching import caliper_block, cem_att, cem_match, matched_att, mdm_match, psm_match
from .numeric import (
    MAX_REPLICATES,
    PURPOSE_CALIBRATION,
    PURPOSE_OUTCOME_FOLDS,
    PURPOSE_PS_FOLDS,
    PURPOSE_TRUTH,
    Estimate,
    substream,
    wald_estimate,
)
from .propensity import estimate_ps, trim_ps, truncate_ps
from .tmle import tmle_att
from .weighting import aipw_att, fit_outcome_models, ipw_att, ols_arm_predictions, ols_outcome_design

ALPHA = 0.05
DEFAULT_ORACLE_SEED = 42
FAILED_PREFIX = "failed:"

# The store's layout: these tables at its root, and each cell's two files
# in ``CELLS_DIR`` (see :func:`cell_paths`).
MANIFEST_NAME = "manifest.json"
CALIBRATION_NAME = "calibration.csv"
TRUTHS_NAME = "truths.csv"
CELLS_DIR = "cells"
# The manifest key of each oracle table's sha256.
ORACLE_DIGESTS = {CALIBRATION_NAME: "calibration_sha256", TRUTHS_NAME: "truths_sha256"}
SCHEMA_VERSION = 3
# A grid rewrites its manifest at most this often while cells finish, and
# once more when it stops; each cell's digest keeps the resume contract.
MANIFEST_INTERVAL_S = 5.0
CALIBRATION_COLUMNS = ("scenario", "prevalence", "oracle_seed", "oracle_n", "alpha0")
TRUTH_COLUMNS = ("scenario", "setting", "prevalence", "arm", "oracle_seed", "oracle_n", "truth", "oracle_se")


class EstimateRecord(NamedTuple):
    """One method's result on one replicate: a row of a records file."""

    method: str
    replicate: int
    att: float
    theoretical_se: float
    p_value: float
    n_discarded: int
    flags: tuple[str, ...]

    @property
    def failed(self) -> bool:
        return any(f.startswith(FAILED_PREFIX) for f in self.flags)


class MethodMetrics(NamedTuple):
    """Cell-level summary of one method over its valid replicates: a row
    of a metrics file.  A quantity left out reads NaN."""

    method: str
    n_valid: int
    bias: float = np.nan
    empirical_sd: float = np.nan
    avg_theoretical_sd: float = np.nan
    mse: float = np.nan
    type1_rate: float = np.nan
    failure_rate: float = np.nan


RECORD_COLUMNS = EstimateRecord._fields
METRIC_COLUMNS = MethodMetrics._fields
_FAILED_ESTIMATE = Estimate(np.nan, np.nan, np.nan)


class _Replicate:
    """One replicate's cohort as the method table sees it, with a memo of
    the nuisances its methods share."""

    def __init__(self, cfg: CellConfig, replicate: int, attempt: int, ds) -> None:
        self.x, self.z, self.y = ds.observed_covariates, ds.z, ds.y
        self.fold_rng = partial(
            substream, cfg.master_seed, cell_code=cfg.cell_code, replicate=replicate, attempt=attempt
        )
        self._memo: dict[str, object] = {}

    def nuisance(self, key: str):
        """Build ``NUISANCES[key]`` once; a failure is cached and re-raised
        to every consumer, so they all report the same error."""
        if key not in self._memo:
            try:
                self._memo[key] = NUISANCES[key](self)
            except EstimationError as exc:
                self._memo[key] = exc
        value = self._memo[key]
        if isinstance(value, EstimationError):
            raise value
        return value


# Builders of the nuisances several methods share.  Every entry, like every
# method below, looks its estimator up as a module global at call time, so
# replacing a name on this module reaches every caller.
NUISANCES = {
    "ps_logistic": lambda r: estimate_ps(r.x, r.z, "logistic"),
    "ps_trimmed": lambda r: trim_ps(r.nuisance("ps_logistic")),
    "caliper_block": lambda r: caliper_block(r.nuisance("ps_logistic").values, r.z),
    "outcome_ols": lambda r: fit_ols(ols_outcome_design(r.x, r.z), r.y),
    "ps_ensemble": lambda r: estimate_ps(r.x, r.z, "ensemble", rng=r.fold_rng(purpose=PURPOSE_PS_FOLDS)),
    "ps_truncated": lambda r: truncate_ps(r.nuisance("ps_ensemble")),
    "outcome_ensemble": lambda r: fit_outcome_models(r.x, r.y, r.z, r.fold_rng(purpose=PURPOSE_OUTCOME_FOLDS)),
}


def _ps_flags(ps) -> tuple[str, ...]:
    return ("nonconverged",) if ps.separated else ()


def _lr(r: _Replicate):
    # The treatment coefficient is the design's last, tested on n - p degrees of freedom.
    fit = r.nuisance("outcome_ols")
    att, se = float(fit.coefficients[-1]), float(fit.standard_errors[-1])
    return wald_estimate(att, se, fit.n_obs - fit.n_params), 0, ()


def _cem(r: _Replicate, n_bins: int):
    strata = cem_match(r.x, r.z, n_bins)
    return cem_att(r.y, r.z, strata), int(((r.z == 1) & ~strata.retained).sum()), ()


def _matched(r: _Replicate, match):
    ps = r.nuisance("ps_logistic")
    matches = match(r.nuisance("caliper_block"))
    return matched_att(r.y, matches), len(matches.discarded_treated), _ps_flags(ps)


def _trimmed(r: _Replicate, estimate):
    # The score comes first: when it fails, AIPW never fits its outcome model.
    trimmed = r.nuisance("ps_trimmed")
    flags = _ps_flags(trimmed) + (("trimmed",) if trimmed.n_dropped else ())
    return estimate(trimmed), trimmed.n_dropped, flags


def _aipw_sl(r: _Replicate):
    truncated = r.nuisance("ps_truncated")
    return aipw_att(r.y, r.z, truncated, *r.nuisance("outcome_ensemble")), 0, _ps_flags(truncated)


def _tmle_sl(r: _Replicate):
    truncated = r.nuisance("ps_truncated")
    fit = tmle_att(r.y, r.z, *r.nuisance("outcome_ensemble"), truncated)
    nonconverged = () if fit.targeting_converged else ("nonconverged",)
    return fit, 0, _ps_flags(truncated) + nonconverged


# Method -> estimator of one replicate, returning (estimate, n_discarded,
# flags), where the estimate has ``att``, ``theoretical_se`` and
# ``p_value`` (an :class:`Estimate`, or TMLE's fuller fit).  Its order is
# the roster order of the store.
METHOD_TABLE = {
    "LR": _lr,
    "CEM2": lambda r: _cem(r, 2),
    "CEM5": lambda r: _cem(r, 5),
    "MDM": lambda r: _matched(r, lambda block: mdm_match(r.x, block)),
    "PSM": lambda r: _matched(r, lambda block: psm_match(block, 1)),
    "PSM_1:2": lambda r: _matched(r, lambda block: psm_match(block, 2)),
    "IPW": lambda r: _trimmed(r, lambda ps: ipw_att(r.y, r.z, ps)),
    "AIPW": lambda r: _trimmed(
        r, lambda ps: aipw_att(r.y, r.z, ps, *ols_arm_predictions(r.nuisance("outcome_ols"), r.x))
    ),
    "AIPW_SL": _aipw_sl,
    "TMLE_SL": _tmle_sl,
}
METHODS = tuple(METHOD_TABLE)


def run_replicate(
    cfg: CellConfig, alpha0: float, replicate: int, methods: tuple[str, ...] | None = None
) -> list[EstimateRecord]:
    """Run the requested estimators on one simulated cohort.

    Shared inputs are computed once: PSM, MDM, IPW, and AIPW all consume
    the same logistic propensity fit, PSM, PSM_1:2 and MDM one caliper
    block built from it, LR and AIPW one least-squares outcome fit, and
    the two stacked methods one propensity ensemble and one outcome
    ensemble.  The ensembles' fold draws live on their own substreams
    keyed by the attempt that produced the cohort, so they are
    reproducible unit by unit.
    """
    # Looked up first, so an unknown method fails before any draw.
    estimators = [(method, METHOD_TABLE[method]) for method in (METHODS if methods is None else methods)]
    ds, attempt = generate_replicate(cfg, alpha0, replicate)
    context = _Replicate(cfg, replicate, attempt, ds)
    base_flags = ("redrawn",) if attempt > 0 else ()
    records = []
    for method, estimator in estimators:
        try:
            est, n_discarded, flags = estimator(context)
        except EstimationError as exc:
            est, n_discarded, flags = _FAILED_ESTIMATE, 0, (FAILED_PREFIX + type(exc).__name__,)
        flags = tuple(sorted(set(base_flags) | set(flags)))
        records.append(
            EstimateRecord(method, replicate, est.att, est.theoretical_se, est.p_value, n_discarded, flags)
        )
    return records


def aggregate_cell(
    records: list[EstimateRecord], truth: float, n_reps: int
) -> list[MethodMetrics]:
    """Summarize a cell's records method by method.

    Flagged failures are excluded from every moment and counted in
    ``failure_rate``.  A method with fewer than two valid replicates gets
    NaN moments rather than sinking the whole cell; an empty or
    single-replicate cell is unaggregatable and raises.
    """
    if not records or n_reps < 2:
        raise InsufficientReplicatesError(f"{len(records)} records over {n_reps} replicates")
    present = [m for m in METHODS if any(r.method == m for r in records)]
    out = []
    for method in present:
        recs = [r for r in records if r.method == method]
        valid = [r for r in recs if not r.failed]
        failure_rate = 1.0 - len(valid) / len(recs)
        if len(valid) < 2:
            out.append(MethodMetrics(method, len(valid), failure_rate=failure_rate))
            continue
        atts = np.array([r.att for r in valid])
        ses = np.array([r.theoretical_se for r in valid])
        p_values = np.array([r.p_value for r in valid])
        bias = float(atts.mean()) - truth
        empirical_sd = float(atts.std(ddof=1))
        avg_theoretical_sd = float(ses.mean())
        mse = float(((atts - truth) ** 2).mean())
        type1_rate = float((p_values < ALPHA).mean())
        out.append(
            MethodMetrics(
                method, len(valid), bias, empirical_sd, avg_theoretical_sd, mse, type1_rate, failure_rate
            )
        )
    return out


def write_csv(path: Path, header, rows) -> None:
    """Write one store table.  ``csv`` writes a float, numpy's included,
    as its shortest round-trip ``repr``, so equal values give equal bytes."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_records_csv(path: Path, records: list[EstimateRecord]) -> None:
    method_order = {m: i for i, m in enumerate(METHODS)}
    ordered = sorted(records, key=lambda r: (r.replicate, method_order[r.method]))
    write_csv(path, RECORD_COLUMNS, (r._replace(flags=";".join(r.flags)) for r in ordered))


def _read_rows(path: Path, columns: tuple[str, ...], parse) -> list:
    """``parse(*row)`` of each row of the store table at ``path``.  A header
    other than ``columns``, or a row ``parse`` cannot read, raises
    :class:`CorruptManifestError` naming the file (and the row)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if tuple(header) != columns:
            raise CorruptManifestError(f"store table {path} has columns {header}, not {list(columns)}")
        parsed = []
        for row in reader:
            try:
                parsed.append(parse(*row))
            except (TypeError, ValueError) as exc:
                raise CorruptManifestError(f"store table {path} line {reader.line_num} cannot be read: {row}") from exc
        return parsed


def _record_row(method, replicate, att, se, p_value, n_discarded, flags) -> EstimateRecord:
    flag_tuple = tuple(flags.split(";")) if flags else ()
    return EstimateRecord(method, int(replicate), float(att), float(se), float(p_value), int(n_discarded), flag_tuple)


def read_records_csv(path: Path) -> list[EstimateRecord]:
    return _read_rows(path, RECORD_COLUMNS, _record_row)


def write_metrics_csv(path: Path, metrics: list[MethodMetrics]) -> None:
    write_csv(path, METRIC_COLUMNS, metrics)


def _metrics_row(method, n_valid, *moments) -> MethodMetrics:
    # A short row would otherwise read as NaN moments.
    if len(moments) != len(METRIC_COLUMNS) - 2:
        raise ValueError(f"{len(moments) + 2} fields, not {len(METRIC_COLUMNS)}")
    return MethodMetrics(method, int(n_valid), *map(float, moments))


def read_metrics_csv(path: Path) -> list[MethodMetrics]:
    return _read_rows(path, METRIC_COLUMNS, _metrics_row)


def read_manifest(path: Path) -> dict:
    """The manifest at ``path``; :class:`CorruptManifestError` unless it
    holds a JSON object whose ``cells``, if present, map names to objects."""
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise CorruptManifestError(f"manifest {path} cannot be read ({exc})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptManifestError(f"manifest {path} is not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise CorruptManifestError(f"manifest {path} does not hold a JSON object")
    cells = manifest.get("cells", {})
    if not isinstance(cells, dict) or not all(isinstance(entry, dict) for entry in cells.values()):
        raise CorruptManifestError(f"manifest {path}: \"cells\" is not an object of cell objects")
    return manifest


def _write_manifest(path: Path, manifest: dict) -> None:
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def cell_paths(store: Path, name: str) -> dict[str, Path]:
    """Cell ``name``'s records and metrics files in ``store``, by kind; the
    manifest keeps each one's digest as ``{kind}_sha256``."""
    return {kind: store / CELLS_DIR / f"{name}_{kind}.csv" for kind in ("records", "metrics")}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_matches(path: Path, digest) -> bool:
    """Whether the file at ``path`` exists and its sha256 is ``digest``."""
    return path.exists() and digest == _sha256(path)


def _is_float(value, expected: float) -> bool:
    """Whether a manifest ``value`` is a float ``==`` to ``expected``."""
    return type(value) is float and value == expected


def oracle_stream(oracle_seed: int, scenario: int, label: str, purpose: int) -> np.random.Generator:
    """The oracle stream of one (scenario, prevalence label) and purpose."""
    return substream(
        oracle_seed, cell_code=scenario, replicate=PREVALENCE_LABELS.index(label), purpose=purpose
    )


def oracle_intercepts(
    pairs: list[tuple[int, str]],
    oracle_seed: int,
    oracle_n: int,
    *,
    guesses: dict[tuple[int, str], float] | None = None,
) -> dict[tuple[int, str], float]:
    """Calibrated treatment intercept of each (scenario, prevalence label).

    Each pair draws on its own stream, so its intercept does not depend on
    which other pairs are asked for: ``run`` and ``ps-hist`` agree for the
    same seed and size.  ``guesses`` maps a pair to a guess
    for :func:`calibrate_intercept` to certify; a guess changes how many
    passes a calibration takes, never its result.
    """
    guesses = guesses or {}
    return {
        (scenario, label): calibrate_intercept(
            SCENARIOS[scenario],
            PREVALENCE_VALUES[PREVALENCE_LABELS.index(label)],
            oracle_stream(oracle_seed, scenario, label, PURPOSE_CALIBRATION),
            oracle_n=oracle_n,
            guess=guesses.get((scenario, label)),
        )
        for scenario, label in pairs
    }


def _truth_key(cfg: CellConfig) -> tuple[int, int, str, bool]:
    return (cfg.scenario, cfg.setting, cfg.prevalence_label, cfg.null_effect)


def _stored_oracles(outdir: Path, manifest: dict) -> tuple[dict, dict]:
    """The intercepts of ``calibration.csv`` by pair and the ``(truth,
    oracle_se)`` values of ``truths.csv`` by truth key.

    Like a cell file, a table is read back only while it matches its
    manifest digest (``calibration_sha256``, ``truths_sha256``), so its
    oracle seed and size are the manifest's, which the run has matched.
    A table that is missing or fails its digest reads as empty.
    """

    def rows(name: str, columns: tuple[str, ...], parse) -> dict:
        path = outdir / name
        if not digest_matches(path, manifest.get(ORACLE_DIGESTS[name])):
            return {}
        return dict(_read_rows(path, columns, parse))

    intercepts = rows(
        CALIBRATION_NAME, CALIBRATION_COLUMNS, lambda s, label, seed, n, alpha0: ((int(s), label), float(alpha0))
    )
    truths = rows(
        TRUTHS_NAME,
        TRUTH_COLUMNS,
        lambda s, t, label, arm, seed, n, truth, se: (
            (int(s), int(t), label, bool(ARMS.index(arm))), (float(truth), float(se))
        ),
    )
    return intercepts, truths


def _cell_worker(args: tuple[CellConfig, float, tuple[str, ...]]) -> list[EstimateRecord]:
    cfg, alpha0, methods = args
    records = []
    for replicate in range(cfg.n_reps):
        records.extend(run_replicate(cfg, alpha0, replicate, methods))
    return records


def _execute(jobs: list[tuple[CellConfig, float, tuple[str, ...]]], parallelism: int):
    """Yield ``(cfg, outcome)`` per job as its cell finishes; ``outcome()``
    returns the cell's records or raises the error that stopped it."""
    if parallelism <= 1 or len(jobs) <= 1:
        for job in jobs:
            yield job[0], partial(_cell_worker, job)
        return
    # Imported here: the process pool's modules cost a serial run memory and import time.
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=min(parallelism, len(jobs))) as pool:
        futures = {pool.submit(_cell_worker, job): job[0] for job in jobs}
        for future in as_completed(futures):
            yield futures[future], future.result


def _oracles(
    cells: list[CellConfig], manifest: dict, outdir: Path, oracle_seed: int, calibration_n: int, truth_n: int, say
) -> tuple[dict[tuple[int, str], float], dict[tuple[int, int, str, bool], tuple[float, float]], dict[str, str]]:
    """The intercept of each (scenario, prevalence label) and the ``(truth,
    oracle_se)`` of each truth key among ``cells``, with ``calibration.csv``
    and ``truths.csv`` written to ``outdir``, and the two tables' digests
    by manifest key.

    Every intercept is recomputed, with the one the stored calibration
    table holds as its guess (:func:`_stored_oracles`).  A truth of the
    stored truth table is reused when its pair's stored intercept is
    ``==`` to the recomputed one, so the same oracle streams and draw code
    produced it; every other truth is drawn.
    """
    pairs = list(dict.fromkeys((c.scenario, c.prevalence_label) for c in cells))
    say(f"calibrating {len(pairs)} treatment intercepts")
    oracle_start = time.perf_counter()
    stored_intercepts, stored_truths = _stored_oracles(outdir, manifest)
    intercepts = oracle_intercepts(pairs, oracle_seed, calibration_n, guesses=stored_intercepts)
    truths = {}
    for key in dict.fromkeys(_truth_key(c) for c in cells):
        scenario, setting, label, null = key
        if key in stored_truths and stored_intercepts.get((scenario, label)) == intercepts[(scenario, label)]:
            truths[key] = stored_truths[key]
            continue
        if not null and setting == 3:
            say(f"computing setting-3 truth for scenario {scenario}, prevalence {label} from {truth_n} draws")
        stream = oracle_stream(oracle_seed, scenario, label, PURPOSE_TRUTH)
        truths[key] = true_att(
            SCENARIOS[scenario], setting, intercepts[(scenario, label)], stream, oracle_n=truth_n, null_effect=null
        )
    say(f"oracles took {time.perf_counter() - oracle_start:.2f} s")
    write_calibration_csv(outdir / CALIBRATION_NAME, oracle_seed, calibration_n, intercepts)
    write_truths_csv(outdir / TRUTHS_NAME, oracle_seed, truth_n, truths)
    return intercepts, truths, {key: _sha256(outdir / name) for name, key in ORACLE_DIGESTS.items()}


def run_grid(
    cells: list[CellConfig],
    output_dir: str | Path,
    parallelism: int = 1,
    oracle_seed: int = DEFAULT_ORACLE_SEED,
    calibration_n: int = DEFAULT_CALIBRATION_N,
    truth_n: int = DEFAULT_TRUTH_N,
    methods: tuple[str, ...] | None = None,
    log=None,
) -> list[str]:
    """Run a batch of cells and persist a deterministic result store.

    Three steps.  First the oracles (:func:`_oracles`): calibrated
    intercepts and true ATT values, once per (scenario, prevalence) on
    streams derived from ``oracle_seed``, written to the two oracle tables,
    whose digests the manifest keeps as ``calibration_sha256`` and
    ``truths_sha256``.  Then the plan, one pass that keeps, heals or queues
    each cell.  A cell whose manifest entry matches this run (replicate
    count, methods, and an ``alpha0`` float ``==`` to the recomputed
    intercept) and whose records match ``records_sha256`` is reused, which
    is what makes an interrupted grid resumable.  It is kept untouched,
    unread, when its metrics file matches ``metrics_sha256`` and its
    entry's ``truth`` is a float ``==`` to this run's truth; otherwise it
    heals from its records.  Every other cell is queued, and executed after
    the pass.  One finishing step serves a healed and an executed cell alike: it
    aggregates the records under this run's truth and writes the metrics
    file (after the records file, for an executed cell only) and the
    cell's whole manifest entry.  A store built under another schema
    version, master seed, oracle seed or oracle size raises
    :class:`StoreMismatchError` before anything is written.

    Returns the names of the cells this call computed, in the order they
    finished; their results are in the store.  A reused cell is not named.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("no cells to run")
    if len({c.name for c in cells}) != len(cells):
        raise ValueError("duplicate cells in the grid")
    if len({c.master_seed for c in cells}) != 1:
        raise ValueError("all cells in a grid must share a master seed")
    if calibration_n < 1 or truth_n < 1:
        raise ValueError(f"oracle sizes must be positive: calibration_n={calibration_n}, truth_n={truth_n}")
    # Aggregation needs two replicates; stream ids hold MAX_REPLICATES.
    if not all(2 <= c.n_reps <= MAX_REPLICATES for c in cells):
        raise ValueError(f"n_reps must lie in [2, {MAX_REPLICATES}]")
    method_list = METHODS if methods is None else tuple(methods)
    if not method_list:
        raise ValueError("no methods to run")
    if len(set(method_list)) != len(method_list):
        raise ValueError("duplicate methods in the grid")
    unknown = set(method_list) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    # In roster order, so a store resumes under the same methods in any order.
    method_list = tuple(m for m in METHODS if m in method_list)
    say = log if log is not None else (lambda message: None)

    outdir = Path(output_dir)
    cells_dir = outdir / CELLS_DIR
    manifest_path = outdir / MANIFEST_NAME
    # A store of another schema holds bits this code would not write again.
    params = dict(
        schema_version=SCHEMA_VERSION,
        master_seed=cells[0].master_seed,
        oracle_seed=oracle_seed,
        calibration_n=calibration_n,
        truth_n=truth_n,
    )
    manifest: dict = {}
    if manifest_path.exists():
        manifest = read_manifest(manifest_path)
        differing = {k: (manifest.get(k), v) for k, v in params.items() if manifest.get(k) != v}
        if differing:
            raise StoreMismatchError(differing)
    try:
        cells_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CorruptManifestError(f"store {outdir}: cannot create {cells_dir} ({exc})") from exc

    intercepts, truths, digests = _oracles(cells, manifest, outdir, oracle_seed, calibration_n, truth_n, say)
    # Built afresh, so a key this code does not write is dropped.
    entries = manifest.get("cells", {})
    manifest = dict(params, **digests, cells=entries)
    paths = {cfg.name: cell_paths(outdir, cfg.name) for cfg in cells}

    def finish(cfg: CellConfig, records: list[EstimateRecord], computed_now: bool) -> None:
        truth = truths[_truth_key(cfg)][0]
        metrics = aggregate_cell(records, truth, cfg.n_reps)
        records_path, metrics_path = paths[cfg.name].values()
        # A healed cell's records already match their digest; they are never rewritten.
        if computed_now:
            write_records_csv(records_path, records)
        write_metrics_csv(metrics_path, metrics)
        entries[cfg.name] = {
            "alpha0": intercepts[(cfg.scenario, cfg.prevalence_label)],
            "complete": True,
            "methods": list(method_list),
            "metrics_sha256": _sha256(metrics_path),
            "n_reps": cfg.n_reps,
            "records_sha256": _sha256(records_path),
            "truth": truth,
        }

    computed: list[str] = []
    reused = 0

    def progress() -> str:
        return f"({reused + len(computed)}/{len(cells)})"

    jobs = []
    for cfg in cells:
        entry = entries.get(cfg.name, {})
        records_path, metrics_path = paths[cfg.name].values()
        alpha0 = intercepts[(cfg.scenario, cfg.prevalence_label)]
        same_run = (
            entry.get("complete")
            and entry.get("n_reps") == cfg.n_reps
            and entry.get("methods") == list(method_list)
            and _is_float(entry.get("alpha0"), alpha0)
        )
        if same_run and digest_matches(records_path, entry.get("records_sha256")):
            truth = truths[_truth_key(cfg)][0]
            if not (
                _is_float(entry.get("truth"), truth) and digest_matches(metrics_path, entry.get("metrics_sha256"))
            ):
                finish(cfg, read_records_csv(records_path), computed_now=False)
            reused += 1
            say(f"reusing completed cell {cfg.name} {progress()}")
            continue
        if same_run:
            say(f"recomputing cell {cfg.name}: its records are missing or fail their digest")
        entries.pop(cfg.name, None)
        jobs.append((cfg, alpha0, method_list))

    failed: dict[str, str] = {}
    written_at = time.monotonic()
    try:
        for cfg, outcome in _execute(jobs, parallelism):
            try:
                finish(cfg, outcome(), computed_now=True)
            except EstimationError as exc:
                failed[cfg.name] = str(exc)
                continue
            if time.monotonic() - written_at >= MANIFEST_INTERVAL_S:
                _write_manifest(manifest_path, manifest)
                written_at = time.monotonic()
            computed.append(cfg.name)
            say(f"finished cell {cfg.name} {progress()}")
    finally:
        _write_manifest(manifest_path, manifest)
    if failed:
        raise PartialGridError(failed)
    return computed


def write_calibration_csv(
    path: Path, oracle_seed: int, oracle_n: int, intercepts: dict[tuple[int, str], float]
) -> None:
    """Golden intercept table keyed by (scenario, prevalence)."""
    write_csv(
        path,
        CALIBRATION_COLUMNS,
        ((scenario, label, oracle_seed, oracle_n, alpha) for (scenario, label), alpha in sorted(intercepts.items())),
    )


def write_truths_csv(
    path: Path,
    oracle_seed: int,
    oracle_n: int,
    truths: dict[tuple[int, int, str, bool], tuple[float, float]],
) -> None:
    """Golden true-ATT table keyed by (scenario, setting, prevalence, arm)."""
    write_csv(
        path,
        TRUTH_COLUMNS,
        (
            (scenario, setting, label, ARMS[null], oracle_seed, oracle_n, value, se)
            for (scenario, setting, label, null), (value, se) in sorted(truths.items())
        ),
    )
