"""Replicate execution, cell aggregation, and the on-disk result store.

One replicate draws a cohort and runs every requested estimator on it,
each a function of the replicate in one method table.  The methods'
inputs are named nuisances, each built once through one memo: the
design (the logistic and stacked propensity fits with their trimming and
truncation, the caliper block and the five matchings), which never reads
the outcome, and the least-squares and stacked outcome fits.  Each
method is then an outcome step over the cohort and the memo.  The memo
keeps only builds that succeed; a build that raises is built again by
each consumer, from the same inputs, to the same error, so two methods
consuming the same broken input report the same failure.  A failed
method still emits a record, flagged ``failed:<ErrorType>``, never a
silent gap; so does every method of a replicate whose cohort cannot be
drawn.  A cell therefore always completes, whatever its replicates hit.

Cells are independent given the master seed, so the grid parallelizes
over cells with each worker deriving its streams from stable
coordinates.  The store is written deterministically: every table goes
through one CSV writer, whose rows list the columns in order and whose
floats are their shortest round-trip ``repr``, and back through one
reader, which checks its header; the manifest has sorted JSON keys;
nothing holds a timestamp.  Equal configurations therefore
produce byte-identical files at any worker count.  A manifest tracks
completed cells, with the digests of each cell's records and metrics
files, and is rewritten as each cell is stored, so an interrupted grid
resumes without computing a finished cell again: a completed cell whose
digests, intercept and truth all check out is reused whole, unread, and
every other cell is computed again.  The two oracle tables, each vouched
for by its own digest in the manifest, are what a resume reads its
intercept guesses and truths from; each cell's entry holds the intercept
and truth that cell was computed under.  A resume reuses each true ATT
of a vouched ``truths.csv`` whose pair's intercept in a vouched
``calibration.csv`` recomputes to the same bits.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import signal
import time
from functools import partial
from itertools import islice
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
from .errors import CorruptManifestError, DegenerateDrawError, EstimationError, StoreMismatchError
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
# in ``CELLS_DIR`` (see :func:`cell_paths`).  ``report`` writes
# ``REPORT_NAME`` beside them.
MANIFEST_NAME = "manifest.json"
REPORT_NAME = "report.csv"
CALIBRATION_NAME = "calibration.csv"
TRUTHS_NAME = "truths.csv"
CELLS_DIR = "cells"
# The manifest key of each oracle table's sha256.
ORACLE_DIGESTS = {CALIBRATION_NAME: "calibration_sha256", TRUTHS_NAME: "truths_sha256"}
SCHEMA_VERSION = 3
CALIBRATION_COLUMNS = ("scenario", "prevalence", "oracle_seed", "oracle_n", "alpha0")
TRUTH_COLUMNS = ("scenario", "setting", "prevalence", "arm", "oracle_seed", "oracle_n", "truth", "oracle_se")


class EstimateRecord(NamedTuple):
    """One method's result on one replicate: a row of a records file, its
    ``flags`` the column's sorted, ``;``-joined flag names ("" for none)."""

    method: str
    replicate: int
    att: float
    theoretical_se: float
    p_value: float
    n_discarded: int
    flags: str

    @property
    def failed(self) -> bool:
        # Only a failure flag holds the prefix.
        return FAILED_PREFIX in self.flags


class MethodMetrics(NamedTuple):
    """Cell-level summary of one method over its valid replicates: a row
    of a metrics file.  Every field is given; a method with fewer than two
    valid replicates has NaN moments (:func:`aggregate_cell`)."""

    method: str
    n_valid: int
    bias: float
    empirical_sd: float
    avg_theoretical_sd: float
    mse: float
    type1_rate: float
    failure_rate: float


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
        """``NUISANCES[key]``, built once.  Only a build that succeeds is
        kept: every nuisance is deterministic, so a build that raises is
        built again by each consumer and raises the same error to each."""
        if key not in self._memo:
            self._memo[key] = NUISANCES[key](self)
        return self._memo[key]


# Builders of the methods' inputs, several of them shared.  Only the entries
# whose key starts with ``outcome_`` read the outcome; the rest are the
# cohort's design.  Every entry, like every method below, looks its estimator up as
# a module global at call time, so replacing a name on this module reaches
# every caller.
NUISANCES = {
    "ps_logistic": lambda r: estimate_ps(r.x, r.z, "logistic"),
    "ps_trimmed": lambda r: trim_ps(r.nuisance("ps_logistic")),
    "caliper_block": lambda r: caliper_block(r.nuisance("ps_logistic").values, r.z),
    "cem_2": lambda r: cem_match(r.x, r.z, 2),
    "cem_5": lambda r: cem_match(r.x, r.z, 5),
    "match_mdm": lambda r: mdm_match(r.x, r.nuisance("caliper_block")),
    "match_psm_1": lambda r: psm_match(r.nuisance("caliper_block"), 1),
    "match_psm_2": lambda r: psm_match(r.nuisance("caliper_block"), 2),
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
    return wald_estimate(att, se, r.y.size - fit.coefficients.size), 0, ()


def _cem(r: _Replicate, key: str):
    strata = r.nuisance(key)
    return cem_att(r.y, r.z, strata), int(((r.z == 1) & ~strata.retained).sum()), ()


def _matched(r: _Replicate, key: str):
    # Building the matching builds the logistic score first, so a failed score raises here as itself.
    matches = r.nuisance(key)
    return matched_att(r.y, matches), len(matches.discarded_treated), _ps_flags(r.nuisance("ps_logistic"))


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


# Method -> outcome step of one replicate: it reads the outcome, the
# treatment and the ``NUISANCES`` memo, and returns (estimate, n_discarded,
# flags), where the estimate has ``att``, ``theoretical_se`` and
# ``p_value`` (an :class:`Estimate`, or TMLE's fuller fit).  Its order is
# the roster order of the store.
METHOD_TABLE = {
    "LR": _lr,
    "CEM2": lambda r: _cem(r, "cem_2"),
    "CEM5": lambda r: _cem(r, "cem_5"),
    "MDM": lambda r: _matched(r, "match_mdm"),
    "PSM": lambda r: _matched(r, "match_psm_1"),
    "PSM_1:2": lambda r: _matched(r, "match_psm_2"),
    "IPW": lambda r: _trimmed(r, lambda ps: ipw_att(r.y, r.z, ps)),
    "AIPW": lambda r: _trimmed(
        r, lambda ps: aipw_att(r.y, r.z, ps, *ols_arm_predictions(r.nuisance("outcome_ols"), r.x))
    ),
    "AIPW_SL": _aipw_sl,
    "TMLE_SL": _tmle_sl,
}
METHODS = tuple(METHOD_TABLE)


def _failure(exc: EstimationError) -> tuple[Estimate, int, tuple[str, ...]]:
    """The ``(estimate, n_discarded, flags)`` of a method that ``exc`` stopped."""
    return _FAILED_ESTIMATE, 0, (FAILED_PREFIX + type(exc).__name__,)


def _record(method: str, replicate: int, result, base_flags: tuple[str, ...] = ()) -> EstimateRecord:
    est, n_discarded, flags = result
    flags = ";".join(sorted(set(base_flags) | set(flags)))
    return EstimateRecord(method, replicate, est.att, est.theoretical_se, est.p_value, n_discarded, flags)


def run_replicate(
    cfg: CellConfig, alpha0: float, replicate: int, methods: tuple[str, ...] | None = None
) -> list[EstimateRecord]:
    """Run the requested estimators on one simulated cohort: one record
    per method, in the order requested.

    Shared inputs are the entries of ``NUISANCES``, each built once a
    replicate: PSM, MDM, IPW, and AIPW all consume the same logistic
    propensity fit, PSM, PSM_1:2 and MDM one caliper block built from it
    and each its own matching of it, CEM2 and CEM5 their coarsened
    strata, LR and AIPW one least-squares outcome fit, and the two stacked
    methods one propensity ensemble and one outcome ensemble.  A shared
    input whose build raises is built again by each method that reads it,
    and fails each with the same flag.  The ensembles' fold draws live on
    their own substreams keyed by the attempt that produced the cohort, so
    they are reproducible unit by unit.  A replicate whose every draw
    attempt is degenerate has no cohort: each method gets the row of a
    method that failed, flagged ``failed:DegenerateDrawError``.
    """
    # Looked up first, so an unknown method fails before any draw.
    estimators = [(method, METHOD_TABLE[method]) for method in (METHODS if methods is None else methods)]
    try:
        ds, attempt = generate_replicate(cfg, alpha0, replicate)
    except DegenerateDrawError as exc:
        return [_record(method, replicate, _failure(exc)) for method, _ in estimators]
    context = _Replicate(cfg, replicate, attempt, ds)
    base_flags = ("redrawn",) if attempt > 0 else ()
    records = []
    for method, estimator in estimators:
        try:
            result = estimator(context)
        except EstimationError as exc:
            result = _failure(exc)
        records.append(_record(method, replicate, result, base_flags))
    return records


def aggregate_cell(records: list[EstimateRecord], truth: float) -> list[MethodMetrics]:
    """Summarize a cell's records method by method, one row per method
    present, in roster order.

    Flagged failures are excluded from every moment and counted in
    ``failure_rate``.  A method with fewer than two valid replicates gets
    NaN moments rather than sinking the whole cell.
    """
    present = [m for m in METHODS if any(r.method == m for r in records)]
    out = []
    for method in present:
        recs = [r for r in records if r.method == method]
        valid = [r for r in recs if not r.failed]
        failure_rate = 1.0 - len(valid) / len(recs)
        if len(valid) < 2:
            out.append(MethodMetrics(method, len(valid), *[np.nan] * 5, failure_rate))
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
    write_csv(path, RECORD_COLUMNS, ordered)


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
    return EstimateRecord(method, int(replicate), float(att), float(se), float(p_value), int(n_discarded), flags)


def read_records_csv(path: Path) -> list[EstimateRecord]:
    return _read_rows(path, RECORD_COLUMNS, _record_row)


def write_metrics_csv(path: Path, metrics: list[MethodMetrics]) -> None:
    write_csv(path, METRIC_COLUMNS, metrics)


def _metrics_row(method, n_valid, *moments) -> MethodMetrics:
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


def cell_intact(store: Path, name: str, entry: dict) -> bool:
    """Whether cell ``name``'s manifest ``entry`` is complete and its
    records and metrics files in ``store`` both match their digests."""
    return bool(entry.get("complete")) and all(
        digest_matches(path, entry.get(f"{kind}_sha256")) for kind, path in cell_paths(store, name).items()
    )


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
    """Yield ``(cfg, records)`` per job as its cell finishes.

    A worker holds one cell at a time and the next is handed over only
    after a finished cell's records are in hand, so when a cell raises,
    or the caller stops early (an interrupt, or an error while it stores
    a cell), no further cell starts and only the running ones are waited
    for.  Workers ignore SIGINT: a Ctrl-C interrupts this process alone,
    as a worker interrupted inside the pool's queue code can keep its lock
    and hang the pool."""
    if parallelism <= 1 or len(jobs) <= 1:
        for job in jobs:
            yield job[0], _cell_worker(job)
        return
    # Imported here: the process pool's modules cost a serial run memory and import time.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    workers = min(parallelism, len(jobs))
    queued = iter(jobs)
    with ProcessPoolExecutor(workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
        running = {pool.submit(_cell_worker, job): job[0] for job in islice(queued, workers)}
        while running:
            for future in wait(running, return_when=FIRST_COMPLETED).done:
                records = future.result()
                running.update({pool.submit(_cell_worker, job): job[0] for job in islice(queued, 1)})
                yield running.pop(future), records


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
    ``truths_sha256``.  Then the plan, one pass that reuses or queues each
    cell by one rule.  A cell is reused, unread, when its manifest entry
    matches this run (replicate count, methods, and an ``alpha0`` and a
    ``truth`` that are floats ``==`` to this run's intercept and truth)
    and the cell is intact (:func:`cell_intact`); that is what makes an
    interrupted grid resumable.  Every other cell loses its entry and is
    queued.  The manifest is then written, vouching for the oracle tables.
    Last, the queued cells are executed.  As each finishes, ``run_grid``
    deletes a ``report.csv`` that summarized the store before, writes the
    records file, the metrics file aggregated under this run's truth and
    the cell's whole manifest entry, and writes the manifest again.  An
    executed cell always completes: a method that fails on a replicate, or
    a replicate with no drawable cohort, is a flagged record
    (:func:`run_replicate`).  A store built under another schema version,
    master seed, oracle seed or oracle size raises
    :class:`StoreMismatchError` before anything is written.

    Any error escaping a cell stops the run as an interrupt does; the
    manifest already lists every cell stored before it, so the next call,
    after a hard kill too, computes only the cells still missing.

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

    computed: list[str] = []
    reused = 0

    def progress() -> str:
        return f"({reused + len(computed)}/{len(cells)})"

    jobs = []
    for cfg in cells:
        entry = entries.get(cfg.name, {})
        alpha0 = intercepts[(cfg.scenario, cfg.prevalence_label)]
        if (
            entry.get("n_reps") == cfg.n_reps
            and entry.get("methods") == list(method_list)
            and _is_float(entry.get("alpha0"), alpha0)
            and _is_float(entry.get("truth"), truths[_truth_key(cfg)][0])
            and cell_intact(outdir, cfg.name, entry)
        ):
            reused += 1
            say(f"reusing completed cell {cfg.name} {progress()}")
            continue
        entries.pop(cfg.name, None)
        jobs.append((cfg, alpha0, method_list))

    _write_manifest(manifest_path, manifest)
    for cfg, records in _execute(jobs, parallelism):
        truth = truths[_truth_key(cfg)][0]
        records_path, metrics_path = cell_paths(outdir, cfg.name).values()
        # The report summarizes the cells as they were before this one.
        (outdir / REPORT_NAME).unlink(missing_ok=True)
        write_records_csv(records_path, records)
        write_metrics_csv(metrics_path, aggregate_cell(records, truth))
        entries[cfg.name] = {
            "alpha0": intercepts[(cfg.scenario, cfg.prevalence_label)],
            "complete": True,
            "methods": list(method_list),
            "metrics_sha256": _sha256(metrics_path),
            "n_reps": cfg.n_reps,
            "records_sha256": _sha256(records_path),
            "truth": truth,
        }
        _write_manifest(manifest_path, manifest)
        computed.append(cfg.name)
        say(f"finished cell {cfg.name} {progress()}")
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
