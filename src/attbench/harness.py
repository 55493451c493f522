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
floats are their shortest round-trip ``repr``; the manifest has sorted
JSON keys; nothing holds a timestamp.  Equal configurations therefore
produce byte-identical files at any worker count.  A manifest tracks
completed cells, with the digests of each cell's records and metrics
files, and lets an interrupted grid resume without recomputation: a
completed cell whose digests, intercept and truth all check out is
reused without reading its records.  A resume also reuses each stored
true ATT whose pair's intercept recomputes to the same bits.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .dgp import (
    NOISE_VARIANCE,
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
from .glm import fit_ols, ols_wald_test
from .matching import CALIPER_SD_FACTOR, caliper_block, cem_att, cem_match, matched_att, mdm_match, psm_match
from .numeric import (
    PURPOSE_CALIBRATION,
    PURPOSE_OUTCOME_FOLDS,
    PURPOSE_PS_FOLDS,
    PURPOSE_TRUTH,
    Estimate,
    RngStream,
    substream,
)
from .propensity import DEFAULT_TRIM_DELTA, estimate_ps, trim_ps, truncate_ps
from .superlearner import K_FOLDS
from .tmle import tmle_att
from .weighting import aipw_att, fit_outcome_models, ipw_att, ols_arm_predictions, ols_outcome_design

ALPHA = 0.05
DEFAULT_ORACLE_SEED = 42
FAILED_PREFIX = "failed:"

MANIFEST_NAME = "manifest.json"
SCHEMA_VERSION = 2
# A grid rewrites its manifest at most this often while cells finish, and
# once more when it stops; each cell's digest keeps the resume contract.
MANIFEST_INTERVAL_S = 5.0
TRUTH_COLUMNS = ("scenario", "setting", "prevalence", "arm", "oracle_seed", "oracle_n", "truth", "oracle_se")
# Design decisions recorded in every manifest.
DECISIONS = {
    "caliper_sd_factor": CALIPER_SD_FACTOR,
    "effect_and_null_streams_independent": True,
    "ensemble_k_folds": K_FOLDS,
    "matching_order": "descending propensity, ties by index",
    "noise_variance": NOISE_VARIANCE,
    "outcome_model_plain": "ols main effects plus treatment",
    "ps_model_plain": "logistic main effects",
    "ps_refit_after_trimming": False,
    "trim_delta": DEFAULT_TRIM_DELTA,
    "truncation_rule": "5 / (sqrt(n) ln n)",
}


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
        self.x, self.z, self.y, self.n = ds.observed_covariates, ds.z, ds.y, ds.n
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
    "ps_truncated": lambda r: truncate_ps(r.nuisance("ps_ensemble"), r.n),
    "outcome_ensemble": lambda r: fit_outcome_models(r.x, r.y, r.z, r.fold_rng(purpose=PURPOSE_OUTCOME_FOLDS)),
}


def _ps_flags(ps) -> tuple[str, ...]:
    return ("nonconverged",) if ps.separated else ()


def _lr(r: _Replicate):
    fit = r.nuisance("outcome_ols")
    z_index = fit.n_params - 1
    _, p_value = ols_wald_test(fit, z_index)
    return Estimate(float(fit.coefficients[z_index]), float(fit.standard_errors[z_index]), p_value), 0, ()


def _cem(r: _Replicate, n_bins: int):
    strata = cem_match(r.x, r.z, n_bins)
    return cem_att(r.y, r.z, strata), int(((r.z == 1) & ~strata.retained).sum()), ()


def _matched(r: _Replicate, match):
    ps = r.nuisance("ps_logistic")
    matches = match(ps, r.nuisance("caliper_block"))
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
    fit = tmle_att(r.y, r.z, r.x, *r.nuisance("outcome_ensemble"), truncated)
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
    "MDM": lambda r: _matched(r, lambda ps, block: mdm_match(r.x, r.z, ps, block=block)),
    "PSM": lambda r: _matched(r, lambda ps, block: psm_match(ps, r.z, 1, block=block)),
    "PSM_1:2": lambda r: _matched(r, lambda ps, block: psm_match(ps, r.z, 2, block=block)),
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
    method_list = METHODS if methods is None else tuple(methods)
    unknown = set(method_list) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")

    ds, attempt = generate_replicate(cfg, alpha0, replicate)
    context = _Replicate(cfg, replicate, attempt, ds)
    base_flags = ("redrawn",) if attempt > 0 else ()
    records = []
    for method in method_list:
        try:
            est, n_discarded, flags = METHOD_TABLE[method](context)
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
        observed_p = p_values[~np.isnan(p_values)]
        type1_rate = float((observed_p < ALPHA).mean()) if observed_p.size else float("nan")
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


def read_records_csv(path: Path) -> list[EstimateRecord]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if tuple(header) != RECORD_COLUMNS:
            raise ValueError(f"unexpected record columns in {path}: {header}")
        return [
            EstimateRecord(
                method, int(rep), float(att), float(se), float(p), int(n_disc),
                tuple(flags.split(";")) if flags else (),
            )
            for method, rep, att, se, p, n_disc, flags in reader
        ]


def write_metrics_csv(path: Path, metrics: list[MethodMetrics]) -> None:
    write_csv(path, METRIC_COLUMNS, metrics)


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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest_matches(path: Path, digest) -> bool:
    """Whether the file at ``path`` exists and its sha256 is ``digest``."""
    return path.exists() and digest == _sha256(path)


def records_intact(path: Path, entry: dict) -> bool:
    """Whether a cell's records file exists and matches its manifest digest."""
    return _digest_matches(path, entry.get("records_sha256"))


def _is_float(value, expected: float) -> bool:
    """Whether a manifest ``value`` is a float ``==`` to ``expected``."""
    return type(value) is float and value == expected


def oracle_stream(oracle_seed: int, scenario: int, label: str, purpose: int) -> RngStream:
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
    which other pairs are asked for: ``run``, ``calibrate`` and ``ps-hist``
    agree for the same seed and size.  ``guesses`` maps a pair to a guess
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


def _stored_intercepts(manifest: dict, pairs: list[tuple[int, str]]) -> dict[tuple[int, str], float]:
    """The finite float intercepts ``manifest`` holds for ``pairs``, as guesses."""
    stored = manifest.get("intercepts")
    if not isinstance(stored, dict):
        return {}
    guesses = {}
    for scenario, label in pairs:
        alpha = stored.get(f"s{scenario}_p{label}")
        if type(alpha) is float and math.isfinite(alpha):
            guesses[(scenario, label)] = alpha
    return guesses


def _truth_key(cfg: CellConfig) -> tuple[int, int, str, bool]:
    return (cfg.scenario, cfg.setting, cfg.prevalence_label, cfg.null_effect)


def _truth_name(key: tuple[int, int, str, bool]) -> str:
    scenario, setting, label, null = key
    return f"s{scenario}_t{setting}_p{label}_{'null' if null else 'effect'}"


def _same_bits(text: str, value: float) -> bool:
    try:
        return struct.pack("<d", float(text)) == struct.pack("<d", value)
    except ValueError:
        return False


def _truths_csv_rows(path: Path) -> dict[str, list[str]]:
    """``truths.csv``'s rows by truth name, less the key columns; empty
    when the file is missing, unreadable or has another header."""
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            if tuple(next(reader, ())) != TRUTH_COLUMNS:
                return {}
            return {
                f"s{row[0]}_t{row[1]}_p{row[2]}_{row[3]}": row[4:]
                for row in reader
                if len(row) == len(TRUTH_COLUMNS)
            }
    except (OSError, UnicodeDecodeError, csv.Error):
        return {}


def _stored_truths(
    keys: list[tuple[int, int, str, bool]],
    manifest: dict,
    truths_path: Path,
    intercepts: dict[tuple[int, str], float],
    oracle_seed: int,
    truth_n: int,
) -> dict[tuple[int, int, str, bool], tuple[float, float]]:
    """The truths among ``keys`` that a store already holds and a run may reuse.

    ``manifest`` must have passed the store's parameter check.  A truth is
    reused only when its pair's manifest intercept is ``==`` to the one just
    recomputed (so the same oracle streams and draw code produced it), its
    manifest entry is exactly ``{"value", "oracle_se"}`` floats, and the
    row of ``truths.csv`` under the same oracle seed and size holds the same
    bits.  Anything else is a miss, left for :func:`true_att`.
    """
    stored_intercepts, entries = manifest.get("intercepts"), manifest.get("truths")
    if not isinstance(stored_intercepts, dict) or not isinstance(entries, dict):
        return {}
    rows = _truths_csv_rows(truths_path)
    reusable = {}
    for key in keys:
        scenario, _, label, _ = key
        alpha, entry = stored_intercepts.get(f"s{scenario}_p{label}"), entries.get(_truth_name(key))
        seed, n, *texts = rows.get(_truth_name(key), ("", "", "", ""))
        if not _is_float(alpha, intercepts[(scenario, label)]):
            continue
        if type(entry) is not dict or entry.keys() != {"value", "oracle_se"}:
            continue
        truth = (entry["value"], entry["oracle_se"])
        if (seed, n) == (str(oracle_seed), str(truth_n)) and all(
            type(v) is float and _same_bits(text, v) for text, v in zip(texts, truth)
        ):
            reusable[key] = truth
    return reusable


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
    with ProcessPoolExecutor(max_workers=min(parallelism, len(jobs))) as pool:
        futures = {pool.submit(_cell_worker, job): job[0] for job in jobs}
        for future in as_completed(futures):
            yield futures[future], future.result


def run_grid(
    cells: list[CellConfig],
    output_dir: str | Path,
    parallelism: int = 1,
    oracle_seed: int = DEFAULT_ORACLE_SEED,
    calibration_n: int = 10**6,
    truth_n: int = 10**7,
    methods: tuple[str, ...] | None = None,
    log=None,
) -> dict[str, tuple[CellConfig, list[EstimateRecord], list[MethodMetrics]]]:
    """Run a batch of cells and persist a deterministic result store.

    Oracles first: calibrated intercepts and true ATT values, once per
    (scenario, prevalence) on streams derived from ``oracle_seed``.  The
    intercepts are always recomputed, each certified in two passes when
    the store already holds it; a truth the store already holds is
    reused when :func:`_stored_truths` vouches for it.  Then the plan: a
    cell whose manifest entry matches this run (replicate count, methods,
    and an ``alpha0`` float ``==`` to the recomputed intercept) and whose
    records match ``records_sha256`` is reused, which is what makes an
    interrupted grid resumable.  It is left untouched, unread, when its
    metrics file matches ``metrics_sha256`` and its entry's ``truth`` and
    ``truth_oracle_se`` are floats ``==`` to this run's truth; otherwise it
    heals: its metrics are aggregated again from its records under this
    run's truth, and the file and entry rewritten.  Every other cell is
    executed and persisted.  A store built under another master seed,
    oracle seed or oracle size raises :class:`StoreMismatchError` before
    anything is written.

    Returns the cells this call computed, by name; a reused cell is not
    among them.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("no cells to run")
    if len({c.name for c in cells}) != len(cells):
        raise ValueError("duplicate cells in the grid")
    if len({c.master_seed for c in cells}) != 1:
        raise ValueError("all cells in a grid must share a master seed")
    method_list = METHODS if methods is None else tuple(methods)
    if len(set(method_list)) != len(method_list):
        raise ValueError("duplicate methods in the grid")
    say = log if log is not None else (lambda message: None)

    outdir = Path(output_dir)
    cells_dir = outdir / "cells"
    manifest_path = outdir / MANIFEST_NAME
    params = dict(
        master_seed=cells[0].master_seed, oracle_seed=oracle_seed, calibration_n=calibration_n, truth_n=truth_n
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

    pairs = list(dict.fromkeys((c.scenario, c.prevalence_label) for c in cells))
    say(f"calibrating {len(pairs)} treatment intercepts")
    oracle_start = time.perf_counter()
    intercepts = oracle_intercepts(
        pairs, oracle_seed, calibration_n, guesses=_stored_intercepts(manifest, pairs)
    )
    truth_keys = list(dict.fromkeys(_truth_key(c) for c in cells))
    truths = _stored_truths(truth_keys, manifest, outdir / "truths.csv", intercepts, oracle_seed, truth_n)
    for key in truth_keys:
        if key in truths:
            continue
        scenario, setting, label, null = key
        if not null and setting == 3:
            say(f"computing setting-3 truth for scenario {scenario}, prevalence {label}")
        truths[key] = true_att(
            SCENARIOS[scenario],
            setting,
            intercepts[(scenario, label)],
            oracle_stream(oracle_seed, scenario, label, PURPOSE_TRUTH),
            oracle_n=truth_n,
            null_effect=null,
        )
    say(f"oracles took {time.perf_counter() - oracle_start:.2f} s")
    write_calibration_csv(outdir / "calibration.csv", oracle_seed, calibration_n, intercepts)
    write_truths_csv(outdir / "truths.csv", oracle_seed, truth_n, truths)

    manifest.update(
        params,
        schema_version=SCHEMA_VERSION,
        package_version=__version__,
        methods=list(method_list),
        decisions=DECISIONS,
        intercepts={f"s{s}_p{p}": a for (s, p), a in sorted(intercepts.items())},
        truths={_truth_name(key): {"value": v, "oracle_se": se} for key, (v, se) in sorted(truths.items())},
    )
    entries = manifest.setdefault("cells", {})

    results: dict[str, tuple[CellConfig, list[EstimateRecord], list[MethodMetrics]]] = {}
    reused = 0

    def progress() -> str:
        return f"({reused + len(results)}/{len(cells)})"

    jobs = []
    for cfg in cells:
        entry = entries.get(cfg.name, {})
        records_path = cells_dir / f"{cfg.name}_records.csv"
        alpha0 = intercepts[(cfg.scenario, cfg.prevalence_label)]
        same_run = (
            entry.get("complete")
            and entry.get("n_reps") == cfg.n_reps
            and entry.get("methods") == list(method_list)
            and _is_float(entry.get("alpha0"), alpha0)
        )
        if same_run and records_intact(records_path, entry):
            truth, truth_se = truths[_truth_key(cfg)]
            metrics_path = cells_dir / f"{cfg.name}_metrics.csv"
            if not (
                _is_float(entry.get("truth"), truth)
                and _is_float(entry.get("truth_oracle_se"), truth_se)
                and _digest_matches(metrics_path, entry.get("metrics_sha256"))
            ):
                # Heal: the records stand, their summary is redone under this run's truth.
                metrics = aggregate_cell(read_records_csv(records_path), truth, cfg.n_reps)
                write_metrics_csv(metrics_path, metrics)
                entry.update(truth=truth, truth_oracle_se=truth_se, metrics_sha256=_sha256(metrics_path))
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
            truth, truth_se = truths[_truth_key(cfg)]
            try:
                records = outcome()
                metrics = aggregate_cell(records, truth, cfg.n_reps)
            except EstimationError as exc:
                failed[cfg.name] = str(exc)
                continue
            records_path = cells_dir / f"{cfg.name}_records.csv"
            metrics_path = cells_dir / f"{cfg.name}_metrics.csv"
            write_records_csv(records_path, records)
            write_metrics_csv(metrics_path, metrics)
            entries[cfg.name] = {
                "alpha0": intercepts[(cfg.scenario, cfg.prevalence_label)],
                "cell_code": cfg.cell_code,
                "complete": True,
                "methods": list(method_list),
                "metrics_sha256": _sha256(metrics_path),
                "n": cfg.n,
                "n_reps": cfg.n_reps,
                "null_effect": cfg.null_effect,
                "prevalence": cfg.prevalence_label,
                "records_sha256": _sha256(records_path),
                "scenario": cfg.scenario,
                "setting": cfg.setting,
                "truth": truth,
                "truth_oracle_se": truth_se,
            }
            if time.monotonic() - written_at >= MANIFEST_INTERVAL_S:
                _write_manifest(manifest_path, manifest)
                written_at = time.monotonic()
            results[cfg.name] = (cfg, records, metrics)
            say(f"finished cell {cfg.name} {progress()}")
    finally:
        _write_manifest(manifest_path, manifest)
    if failed:
        raise PartialGridError(failed)
    return results


def write_calibration_csv(
    path: Path, oracle_seed: int, oracle_n: int, intercepts: dict[tuple[int, str], float]
) -> None:
    """Golden intercept table keyed by (scenario, prevalence)."""
    write_csv(
        path,
        ("scenario", "prevalence", "oracle_seed", "oracle_n", "alpha0"),
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
            (scenario, setting, label, "null" if null else "effect", oracle_seed, oracle_n, value, se)
            for (scenario, setting, label, null), (value, se) in sorted(truths.items())
        ),
    )
