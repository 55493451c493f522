"""Output checks on an attbench result store.

The checks read the store's files directly and recompute every cell's
metrics from its records with their own arithmetic, so they do not rely
on the code under test:

* every expected cell is complete, with ``n_reps x methods`` records and
  each (method, replicate) exactly once;
* ``n_valid`` plus the records flagged ``failed:*`` equals ``n_reps``;
* the metrics file agrees with the records, and
  ``mse = bias**2 + empirical_sd**2 * (R - 1) / R`` holds to round-off;
* optionally, the metrics match a reference captured from an earlier
  commit, and the store is byte-identical to a twin store of the same
  grid (another pass, another worker count, or the store before resume).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALPHA = 0.05
FAILED_PREFIX = "failed:"
METRIC_FIELDS = ("bias", "empirical_sd", "avg_theoretical_sd", "mse", "type1_rate", "failure_rate")
# Recomputing a metric in another summation order moves it by a few ulps.
RECOMPUTE_RTOL = 1e-9
RECOMPUTE_ATOL = 1e-12
# Above solver round-off (a LAPACK swap moves ATT values by ~3e-14) and
# far below Monte Carlo error, which is ~1e-2 for these metrics.
REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-10


@dataclass
class StoreCheck:
    records: int = 0
    flagged: int = 0
    incomplete: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def digests(store: Path) -> dict[str, str]:
    """sha256 of every file in the store, keyed by relative path."""
    return {
        str(path.relative_to(store)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(store.rglob("*"))
        if path.is_file()
    }


def compare_digests(got: dict[str, str], want: dict[str, str], what: str) -> list[str]:
    differing = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    if not differing:
        return []
    return [f"{what}: {len(differing)} files differ, first {differing[0]}"]


def _close(got: float, want: float, rtol: float, atol: float) -> bool:
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return abs(got - want) <= atol + rtol * abs(want)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def read_metrics(store: Path, cell: str) -> dict[str, dict[str, float]]:
    rows = _read_csv(store / "cells" / f"{cell}_metrics.csv")
    return {
        row["method"]: {"n_valid": int(row["n_valid"]), **{k: float(row[k]) for k in METRIC_FIELDS}}
        for row in rows
    }


def recompute(records: list[dict[str, str]], truth: float) -> dict[str, float]:
    """One method's cell metrics from its record rows."""
    valid = [r for r in records if not any(f.startswith(FAILED_PREFIX) for f in r["flags"].split(";"))]
    out = {"n_valid": len(valid), "failure_rate": 1.0 - len(valid) / len(records)}
    if len(valid) < 2:
        out.update({k: math.nan for k in METRIC_FIELDS if k != "failure_rate"})
        return out
    att = np.array([float(r["att"]) for r in valid])
    se = np.array([float(r["theoretical_se"]) for r in valid])
    p = np.array([float(r["p_value"]) for r in valid])
    p = p[~np.isnan(p)]
    out.update(
        bias=float(att.mean()) - truth,
        empirical_sd=float(att.std(ddof=1)),
        avg_theoretical_sd=float(se.mean()),
        mse=float(((att - truth) ** 2).mean()),
        type1_rate=float((p < ALPHA).mean()) if p.size else math.nan,
    )
    return out


def _check_cell(store: Path, cell: str, entry: dict, methods, n_reps: int, result: StoreCheck) -> None:
    problems = result.problems
    if not entry.get("complete") or entry.get("n_reps") != n_reps or entry.get("methods") != list(methods):
        problems.append(f"{cell}: manifest entry is not a complete {n_reps}-replicate cell of {list(methods)}")
        result.incomplete.append(cell)
        return
    records = _read_csv(store / "cells" / f"{cell}_records.csv")
    keys = [(r["method"], int(r["replicate"])) for r in records]
    expected = {(m, i) for m in methods for i in range(n_reps)}
    if len(keys) != n_reps * len(methods) or set(keys) != expected:
        problems.append(f"{cell}: {len(keys)} records, expected one per method and replicate ({len(expected)})")
        result.incomplete.append(cell)
        return
    result.records += len(records)
    metrics = read_metrics(store, cell)
    if set(metrics) != set(methods):
        problems.append(f"{cell}: metrics cover {sorted(metrics)}")
        return
    for method in methods:
        rows = [r for r in records if r["method"] == method]
        flagged = sum(any(f.startswith(FAILED_PREFIX) for f in r["flags"].split(";")) for r in rows)
        result.flagged += flagged
        got = metrics[method]
        if got["n_valid"] + flagged != n_reps:
            problems.append(f"{cell} {method}: n_valid {got['n_valid']} + failed {flagged} != {n_reps}")
        want = recompute(rows, float(entry["truth"]))
        for key, value in want.items():
            if not _close(got[key], value, RECOMPUTE_RTOL, RECOMPUTE_ATOL):
                problems.append(f"{cell} {method}: {key} {got[key]!r} but records give {value!r}")
        r = got["n_valid"]
        if r >= 2 and not math.isnan(got["mse"]):
            identity = got["bias"] ** 2 + got["empirical_sd"] ** 2 * (r - 1) / r
            if not _close(got["mse"], identity, RECOMPUTE_RTOL, RECOMPUTE_ATOL):
                problems.append(f"{cell} {method}: mse {got['mse']!r} != bias^2 + var(R-1)/R {identity!r}")


def check_store(
    store: Path,
    cells: list[str],
    methods: tuple[str, ...],
    n_reps: int,
    reference: dict | None = None,
) -> StoreCheck:
    """Check a finished store; problems are returned, never raised."""
    result = StoreCheck()
    try:
        with open(store / "manifest.json") as handle:
            manifest_cells = json.load(handle).get("cells", {})
        for cell in cells:
            if cell not in manifest_cells:
                result.problems.append(f"{cell}: missing from the manifest")
                result.incomplete.append(cell)
                continue
            _check_cell(store, cell, manifest_cells[cell], methods, n_reps, result)
        extra = sorted(set(manifest_cells) - set(cells))
        if extra:
            result.problems.append(f"unexpected cells in the manifest: {extra}")
        if reference is not None:
            result.problems.extend(compare_reference(store, reference))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.problems.append(f"unreadable store: {type(exc).__name__}: {exc}")
    return result


def compare_reference(store: Path, reference: dict) -> list[str]:
    problems = []
    for cell, by_method in reference.items():
        got_cell = read_metrics(store, cell)
        for method, want in by_method.items():
            got = got_cell.get(method)
            if got is None:
                problems.append(f"reference: {cell} {method} missing")
                continue
            for key, value in want.items():
                value = math.nan if value is None else float(value)
                if not _close(float(got[key]), value, REFERENCE_RTOL, REFERENCE_ATOL):
                    problems.append(f"reference: {cell} {method} {key} {got[key]!r} != {value!r}")
    return problems
