"""Metric names, units and directions, and the arithmetic behind them.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json``
declares; a test keeps the two in step.
"""

from __future__ import annotations

import math
import re
from collections import Counter

from spans import Recorder, self_times

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TAIL_MIN_BEYOND = 10

END_TO_END = (
    ("grid_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("replicates_per_s", "1/s", "higher"),
    ("replicate_ms.p50", "ms", "lower"),
    ("replicate_ms.p95", "ms", "lower"),
    ("resume_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# Printed with the end-to-end metrics but not declared in BENCHMARK.json:
# failed_share is 0 on most seeds, and report_s (a 20-30 ms call) spread
# by more than any allowed bound over ten runs on a shared 2-core machine.
# probe_ms is the median speed probe and raw.* are wall times before the
# probe adjustment (see speed.py).
PRINTED_ONLY = (
    ("failed_share", "ratio"),
    ("report_s", "s"),
    ("probe_ms", "ms"),
    ("raw.grid_s", "s"),
    ("raw.setup_s", "s"),
    ("raw.replicate_ms.p50", "ms"),
    ("raw.resume_s", "s"),
)


def _span_metrics(layer: str, fn: str, *fields: str) -> list[tuple[str, str, str]]:
    units = {"calls": "count", "s": "s", "self_s": "s"}
    return [(f"{layer}.{fn}.{f}", units[f], "lower") for f in fields]


PER_LAYER = tuple(
    _span_metrics("superlearner", "fit_superlearner", "calls", "s", "self_s")
    + [("superlearner.glm_fits_per_fit", "count", "lower")]
    + _span_metrics("superlearner", "predict_ensemble", "calls", "self_s")
    + _span_metrics("glm", "fit_logistic", "calls", "self_s")
    + _span_metrics("glm", "fit_logistic.ensemble", "calls", "self_s")
    + _span_metrics("glm", "fit_logistic.direct", "calls", "self_s")
    + _span_metrics("glm", "fit_ols", "calls", "self_s")
    + _span_metrics("glm", "fit_ols.ensemble", "calls", "self_s")
    + _span_metrics("glm", "fit_ols.direct", "calls", "self_s")
    + [("glm.separated_share", "ratio", "lower")]
    + _span_metrics("numeric", "cholesky_factor", "calls", "self_s")
    + _span_metrics("numeric", "solve_from_factor", "calls", "self_s")
    + _span_metrics("matching", "psm_match", "self_s")
    + _span_metrics("matching", "mdm_match", "self_s")
    + _span_metrics("matching", "cem_match", "self_s")
    + _span_metrics("matching", "matched_att", "self_s")
    + _span_metrics("matching", "cem_att", "self_s")
    + [("matching.discarded_share", "ratio", "lower")]
    + _span_metrics("propensity", "estimate_ps", "calls", "self_s")
    + [("propensity.trim_ps.dropped_share", "ratio", "lower")]
    + _span_metrics("weighting", "fit_outcome_models", "self_s")
    + _span_metrics("weighting", "ipw_att", "self_s")
    + _span_metrics("weighting", "aipw_att", "self_s")
    + _span_metrics("tmle", "tmle_att", "calls", "self_s")
    + [("tmle.nonconverged_share", "ratio", "lower")]
    + _span_metrics("dgp", "generate_replicate", "calls", "self_s")
    + [("dgp.redrawn_share", "ratio", "lower")]
    + _span_metrics("dgp", "calibrate_intercept", "calls", "s")
    + _span_metrics("dgp", "true_att", "calls", "s")
    + _span_metrics("harness", "run_replicate", "calls", "self_s")
    + [
        ("harness.aggregate_cell.s", "s", "lower"),
        ("harness.write_records_csv.s", "s", "lower"),
        ("harness.write_metrics_csv.s", "s", "lower"),
        ("harness.read_records_csv.s", "s", "lower"),
        ("harness.cells_reused", "count", "higher"),
        ("harness.store_bytes", "bytes", "lower"),
        ("harness.unattributed_s", "s", "lower"),
        ("harness.trace_coverage", "ratio", "higher"),
        ("harness.failed_share", "ratio", "lower"),
        ("cli.read_records_csv.s", "s", "lower"),
        ("cli.aggregate_cell.s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER} | dict(PRINTED_ONLY)


def tail_percentile(values: list[float], q: float, min_beyond: int = TAIL_MIN_BEYOND) -> float | None:
    """Nearest-rank ``q``-th percentile, or None unless ``min_beyond``
    samples lie above its rank."""
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec: Recorder, run_s: float, untraced_run_s: float, store_bytes: int, failed_share: float
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced pass.

    ``rec`` holds the spans of a ``run`` call (phase ``"run"``), the
    resume ``run`` on its store (``"resume"``) and a ``report``
    (``"report"``).  ``run_s`` is the traced wall time of the first call
    and ``untraced_run_s`` that of the same call with tracing off.
    """
    own = self_times(rec.spans)
    calls: Counter = Counter()
    incl: Counter = Counter()
    excl: Counter = Counter()
    ensemble_children = 0
    top_level_run = 0.0
    for span, self_s in zip(rec.spans, own):
        names = [span.name]
        parent = rec.spans[span.parent].name if span.parent >= 0 else None
        if span.name in ("glm.fit_logistic", "glm.fit_ols"):
            ensemble = parent == "superlearner.fit_superlearner"
            names.append(f"{span.name}.{'ensemble' if ensemble else 'direct'}")
            ensemble_children += ensemble
        for name in names:
            calls[name] += 1
            incl[name] += span.duration
            excl[name] += self_s
        if parent is None and span.phase == "run":
            top_level_run += span.duration
    counters = rec.counters
    replicate_s = incl["harness.run_replicate"]
    replicate_children_s = replicate_s - excl["harness.run_replicate"]
    cells_reused = sum(
        1 for s in rec.spans if s.name == "harness.read_records_csv" and s.phase == "resume"
    )

    out: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls[stem]
        elif field == "self_s":
            out[name] = excl[stem]
        elif field == "s":
            out[name] = incl[stem]
    out.update(
        {
            "superlearner.glm_fits_per_fit": _share(
                ensemble_children, calls["superlearner.fit_superlearner"]
            ),
            "glm.separated_share": _share(
                counters["glm.fit_logistic.separated"], calls["glm.fit_logistic"]
            ),
            "matching.discarded_share": _share(counters["matching.discarded"], counters["matching.treated"]),
            "propensity.trim_ps.dropped_share": _share(
                counters["propensity.trim_ps.dropped"], counters["propensity.trim_ps.units"]
            ),
            "tmle.nonconverged_share": _share(
                counters["tmle.nonconverged"], counters["tmle.tmle_att.returned"]
            ),
            "dgp.redrawn_share": _share(counters["dgp.redrawn"], calls["dgp.generate_replicate"]),
            "harness.cells_reused": cells_reused,
            "harness.store_bytes": store_bytes,
            "harness.unattributed_s": run_s - top_level_run,
            "harness.trace_coverage": _share(replicate_children_s, replicate_s),
            "harness.failed_share": failed_share,
            "trace.overhead_ratio": _share(run_s, untraced_run_s),
            "trace.spans": len(rec.spans),
        }
    )
    missing = [name for name, _, _ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: out[name] for name, _, _ in PER_LAYER}


def run_call_counts(rec: Recorder) -> Counter:
    """Calls per span name during the ``run`` phase; they repeat exactly."""
    return Counter(s.name for s in rec.spans if s.phase == "run")
