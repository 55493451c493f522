"""Timers and spans around calls into attbench, installed from outside it.

Every wrapper replaces the name at the place where the *calling* module
looks the function up at call time: ``harness._cell_worker`` calls the
global ``attbench.harness.run_replicate``, ``propensity.estimate_ps``
calls ``attbench.propensity.fit_superlearner``, and so on.  No file of
the package changes, and :func:`patched` puts every original back on
exit, even when the wrapped code raises.

Two kinds of wrapper exist:

* :class:`Timers` stay on in untraced runs, at the ``run_replicate``
  boundary and around the two oracle functions only; each costs two
  clock reads and a list append per call, plus the speed probe of
  :mod:`speed`, which runs outside the timed call.
* :class:`Recorder` keeps one :class:`Span` per call, with its parent
  span and the ``(cell, replicate)`` request it belongs to, plus counters
  that observers fill from call results.  Spans stay in memory until the
  run ends.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from speed import Timed

WRAPPER_MARK = "__perfbench_wrapper__"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the recorder, -1 at top level
    request: tuple | None  # (cell name, replicate) of the replicate being run
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and merged first, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def _mark(wrapper, func):
    wrapper.__wrapped__ = func
    wrapper.__name__ = getattr(func, "__name__", "wrapper")
    setattr(wrapper, WRAPPER_MARK, True)
    return wrapper


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.phase = ""
        self._stack: list[int] = []

    def wrap(self, name: str, func, observe=None, request_of=None):
        """Record a span named ``name`` around every call of ``func``.

        ``observe(counters, args, result)`` runs after a call returns;
        ``request_of(args)`` names the request a top-level call starts.
        """
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if request_of is not None:
                request = request_of(args)
            else:
                request = spans[parent].request if parent >= 0 else None
            span = Span(name, 0.0, 0.0, parent, request, self.phase)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return _mark(wrapper, func)


@contextmanager
def patched(replacements: list[tuple[object, str, object]]):
    """Set ``module.attr = value`` for each triple; restore all on exit."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def assert_unwrapped(sites: list[tuple[str, str]]) -> None:
    """Raise if any ``(module, attr)`` site still holds a benchmark wrapper."""
    left = [
        f"{module}.{attr}"
        for module, attr in sites
        if getattr(getattr(importlib.import_module(module), attr), WRAPPER_MARK, False)
    ]
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")


# --- what the traced run wraps, and what it counts ---------------------------


def _count_separated(counters, args, fit):
    counters["glm.fit_logistic.separated"] += bool(fit.separated)


def _count_trimmed(counters, args, ps):
    counters["propensity.trim_ps.dropped"] += ps.n_dropped
    counters["propensity.trim_ps.units"] += ps.values.size


def _count_matched(counters, args, matches):
    counters["matching.discarded"] += len(matches.discarded_treated)
    counters["matching.treated"] += len(matches.pairs) + len(matches.discarded_treated)


def _count_cem(counters, args, strata):
    treated = args[1] == 1
    counters["matching.discarded"] += int((treated & ~strata.retained).sum())
    counters["matching.treated"] += int(treated.sum())


def _count_tmle(counters, args, fit):
    counters["tmle.tmle_att.returned"] += 1
    counters["tmle.nonconverged"] += not fit.targeting_converged


def _count_redrawn(counters, args, result):
    counters["dgp.redrawn"] += result[1] > 0


def _replicate_request(args):
    cfg, _alpha0, replicate = args[:3]
    return (cfg.name, replicate)


# (calling module, attribute it calls, span name, observer)
TRACE_SITES = (
    ("attbench.harness", "run_replicate", "harness.run_replicate", None),
    ("attbench.harness", "aggregate_cell", "harness.aggregate_cell", None),
    ("attbench.harness", "write_records_csv", "harness.write_records_csv", None),
    ("attbench.harness", "write_metrics_csv", "harness.write_metrics_csv", None),
    ("attbench.harness", "read_records_csv", "harness.read_records_csv", None),
    ("attbench.harness", "calibrate_intercept", "dgp.calibrate_intercept", None),
    ("attbench.harness", "true_att", "dgp.true_att", None),
    ("attbench.harness", "generate_replicate", "dgp.generate_replicate", _count_redrawn),
    ("attbench.harness", "estimate_ps", "propensity.estimate_ps", None),
    ("attbench.harness", "trim_ps", "propensity.trim_ps", _count_trimmed),
    ("attbench.harness", "truncate_ps", "propensity.truncate_ps", None),
    ("attbench.harness", "fit_ols", "glm.fit_ols", None),
    ("attbench.harness", "psm_match", "matching.psm_match", _count_matched),
    ("attbench.harness", "mdm_match", "matching.mdm_match", _count_matched),
    ("attbench.harness", "cem_match", "matching.cem_match", _count_cem),
    ("attbench.harness", "matched_att", "matching.matched_att", None),
    ("attbench.harness", "cem_att", "matching.cem_att", None),
    ("attbench.harness", "fit_outcome_models", "weighting.fit_outcome_models", None),
    ("attbench.harness", "ipw_att", "weighting.ipw_att", None),
    ("attbench.harness", "aipw_att", "weighting.aipw_att", None),
    ("attbench.harness", "tmle_att", "tmle.tmle_att", _count_tmle),
    ("attbench.propensity", "fit_logistic", "glm.fit_logistic", _count_separated),
    ("attbench.propensity", "fit_superlearner", "superlearner.fit_superlearner", None),
    ("attbench.propensity", "predict_ensemble", "superlearner.predict_ensemble", None),
    ("attbench.weighting", "fit_ols", "glm.fit_ols", None),
    ("attbench.weighting", "fit_superlearner", "superlearner.fit_superlearner", None),
    ("attbench.weighting", "predict_ensemble", "superlearner.predict_ensemble", None),
    ("attbench.superlearner", "fit_logistic", "glm.fit_logistic", _count_separated),
    ("attbench.superlearner", "fit_ols", "glm.fit_ols", None),
    ("attbench.glm", "cholesky_factor", "numeric.cholesky_factor", None),
    ("attbench.glm", "solve_from_factor", "numeric.solve_from_factor", None),
    ("attbench.matching", "cholesky_factor", "numeric.cholesky_factor", None),
    ("attbench.cli", "read_records_csv", "cli.read_records_csv", None),
    ("attbench.cli", "aggregate_cell", "cli.aggregate_cell", None),
)

ALL_SITES = tuple((module, attr) for module, attr, _, _ in TRACE_SITES)


def trace_replacements(recorder: Recorder) -> list[tuple[object, str, object]]:
    out = []
    for module_name, attr, name, observe in TRACE_SITES:
        module = importlib.import_module(module_name)
        request_of = _replicate_request if name == "harness.run_replicate" else None
        out.append((module, attr, recorder.wrap(name, getattr(module, attr), observe, request_of)))
    return out


def timed(func, kind: str, sink: list, probe, cohort_n=lambda args: 0):
    """Wrap ``func`` so each call appends a :class:`speed.Timed` to ``sink``.

    When ``probe`` is given, it runs right after the call, outside the
    call's time, and its time goes into the same record.
    """

    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            seconds = perf_counter() - start
            sink.append(Timed(kind, cohort_n(args), seconds, probe() if probe else 0.0))

    return _mark(wrapper, func)


@dataclass
class Timers:
    """What untraced runs time: each replicate and each oracle call, each
    followed by the speed probe when one is given."""

    probe: object = None
    calls: list = field(default_factory=list)

    @property
    def replicates(self) -> list[tuple[int, float]]:
        return [(c.cohort_n, c.seconds) for c in self.calls if c.kind == "replicate"]

    @property
    def oracles(self) -> list[float]:
        return [c.seconds for c in self.calls if c.kind == "oracle"]

    def replacements(self) -> list[tuple[object, str, object]]:
        harness = importlib.import_module("attbench.harness")
        calls, probe = self.calls, self.probe
        return [
            (
                harness,
                "run_replicate",
                timed(harness.run_replicate, "replicate", calls, probe, lambda args: args[0].n),
            ),
            (harness, "calibrate_intercept", timed(harness.calibrate_intercept, "oracle", calls, probe)),
            (harness, "true_att", timed(harness.true_att, "oracle", calls, probe)),
        ]
