"""The benchmark's workloads and the passes that measure them.

Every workload is a closed loop in one process: ``attbench run`` runs its
cells one after another, each replicate after the previous one, and the
benchmark issues its next command only when the last one has returned.
The workload seed becomes ``--master-seed``; the oracle seed stays at the
design default of 42.

A *pass* is one ``attbench run`` into a fresh store, the same ``run``
again on the finished store (the resume path), and ``REPORT_REPEATS``
calls of ``attbench report`` on that store before the resume and as many
after it.  An untraced measurement makes passes until ``--seconds`` have
elapsed and enough replicate timings for the 95th percentile are in
hand, then reports medians of times adjusted by the speed probe of
:mod:`speed`.
"""

from __future__ import annotations

import io
import json
import shutil
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from checks import check_store, compare_digests, digests, read_metrics
from metrics import TAIL_MIN_BEYOND, layer_metrics, run_call_counts, tail_percentile
from spans import ALL_SITES, Recorder, Timers, assert_unwrapped, patched, trace_replacements
from speed import Adjusted, Probe, adjust

ALL_METHODS = ("LR", "CEM2", "CEM5", "MDM", "PSM", "PSM_1:2", "IPW", "AIPW", "AIPW_SL", "TMLE_SL")
CLASSIC_METHODS = ALL_METHODS[:8]
REPORT_REPEATS = 5
# Enough replicate timings that ten lie beyond the 95th percentile.
MIN_REPLICATE_SAMPLES = 20 * TAIL_MIN_BEYOND
MAX_PASSES = 40
POOL_WORKERS = 2


class BenchError(Exception):
    """A command of the program failed, so the workload cannot be measured."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenarios: tuple[int, ...]
    settings: tuple[int, ...]
    prevalences: tuple[str, ...]
    arms: tuple[str, ...]
    methods: tuple[str, ...]
    n_reps: int
    calibration_n: int
    truth_n: int

    @property
    def cells(self) -> list[str]:
        return [
            f"s{s}t{t}p{p.replace('.', '')}_{arm}"
            for s in self.scenarios
            for t in self.settings
            for p in self.prevalences
            for arm in self.arms
        ]

    @property
    def replicates(self) -> int:
        return len(self.cells) * self.n_reps

    def run_argv(self, store: Path, seed: int, parallelism: int) -> list[str]:
        return [
            "run",
            "--scenarios", ",".join(map(str, self.scenarios)),
            "--settings", ",".join(map(str, self.settings)),
            "--prevalences", ",".join(self.prevalences),
            "--arms", ",".join(self.arms),
            "--methods", ",".join(self.methods),
            "--n-reps", str(self.n_reps),
            "--master-seed", str(seed),
            "--oracle-seed", "42",
            "--calibration-n", str(self.calibration_n),
            "--truth-n", str(self.truth_n),
            "--parallelism", str(parallelism),
            "--output-dir", str(store),
            "--quiet",
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "all_methods",
            "all 10 methods on n=100, 250 and 1000 cohorts: the stacked ensemble does most of the "
            "work, so ensemble and solver changes show here",
            scenarios=(1, 2, 3),
            settings=(1, 3),
            # n=250 sits between the two extremes so the median replicate is
            # not set by the gap between an n=100 and an n=1000 cluster.
            prevalences=("0.50", "0.20", "0.05"),
            arms=("effect",),
            methods=ALL_METHODS,
            n_reps=6,
            calibration_n=10**5,
            truth_n=10**6,
        ),
        Workload(
            "classic_large_n",
            "the 8 non-ensemble methods on n=1000 and n=500 cohorts: matching and direct IRLS fits, no "
            "ensemble, so an ensemble change must not move it",
            scenarios=(1, 2, 3),
            settings=(1,),
            prevalences=("0.05", "0.10"),
            arms=("effect", "null"),
            methods=CLASSIC_METHODS,
            n_reps=20,
            calibration_n=10**5,
            truth_n=10**6,
        ),
    )
}


def call_cli(argv: list[str]) -> float:
    """Run one attbench command in this process; return its wall time."""
    from attbench import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - start
    if code != 0:
        raise BenchError(f"attbench {argv[0]} exited {code}: {err.getvalue().strip()[-500:]}")
    return wall


def timed_call(argv: list[str], probe: Probe | None = None) -> tuple[float, Timers]:
    """``call_cli`` with the replicate and oracle timers installed, each
    timed call followed by ``probe`` when one is given."""
    assert_unwrapped(ALL_SITES)
    timers = Timers(probe)
    with patched(timers.replacements()):
        wall = call_cli(argv)
    return wall, timers


def store_bytes(store: Path) -> int:
    return sum(p.stat().st_size for p in store.rglob("*") if p.is_file())


@dataclass
class Measurement:
    """Samples of one untraced run of a workload, adjusted by the probe
    (see :mod:`speed`), and raw wall times beside them."""

    grid_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)  # of every run call, resumes included
    replicating_s: list[float] = field(default_factory=list)  # grid_s - setup_s of each pass
    resume_s: list[float] = field(default_factory=list)
    replicate_s: list[tuple[int, float]] = field(default_factory=list)  # (cohort n, seconds)
    probe_s: list[float] = field(default_factory=list)  # median probe of every run call
    raw: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    report_s: list[float] = field(default_factory=list)  # raw: no probe runs inside a report
    attempted: int = 0
    failed: int = 0
    records: int = 0
    flagged: int = 0
    problems: list[str] = field(default_factory=list)


def _check(m: Measurement, wl: Workload, store: Path, reference: dict | None) -> None:
    result = check_store(store, wl.cells, wl.methods, wl.n_reps, reference)
    m.problems.extend(result.problems)
    m.records += result.records
    m.flagged += result.flagged
    m.attempted += wl.replicates
    # A replicate counts as failed when its cell did not make it to the store.
    m.failed += wl.n_reps * len(result.incomplete)


def probed_call(argv: list[str], probe: Probe, m: Measurement) -> tuple[Adjusted, Timers]:
    """One timed, probed ``run`` call; records its oracle phase and probe."""
    wall, timers = timed_call(argv, probe)
    adjusted = adjust(wall, timers.calls)
    m.setup_s.append(adjusted.oracle_s)
    m.probe_s.append(adjusted.probe_s)
    m.raw["setup_s"].append(sum(timers.oracles))
    return adjusted, timers


def run_pass(wl: Workload, store: Path, seed: int, probe: Probe, m: Measurement, reference: dict | None) -> dict:
    """One run, resume and reports; returns the store's digests before the resume."""
    shutil.rmtree(store, ignore_errors=True)
    argv = wl.run_argv(store, seed, 1)
    grid, timers = probed_call(argv, probe, m)
    m.grid_s.append(grid.total_s)
    m.replicating_s.append(grid.total_s - grid.oracle_s)
    m.replicate_s.extend(grid.replicates)
    m.raw["grid_s"].append(grid.raw_s)
    m.raw["replicate_s"].extend(d for _, d in timers.replicates)
    _check(m, wl, store, reference)
    # Reports run both before and after the resume, so that their samples
    # are spread over the run rather than bunched into one moment of it.
    report(store, m)
    before = digests(store)

    resume, timers = probed_call(argv, probe, m)
    m.resume_s.append(resume.total_s)
    m.raw["resume_s"].append(resume.raw_s)
    recomputed = len(timers.replicates)
    if recomputed:
        m.problems.append(f"resume recomputed {recomputed} replicates")
    m.problems.extend(compare_digests(digests(store), before, "store changed on resume"))
    report(store, m)
    return before


def report(store: Path, m: Measurement) -> None:
    for _ in range(REPORT_REPEATS):
        m.report_s.append(call_cli(["report", "--store", str(store)]))


def measure(wl: Workload, seed: int, seconds: float, workdir: Path, reference: dict | None) -> Measurement:
    """Untraced passes for ``seconds``, and until the p95 has its samples.

    A pass starts only if one more pass of the median length so far ends
    within ``seconds``, so a run does not overshoot its time by a pass.
    """
    m = Measurement()
    probe = Probe()
    probe()  # warm-up: the first call pays for lazy set-up in numpy
    start = perf_counter()
    first = run_pass(wl, workdir / "pass0", seed, probe, m, reference)
    pass_s = [perf_counter() - start]
    while len(pass_s) < MAX_PASSES and (
        len(m.replicate_s) < MIN_REPLICATE_SAMPLES or perf_counter() + median(pass_s) <= start + seconds
    ):
        begun = perf_counter()
        store = workdir / f"pass{len(pass_s)}"
        m.problems.extend(
            compare_digests(run_pass(wl, store, seed, probe, m, None), first, f"pass {len(pass_s)} store differs")
        )
        shutil.rmtree(store, ignore_errors=True)
        pass_s.append(perf_counter() - begun)
    return m


def end_to_end(m: Measurement, wl: Workload) -> dict[str, float]:
    replicate_ms = [1e3 * d for _, d in m.replicate_s]
    p95 = tail_percentile(replicate_ms, 95)
    if p95 is None:
        raise BenchError(f"only {len(replicate_ms)} replicate timings, too few for a p95")
    return {
        "grid_s": median(m.grid_s),
        "setup_s": median(m.setup_s),
        # Over the whole run, not per pass: the rate is then averaged over
        # as much of the run as possible.
        "replicates_per_s": wl.replicates * len(m.replicating_s) / sum(m.replicating_s),
        "replicate_ms.p50": median(replicate_ms),
        "replicate_ms.p95": p95,
        "resume_s": median(m.resume_s),
    }


def printed_only(m: Measurement) -> dict[str, float]:
    """Figures printed beside the declared metrics, without a bound."""
    return {
        "failed_share": m.flagged / m.records if m.records else 0.0,
        "report_s": median(m.report_s),
        "probe_ms": 1e3 * median(m.probe_s),
        "raw.grid_s": median(m.raw["grid_s"]),
        "raw.setup_s": median(m.raw["setup_s"]),
        "raw.replicate_ms.p50": 1e3 * median(m.raw["replicate_s"]),
        "raw.resume_s": median(m.raw["resume_s"]),
    }


def by_cohort_size(m: Measurement) -> dict[int, tuple[int, float]]:
    """Sample count and median replicate milliseconds for each cohort size."""
    sizes = sorted({n for n, _ in m.replicate_s})
    out = {}
    for size in sizes:
        values = [1e3 * d for n, d in m.replicate_s if n == size]
        out[size] = (len(values), median(values))
    return out


@dataclass
class TraceResult:
    metrics: dict[str, float]
    recorder: Recorder
    check: Measurement


def trace(wl: Workload, seed: int, workdir: Path, reference: dict | None) -> TraceResult:
    """One untraced run, then two traced passes, all with one worker.

    Spans recorded in pool workers would be lost, so traced runs are
    serial.  The untraced run is the base of the overhead ratio; the second traced
    run must repeat the first one's call counts.  The grid also runs here
    once, untimed, over ``POOL_WORKERS`` workers: that store must match
    the serial one byte for byte.
    """
    m = Measurement()
    base_store = workdir / "untraced"
    shutil.rmtree(base_store, ignore_errors=True)
    base_s, _ = timed_call(wl.run_argv(base_store, seed, 1))
    base = digests(base_store)
    pool_store = workdir / "pool"
    shutil.rmtree(pool_store, ignore_errors=True)
    call_cli(wl.run_argv(pool_store, seed, POOL_WORKERS))
    m.problems.extend(compare_digests(digests(pool_store), base, f"parallelism {POOL_WORKERS} store differs"))

    recorders = []
    for i in range(2):
        store = workdir / f"traced{i}"
        shutil.rmtree(store, ignore_errors=True)
        argv = wl.run_argv(store, seed, 1)
        rec = Recorder()
        assert_unwrapped(ALL_SITES)
        with patched(trace_replacements(rec)):
            rec.phase = "run"
            run_s = call_cli(argv)
            m.problems.extend(compare_digests(digests(store), base, f"traced run {i} store differs"))
            if i == 0:
                _check(m, wl, store, reference)
                rec.phase = "resume"
                call_cli(argv)
                rec.phase = "report"
                call_cli(["report", "--store", str(store)])
        recorders.append((rec, run_s, store))
    assert_unwrapped(ALL_SITES)

    (first, first_s, first_store), (second, _, _) = recorders
    a, b = run_call_counts(first), run_call_counts(second)
    if a != b:
        differing = sorted(k for k in set(a) | set(b) if a[k] != b[k])
        m.problems.append(f"call counts differ between traced runs: {differing}")
    failed_share = m.flagged / m.records if m.records else 0.0
    metrics = layer_metrics(first, first_s, base_s, store_bytes(first_store), failed_share)
    return TraceResult(metrics, first, m)


def write_spans(rec: Recorder, path: Path) -> None:
    with open(path, "w") as handle:
        for index, span in enumerate(rec.spans):
            handle.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def reference_from(store: Path, wl: Workload) -> dict:
    """The store's per-cell metrics, NaN written as null."""
    return {
        cell: {
            method: {k: (None if v != v else v) for k, v in values.items()}
            for method, values in read_metrics(store, cell).items()
        }
        for cell in wl.cells
    }
