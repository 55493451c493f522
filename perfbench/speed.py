"""A fixed speed probe, and durations adjusted to a nominal host speed.

The benchmark runs on a few cores of a shared host. There, the same
replicate can take 30% longer from one second to the next, and the host's
speed drifts for minutes at a time, so medians of raw wall times move
between runs by more than any bound a benchmark may set. CPU time tracks
wall time, so the slowdown is not time spent descheduled. It is the CPU
doing less per second.

The benchmark therefore times a fixed computation, the *probe*, right
after every timed call into attbench (each replicate and each oracle
call), outside that call's time. The probe does the same kind of work as
the program: small IRLS fits in numpy, then dict and sort work in
Python. Measured on a shared 2-vCPU host, a replicate's slowdown against
its own median tracks the median of the probes around it with a slope of
about 1 (correlation 0.66-0.79).

An *adjusted* duration is a raw duration times ``PROBE_NOMINAL_S`` over
the median of the probes around it. It reads as the seconds the call
would take on a host where the probe takes ``PROBE_NOMINAL_S``. The probe
never touches attbench, so a faster program gives proportionally smaller
adjusted times. Probe time is taken out of every wall time before it is
adjusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from time import perf_counter

import numpy as np
from scipy.special import expit

# The probe's time on the x86_64 2-vCPU host the benchmark was built on,
# in that host's faster state. Only ratios matter: both sides of any
# comparison use the same constant.
PROBE_NOMINAL_S = 0.003
# A timed call is adjusted by the median of the probes within this many
# places of its own probe, in the order they ran within one attbench call.
WINDOW = 5


class Probe:
    """The fixed computation; calling it returns its wall time in seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240814)
        self.x = np.column_stack([np.ones(400), rng.standard_normal((400, 7))])
        self.y = (rng.random(400) < 0.3).astype(float)
        self.keys = [f"k{i}" for i in range(1500)]

    def work(self):
        x, y = self.x, self.y
        for _ in range(6):
            beta = np.zeros(x.shape[1])
            for _ in range(6):
                p = expit(x @ beta)
                hessian = x.T @ (x * (p * (1.0 - p))[:, None])
                chol = np.linalg.cholesky(hessian)
                beta = beta + np.linalg.solve(chol.T, np.linalg.solve(chol, x.T @ (y - p)))
        table = {key: i * i % 7 for i, key in enumerate(self.keys)}
        return beta, sorted(table.items(), key=lambda kv: (kv[1], kv[0]))

    def __call__(self) -> float:
        start = perf_counter()
        self.work()
        return perf_counter() - start


@dataclass(frozen=True, slots=True)
class Timed:
    """One timed call into attbench and the probe that followed it."""

    kind: str  # "replicate" or "oracle"
    cohort_n: int  # the replicate's cohort size; 0 for an oracle call
    seconds: float
    probe_s: float


def local_medians(values: list[float], window: int = WINDOW) -> list[float]:
    """Median of each value and its ``window`` neighbours on either side."""
    return [median(values[max(0, i - window) : i + window + 1]) for i in range(len(values))]


@dataclass(frozen=True)
class Adjusted:
    """One ``attbench`` call's wall time, split and adjusted."""

    total_s: float  # the whole call, probes taken out
    raw_s: float  # the same, unadjusted
    oracle_s: float  # the oracle phase
    replicates: list[tuple[int, float]]  # (cohort n, seconds) of each replicate
    probe_s: float  # median probe time during the call


def adjust(wall_s: float, calls: list[Timed]) -> Adjusted:
    """Adjust each timed call by its local probes, the rest of the call's
    wall time by the call's median probe."""
    if not calls:
        raise ValueError("no timed calls, so no probe to adjust by")
    probes = [c.probe_s for c in calls]
    scales = [PROBE_NOMINAL_S / m for m in local_medians(probes)]
    call_probe_s = median(probes)
    rest = wall_s - sum(c.seconds + c.probe_s for c in calls)
    adjusted = [c.seconds * s for c, s in zip(calls, scales)]
    return Adjusted(
        total_s=sum(adjusted) + rest * PROBE_NOMINAL_S / call_probe_s,
        raw_s=wall_s - sum(probes),
        oracle_s=sum(a for a, c in zip(adjusted, calls) if c.kind == "oracle"),
        replicates=[(c.cohort_n, a) for a, c in zip(adjusted, calls) if c.kind == "replicate"],
        probe_s=call_probe_s,
    )
