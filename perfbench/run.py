"""Performance benchmark of attbench, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload all_methods --seed 42 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all_methods --trace 1      # per-layer run
    python3 perfbench/run.py                                         # every workload

It drives the real ``attbench run`` and ``attbench report`` entry points
(``attbench.cli.main``) in this process, on the sources in ``src/`` next
to this directory, and checks the stores they write.  With ``--trace 0``
it prints every end-to-end metric, one per line with its unit, times
adjusted to a nominal host speed (see ``speed.py``) and the raw wall
times beside them; with
``--trace 1`` every per-layer metric.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every output check
passed.  Without ``--workload``, each workload runs in a fresh process,
one after another.

``--write-reference`` runs a workload at the default seed and stores its
per-cell metrics under ``reference/``; later runs at that seed must
match them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE_DIR = BENCH_DIR / "reference"
DEFAULT_SEED = 42
DEFAULT_SECONDS = 45
# One thread per BLAS/OpenMP pool: the only parallelism is the grid's own
# worker pool, so load never exceeds the workload's worker count.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import attbench from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "attbench" / "__init__.py").is_file():
        raise SystemExit(f"error: no attbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import attbench

    if Path(attbench.__file__).resolve().parent != SRC / "attbench":
        raise SystemExit(f"error: imported attbench from {attbench.__file__}, not {SRC}")
    return attbench


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )


def run_workload(args) -> int:
    import workloads as wls
    from metrics import UNITS

    wl = wls.WORKLOADS[args.workload]
    reference_path = REFERENCE_DIR / f"{wl.name}.json"
    reference = None
    if args.seed == DEFAULT_SEED and reference_path.is_file() and not args.write_reference:
        reference = json.loads(reference_path.read_text())
    workdir = WORK_DIR / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    try:
        if args.trace:
            result = wls.trace(wl, args.seed, workdir, reference)
            wls.write_spans(result.recorder, workdir / "spans.jsonl")
            m, metrics = result.check, result.metrics
        else:
            m = wls.measure(wl, args.seed, args.seconds, workdir, reference)
            metrics = wls.end_to_end(m, wl)
            metrics["peak_rss_mb"] = peak_rss_mb()
            print(f"replicate_ms.samples = {len(m.replicate_s)} count")
            for size, (count, value) in wls.by_cohort_size(m).items():
                print(f"replicate_ms.p50 at n={size} = {value:.6g} ms over {count} replicates")
            for name, value in wls.printed_only(m).items():
                print(f"{name} = {value:.6g} {UNITS[name]}")
            if args.write_reference:
                reference_path.parent.mkdir(exist_ok=True)
                ref = wls.reference_from(workdir / "pass0", wl)
                reference_path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    except wls.BenchError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        for store in workdir.iterdir():
            if store.is_dir():
                shutil.rmtree(store)

    for problem in m.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not m.problems
    (workdir / "result.json").write_text(
        json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace, "env": env,
                    "correct": correct, "problems": m.problems, "metrics": metrics}, indent=1)
        + "\n"
    )
    emit(correct, m.attempted, m.failed, metrics, UNITS)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so no state leaks between them."""
    import workloads as wls

    worst = 0
    for name in wls.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2**32)")
    import_program()
    import workloads as wls

    if args.workload is None:
        return run_all(args)
    if args.workload not in wls.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(wls.WORKLOADS)}")
    if args.write_reference and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--write-reference needs --seed {DEFAULT_SEED} and --trace 0")
    return run_workload(args)


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
