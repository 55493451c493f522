"""Import-time behaviour of the package, checked in fresh interpreters."""

import json
import os
import subprocess
import sys

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Print the BLAS variables as numpy sees them once attbench has loaded it.
PROBE = (
    "import json, os, attbench, numpy; "
    f"print(json.dumps({{name: os.environ.get(name) for name in {BLAS_VARIABLES!r}}}))"
)


def _blas_variables_after_import(**overrides: str) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARIABLES}
    env.update(overrides)
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_caps_blas_at_one_thread():
    assert _blas_variables_after_import() == {name: "1" for name in BLAS_VARIABLES}


def test_thread_count_set_by_the_caller_wins():
    seen = _blas_variables_after_import(OPENBLAS_NUM_THREADS="3", MKL_NUM_THREADS="2")
    assert seen == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "2"}


def test_cli_import_leaves_scipy_linalg_and_the_process_pool_unloaded():
    # All linear algebra goes through numpy.linalg, and run_grid imports the
    # process pool only when it starts one.
    probe = (
        "import json, sys, attbench.cli; "
        "print(json.dumps([m for m in ('scipy.linalg', 'concurrent.futures.process') if m in sys.modules]))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
