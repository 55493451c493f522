"""Import-time behaviour of the package, checked in fresh interpreters,
and the package's imports, checked in its source."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import attbench

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


def _unused_imports(path: Path) -> list[str]:
    """``file:line name`` of each name ``path`` imports and never reads,
    except on lines marked ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_every_import_is_used():
    modules = sorted(Path(attbench.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    unused = [entry for path in modules if path.name != "__init__.py" for entry in _unused_imports(path)]
    assert unused == []
