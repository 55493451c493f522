"""Import-time behaviour of the package, checked in fresh interpreters,
the package's imports and errors, checked in its source, the names
perfbench wraps, each present on its module, and README's
command sections, ``run`` flag table and exit-code table, checked against
the parser and ``cli``."""

import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import attbench
from attbench import cli
from attbench.cli import build_parser

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


# The modules of a probe's process that the package must not have loaded.
UNWANTED = (
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process')))"
)


def _unwanted_modules(probe: str) -> list[str]:
    done = subprocess.run([sys.executable, "-c", f"{probe}; {UNWANTED}"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_leaves_scipy_linalg_and_the_process_pool_unloaded():
    # numpy is the only runtime dependency, and run_grid imports the process
    # pool only when it starts one.
    assert _unwanted_modules("import json, sys, attbench.cli") == []


def test_package_root_loads_no_submodule_and_no_numpy():
    # Every name is imported from its module: the root holds the BLAS cap
    # and the version only.  A failed assert in the probe fails its process.
    probe = (
        "import json, sys, attbench; "
        "loaded = sorted(m for m in sys.modules if m.startswith('attbench.') or m.split('.')[0] == 'numpy'); "
        "assert loaded == [], loaded; "
        "assert attbench.__version__ == '0.1.0', attbench.__version__"
    )
    assert _unwanted_modules(probe) == []


def test_a_run_of_every_method_loads_no_scipy(tmp_path):
    run = (
        "import json, sys; from attbench.cli import main; "
        "assert main(['run', '--scenarios', '1', '--settings', '1,3', '--prevalences', '0.50', "
        "'--arms', 'effect', '--n-reps', '2', '--calibration-n', '10000', '--truth-n', '1000', "
        f"'--quiet', '--output-dir', {str(tmp_path / 'store')!r}]) == 0"
    )
    assert _unwanted_modules(run) == []


def _trace_sites() -> set[tuple[str, str]]:
    """The ``(module, name)`` pairs of ``TRACE_SITES`` in ``perfbench/spans.py``,
    read from its source: the names perfbench wraps on each module."""
    spans = Path(attbench.__file__).resolve().parents[2] / "perfbench" / "spans.py"
    for node in ast.parse(spans.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACE_SITES":
            return {(site.elts[0].value, site.elts[1].value) for site in node.value.elts}
    raise AssertionError(f"no TRACE_SITES in {spans}")


def test_every_trace_site_exists_on_its_module():
    # perfbench looks up every site before each timed run, so a name a
    # refactor drops from its module would stop every benchmark run.
    sites = _trace_sites()
    assert len(sites) > 30
    missing = sorted(f"{module}.{name}" for module, name in sites if not hasattr(importlib.import_module(module), name))
    assert missing == []


def _import_faults(path: Path, trace_sites: set[tuple[str, str]]) -> list[str]:
    """``file:line name`` of each name ``path`` imports and never reads.  An
    import marked ``# noqa: F401`` is exempt only while the module never
    reads the name and perfbench wraps it there (a ``TRACE_SITES`` entry)."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = f"attbench.{path.stem}"
    faults = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            where = f"{path.name}:{node.lineno} {name}"
            if not marked and name not in read:
                faults.append(f"{where} is never read")
            elif marked and name in read:
                faults.append(f"{where} is read, so its noqa marker is stale")
            elif marked and (module, name) not in trace_sites:
                faults.append(f"{where} is marked noqa but perfbench does not wrap it")
    return faults


def test_every_import_is_used():
    modules = sorted(Path(attbench.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    trace_sites = _trace_sites()
    assert ("attbench.superlearner", "fit_ols") in trace_sites
    faults = [f for path in modules if path.name != "__init__.py" for f in _import_faults(path, trace_sites)]
    assert faults == []


def test_every_leaf_error_is_raised():
    # A typed error nothing raises is ceremony: each class of errors.py that
    # no other class there subclasses must be raised somewhere else in the package.
    package = Path(attbench.__file__).parent
    classes = [node for node in ast.parse((package / "errors.py").read_text()).body if isinstance(node, ast.ClassDef)]
    subclassed = {ast.unparse(base) for node in classes for base in node.bases}
    leaves = {node.name for node in classes} - subclassed
    raised = set()
    for path in package.glob("*.py"):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    raised.add(ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
    assert {"ZeroSeError", "OneClassError", "StoreMismatchError"} <= leaves
    assert sorted(leaves - raised) == []


def test_readme_documents_each_command_in_usage_order():
    # A command added or dropped without its README section fails here.
    readme = (Path(attbench.__file__).resolve().parents[2] / "README.md").read_text()
    documented = re.findall(r"^### `attbench (\S+)`$", readme, flags=re.MULTILINE)
    (choices,) = re.findall(r"\{(.*?)\}", build_parser().format_usage())
    assert documented == choices.split(",")


def test_readme_lists_each_run_flag_in_parser_order():
    # A run flag added or dropped without its README row fails here.
    readme = (Path(attbench.__file__).resolve().parents[2] / "README.md").read_text()
    section = readme.split("### `attbench run`\n", 1)[1].split("\n### ", 1)[0]
    documented = re.findall(r"^\| `(--[\w-]+)", section, flags=re.MULTILINE)
    (subcommands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    run = subcommands.choices["run"]
    options = [a.option_strings[-1] for a in run._actions if a.option_strings and a.dest != "help"]
    assert documented == options


def test_readme_exit_code_table_lists_each_exit_code():
    # An exit code added or dropped without its README row fails here.
    readme = (Path(attbench.__file__).resolve().parents[2] / "README.md").read_text()
    section = readme.split("### Exit codes\n", 1)[1].split("\n## ", 1)[0]
    documented = [int(code) for code in re.findall(r"^\| (\d+) \|", section, flags=re.MULTILINE)]
    assert documented == sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
