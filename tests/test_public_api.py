"""The package's public names, the guards of its library calls, and the
README's library example."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import partpoly
from partpoly import (
    DomainError,
    Partition,
    avg_table,
    check_conjecture,
    iter_partitions,
)
from partpoly.density import alpha_integral, beta_integral


SRC = Path(partpoly.__file__).resolve().parent


def _reached_from_cli():
    """Names the CLI entry point `run` reaches: each top-level statement of a package
    module other than __init__.py binds names and refers to others, and the names
    reached are those bound by a statement that `run`, or a name it reaches, refers to."""
    refers = {}
    for module in SRC.glob("*.py"):
        if module.name == "__init__.py":
            continue
        for stmt in ast.parse(module.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            else:
                bound = [n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Store)]
            used = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            used |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            for name in bound:
                refers.setdefault(name, set()).update(used)
    reached, todo = set(), ["run"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(refers.get(name, ()))
    return reached


def test_every_public_name_is_reached_from_the_cli():
    # a reference implementation that only the tests call belongs in tests/oracles.py
    unreached = [name for name in partpoly.__all__ if name not in _reached_from_cli()]
    assert unreached == []


def test_cli_imports_no_test_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), str(Path(__file__).parent)]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, partpoly.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    loaded = {name.partition(".")[0] for name in done.stdout.split()}
    assert loaded.isdisjoint({"oracles", "sympy", "hypothesis", "pytest", "_pytest"})


def test_public_names_resolve_and_readme_library_example_runs():
    # a name deleted from the package but still shown in the README fails here
    for name in partpoly.__all__:
        assert getattr(partpoly, name) is not None, name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})


# Library calls whose guard no CLI path reaches, with the message each raises.
GUARDS = {
    "Partition([2, -1])": (lambda: Partition([2, -1]), "multiplicities must be nonnegative"),
    "iter_partitions(-1, 1)": (lambda: iter_partitions(-1, 1), "n must be nonnegative"),
    "iter_partitions(5, 0)": (lambda: iter_partitions(5, 0), "length must be positive"),
    "avg_table(0)": (lambda: avg_table(0), "need n >= 1"),
    "check_conjecture(0)": (lambda: check_conjecture(0), "need n_max >= 1"),
    "alpha_integral(1)": (lambda: alpha_integral(1), "need s >= 2"),
    "beta_integral(1)": (lambda: beta_integral(1), "need s >= 2"),
}


@pytest.mark.parametrize("call", list(GUARDS))
def test_library_guard_raises_domain_error(call):
    fn, message = GUARDS[call]
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        fn()


def test_partition_equality_defers_to_other_types():
    p = Partition([1])
    assert p.__eq__((1,)) is NotImplemented
    assert p != (1,) and p == Partition([1, 0])
