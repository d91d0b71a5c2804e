"""The package's public names, the guards of its library calls, and the
README's library example."""

import re
from pathlib import Path

import pytest

import partpoly
from partpoly import (
    DomainError,
    Partition,
    avg_table,
    check_conjecture,
    deriv_recursive_eval,
    iter_partitions,
)
from partpoly.density import alpha_integral, beta_integral


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
    "moment(-1)": (lambda: Partition([1]).moment(-1), "moment order must be nonnegative"),
    "iter_partitions(-1)": (lambda: iter_partitions(-1), "n must be nonnegative"),
    "iter_partitions(5, 0)": (lambda: iter_partitions(5, 0), "length must be positive"),
    "avg_table(0)": (lambda: avg_table(0), "need n >= 1"),
    "check_conjecture(0)": (lambda: check_conjecture(0), "need n_max >= 1"),
    "deriv_recursive_eval(p, -1, x)": (
        lambda: deriv_recursive_eval(Partition([1]), -1, 1), "derivative order must be nonnegative"
    ),
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
