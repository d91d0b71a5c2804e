"""The package's public names and the README's library example."""

import re
from pathlib import Path

import partpoly


def test_public_names_resolve_and_readme_library_example_runs():
    # a name deleted from the package but still shown in the README fails here
    for name in partpoly.__all__:
        assert getattr(partpoly, name) is not None, name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
