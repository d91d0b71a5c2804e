"""The suite's own pytest configuration (pyproject.toml) keeps a run going."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # With warnings as errors, a warning raised while Hypothesis reports a
    # failure used to end the run as an internal error (exit 3).
    (tmp_path / "test_h.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_h.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


def test_oracles_import_under_importlib_mode(tmp_path):
    # importlib mode puts no test directory on sys.path, so `from oracles import`
    # resolves only through the `pythonpath` setting
    (tmp_path / "test_o.py").write_text(
        "from oracles import stirling2\n\n\ndef test_s():\n    assert stirling2(4, 2) == 7\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--import-mode=importlib",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_o.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "1 passed" in done.stdout
