"""The suite's warning filters turn warnings into errors, yet a failing
hypothesis test still reports its counterexample and the run goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_next():
    pass
"""


def test_a_failing_hypothesis_test_reports_its_counterexample(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    report = run.stdout + run.stderr
    assert run.returncode == 1, report
    assert "Falsifying example: test_fails(" in report and "x=5" in report, report
    assert "1 failed, 1 passed" in report, report
