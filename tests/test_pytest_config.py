"""The suite's own pytest settings, checked on a generated test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 0


def test_after_it():
    pass
'''


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_generated.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
                           str(tmp_path), "-q", "-p", "no:cacheprovider", "test_generated.py"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
