"""The repository's pytest configuration turns warnings into errors; a
failing hypothesis test must still be reported as one failure, not as an
internal error that ends the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''from hypothesis import given, strategies as st


def test_passes():
    pass


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_a_failing_hypothesis_test_is_one_failure(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
