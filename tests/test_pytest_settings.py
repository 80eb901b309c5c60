"""The repository's pytest settings must let a run report every failure."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

FAILING_PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_fails(x):
    assert x < 0


def test_plain_fails():
    assert False
"""


def _listing():
    return sorted(p.name for d in (REPO, REPO / "tests") for p in d.iterdir())


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # a failing Hypothesis test imports libcst to print its example, which
    # warns; under filterwarnings = error that warning ended the run inside
    # a report hook, before the next test and without the example.
    # --assert=plain skips assertion rewriting, which without cached
    # bytecode re-parses every plugin module (about a second per run).
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    before = _listing()
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-c", str(REPO / "pyproject.toml"),
            "-p", "no:cacheprovider", "--assert=plain", "test_pair.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "2 failed" in out and "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert _listing() == before
