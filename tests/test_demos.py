"""The demos and README's Quickstart run cleanly, each in a fresh process."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# a stray warning fails the run, as in the test suite
WARNINGS = ["-W", "error::UserWarning", "-W", "error::RuntimeWarning",
            "-W", "error::DeprecationWarning"]


def _quickstart():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Quickstart\s+```python\n(.*?)```", text, re.S).group(1)


@pytest.mark.parametrize("script", [*DEMOS, "quickstart"],
                         ids=[*(d.name for d in DEMOS), "README-quickstart"])
def test_runs_without_warnings(script):
    argv = ["-c", _quickstart()] if script == "quickstart" else [str(script)]
    done = subprocess.run([sys.executable, *WARNINGS, *argv], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout and not done.stderr
