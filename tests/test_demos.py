"""Each narrative demo script runs cleanly end to end."""

import glob
import os
import subprocess
import sys

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


def test_demos_exist():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=[os.path.basename(d) for d in DEMOS])
def test_demo_runs(script, child_env):
    result = subprocess.run(
        [sys.executable, script], capture_output=True, text=True, timeout=300,
        env=child_env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
