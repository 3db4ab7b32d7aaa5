"""tools/peak_rss.py: it passes a command that exits 0 below the bound,
and fails one that exits nonzero, runs past its timeout or peaks at the
bound or above."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True)


def test_command_below_its_bound_passes():
    done = _run("1000", "--timeout", "60", "--", sys.executable, "-c",
                "print('x' * 5)")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "peak RSS" in done.stdout and "xxxxx" not in done.stdout


@pytest.mark.parametrize("args,message", [
    (("1", "--", sys.executable, "-c", "pass"), "is not below 1 MB"),
    (("1000", "--", sys.executable, "-c", "raise SystemExit(3)"),
     "exit status 3"),
    (("1000", "--timeout", "0.5", "--", sys.executable, "-c",
      "import time; time.sleep(60)"), "no exit within 0.5 s")])
def test_failing_command_fails(args, message):
    done = _run(*args)
    assert done.returncode == 1 and message in done.stdout


def test_command_is_required():
    assert _run("100").returncode == 2
    assert _run("100", "--").returncode == 2
