"""Tests for tools/peak_rss.py, the peak-RSS gate of the CI figures job."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"

#: a child that touches 64 MB, so its peak RSS is well above 32 MB
_TOUCH_64MB = "buf = b'x' * (64 << 20); print('touched')"


def _gate(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True
    )


def test_passes_status_and_stdout_through():
    res = _gate("--", sys.executable, "-c", "print('hello'); raise SystemExit(3)")
    assert res.returncode == 3
    assert res.stdout == "hello\n"
    assert res.stderr.startswith("peak_rss: ") and res.stderr.endswith(" MB\n")


def test_fails_above_the_bound_only():
    under = _gate("--max-mb", "1000", "--", sys.executable, "-c", _TOUCH_64MB)
    assert under.returncode == 0 and under.stdout == "touched\n"
    over = _gate("--max-mb", "32", "--", sys.executable, "-c", _TOUCH_64MB)
    assert over.returncode == 1
    assert "exceeds the 32 MB bound" in over.stderr
