"""The benchmark's output checks, run on this checkout's library: a library
change that breaks one fails here, not only in a benchmark run."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_selftest_judges_every_check_right():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "every check judged right" in proc.stdout
