"""The benchmark's own self-test: every workload at a tiny size, untraced and
traced.  It fails when a traced entry point, a Trajectory field the
workloads read, a metric or a workload check breaks."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # the self-test writes only under the ignored .bench_out/
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-test passed" in done.stdout
