"""The benchmark's self-test passes on this checkout: every workload runs at
its tiny size, emits every metric BENCHMARK.json names, and reports a
wrong expectation as a failure.  It writes only to the ignored
`.bench_out/` and `.bench_trace/`."""

import subprocess
import sys

from conftest import ROOT


def test_bench_selftest_passes():
    selftest = ROOT / "bench" / "selftest.py"
    proc = subprocess.run([sys.executable, str(selftest)], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout
