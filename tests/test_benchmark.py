"""The benchmark's self-test and fixture generator, run against this
checkout's library, so that a change to a name or a behaviour the benchmark
relies on fails here rather than in a benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, "selftest.py"],
        cwd=ROOT / "bench",
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_make_fixtures_reproduces_the_pinned_groups():
    # gen_safe_prime and primitive_root must still yield the checked-in groups
    result = subprocess.run(
        [sys.executable, "bench/make_fixtures.py"],
        cwd=ROOT,
        env=ENV,
        capture_output=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (ROOT / "bench" / "fixtures.json").read_bytes()
