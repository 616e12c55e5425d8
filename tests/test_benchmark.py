"""The benchmark's self-test and fixture generator, run against this
checkout's library, so that a change to a name or a behaviour the benchmark
relies on fails here rather than in a benchmark run."""

import importlib.util
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


def test_traced_names_resolve():
    # a traced name that no longer resolves reads 0 in its per-layer metrics
    # instead of failing; resolve each the way Tracer.install does, without
    # installing it: a function, or a class with its own __post_init__
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = []
    for (mod_name, fn_name), name in zip(tracer.WRAPPED, tracer.NAMES):
        target = getattr(importlib.import_module(f"dlogcrt.{mod_name}"), fn_name, None)
        if target is None or (
            isinstance(target, type) and "__post_init__" not in target.__dict__
        ):
            absent.append(name)
    # lerch_quotient was folded into lift_profile; its entry is stale
    assert absent == ["quotients.lerch_quotient"]
