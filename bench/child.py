"""One benchmark process for one workload; started by run.py, which reads the
JSON object this prints as its last line.

    python3 bench/child.py WORKLOAD SEED SECONDS MODE

MODE is `setup` (set up and report the set-up time), `measure` (set up, then
a closed loop of ops for SECONDS, at least MIN_OPS ops and whole blocks) or
`trace` (set up, then a fixed number of ops untraced and the same ops again
with every public library function wrapped in a span).
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter, perf_counter_ns

import tracer
from workloads import WORKLOADS

MIN_OPS = 100
MAX_PROBLEMS = 5


class Loop:
    """Runs ops one after another (one caller, closed loop), timing each op
    alone; input generation and output checks stay outside the timings."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies_ns: list[int] = []
        self.items = 0
        self.failed = 0
        self.problems: list[str] = []

    def step(self, args) -> None:
        start = perf_counter_ns()
        try:
            result = self.wl.run(args)
        except Exception as exc:  # a raising op is a failed op, not a crash
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        self.latencies_ns.append(perf_counter_ns() - start)
        problems = [error] if error else self.wl.problems(args, result)
        if problems:
            self.failed += 1
            self.problems += problems[: MAX_PROBLEMS - len(self.problems)]
        else:
            self.items += self.wl.items(args)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9


def set_up(name: str, seed: int):
    """Import the library, build and re-validate the pinned inputs, run one
    warm-up op; returns (workload, seconds taken)."""
    start = perf_counter()
    import dlogcrt
    import dlogcrt.cli  # noqa: F401  (the package does not import cli)

    wl = WORKLOADS[name](dlogcrt, seed)
    warm = Loop(wl)
    warm.step(wl.warmup_input())
    if warm.failed:
        raise SystemExit(f"warm-up op failed: {warm.problems}")
    return wl, perf_counter() - start


def measure(wl, seconds: float) -> dict:
    loop = Loop(wl)
    stream = wl.inputs()
    start = perf_counter()
    while perf_counter() - start < seconds or len(loop.latencies_ns) < MIN_OPS:
        for args in islice(stream, wl.block):
            loop.step(args)
    ms = [ns / 1e6 for ns in loop.latencies_ns]
    return {
        "ops": len(ms),
        "failed": loop.failed,
        "problems": loop.problems,
        "items": loop.items,
        "throughput_per_s": loop.items / loop.busy_s,
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(wl, seed: int) -> dict:
    inputs = list(islice(wl.inputs(), wl.trace_ops))
    plain = Loop(wl)
    for args in inputs:
        plain.step(args)
    spans = tracer.Tracer()
    absent = spans.install()
    traced = Loop(wl)
    for op, args in enumerate(inputs):
        spans.op = op
        traced.step(args)
    out_dir = Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{wl.name}-seed{seed}.tsv"
    spans.write_spans(spans_file)

    items = traced.items or 1
    metrics = {}
    for name in tracer.NAMES:
        metrics[f"{name}.calls_per_op"] = (spans.calls[name] / items, "count")
        metrics[f"{name}.self_ms_per_op"] = (spans.self_ns[name] / 1e6 / items, "ms")
        metrics[f"{name}.raised"] = (spans.raised[name], "count")
    samples = spans.calls["cli.sample_instance"]
    metrics["numtheory.is_prime.calls_per_sample"] = (
        spans.primes_in_sampler / samples if samples else 0,
        "count",
    )
    metrics["oracle.dlog_bsgs.table_entries_per_op"] = (spans.table_entries / items, "count")
    plain_rate = plain.items / plain.busy_s
    traced_rate = traced.items / traced.busy_s
    metrics["trace.untraced_throughput_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_throughput_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100 * (plain_rate / traced_rate - 1), "%")
    return {
        "ops": 2 * len(inputs),
        "failed": plain.failed + traced.failed,
        "problems": plain.problems + traced.problems,
        "items": traced.items,
        "absent": absent,
        "spans_file": str(spans_file),
        "metrics": metrics,
    }


def main() -> None:
    name, seed, seconds, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    wl, setup_s = set_up(name, seed)
    result = {"setup_s": setup_s}
    if mode == "measure":
        result.update(measure(wl, seconds))
    elif mode == "trace":
        result.update(trace(wl, seed))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
