"""dlogcrt benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload experiment-desk --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the repository root; the library is imported from src/. Each
workload runs in child processes of its own, so the peak RSS reported
belongs to that workload alone. The load is one process, one thread and a
closed loop with one caller.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number of
ops untraced and again traced, and prints the per-layer metrics and the
tracing overhead. --compare FILE prints each metric's ratio to a previous
result: FILE holds the JSON line a previous run printed last.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exit status is 0 only when every op ran and
the result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

CHILD = Path(__file__).with_name("child.py")
SETUP_RUNS = 5  # set-ups per run; setup_s is their median
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


def run_child(name: str, seed: int, seconds: int, mode: str, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), name, str(seed), str(seconds), mode],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{name} {mode} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise ChildFailed(f"{name} {mode} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(name: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    item = WORKLOADS[name].item
    setups = []
    for _ in range(SETUP_RUNS - 1):
        setups.append(run_child(name, seed, seconds, "setup", deadline - time.monotonic())["setup_s"])
    res = run_child(name, seed, seconds, "measure", deadline - time.monotonic())
    setups.append(res["setup_s"])
    values = {key: res[key] for key in END_TO_END if key != "setup_s"}
    values["setup_s"] = statistics.median(setups)
    ops, failed = res["ops"], res["failed"]
    print(f"{name} seed {seed}: {ops} ops, {res['items']} {item}s, {failed} failed")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "throughput_per_s": f"{item}s per second of op time",
        "op_ms_p50": f"{ops} ops",
        "op_ms_p90": f"{ops} ops, {ops - int(0.9 * ops)} beyond",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    for key, unit in END_TO_END.items():
        print(f"  {key:<18} {values[key]:>12.4f} {unit:<4} ({notes[key]})")
    print(f"  {'error_rate':<18} {failed / ops:>12.4f} {'':<4} ({failed}/{ops} ops failed)")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    return metrics, {"attempted": ops, "failed": failed}


def per_layer(name: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    item = WORKLOADS[name].item
    res = run_child(name, seed, seconds, "trace", deadline - time.monotonic())
    print(
        f"{name} seed {seed} traced: {res['ops'] // 2} ops untraced then traced,"
        f" {res['items']} {item}s, {res['failed']} failed; per op = per {item}"
    )
    for key, (value, unit) in res["metrics"].items():
        if value or key.startswith("trace."):
            print(f"  {key:<46} {value:>14.4f} {unit}")
    print(f"  absent: {', '.join(res['absent']) or 'none'}; spans in {res['spans_file']}")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")
    metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in res["metrics"].items()}
    return metrics, {"attempted": res["ops"], "failed": res["failed"]}


def compare(metrics: dict, path: str) -> None:
    prev = json.loads(Path(path).read_text().strip().splitlines()[-1])["metrics"]
    print(f"compare with {path} (ratio = now / previous)")
    for key in sorted(metrics.keys() & prev.keys()):
        old, new = prev[key]["value"], metrics[key]["value"]
        if not (old or new):
            continue
        ratio = f"{new / old:8.3f}" if old else "     n/a"
        print(f"  {key:<46} {old:>14.4f} -> {new:>14.4f} {ratio}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", metavar="FILE")
    args = parser.parse_args()
    if not Path("src/dlogcrt/__init__.py").is_file():
        print("error: run from the repository root (src/dlogcrt not found)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    run = per_layer if args.trace else end_to_end
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            wl_metrics, counts = run(name, args.seed, args.seconds, deadline)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in wl_metrics.items()})
        attempted += counts["attempted"]
        failed += counts["failed"]
    if args.compare:
        compare(metrics, args.compare)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
