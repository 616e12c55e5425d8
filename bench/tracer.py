"""Traced-run instrumentation: spans around calls into the library's public
functions, installed from outside the package by rebinding names.

Every module binding of a wrapped function is replaced, so calls through
from-imports (`reduction`, `lift`, `cli`) and the re-exports in
`dlogcrt/__init__` are all seen. Dataclass construction is timed through
the class's __post_init__. Nothing in the package itself is traced.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from math import isqrt
from time import perf_counter_ns

# (module, public name) pairs, grouped by the end-to-end metric each should
# move; bench/README.md has the full map.
WRAPPED = (
    ("numtheory", "is_prime"),
    ("numtheory", "SafePrimeParams"),
    ("numtheory", "primitive_root"),
    ("quotients", "lift_profile"),
    ("quotients", "lerch_quotient"),
    ("lift", "check_lemma1"),
    ("lift", "check_lemma2"),
    ("lift", "carry_beta_pq"),
    ("reduction", "transform"),
    ("reduction", "verify_instance"),
    ("reduction", "solve_small"),
    ("reduction", "subgroup_index_mod_q"),
    ("oracle", "dlog_bsgs"),
    ("cli", "sample_instance"),
    ("cli", "report_document"),
    ("cli", "main"),
    ("mcrt", "solve_system"),
    ("arith", "mod_inv"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in WRAPPED)


class Tracer:
    """Spans kept in memory as (op, id, parent id, name, start ns, end ns),
    with per-name call counts, self time and raised counts alongside.

    A span's self time is its duration minus the time its child spans
    cover. Two counts are taken where the work happens: is_prime calls made
    inside the instance sampler, and baby-step table entries (the step
    ceil(sqrt(order)) of each dlog_bsgs call, computed from its argument)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.raised: Counter = Counter()
        self.primes_in_sampler = 0
        self.table_entries = 0
        self.op = 0
        self._stack: list[list] = []  # [span id, name, child ns]
        self._next_id = 0

    def wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                self.spans.append(
                    (self.op, span_id, parent[0] if parent else -1, name, start, end)
                )
                if name == "numtheory.is_prime" and any(
                    f[1] == "cli.sample_instance" for f in stack
                ):
                    self.primes_in_sampler += 1
                elif name == "oracle.dlog_bsgs":
                    order = args[0].order
                    self.table_entries += isqrt(order - 1) + 1

        return traced

    def install(self, package: str = "dlogcrt") -> list[str]:
        """Wrap every binding of each name in WRAPPED inside the loaded
        package modules; returns the names that do not exist (absent)."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        absent = []
        for (mod_name, fn_name), name in zip(WRAPPED, NAMES):
            owner = sys.modules.get(f"{package}.{mod_name}")
            target = getattr(owner, fn_name, None)
            if target is None:
                absent.append(name)
            elif isinstance(target, type):
                post_init = target.__dict__.get("__post_init__")
                if post_init is None:
                    absent.append(name)
                else:
                    target.__post_init__ = self.wrap(name, post_init)
            else:
                traced = self.wrap(name, target)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is target]:
                        setattr(mod, attr, traced)
        return absent

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("op\tid\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
