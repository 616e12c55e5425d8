"""Self-test of the benchmark's output checks: correct outputs pass, and
corrupted ones (a flipped d, a wrong n, a false corrected-identity flag, a
wrong quotient, a non-zero exit, a raising op) each count as a failed op.

    PYTHONPATH=src python3 bench/selftest.py
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import dlogcrt
import dlogcrt.cli  # noqa: F401  (the package does not import cli)

from child import Loop
from workloads import ExperimentDesk, ReduceCrypto, SolveLarge


class Corrupting:
    """The workload with one corruption applied to each op's output."""

    def __init__(self, wl, corrupt):
        self.wl, self.corrupt = wl, corrupt

    def run(self, args):
        return self.corrupt(self.wl.run(args))

    def problems(self, args, result):
        return self.wl.problems(args, result)

    def items(self, args):
        return self.wl.items(args)


def edit_record(field, change):
    """Corruption of the first record of an experiment op's output."""

    def corrupt(result):
        code, text = result
        lines = text.splitlines()
        rec = json.loads(lines[0])
        rec[field] = change(rec)
        lines[0] = json.dumps(rec)
        return code, "\n".join(lines) + "\n"

    return corrupt


def flip_d(rec):
    return str((int(rec["d"]) + 1) % (int(rec["p"]) * int(rec["q"])))


def raise_error(result):
    raise ArithmeticError("injected")


def flip_master_d(result):
    system, lemma1, lemma2, beta, contains = result
    master = SimpleNamespace(
        index_coeff=system.master.index_coeff,
        constant=system.master.constant + 1,
    )
    return SimpleNamespace(master=master), lemma1, lemma2, beta, contains


CASES = {
    ExperimentDesk: {
        "flipped d": edit_record("d", flip_d),
        "wrong recovered n": edit_record("recovered_n", lambda r: str(int(r["recovered_n"]) + 1)),
        "false corrected-identity flag": edit_record("lemma2_corrected_ok", lambda r: False),
        "wrong q(a0)": edit_record("q_a0", lambda r: str(int(r["q_a0"]) + 1)),
        "wrong literal flag": edit_record("lemma2_literal_ok", lambda r: not r["lemma2_literal_ok"]),
        "non-zero exit": lambda result: (1, result[1]),
        "raised": raise_error,
    },
    SolveLarge: {
        "wrong n": lambda n: n + 1,
        "raised": raise_error,
    },
    ReduceCrypto: {
        "flipped d": flip_master_d,
        "false mcrt membership": lambda r: (*r[:4], False),
        "raised": raise_error,
    },
}


def main() -> int:
    bad = 0
    for cls, cases in CASES.items():
        wl = cls(dlogcrt, seed=7)
        args = wl.warmup_input()
        loop = Loop(wl)
        loop.step(args)
        ok = loop.failed == 0
        print(f"{'PASS' if ok else 'FAIL'} {cls.name}: unmodified output passes {loop.problems}")
        bad += not ok
        for label, corrupt in cases.items():
            loop = Loop(Corrupting(wl, corrupt))
            loop.step(args)
            ok = loop.failed == 1 and loop.items == 0
            print(f"{'PASS' if ok else 'FAIL'} {cls.name}: {label} counts as failed: {loop.problems[:1]}")
            bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
