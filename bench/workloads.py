"""The three benchmark workloads: how each draws its inputs from the workload
seed, runs one op against the library, and checks the op's output.

Ops reach the library through module attributes (`dl.reduction.transform`)
at call time, never through names bound at import, so the traced run's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from math import gcd
from pathlib import Path

import check

FIXTURES = Path(__file__).with_name("fixtures.json")

EXPERIMENT_COUNT, EXPERIMENT_QMIN, EXPERIMENT_QMAX = 100, 5, 499


def load_groups(workload: str) -> list[dict]:
    """The pinned groups of one workload, re-validated with the benchmark's
    own arithmetic. Raises ValueError on any mismatch."""
    groups = []
    for entry in json.loads(FIXTURES.read_text())["groups"]:
        if entry["workload"] != workload:
            continue
        group = {key: int(entry[key]) for key in ("bits", "p", "q", "a0")}
        problems = check.group_problems(group["p"], group["q"], group["a0"])
        if group["p"].bit_length() != group["bits"]:
            problems.append(f"p has {group['p'].bit_length()} bits")
        if problems:
            raise ValueError(f"fixture {entry['bits']}-bit: " + "; ".join(problems))
        groups.append(group)
    return groups


def _target(group: dict, n: int) -> tuple[int, int] | None:
    """(n, a0^n mod p), or None when the target is not a unit mod pq."""
    b0 = pow(group["a0"], n, group["p"])
    return None if gcd(b0, group["q"]) != 1 else (n, b0)


class ExperimentDesk:
    """One op is `dlogcrt experiment --count 100 --qmin 5 --qmax 499 --seed s`,
    run in-process through cli.main with stdout captured: the paper's
    batch-verification path, dominated by per-record overhead. Item: record."""

    name = "experiment-desk"
    item = "record"
    block = 1
    trace_ops = 20

    def __init__(self, dl, seed: int):
        self.dl = dl
        self.rng = random.Random(seed)

    def _argv(self, s: int) -> list[str]:
        return [
            "experiment",
            "--count", str(EXPERIMENT_COUNT),
            "--qmin", str(EXPERIMENT_QMIN),
            "--qmax", str(EXPERIMENT_QMAX),
            "--seed", str(s),
        ]

    def warmup_input(self) -> list[str]:
        return self._argv(self.rng.getrandbits(31))

    def inputs(self):
        while True:
            yield self._argv(self.rng.getrandbits(31))

    def items(self, argv) -> int:
        return EXPERIMENT_COUNT

    def run(self, argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.dl.cli.main(argv)
        return code, out.getvalue()

    def problems(self, argv, result) -> list[str]:
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        lines = text.splitlines()
        if len(lines) != EXPERIMENT_COUNT:
            return [f"{len(lines)} records, want {EXPERIMENT_COUNT}"]
        problems = []
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if rec["id"] != str(i):
                problems.append(f"record {i} has id {rec['id']}")
            problems += check.experiment_problems(rec, EXPERIMENT_QMIN, EXPERIMENT_QMAX)
        return problems


class PinnedGroups:
    """Ops on the pinned groups of one workload: each seeded-shuffled block
    holds shares[k] ops on group k; the warm-up op uses the first group."""

    shares: tuple[int, ...]

    def __init__(self, dl, seed: int):
        self.dl = dl
        self.rng = random.Random(seed)
        self.groups = load_groups(self.name)
        if len(self.groups) != len(self.shares):
            raise ValueError(f"{self.name}: {len(self.groups)} pinned groups, {len(self.shares)} shares")

    @property
    def block(self) -> int:
        return sum(self.shares)

    def warmup_input(self) -> tuple:
        return self._next(0)

    def inputs(self):
        order = [k for k, share in enumerate(self.shares) for _ in range(share)]
        while True:
            self.rng.shuffle(order)
            for k in order:
                yield self._next(k)

    def items(self, args) -> int:
        return 1


class SolveLarge(PinnedGroups):
    """One op is solve_small(DlogInstance(SafePrimeParams(p, q), a0, b0)) on
    pinned 32/34/36/38-bit groups: the only workload where solver time,
    solver memory and reuse across targets of one group show. Item: solve.

    Each block of 5 ops holds one op per size and a second 36-bit op. With
    equal shares the median would sit exactly on the 34/36-bit boundary;
    this mix puts it inside the 36-bit class and the 90th percentile inside
    the 38-bit class. Baby-step giant-step time grows with n mod q, so each
    group's n mod q walks an additive golden-ratio sequence from a seeded
    offset: any prefix of the run covers [0, q) evenly."""

    name = "solve-large"
    item = "solve"
    shares = (1, 1, 2, 1)
    trace_ops = 10

    def __init__(self, dl, seed: int):
        super().__init__(dl, seed)
        self.offsets = [self.rng.randrange(g["q"]) for g in self.groups]
        self.counters = [0] * len(self.groups)

    def _next(self, k: int) -> tuple:
        group = self.groups[k]
        q = group["q"]
        stride = q * 618_034 // 1_000_000  # q / golden ratio
        while True:
            n_q = (self.offsets[k] + self.counters[k] * stride) % q
            self.counters[k] += 1
            drawn = _target(group, n_q + q * self.rng.getrandbits(1))
            if drawn:
                return (group, *drawn)

    def run(self, args):
        group, _, b0 = args
        dl = self.dl
        params = dl.numtheory.SafePrimeParams(group["p"], group["q"])
        return dl.reduction.solve_small(dl.reduction.DlogInstance(params, group["a0"], b0))

    def problems(self, args, result) -> list[str]:
        group, n, b0 = args
        if result != n or pow(group["a0"], result, group["p"]) != b0:
            return [f"{group['bits']}-bit solve gave n = {result}, want {n}"]
        return []


class ReduceCrypto(PinnedGroups):
    """One op is the library path that checks the reduction without solving:
    SafePrimeParams -> DlogInstance(known_index=n) -> transform ->
    check_lemma1 -> check_lemma2 -> carry_beta_pq ->
    mcrt.solve_system(...).contains((beta, n)), on pinned 256- and 512-bit
    groups. It exercises the polynomial layers at cryptographic size and
    never calls the oracle. Item: checked reduction.

    Each block of 5 ops holds 4 at 256 bits and 1 at 512 bits, so the
    median falls inside the 256-bit class and the 90th percentile in the
    middle of the 512-bit class rather than on the boundary between them."""

    name = "reduce-crypto"
    item = "checked reduction"
    shares = (4, 1)
    trace_ops = 20

    def _next(self, k: int) -> tuple:
        group = self.groups[k]
        while True:
            drawn = _target(group, self.rng.randrange(group["p"] - 1))
            if drawn:
                return (group, *drawn)

    def run(self, args):
        group, n, b0 = args
        p, q, a0 = group["p"], group["q"], group["a0"]
        nt, red, lift, mcrt = self.dl.numtheory, self.dl.reduction, self.dl.lift, self.dl.mcrt
        params = nt.SafePrimeParams(p, q)
        system = red.transform(red.DlogInstance(params, a0, b0, known_index=n))
        lemma1 = lift.check_lemma1(params, a0, b0, n)
        lemma2 = lift.check_lemma2(params, a0, b0, n)
        beta = lift.carry_beta_pq(params, a0, b0, n).beta
        parts = tuple(
            mcrt.LinearEquation((part.beta_coeff, part.index_coeff), part.constant, part.modulus)
            for part in system.parts
        )
        contains = mcrt.solve_system(mcrt.LinearSystem(2, parts)).contains((beta, n))
        return system, lemma1, lemma2, beta, contains

    def problems(self, args, result) -> list[str]:
        group, n, b0 = args
        system, lemma1, lemma2, beta, contains = result
        pa, pb = lemma2.profile_a, lemma2.profile_b
        rec = {
            "p": group["p"], "q": group["q"], "a0": group["a0"], "b0": b0, "n": n,
            "A": pa.power_residue, "B": pb.power_residue,
            "k_a": pa.carry, "k_b": pb.carry,
            "q_a0": pa.quotient, "q_b0": pb.quotient,
            "a1": pa.digit, "b1": pb.digit,
            "a1_literal": pa.digit_literal, "b1_literal": pb.digit_literal,
            "beta": beta,
            "c": system.master.index_coeff, "d": system.master.constant,
            "lemma2_literal_ok": lemma2.literal_lift_identity_ok,
        }
        problems = check.reduction_problems(rec)
        if (lemma2.beta, lemma2.index_coeff, lemma2.constant) != (beta, rec["c"], rec["d"]):
            problems.append("check_lemma2 disagrees with transform / carry_beta_pq")
        flags = {
            "lemma1_ok": lemma1,
            "lemma2_corrected_ok": lemma2.corrected_ok,
            "mcrt_contains": contains,
        }
        return problems + [f"{flag} is not true" for flag, ok in flags.items() if ok is not True]


WORKLOADS = {wl.name: wl for wl in (ExperimentDesk, SolveLarge, ReduceCrypto)}
