"""Command-line driver.

Subcommands: gen, quotient, reduce, verify, solve, recover-p2, experiment,
explain. Output is JSON on stdout (JSON lines for experiments) with every
integer serialized as a decimal string, so values survive any 64-bit
boundary bit-exactly. Identical argv and seed produce byte-identical
output. Domain errors exit 1 with a structured error document; usage
errors exit 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from contextlib import ExitStack
from functools import lru_cache
from math import gcd
from typing import Iterator

from .errors import DlogCrtError, InvalidInputError, SearchExhaustedError
from .lift import recover_index_mod_p2
from .numtheory import (
    Factorization,
    SafePrimeParams,
    gen_safe_prime,
    is_prime,
    primitive_root,
)
from .quotients import lift_profile
from .reduction import (
    CongruenceSystem,
    DlogInstance,
    LinearCongruence,
    VerificationReport,
    solve_small,
    transform,
    verify_instance,
)

_FLAG_COLUMNS = (
    "lemma1_ok",
    "lemma2_corrected_ok",
    "lemma2_literal_ok",
    "eq19_corrected_ok",
    "recovered_n_ok",
)


def params_document(params: SafePrimeParams) -> dict:
    return {
        "p": str(params.p),
        "q": str(params.q),
        "m1": str(params.m1),
        "m2": str(params.m2),
        "m3": str(params.m3),
        "exponent": str(params.exponent),
    }


def congruence_document(c: LinearCongruence) -> dict:
    return {
        "u": str(c.beta_coeff),
        "v": str(c.index_coeff),
        "w": str(c.constant),
        "m": str(c.modulus),
    }


def system_document(system: CongruenceSystem) -> dict:
    return {
        "master": congruence_document(system.master),
        "parts": [congruence_document(part) for part in system.parts],
    }


def report_document(report: VerificationReport) -> dict:
    """Flat record of a verification run: inputs, every intermediate value,
    and the pass/fail flags."""
    inst, lemma2 = report.instance, report.lemma2
    prof_a, prof_b = lemma2.profile_a, lemma2.profile_b
    return {
        "p": str(inst.params.p),
        "q": str(inst.params.q),
        "a0": str(inst.base),
        "b0": str(inst.target),
        "n": str(inst.known_index),
        "A": str(prof_a.power_residue),
        "B": str(prof_b.power_residue),
        "k_a": str(prof_a.carry),
        "k_b": str(prof_b.carry),
        "q_a0": str(prof_a.quotient),
        "q_b0": str(prof_b.quotient),
        "a1": str(prof_a.digit),
        "b1": str(prof_b.digit),
        "a1_literal": str(prof_a.digit_literal),
        "b1_literal": str(prof_b.digit_literal),
        "beta": str(lemma2.beta),
        "c": str(lemma2.index_coeff),
        "d": str(lemma2.constant),
        "n_mod_q": str(report.subgroup_index),
        "candidates": [str(c) for c in report.candidates],
        "recovered_n": str(report.recovered_index),
        "lemma1_ok": report.lemma1_ok,
        "lemma2_corrected_ok": lemma2.corrected_ok,
        "lemma2_literal_ok": lemma2.literal_lift_identity_ok,
        "eq19_corrected_ok": lemma2.eq19_corrected_ok,
        "master_ok": lemma2.linear_congruence_ok,
        "parts_ok": report.parts_ok,
        "recovered_n_ok": report.recovered_ok,
    }


def _rand_below(rng: random.Random, n: int) -> int:
    """Uniform draw from [0, n) by rejection on getrandbits; stable across
    Python versions, unlike randrange for some argument shapes. For n = 1,
    getrandbits(0) is 0 and consumes no state."""
    if n <= 0:
        raise ValueError("need a positive bound")
    bits = (n - 1).bit_length()
    while True:
        x = rng.getrandbits(bits)
        if x < n:
            return x


Group = tuple[SafePrimeParams, int]

# Most groups the sampler remembers; past it the least recently drawn q is
# forgotten, so memory does not grow with --count or the width of the q range.
GROUP_CACHE_LIMIT = 4096

# Draws sample_instance makes before it gives up on a q range.
SAMPLE_MAX_DRAWS = 100_000


@lru_cache(maxsize=GROUP_CACHE_LIMIT)
def _group(q: int) -> Group | None:
    """Parameters over p = 2q + 1 and their smallest primitive root, or None
    when q is not a usable subgroup prime."""
    try:
        params = SafePrimeParams(2 * q + 1, q)
    except InvalidInputError:
        return None
    base = primitive_root(params.p, Factorization(((2, 1), (q, 1))))
    if gcd(base, q) != 1:
        return None
    return params, base


def sample_instance(rng: random.Random, qmin: int, qmax: int) -> DlogInstance:
    """Draw one verifiable instance: q prime in [qmin, qmax] with 2q + 1
    prime, the smallest primitive root as base, n uniform in [0, p - 2],
    and target = base**n mod p. Draws whose base or target shares a factor
    with q are skipped, mirroring the coprimality hypotheses. Each q's group
    comes from the bounded cache of _group, which consumes no random
    numbers, so the draws are the same whether it hits or not."""
    if not 3 <= qmin <= qmax:
        raise SearchExhaustedError(f"bad subgroup prime range [{qmin}, {qmax}]")
    for _ in range(SAMPLE_MAX_DRAWS):
        q = qmin + _rand_below(rng, qmax - qmin + 1)
        group = _group(q)
        if group is None:
            continue
        params, base = group
        n = _rand_below(rng, params.p - 1)
        target = pow(base, n, params.p)
        if gcd(target, q) != 1:
            continue
        return DlogInstance(params, base, target, known_index=n)
    raise SearchExhaustedError(
        f"no instance found in {SAMPLE_MAX_DRAWS} draws over q in [{qmin}, {qmax}]"
    )


def run_experiment(count: int, qmin: int, qmax: int, seed: int) -> Iterator[dict]:
    """Yield the records, deterministically in (count, range, seed)."""
    rng = random.Random(seed)
    for i in range(count):
        instance = sample_instance(rng, qmin, qmax)
        record = report_document(verify_instance(instance))
        record["id"] = str(i)
        yield record


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _json_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _explain_lines(report: VerificationReport) -> list[str]:
    inst = report.instance
    params = inst.params
    a0, b0, n = inst.base, inst.target, inst.known_index
    lemma2 = report.lemma2
    pa, pb, beta = lemma2.profile_a, lemma2.profile_b, lemma2.beta
    master = report.system.master

    def mark(ok: bool) -> str:
        return "ok" if ok else "FAIL"

    lines = [
        f"instance: {a0}^n = {b0} (mod {params.p}), n = {n}",
        "",
        "parameters",
        f"  p = {params.p}   q = {params.q}   pq = {params.m1}",
        f"  (pq)^2 = {params.m2}   (pq)^3 = {params.m3}",
        f"  unit-group exponent mod (pq)^2: pq*(q-1) = {params.exponent}",
        "",
        "base profiles (x^(q-1) lifted from mod pq to mod (pq)^2)",
    ]
    for name, x, prof in (("a0", a0, pa), ("b0", b0, pb)):
        lines += [
            f"  {name} = {x}:",
            f"    A = {x}^{params.q - 1} mod {params.m1} = {prof.power_residue}"
            f"   carry k = {prof.carry}",
            f"    generalized quotient q({x}) = ({x}^{params.exponent} mod {params.m3}"
            f" - 1)/{params.m2} = {prof.quotient} (mod {params.m1})",
            f"    digit = k - A*q({x}) = {prof.digit} (mod {params.m1})"
            f"   [carry-free formula gives {prof.digit_literal}]",
        ]
    lines += [
        "",
        "carry of the index power",
        f"  {a0}^(n*(q-1)) mod {params.m2} = B + beta*{params.m1}"
        f" with beta = {beta}",
        "",
        f"master congruence in the unknowns (beta, n) mod {params.m1}",
        f"  beta + {master.index_coeff}*n = {master.constant} (mod {master.modulus})"
        f"   [{mark(lemma2.linear_congruence_ok)}:"
        f" {beta} + {master.index_coeff}*{n} ="
        f" {(beta + master.index_coeff * n) % master.modulus}]",
        "  split over the coprime moduli:",
    ]
    for part in report.system.parts:
        lines.append(
            f"    beta + {part.index_coeff}*n = {part.constant}"
            f" (mod {part.modulus})   [{mark(part.satisfied_by((beta, n)))}]"
        )
    lines += [
        "",
        "consistency checks",
        f"  power compatibility mod pq (lemma 1): {mark(report.lemma1_ok)}",
        f"  lifted power identity, corrected digits (lemma 2):"
        f" {mark(lemma2.lift_identity_ok)}",
        f"  lifted power identity, carry-free digits:"
        f" {mark(lemma2.literal_lift_identity_ok)}",
        f"  quotient relation n*q(a0) = q(b0) + (beta - k_b)/B:"
        f" {mark(lemma2.eq19_corrected_ok)}",
        "",
        "index recovery",
        f"  subgroup of order q generated by A mod {params.m1}:"
        f" n = {report.subgroup_index} (mod {params.q})",
        f"  candidates mod p-1 = {params.group_order}:"
        f" {report.candidates[0]} and {report.candidates[1]}",
        f"  direct check picks n = {report.recovered_index}"
        f"   [{mark(report.recovered_ok)}]",
    ]
    return lines


def nonnegative(text: str) -> int:
    """argparse type: an int >= 0 (named for argparse's error message)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# Largest p `gen` makes. On a 2-vCPU x86 host with Python 3.11, `gen --bits
# 1024` took 7-40 s for seeds 1-3; at 1536 bits seed 1 took 150 s and seed 2
# ran out of the 654400 draws gen_safe_prime then allowed after 171 s.
GEN_MAX_BITS = 1024


def gen_bits(text: str) -> int:
    """argparse type: a bit length of at most GEN_MAX_BITS."""
    value = int(text)
    if value > GEN_MAX_BITS:
        raise argparse.ArgumentTypeError(f"must be <= {GEN_MAX_BITS}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlogcrt",
        description=(
            "Reduce safe-prime discrete-log instances to linear congruence "
            "systems in two unknowns over coprime moduli, verify the lift "
            "identities behind the reduction, and run seeded experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate safe-prime parameters")
    gen.add_argument(
        "--bits", type=gen_bits, required=True, help=f"bit length of p (<= {GEN_MAX_BITS})"
    )
    gen.add_argument("--seed", type=int, required=True)

    quot = sub.add_parser("quotient", help="lift profile of a base")
    quot.add_argument("--p", type=int, required=True)
    quot.add_argument("--q", type=int, required=True)
    quot.add_argument("--x", type=int, required=True)

    for name, needs_n in (("reduce", False), ("verify", True), ("solve", False)):
        cmd = sub.add_parser(
            name,
            help={
                "reduce": "transform an instance into its congruence system",
                "verify": "check every identity on an instance with known index",
                "solve": "recover the index at desk scale",
            }[name],
        )
        cmd.add_argument("--p", type=int, required=True)
        cmd.add_argument("--q", type=int, required=True)
        cmd.add_argument("--a0", type=int, required=True)
        cmd.add_argument("--b0", type=int, required=True)
        if needs_n:
            cmd.add_argument("--n", type=int, required=True)

    rec = sub.add_parser(
        "recover-p2", help="recover the index mod p from a0^n mod p^2"
    )
    rec.add_argument("--p", type=int, required=True)
    rec.add_argument("--a0", type=int, required=True)
    rec.add_argument("--X", type=int, required=True, dest="power")

    exp = sub.add_parser("experiment", help="seeded batch verification runs")
    exp.add_argument("--count", type=nonnegative, required=True)
    exp.add_argument("--qmin", type=int, default=5)
    exp.add_argument("--qmax", type=int, default=499)
    exp.add_argument("--seed", type=int, required=True)
    exp.add_argument("--out", help="JSONL output path (default: stdout)")
    exp.add_argument("--csv", help="also write a CSV projection of the flags")

    expl = sub.add_parser(
        "explain", help="human-readable derivation trace of one instance"
    )
    expl.add_argument("--p", type=int, required=True)
    expl.add_argument("--q", type=int, required=True)
    expl.add_argument("--a0", type=int, required=True)
    expl.add_argument("--b0", type=int, required=True)
    expl.add_argument("--n", type=int, help="known index (solved if omitted)")

    return parser


def _instance(args: argparse.Namespace, known_index: int | None) -> DlogInstance:
    params = SafePrimeParams(args.p, args.q)
    return DlogInstance(params, args.a0, args.b0, known_index=known_index)


def _run(args: argparse.Namespace) -> int:
    if args.command == "gen":
        _print_json(params_document(gen_safe_prime(args.bits, args.seed)))

    elif args.command == "quotient":
        params = SafePrimeParams(args.p, args.q)
        prof = lift_profile(params, args.x)
        _print_json(
            {
                "p": str(params.p),
                "q": str(params.q),
                "x": str(args.x),
                "A": str(prof.power_residue),
                "k": str(prof.carry),
                "q_x": str(prof.quotient),
                "digit": str(prof.digit),
                "digit_literal": str(prof.digit_literal),
            }
        )

    elif args.command == "reduce":
        instance = _instance(args, None)
        doc = system_document(transform(instance))
        doc.update(
            p=str(args.p), q=str(args.q), a0=str(args.a0), b0=str(args.b0)
        )
        _print_json(doc)

    elif args.command == "verify":
        _print_json(report_document(verify_instance(_instance(args, args.n))))

    elif args.command == "solve":
        _print_json({"n": str(solve_small(_instance(args, None)))})

    elif args.command == "recover-p2":
        if not is_prime(args.p):
            raise InvalidInputError(f"{args.p} is not prime")
        p = args.p
        n, b0, beta, a1, b1 = recover_index_mod_p2(p, args.a0, args.power % (p * p))
        _print_json(
            {"n": str(n), "b0": str(b0), "beta": str(beta), "a1": str(a1), "b1": str(b1)}
        )

    elif args.command == "experiment":
        with ExitStack() as files:
            out, table = sys.stdout, None
            try:
                if args.out:
                    out = files.enter_context(open(args.out, "w"))
                if args.csv:
                    table = csv.writer(files.enter_context(open(args.csv, "w", newline="")))
            except OSError as exc:
                build_parser().error(f"cannot open {exc.filename}: {exc.strerror}")
            if args.csv:
                table.writerow(("id", "p", "q", "a0", "b0", "n") + _FLAG_COLUMNS)
            for record in run_experiment(args.count, args.qmin, args.qmax, args.seed):
                print(_json_line(record), file=out)
                if args.csv:
                    table.writerow(
                        [record[k] for k in ("id", "p", "q", "a0", "b0", "n")]
                        + [str(record[k]).lower() for k in _FLAG_COLUMNS]
                    )

    elif args.command == "explain":
        print("\n".join(_explain_lines(verify_instance(_instance(args, args.n)))))

    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = _run(args)
        except DlogCrtError as exc:
            doc = {"error": {"code": exc.code, "message": str(exc)}}
            # experiment's stdout is JSON lines, so its error is one more line
            if args.command == "experiment":
                print(_json_line(doc))
            else:
                _print_json(doc)
            code = 1
        sys.stdout.flush()
        return code
    except OSError as exc:
        # a closed pipe or a full device, on stdout or on --out/--csv
        try:
            sys.stdout.flush()
        except OSError:
            # stdout is broken: send what is still buffered, and the flush
            # at interpreter exit, to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"dlogcrt: error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
