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
import random
import sys
from math import gcd
from typing import Iterator

from .errors import DlogCrtError, InvalidInputError, SearchExhaustedError
from .lift import recover_index_mod_p2, teichmuller_digit
from .numtheory import Factorization, SafePrimeParams, gen_safe_prime, is_prime, primitive_root
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


def _s(n: int) -> str:
    return str(n)


def params_document(params: SafePrimeParams) -> dict:
    return {
        "p": _s(params.p),
        "q": _s(params.q),
        "m1": _s(params.m1),
        "m2": _s(params.m2),
        "m3": _s(params.m3),
        "exponent": _s(params.exponent),
    }


def congruence_document(c: LinearCongruence) -> dict:
    return {
        "u": _s(c.beta_coeff),
        "v": _s(c.index_coeff),
        "w": _s(c.constant),
        "m": _s(c.modulus),
    }


def system_document(system: CongruenceSystem) -> dict:
    return {
        "master": congruence_document(system.master),
        "parts": [congruence_document(part) for part in system.parts],
    }


def report_document(report: VerificationReport) -> dict:
    """Flat record of a verification run: inputs, every intermediate value,
    and the pass/fail flags. Records round-trip through record_instance."""
    inst = report.instance
    prof_a, prof_b = report.profile_a, report.profile_b
    return {
        "p": _s(inst.params.p),
        "q": _s(inst.params.q),
        "a0": _s(inst.base),
        "b0": _s(inst.target),
        "n": _s(inst.known_index),
        "A": _s(prof_a.power_residue),
        "B": _s(prof_b.power_residue),
        "k_a": _s(prof_a.carry),
        "k_b": _s(prof_b.carry),
        "q_a0": _s(prof_a.quotient),
        "q_b0": _s(prof_b.quotient),
        "a1": _s(prof_a.digit),
        "b1": _s(prof_b.digit),
        "a1_literal": _s(prof_a.digit_literal),
        "b1_literal": _s(prof_b.digit_literal),
        "beta": _s(report.beta),
        "c": _s(report.system.master.index_coeff),
        "d": _s(report.system.master.constant),
        "n_mod_q": _s(report.subgroup_index),
        "candidates": [_s(c) for c in report.candidates],
        "recovered_n": _s(report.recovered_index),
        "lemma1_ok": report.lemma1_ok,
        "lemma2_corrected_ok": report.lemma2.lift_identity_ok
        and report.lemma2.linear_congruence_ok,
        "lemma2_literal_ok": report.lemma2.literal_lift_identity_ok,
        "eq19_corrected_ok": report.lemma2.eq19_corrected_ok,
        "master_ok": report.master_ok,
        "parts_ok": report.parts_ok,
        "recovered_n_ok": report.recovered_ok,
    }


def record_instance(record: dict) -> DlogInstance:
    """Rebuild the instance a record was derived from (for re-verification)."""
    params = SafePrimeParams(int(record["p"]), int(record["q"]))
    return DlogInstance(
        params=params,
        base=int(record["a0"]),
        target=int(record["b0"]),
        known_index=int(record["n"]),
    )


def _rand_below(rng: random.Random, n: int) -> int:
    """Uniform draw from [0, n) by rejection on getrandbits; stable across
    Python versions, unlike randrange for some argument shapes."""
    if n <= 0:
        raise ValueError("need a positive bound")
    bits = (n - 1).bit_length()
    while True:
        x = rng.getrandbits(bits) if bits else 0
        if x < n:
            return x


Group = tuple[SafePrimeParams, int]

# Most q values one experiment run remembers. Past it, groups of new q
# values are derived on every draw and not stored, so a run's memory does
# not grow with --count or with the width of the q range.
GROUP_CACHE_LIMIT = 4096


def _group(q: int) -> Group | None:
    """Parameters over p = 2q + 1 and their smallest primitive root, or None
    when q is not a usable subgroup prime."""
    if not is_prime(q) or not is_prime(2 * q + 1):
        return None
    params = SafePrimeParams(2 * q + 1, q)
    base = primitive_root(params.p, Factorization(((2, 1), (q, 1))))
    if gcd(base, q) != 1:
        return None
    return params, base


def sample_instance(
    rng: random.Random,
    qmin: int,
    qmax: int,
    max_draws: int = 100_000,
    groups: dict[int, Group | None] | None = None,
) -> DlogInstance:
    """Draw one verifiable instance: q prime in [qmin, qmax] with 2q + 1
    prime, the smallest primitive root as base, n uniform in [0, p - 2],
    and target = base**n mod p. Draws whose base or target shares a factor
    with q are skipped, mirroring the coprimality hypotheses.

    groups maps each q seen so far to its group (None when rejected); pass
    the same dict across calls to derive each group once. Caching does not
    change how rng is consumed, so the draws are the same either way."""
    if not 3 <= qmin <= qmax:
        raise SearchExhaustedError(f"bad subgroup prime range [{qmin}, {qmax}]")
    if groups is None:
        groups = {}
    for _ in range(max_draws):
        q = qmin + _rand_below(rng, qmax - qmin + 1)
        if q in groups:
            group = groups[q]
        else:
            group = _group(q)
            if len(groups) < GROUP_CACHE_LIMIT:
                groups[q] = group
        if group is None:
            continue
        params, base = group
        n = _rand_below(rng, params.p - 1)
        target = pow(base, n, params.p)
        if gcd(target, q) != 1:
            continue
        return DlogInstance(params, base, target, known_index=n)
    raise SearchExhaustedError(
        f"no instance found in {max_draws} draws over q in [{qmin}, {qmax}]"
    )


def run_experiment(
    count: int, qmin: int, qmax: int, seed: int
) -> Iterator[tuple[int, dict]]:
    """Yield (id, record) pairs, deterministically in (count, range, seed)."""
    rng = random.Random(seed)
    groups: dict[int, Group | None] = {}
    for i in range(count):
        instance = sample_instance(rng, qmin, qmax, groups=groups)
        record = report_document(verify_instance(instance))
        record["id"] = _s(i)
        yield i, record


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _json_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _explain_lines(report: VerificationReport) -> list[str]:
    inst = report.instance
    params = inst.params
    a0, b0, n = inst.base, inst.target, inst.known_index
    pa, pb = report.profile_a, report.profile_b
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
        f" with beta = {report.beta}",
        "",
        f"master congruence in the unknowns (beta, n) mod {params.m1}",
        f"  beta + {master.index_coeff}*n = {master.constant} (mod {master.modulus})"
        f"   [{mark(report.master_ok)}:"
        f" {report.beta} + {master.index_coeff}*{n} ="
        f" {(report.beta + master.index_coeff * n) % master.modulus}]",
        "  split over the coprime moduli:",
    ]
    for part in report.system.parts:
        lines.append(
            f"    beta + {part.index_coeff}*n = {part.constant}"
            f" (mod {part.modulus})   [{mark(part.satisfied_by(report.beta, n))}]"
        )
    lines += [
        "",
        "consistency checks",
        f"  power compatibility mod pq (lemma 1): {mark(report.lemma1_ok)}",
        f"  lifted power identity, corrected digits (lemma 2):"
        f" {mark(report.lemma2.lift_identity_ok)}",
        f"  lifted power identity, carry-free digits:"
        f" {mark(report.lemma2.literal_lift_identity_ok)}",
        f"  quotient relation n*q(a0) = q(b0) + (beta - k_b)/B:"
        f" {mark(report.lemma2.eq19_corrected_ok)}",
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
    gen.add_argument("--bits", type=int, required=True, help="bit length of p")
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
                "p": _s(params.p),
                "q": _s(params.q),
                "x": _s(args.x),
                "A": _s(prof.power_residue),
                "k": _s(prof.carry),
                "q_x": _s(prof.quotient),
                "digit": _s(prof.digit),
                "digit_literal": _s(prof.digit_literal),
            }
        )

    elif args.command == "reduce":
        instance = _instance(args, None)
        doc = system_document(transform(instance))
        doc.update(
            p=_s(args.p), q=_s(args.q), a0=_s(args.a0), b0=_s(args.b0)
        )
        _print_json(doc)

    elif args.command == "verify":
        _print_json(report_document(verify_instance(_instance(args, args.n))))

    elif args.command == "solve":
        _print_json({"n": _s(solve_small(_instance(args, None)))})

    elif args.command == "recover-p2":
        if not is_prime(args.p):
            raise InvalidInputError(f"{args.p} is not prime")
        p = args.p
        power = args.power % (p * p)
        b0 = power % p
        _print_json(
            {
                "n": _s(recover_index_mod_p2(p, args.a0, power)),
                "b0": _s(b0),
                "beta": _s((power - b0) // p),
                "a1": _s(teichmuller_digit(p, args.a0 % p)),
                "b1": _s(teichmuller_digit(p, b0)),
            }
        )

    elif args.command == "experiment":
        rows = []
        lines = []
        for _, record in run_experiment(args.count, args.qmin, args.qmax, args.seed):
            if args.csv:
                rows.append(
                    [record[k] for k in ("id", "p", "q", "a0", "b0", "n")]
                    + [str(record[k]).lower() for k in _FLAG_COLUMNS]
                )
            lines.append(_json_line(record))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write("\n".join(lines) + ("\n" if lines else ""))
        else:
            for line in lines:
                print(line)
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("id", "p", "q", "a0", "b0", "n") + _FLAG_COLUMNS)
                writer.writerows(rows)

    elif args.command == "explain":
        n = args.n
        if n is None:
            n = solve_small(_instance(args, None))
        report = verify_instance(_instance(args, n))
        print("\n".join(_explain_lines(report)))

    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except DlogCrtError as exc:
        _print_json({"error": {"code": exc.code, "message": str(exc)}})
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
