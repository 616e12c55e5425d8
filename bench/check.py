"""Independent checks of the program's outputs, in plain `pow` arithmetic.

Nothing here imports dlogcrt: every quantity a record claims is recomputed
from its inputs (p, q, a0, b0, n) straight from the definitions, so a defect
in the library cannot hide behind the same defect in the checker.
"""

from __future__ import annotations

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

# Flags every experiment record must carry as true. lemma2_literal_ok is
# not here: the carry-free digits legitimately fail whenever a carry is
# nonzero, so that flag is recomputed and compared instead.
EXPERIMENT_TRUE_FLAGS = (
    "lemma1_ok",
    "lemma2_corrected_ok",
    "eq19_corrected_ok",
    "master_ok",
    "parts_ok",
    "recovered_n_ok",
)


def is_prime(n: int) -> bool:
    """Trial division below 10**6; above, Miller-Rabin over the first twenty
    primes (a probable-prime check for re-validating pinned inputs)."""
    if n < 2:
        return False
    if n < 10**6:
        return all(n % d for d in range(2, int(n**0.5) + 1))
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def group_problems(p: int, q: int, a0: int) -> list[str]:
    """Why (p, q, a0) is not a safe-prime group with primitive root a0."""
    problems = []
    if p != 2 * q + 1:
        problems.append(f"p != 2q + 1 for q = {q}")
    if not (is_prime(q) and is_prime(p)):
        problems.append(f"p = {p} or q = {q} is not prime")
    if not 1 < a0 < p or pow(a0, 2, p) == 1 or pow(a0, q, p) == 1:
        problems.append(f"a0 = {a0} is not a primitive root of {p}")
    return problems


def lift_digits(p: int, q: int, x: int) -> dict[str, int]:
    """A = x^(q-1) mod pq, its carry k to mod (pq)^2, the generalized
    quotient q(x) from x^(pq(q-1)) = 1 + q(x)(pq)^2 mod (pq)^3, and the
    corrected and carry-free digits."""
    m1 = p * q
    m2 = m1 * m1
    a = pow(x, q - 1, m1)
    k = (pow(x, q - 1, m2) - a) // m1
    top = pow(x, m1 * (q - 1), m1 * m2) - 1
    if top % m2:
        raise ArithmeticError(f"x^(pq(q-1)) != 1 (mod (pq)^2) for x = {x}")
    qx = top // m2 % m1
    return {
        "A": a,
        "k": k,
        "q": qx,
        "digit": (k - a * qx) % m1,
        "digit_literal": -a * qx % m1,
    }


def reduction_problems(rec: dict) -> list[str]:
    """Mismatches between a reduction record and the recomputed values.

    The record holds decimal strings (or ints) under the keys of the
    `experiment` documents: p, q, a0, b0, n, A, B, k_a, k_b, q_a0, q_b0,
    a1, b1, a1_literal, b1_literal, beta, c, d and lemma2_literal_ok.
    """
    p, q, a0, b0, n = (int(rec[key]) for key in ("p", "q", "a0", "b0", "n"))
    m1 = p * q
    m2 = m1 * m1
    if pow(a0, n, p) != b0 % p:
        return [f"a0^n != b0 (mod p) for n = {n}"]
    want = {}
    for name, x in (("a", a0), ("b", b0)):
        lift = lift_digits(p, q, x)
        want["A" if name == "a" else "B"] = lift["A"]
        want[f"k_{name}"] = lift["k"]
        want[f"q_{name}0"] = lift["q"]
        want[f"{name}1"] = lift["digit"]
        want[f"{name}1_literal"] = lift["digit_literal"]
    b_res = want["B"]
    want["beta"] = (pow(a0, n * (q - 1), m2) - b_res) // m1
    want["c"] = -b_res * want["q_a0"] % m1
    want["d"] = want["b1"]
    problems = [
        f"{key} = {rec[key]}, recomputed {value}"
        for key, value in want.items()
        if int(rec[key]) != value
    ]
    beta, c, d = (int(rec[key]) for key in ("beta", "c", "d"))
    if (beta + c * n - d) % m1:
        problems.append("beta + c*n != d (mod pq)")
    literal_ok = pow(want["A"] + want["a1_literal"] * m1, n, m2) == (
        b_res + want["b1_literal"] * m1
    ) % m2
    if rec["lemma2_literal_ok"] is not literal_ok:
        problems.append(f"lemma2_literal_ok = {rec['lemma2_literal_ok']}, recomputed {literal_ok}")
    return problems


def experiment_problems(rec: dict, qmin: int, qmax: int) -> list[str]:
    """Mismatches in one `experiment` record: the sampled group, every
    reduction value, the solver's index and every corrected-identity flag."""
    p, q, a0, n = (int(rec[key]) for key in ("p", "q", "a0", "n"))
    problems = group_problems(p, q, a0)
    if not qmin <= q <= qmax:
        problems.append(f"q = {q} outside [{qmin}, {qmax}]")
    if not 0 <= n < p - 1:
        problems.append(f"n = {n} outside [0, p - 2]")
    if problems:
        return problems
    problems = reduction_problems(rec)
    n_q = n % q
    if int(rec["n_mod_q"]) != n_q:
        problems.append(f"n_mod_q = {rec['n_mod_q']}, want {n_q}")
    if [int(x) for x in rec["candidates"]] != [n_q, (n_q + q) % (p - 1)]:
        problems.append(f"candidates = {rec['candidates']}")
    if int(rec["recovered_n"]) != n:
        problems.append(f"recovered_n = {rec['recovered_n']}, want {n}")
    problems += [f"{flag} is not true" for flag in EXPERIMENT_TRUE_FLAGS if rec[flag] is not True]
    return problems
