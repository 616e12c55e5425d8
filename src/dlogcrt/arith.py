"""Exact modular arithmetic on arbitrary-precision integers.

Results are plain ints canonicalized to [0, m); no floating point anywhere.
Powers use the builtin pow, except in _pow_fixed: a recurring base g mod m
above 64 bits is raised from its kept table of g**(16**i) mod m, at most
bits(m)/4 rows, one table per (g mod m, m) and _POWER_TABLES = 8 in all
(1.26 MB at most at 1024 bits). At 64 bits or less the builtin stays: it
was 2-4x faster below 16 bits, and the tables win only from 32-48 bits.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import InvalidInputError, InvalidModuliError, NotInvertibleError


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g = gcd(a, b)."""
    if a < 0 or b < 0:
        raise InvalidInputError("egcd expects nonnegative inputs")
    if a == 0 and b == 0:
        raise InvalidInputError("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    return old_r, old_s, old_t


def mod_inv(a: int, m: int) -> int:
    """Inverse of a mod m, canonical in [0, m). Raises NotInvertibleError
    (carrying the gcd) when gcd(a, m) != 1."""
    if m < 2:
        raise InvalidInputError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(a, m, gcd(a, m)) from None


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """The unique residue mod m1*m2 that is r1 mod m1 and r2 mod m2, for
    coprime moduli."""
    g, s, _ = egcd(m1, m2)
    if g != 1:
        raise InvalidModuliError(f"moduli {m1} and {m2} share factor {g}")
    # x = r1 + m1 * k where k solves m1*k = r2 - r1 (mod m2)
    k = (r2 - r1) * s % m2
    return (r1 + m1 * k) % (m1 * m2)


# Power tables kept, least recently used evicted first: the 2 of a checked
# reduction (base mod p, its lift mod p**2) for 4 groups.
# 8 at full span for a 1024-bit group take 1.26 MB (tracemalloc, CPython 3.11).
_POWER_TABLES = 8


@lru_cache(maxsize=_POWER_TABLES)
def _powers(g: int, m: int) -> list[int]:
    """[g**(16**i) mod m for i < rows], grown by _pow_fixed as exponents need."""
    return [g]


def _pow_fixed(g: int, e: int, m: int) -> int:
    """pow(g, e, m) by Yao's bucket method over g's kept table: for e = sum of
    e_i*16**i, g**e is the product of B_d**d (d = 1..15), B_d that of the rows
    i with e_i = d. bits(e)/4 + 30 products for bits(e) squarings take 0.25-0.3x
    builtin pow's time at 256-1024 bits, and 1.0-1.2x on a base's first call.
    Small moduli and exponents outside [0, 2**bits(m)) take builtin pow."""
    if m < 1 << 64 or e < 0 or e.bit_length() > m.bit_length():
        return pow(g, e, m)
    digits, table = f"{e:x}"[::-1], _powers(g % m, m)
    while (i := len(table)) < len(digits):  # racing threads write row i alike
        table[i : i + 1] = [pow(table[i - 1], 16, m)]
    buckets = dict.fromkeys("0123456789abcdef", 1)
    for row, digit in zip(table, digits):
        buckets[digit] = buckets[digit] * row % m
    acc = run = 1
    for digit in "fedcba987654321":
        run = run * buckets[digit] % m
        acc = acc * run % m
    return acc

