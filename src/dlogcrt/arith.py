"""Exact modular arithmetic on arbitrary-precision integers.

Results are plain ints canonicalized to [0, m); powers use the builtin
pow. No floating point anywhere.
"""

from __future__ import annotations

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
