"""Exact modular arithmetic on arbitrary-precision integers.

Residues are plain ints canonicalized to [0, m); a value only travels
together with its modulus (as a Residue) where the pairing matters, e.g.
Chinese-remainder recombination. No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InvalidInputError, InvalidModuliError, NotInvertibleError


@dataclass(frozen=True)
class Residue:
    """A canonical residue: 0 <= value < modulus, modulus >= 2."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise InvalidInputError(f"modulus must be >= 2, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise InvalidInputError(
                f"residue {self.value} not canonical mod {self.modulus}"
            )


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


def mod_pow(x: int, e: int, m: int) -> int:
    """x**e mod m by square-and-multiply (e = 0 gives 1 mod m)."""
    if m < 2:
        raise InvalidInputError(f"modulus must be >= 2, got {m}")
    if e < 0:
        raise InvalidInputError("exponent must be nonnegative")
    return pow(x % m, e, m)


def crt_pair(r1: Residue, r2: Residue) -> Residue:
    """Combine residues over coprime moduli into the unique residue mod m1*m2."""
    m1, m2 = r1.modulus, r2.modulus
    g, s, _ = egcd(m1, m2)
    if g != 1:
        raise InvalidModuliError(f"moduli {m1} and {m2} share factor {g}")
    # x = r1 + m1 * k where k solves m1*k = r2 - r1 (mod m2)
    k = (r2.value - r1.value) * s % m2
    return Residue((r1.value + m1 * k) % (m1 * m2), m1 * m2)
