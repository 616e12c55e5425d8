"""Exact modular arithmetic on arbitrary-precision integers.

Results are plain ints canonicalized to [0, m); no floating point anywhere.
Powers use the builtin pow, except in _pow_fixed: a recurring base g mod m
above 64 bits is raised from its kept table of g**(16**i) mod m, at most
bits(m)/4 rows, one table per (g mod m, m) and _POWER_TABLES = 8 in all
(1.26 MB at most at 1024 bits). At 64 bits or less the builtin stays: it
was 2-4x faster below 16 bits, and the tables win only from 32-48 bits.

_lane_powers takes a batch of geometric steps y * g**i mod m (i < L, m below
2**64) in eleven big-int operations and one conversion to bytes, from the
constants _lane_table packs once per (g, m, L). Lane i of a packed int is its
bits [w*i, w*(i+1)); the lane width w is a multiple of 64 and at least
3b + 1 bits, b = bits(m). It is exact, since no lane overflows and no step
borrows, so no carry or borrow crosses a lane:
- x = y * sum(g**i << w*i) holds y * g**i < m**2 <= 2**(2b) in lane i;
- Barrett's estimate floor(x_i * mu / 2**(2b)), mu = 2**(2b) // m, is
  floor(x_i / m) or one less. x_i * mu < 2**(3b+1) fits a lane, and the
  estimate, below m, is cut from the shifted product by a b-bit mask, clear
  of the next lane's low 2b bits. So x_i minus it times m lies in [0, 2m);
- adding 2**b - m sets bit b of a lane exactly when its value is m or more,
  and subtracting that bit times m leaves the canonical residue.
The low 64-bit word of each lane of the little-endian bytes is read out. The
constants are 4 packed ints of L lanes of w bits each (64 kB for L = 1024
and a 32- to 42-bit m) and 3 small ints.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
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


def _lane_table(g: int, m: int, lanes: int) -> tuple[int, ...]:
    """The constants of _lane_powers for the steps g mod m, 2 <= m < 2**64, in
    batches of `lanes`: the packed powers g**i mod m (i < lanes), the packed
    masks 2**b - 1, 2**b - m and 1 (b = bits(m)), mu = 4**b // m, m and lanes."""
    b = m.bit_length()
    size = (3 * b + 64) // 64 * 8  # bytes a lane: w >= 3b + 1 bits

    def spread(v: int) -> int:
        return int.from_bytes(v.to_bytes(size, "little") * lanes, "little")

    powers = accumulate(repeat(g % m, lanes - 1), lambda x, y: x * y % m, initial=1)
    packed = int.from_bytes(b"".join(x.to_bytes(size, "little") for x in powers), "little")
    return packed, spread((1 << b) - 1), spread((1 << b) - m), spread(1), (1 << 2 * b) // m, m, lanes


def _lane_powers(y: int, table: tuple[int, ...]) -> memoryview:
    """[y * g**i mod m for i < lanes] for 0 <= y < m, canonical, from g's
    _lane_table: one packed Barrett reduction and one packed conditional
    subtraction (see the module docstring)."""
    powers, low, offset, ones, mu, m, lanes = table
    b = m.bit_length()
    words = (3 * b + 64) // 64
    x = y * powers
    x -= (x * mu >> 2 * b & low) * m
    x -= ((x + offset) >> b & ones) * m
    return memoryview(x.to_bytes(8 * words * lanes, "little")).cast("Q")[::words]
