"""Shared fixtures and independent helpers for the test suite.

Oracle helpers here deliberately avoid the package's own code paths
(sieve instead of Miller-Rabin, naive scans instead of structured
solvers) so tests check implementations against independent routes.
"""

from __future__ import annotations

import pytest

from dlogcrt import SafePrimeParams


def sieve(limit: int) -> list[int]:
    """All primes below limit, by Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


PRIMES_1000 = sieve(1000)

# 5 <= q < 500 with both q and 2q + 1 prime
SAFE_QS = [
    q for q in PRIMES_1000 if 5 <= q < 500 and (2 * q + 1) in set(sieve(1100))
]

# Safe-prime groups (p, q) at 256 and 512 bits, made by gen_safe_prime(bits, seed=1)
CRYPTO_GROUPS = [
    (
        92275404062514211272596961979464218086912708104275429938111662280715000387939,
        46137702031257105636298480989732109043456354052137714969055831140357500193969,
    ),
    (
        int(
            "1172972307699875085632502205412081738636256691790767169803360529289914273606"
            "2893145660389982114513579797823300155651139681263137074287129414256760893188419"
        ),
        int(
            "5864861538499375428162511027060408693181283458953835849016802646449571368031"
            "446572830194991057256789898911650077825569840631568537143564707128380446594209"
        ),
    ),
]

# (p, q) pairs the differential tests run on: the smallest group, every
# SAFE_QS group and the 256/512-bit groups
DIFFERENTIAL_GROUPS = [(7, 3)] + [(2 * q + 1, q) for q in SAFE_QS] + CRYPTO_GROUPS


@pytest.fixture
def golden() -> SafePrimeParams:
    """The worked desk-scale parameter set p = 11, q = 5."""
    return SafePrimeParams(11, 5)


@pytest.fixture
def params23() -> SafePrimeParams:
    return SafePrimeParams(23, 11)
