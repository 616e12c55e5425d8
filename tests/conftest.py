"""Shared fixtures and independent helpers for the test suite.

Oracle helpers here deliberately avoid the package's own code paths
(sieve instead of Miller-Rabin, naive scans instead of structured
solvers) so tests check implementations against independent routes.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import pytest

import dlogcrt
from dlogcrt import CyclicContext, Factorization, SafePrimeParams


def sieve(limit: int) -> list[int]:
    """All primes below limit, by Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1 by trial division."""
    factors = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return Factorization(tuple(factors))


def dlog_bruteforce(ctx: CyclicContext, h: int) -> int | None:
    """Smallest n >= 0 with g**n = h (mod m), or None, by walking the powers."""
    h %= ctx.modulus
    x = 1
    for n in range(ctx.order):
        if x == h:
            return n
        x = x * ctx.generator % ctx.modulus
    return None


def teichmuller_digit(p: int, x: int) -> int:
    """First lift digit x1 of a unit x mod p: the Teichmuller lift x + x1*p
    is the fixed point x**p mod p**2 of the Frobenius map above x."""
    x %= p
    return (pow(x, p, p * p) - x) // p


def fermat_quotient(p: int, x: int) -> int:
    """Classical Fermat quotient ((x**(p-1) mod p**2) - 1)/p, canonical mod p."""
    return (pow(x, p - 1, p * p) - 1) // p % p


def corrected_forms(params: SafePrimeParams, n: int, beta: int, prof_a, prof_b) -> dict:
    """Each written form of the corrected lemma-2 congruence, evaluated from
    the profile values with plain ints: the lift identity by a full power mod
    (pq)**2, the master congruence beta + c*n = d (mod pq) with c = -B*q(a0)
    and d = k_b - B*q(b0), eq19 with pow(B, -1, pq), and the master
    congruence mod p and mod q."""
    p, q, m1, m2 = params.p, params.q, params.m1, params.m2
    a_res, b_res = prof_a.power_residue, prof_b.power_residue
    c = -b_res * prof_a.quotient
    d = prof_b.carry - b_res * prof_b.quotient
    eq19_rhs = prof_b.quotient + (beta - prof_b.carry) * pow(b_res, -1, m1)
    return {
        "lift": pow(a_res + prof_a.digit * m1, n, m2) == (b_res + prof_b.digit * m1) % m2,
        "master": (beta + c * n - d) % m1 == 0,
        "eq19": (n * prof_a.quotient - eq19_rhs) % m1 == 0,
        "mod p": (beta + c * n - d) % p == 0,
        "mod q": (beta + c * n - d) % q == 0,
    }


def skewed_target_digit(profile, target: int):
    """A stand-in for lift_profile that gives target's profile with its
    corrected digit one too high (mod pq), and every other profile as is."""

    def skewed(params: SafePrimeParams, x: int):
        prof = profile(params, x)
        if x != target:
            return prof
        return dataclasses.replace(prof, digit=(prof.digit + 1) % params.m1)

    return skewed


PRIMES_1000 = sieve(1000)

# 5 <= q < 500 with both q and 2q + 1 prime
SAFE_QS = [
    q for q in PRIMES_1000 if 5 <= q < 500 and (2 * q + 1) in set(sieve(1100))
]

# Safe-prime groups (p, q) at 256, 512 and 1024 bits, made by
# gen_safe_prime(bits, seed=1) (`dlogcrt gen --bits 1024 --seed 1` for the last)
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
    (
        int(
            "165763021392689306625872068438214684563075854293708422740443204551254198741338"
            "212266859814100629438720836298351427618494222778663342536435437952433746603821"
            "638933599426525967186796502567307072528699044046307556132783469831531228111458"
            "334062485247370094439377585639980477451033514092756752543123009367059870647"
        ),
        int(
            "828815106963446533129360342191073422815379271468542113702216022756270993706691"
            "061334299070503147193604181491757138092471113893316712682177189762168733019108"
            "194667997132629835933982512836535362643495220231537780663917349157656140557291"
            "67031242623685047219688792819990238725516757046378376271561504683529935323"
        ),
    ),
]

# (p, q) pairs the differential tests run on: the smallest group, every
# SAFE_QS group and the 256/512-bit groups (their powers mod m3 would take
# seconds per base at 1024 bits)
DIFFERENTIAL_GROUPS = [(7, 3)] + [(2 * q + 1, q) for q in SAFE_QS] + CRYPTO_GROUPS[:2]


def _kept_caches() -> dict[str, object]:
    """Every functools.lru_cache defined in a dlogcrt module, by qualified name."""
    caches = {}
    for info in pkgutil.iter_modules(dlogcrt.__path__):
        module = importlib.import_module(f"dlogcrt.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__.startswith("dlogcrt."):
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


KEPT_CACHES = _kept_caches()


@pytest.fixture(autouse=True)
def fresh_caches():
    """Empty every per-process cache of the package before each test (every
    lru_cache, the index-calculus factor-base logs and the baby-step tables
    among them), so that no test's call counts, relation phases or first
    query depend on the tests run before it."""
    for cache in KEPT_CACHES.values():
        cache.cache_clear()


@pytest.fixture
def golden() -> SafePrimeParams:
    """The worked desk-scale parameter set p = 11, q = 5."""
    return SafePrimeParams(11, 5)


@pytest.fixture
def params23() -> SafePrimeParams:
    return SafePrimeParams(23, 11)
