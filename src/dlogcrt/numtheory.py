"""Primality, safe-prime parameter generation, primitive roots, and the
Euler phi / Carmichael lambda functions on known factorizations."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import lcm

from .errors import (
    DegenerateModulusError,
    InvalidInputError,
    SearchExhaustedError,
)

# Witness set deterministic for n below this bound (first twelve primes).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 318_665_857_834_031_151_167_461
_MR_EXTRA_ROUNDS = 64


def _mr_composite_witness(n: int, a: int, d: int, r: int) -> bool:
    """True if base a proves n composite (n - 1 = d * 2**r, d odd)."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic below ~3.19e23 via a fixed witness set; above that, 64
    extra rounds with bases derived deterministically from n (error < 4**-64).
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # a composite this small has a prime factor <= 37
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if any(_mr_composite_witness(n, a, d, r) for a in _MR_WITNESSES):
        return False
    if n >= _MR_DETERMINISTIC_BOUND:
        rng = random.Random(n)
        for _ in range(_MR_EXTRA_ROUNDS):
            a = rng.randrange(2, n - 1)
            if _mr_composite_witness(n, a, d, r):
                return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ((prime, exponent), ...) with primes strictly
    increasing. The empty factorization represents 1."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise InvalidInputError("primes must be strictly increasing")
            if e < 1:
                raise InvalidInputError(f"exponent {e} < 1 for prime {p}")
            if not is_prime(p):
                raise InvalidInputError(f"{p} is not prime")
            prev = p

    @property
    def value(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(n: int) -> Factorization:
    """Trial-division factorization (desk scale; fine up to ~10**12)."""
    if n < 1:
        raise InvalidInputError("can only factor positive integers")
    factors = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                factors.append((p, e))
        d += 6
    if n > 1:
        factors.append((n, 1))
    return Factorization(tuple(factors))


def euler_phi(f: Factorization) -> int:
    """Euler's totient from a factorization."""
    phi = 1
    for p, e in f.factors:
        phi *= (p - 1) * p ** (e - 1)
    return phi


def carmichael_lambda(f: Factorization) -> int:
    """Carmichael's lambda: the exponent of the unit group.

    Per prime power: phi(p**e) for odd p; 1, 2, 2**(e-2) for 2, 4, 2**e
    with e >= 3; overall the lcm of the parts.
    """
    lam = 1
    for p, e in f.factors:
        if p == 2:
            part = 1 if e == 1 else 2 if e == 2 else 2 ** (e - 2)
        else:
            part = (p - 1) * p ** (e - 1)
        lam = lcm(lam, part)
    return lam


@dataclass(frozen=True)
class SafePrimeParams:
    """Validated safe-prime parameters p = 2q + 1 with the derived moduli.

    m1 = pq, m2 = (pq)**2, m3 = (pq)**3, and exponent = pq*(q-1), which is
    the exponent of the unit group mod m2 (checked at construction).
    """

    p: int
    q: int
    m1: int = field(init=False)
    m2: int = field(init=False)
    m3: int = field(init=False)
    exponent: int = field(init=False)

    def __post_init__(self):
        if self.q < 3:
            raise InvalidInputError(f"q must be >= 3, got {self.q}")
        if not is_prime(self.q):
            raise InvalidInputError(f"q = {self.q} is not prime")
        if not is_prime(self.p):
            raise InvalidInputError(f"p = {self.p} is not prime")
        if self.p != 2 * self.q + 1:
            raise InvalidInputError(f"p = {self.p} is not 2*{self.q} + 1")
        m1 = self.p * self.q
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", m1 * m1)
        object.__setattr__(self, "m3", m1 * m1 * m1)
        object.__setattr__(self, "exponent", m1 * (self.q - 1))
        # lambda(q**2 * p**2) = lcm(phi(q**2), phi(p**2)) for odd primes q, p
        lam = lcm(self.q * (self.q - 1), self.p * (self.p - 1))
        if lam != self.exponent:
            raise InvalidInputError(
                f"exponent {self.exponent} != lambda(m2) = {lam}"
            )

    @property
    def group_order(self) -> int:
        """Order of the multiplicative group mod p."""
        return self.p - 1


def gen_safe_prime(bits: int, seed: int) -> SafePrimeParams:
    """Deterministically search for a safe prime p = 2q + 1 of the given
    bit length; q is drawn with (bits - 1) bits from a seeded generator."""
    if bits < 3:
        raise InvalidInputError("need bits >= 3 (smallest safe prime is 7)")
    rng = random.Random(seed)
    tries = 40_000 + 400 * bits
    for _ in range(tries):
        if bits == 3:
            q = 3
        else:
            q = (1 << (bits - 2)) | rng.getrandbits(bits - 3) << 1 | 1
        if not is_prime(q):
            continue
        p = 2 * q + 1
        if is_prime(p):
            return SafePrimeParams(p, q)
    raise SearchExhaustedError(
        f"no {bits}-bit safe prime found in {tries} candidates; retry with a new seed"
    )


def primitive_root(p: int, p_minus_1_factors: Factorization | None = None) -> int:
    """Smallest primitive root of the odd prime p.

    The factorization of p - 1 may be supplied; otherwise it is computed.
    """
    if p == 2:
        raise DegenerateModulusError("p = 2 has no primitive root >= 2")
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    if p_minus_1_factors is None:
        p_minus_1_factors = factorize(p - 1)
    if p_minus_1_factors.value != p - 1:
        raise InvalidInputError("factorization does not multiply to p - 1")
    prime_divisors = p_minus_1_factors.primes
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in prime_divisors):
            return g
    raise SearchExhaustedError(f"no primitive root found for {p}")
