"""Primality, safe-prime parameter generation and primitive roots.

`is_prime` is deterministic Miller-Rabin below ~3.19e23 and the Baillie-PSW
test above it: a probable-prime test with no known pseudoprime, not a proof.
A q above that bound is therefore a BPSW probable prime, and the Pocklington
proof of p = 2q + 1 (`is_prime_2q_plus_1`) is a proof only if q is prime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd, isqrt, lcm, prod

from .errors import (
    DegenerateModulusError,
    InvalidInputError,
    SearchExhaustedError,
)

# Witness set deterministic for n below this bound (first twelve primes).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 318_665_857_834_031_151_167_461


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


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 2, with Selfridge's
    method A parameters: D the first of 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1, P = 1, Q = (1 - D)/4.

    A perfect square is rejected first: for any n that is not a square some
    D in the sequence has (D/n) = -1, so the search for D ends.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and D % n:  # 1 < gcd(|D|, n) < n
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k, Q**k mod n from k = 1 up the bits of d (P = 1):
    # U_2k = U_k V_k, V_2k = V_k**2 - 2Q**k, U_k+1 = (U_k + V_k)/2,
    # V_k+1 = (D U_k + V_k)/2, halving mod n by adding n to an odd value
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, D * u + v
            u = (u + n if u & 1 else u) // 2 % n
            v = (v + n if v & 1 else v) // 2 % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test: deterministic below ~3.19e23, Baillie-PSW above.

    Trial division by the primes up to 37 (which decides every n < 41**2),
    then, below ~3.19e23, strong Miller-Rabin to those twelve bases, which
    is deterministic there. Above it, the Baillie-PSW test: strong
    Miller-Rabin to base 2 and a strong Lucas test with Selfridge method A
    parameters. No composite passing Baillie-PSW is known, but it is not a
    proof: above the bound a True means "probable prime".
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
    if n < _MR_DETERMINISTIC_BOUND:
        return not any(_mr_composite_witness(n, a, d, r) for a in _MR_WITNESSES)
    return not _mr_composite_witness(n, 2, d, r) and _strong_lucas_prp(n)


def is_prime_2q_plus_1(q: int) -> bool:
    """Whether p = 2q + 1 is prime, for q an odd prime (a BPSW probable
    prime when q is above the deterministic bound of `is_prime`).

    Pocklington's criterion with witness 2: p - 1 = 2q with q prime and
    q > sqrt(p) - 1, so p is prime iff 2**(p-1) = 1 (mod p) and
    gcd(2**2 - 1, p) = 1. This is a proof of p only if q is prime, at the
    cost of one modular exponentiation.
    """
    p = 2 * q + 1
    return p % 3 != 0 and pow(2, p - 1, p) == 1


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


@dataclass(frozen=True)
class SafePrimeParams:
    """Validated safe-prime parameters p = 2q + 1 with the derived moduli.

    m1 = pq, m2 = (pq)**2, m3 = (pq)**3, and exponent = pq*(q-1), which is
    the exponent of the unit group mod m2 (checked at construction). q is
    checked by is_prime (a proof below ~3.19e23, a Baillie-PSW probable-prime
    test above); p = 2q + 1 is then proven by is_prime_2q_plus_1, a proof
    given that q is prime.
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
        safe = self.p == 2 * self.q + 1
        if not (is_prime_2q_plus_1(self.q) if safe else is_prime(self.p)):
            raise InvalidInputError(f"p = {self.p} is not prime")
        if not safe:
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


# Product of the odd primes below 2**10: gen_safe_prime's combined sieve.
# Primorials to 2**8 and 2**12 were no faster, and to 2**14 made 512-bit
# generation 3x slower: there the gcd dominates.
_SIEVE_BITS = 10
_SIEVE_PRIMORIAL = prod(n for n in range(3, 1 << _SIEVE_BITS, 2) if is_prime(n))


def gen_safe_prime(bits: int, seed: int) -> SafePrimeParams:
    """Deterministically search for a safe prime p = 2q + 1 of the given
    bit length; q is drawn with (bits - 1) bits from a seeded generator.

    A combined sieve (Wiener 2003) rejects a draw q >= 2**10 before any
    modular exponentiation when q or 2q + 1 shares a factor with the odd
    primes below 2**10; such a q would fail the tests anyway, so the draws
    and the q returned are those without the sieve.

    The search gives up after 40000 + 400*bits + 2*bits**2 draws, 2546752 at
    1024 bits. By the Hardy-Littlewood estimate a draw succeeds with
    probability about 2.64/(ln q)**2, so the expected draw count is about
    0.18*bits**2 and the share of seeds exhausting the bound, about
    exp(-bound/expected), stays below 2e-6 up to 1024 bits.
    """
    if bits < 3:
        raise InvalidInputError("need bits >= 3 (smallest safe prime is 7)")
    rng = random.Random(seed)
    tries = 40_000 + 400 * bits + 2 * bits * bits
    for _ in range(tries):
        q = (1 << (bits - 2)) | rng.getrandbits(bits - 3) << 1 | 1
        if q >> _SIEVE_BITS and gcd(q * (2 * q + 1), _SIEVE_PRIMORIAL) != 1:
            continue
        if is_prime(q) and is_prime_2q_plus_1(q):
            return SafePrimeParams(2 * q + 1, q)
    raise SearchExhaustedError(
        f"no {bits}-bit safe prime found in {tries} candidates; retry with a new seed"
    )


def primitive_root(p: int, p_minus_1_factors: Factorization) -> int:
    """Smallest primitive root of the odd prime p, given the factorization
    of p - 1."""
    if p == 2:
        raise DegenerateModulusError("p = 2 has no primitive root >= 2")
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    if p_minus_1_factors.value != p - 1:
        raise InvalidInputError("factorization does not multiply to p - 1")
    prime_divisors = p_minus_1_factors.primes
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in prime_divisors):
            return g
    raise SearchExhaustedError(f"no primitive root found for {p}")
