import math
import random
import re

import pytest

from dlogcrt import (
    Factorization,
    SafePrimeParams,
    gen_safe_prime,
    is_prime,
    primitive_root,
)
from dlogcrt.errors import DegenerateModulusError, InvalidInputError
from dlogcrt.lift import check_lemma2
from dlogcrt.numtheory import (
    _MR_DETERMINISTIC_BOUND,
    _mr_composite_witness,
    _strong_lucas_prp,
    is_prime_2q_plus_1,
)
from dlogcrt.quotients import lift_profile
from sympy import isprime, nextprime
from sympy.ntheory.primetest import is_strong_lucas_prp

from conftest import KEPT_CACHES, PRIMES_1000, factorize, sieve

# The strong Lucas pseudoprimes below 60000 (Selfridge method A parameters)
STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
)


def _passes_mr_base_2(n: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    return not _mr_composite_witness(n, 2, d, r)


def _chernick_carmichael(k: int) -> int:
    """(6k + 1)(12k + 1)(18k + 1), a Carmichael number when all three
    factors are prime (checked against sympy and Korselt's criterion)."""
    factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
    assert all(isprime(f) for f in factors)
    n = math.prod(factors)
    assert all((n - 1) % (f - 1) == 0 for f in factors)
    return n


class TestIsPrime:
    def test_matches_sieve_exhaustively(self):
        primes = set(sieve(100_000))
        for n in range(100_000):
            assert is_prime(n) == (n in primes), n

    def test_worked_example_prime(self):
        assert is_prime(11)

    def test_unit_is_not_prime(self):
        assert not is_prime(1)

    def test_square_of_m1(self):
        assert not is_prime(3025)

    def test_carmichael_number(self):
        assert not is_prime(561)

    def test_large_mersenne_below_witness_bound(self):
        # 2**67 - 1 = 193707721 * 761838257287
        assert not is_prime(2**67 - 1)
        assert is_prime(2**61 - 1)

    def test_above_deterministic_bound(self):
        # 2**101 - 1 = 7432339208719 * 341117531003194129
        assert not is_prime(2**101 - 1)
        assert is_prime(2**107 - 1)

    def test_lucas_step_finds_exactly_the_known_pseudoprimes(self):
        primes = set(sieve(60_000))
        passing = [n for n in range(3, 60_000, 2) if _strong_lucas_prp(n)]
        assert [n for n in passing if n not in primes] == list(STRONG_LUCAS_PSEUDOPRIMES)
        assert not any(is_prime(n) for n in STRONG_LUCAS_PSEUDOPRIMES)

    def test_lucas_step_matches_sympy(self):
        # the known strong Lucas pseudoprimes, squares, and random odd n
        rng = random.Random(6)
        cases = list(STRONG_LUCAS_PSEUDOPRIMES) + list(range(3, 3000, 2))
        cases += [p * p for p in PRIMES_1000[1:]] + [(2**89 - 1) ** 2]
        cases += [rng.getrandbits(rng.randrange(8, 601)) | 1 for _ in range(400)]
        for n in cases:
            assert _strong_lucas_prp(n) == is_strong_lucas_prp(n), n

    def test_matches_sympy_on_random_odd(self):
        rng = random.Random(7)
        for _ in range(600):
            n = rng.getrandbits(rng.randrange(64, 601)) | 1
            assert is_prime(n) == isprime(n), n

    def test_matches_sympy_on_primes_and_their_products(self):
        rng = random.Random(8)
        for _ in range(40):
            a = nextprime(rng.getrandbits(rng.randrange(32, 301)))
            b = nextprime(rng.getrandbits(rng.randrange(32, 301)))
            assert is_prime(a) and is_prime(b)
            assert not is_prime(a * b) and not isprime(a * b)

    def test_carmichael_numbers(self):
        # 1729 up to a 310-bit number, four of them above the bound
        for k in [1, 6, 35, 45, 51, 55, 56, 100, 195] + [
            6_300_850, 10**12 + 1_121, 10**20 + 8_960, 10**30 + 43_391,
        ]:
            assert not is_prime(_chernick_carmichael(k)), k

    def test_base_2_pseudoprimes_above_the_bound(self):
        # (4**r + 1)/5 is a strong base-2 pseudoprime for prime r >= 7:
        # above the bound only the Lucas step can reject it
        for r in (r for r in PRIMES_1000 if 53 <= r <= 101):
            n = (4**r + 1) // 5
            assert n >= _MR_DETERMINISTIC_BOUND and _passes_mr_base_2(n), r
            assert not is_prime(n), r


class TestFactorization:
    def test_rejects_composite_entry(self):
        with pytest.raises(InvalidInputError):
            Factorization(((4, 1),))

    def test_rejects_descending_primes(self):
        with pytest.raises(InvalidInputError):
            Factorization(((5, 1), (3, 1)))

    def test_rejects_zero_exponent(self):
        with pytest.raises(InvalidInputError):
            Factorization(((3, 0),))

    def test_empty_is_one(self):
        assert Factorization(()).value == 1

    def test_factorize_round_trip(self):
        # the test-local trial division the primitive-root scans rely on
        primes = set(sieve(2000))
        for n in range(1, 2000):
            f = factorize(n)
            assert f.value == n
            assert all(p in primes for p in f.primes)


class TestSafePrimeParams:
    def test_golden_derived_values(self, golden):
        assert (golden.m1, golden.m2, golden.m3) == (55, 3025, 166375)
        assert golden.exponent == 220
        assert golden.group_order == 10

    def test_equal_and_hashed_on_p_and_q_alone(self):
        # m1, m2, m3 and exponent are functions of (p, q): params built apart
        # are one cache key, and the hash reads (p, q) only
        first, second = SafePrimeParams(983, 491), SafePrimeParams(983, 491)
        assert first == second and hash(first) == hash(second) == hash((983, 491))
        assert first != SafePrimeParams(11, 5)
        for params in (first, second):
            lift_profile(params, 5)
            check_lemma2(params, 5, 77, 1337)
        assert (lift_profile.cache_info().hits, lift_profile.cache_info().misses) == (2, 2)
        assert (check_lemma2.cache_info().hits, check_lemma2.cache_info().misses) == (1, 1)

    def test_rejects_non_safe_pair(self):
        with pytest.raises(InvalidInputError):
            SafePrimeParams(13, 5)

    def test_rejects_composite_q(self):
        with pytest.raises(InvalidInputError):
            SafePrimeParams(19, 9)

    def test_rejects_q_two(self):
        with pytest.raises(InvalidInputError):
            SafePrimeParams(5, 2)

    def test_pocklington_rule_matches_sieve(self):
        # for every prime q < 10**4: accepted iff 2q + 1 is prime
        primes = set(sieve(2 * 10**4 + 2))
        for q in sieve(10**4)[1:]:
            p = 2 * q + 1
            assert is_prime_2q_plus_1(q) == (p in primes), q
            if p in primes:
                assert SafePrimeParams(p, q).m1 == p * q
            else:
                with pytest.raises(InvalidInputError, match=f"^p = {p} is not prime$"):
                    SafePrimeParams(p, q)

    @pytest.mark.parametrize(
        "p, q, message",
        [
            (35, 17, "p = 35 is not prime"),  # 35 % 3 != 0, caught by 2**34 mod 35
            (15, 7, "p = 15 is not prime"),  # caught by 15 % 3 == 0
            (15, 5, "p = 15 is not prime"),  # not 2q + 1: checked by is_prime
            (13, 5, "p = 13 is not 2*5 + 1"),
            (19, 9, "q = 9 is not prime"),
        ],
    )
    def test_rejection_messages(self, p, q, message):
        # a valid group is kept per process; a rejection is not, so it repeats
        for _ in range(2):
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
                SafePrimeParams(p, q)


def test_every_kept_cache_is_cleared_between_tests():
    """conftest's autouse fixture clears the caches its scan finds; the scan
    must find every cache the package keeps today."""
    assert {
        "dlogcrt.arith._powers",
        "dlogcrt.numtheory._validate_group",
        "dlogcrt.quotients.lift_profile",
        "dlogcrt.lift.check_lemma2",
        "dlogcrt.cli._group",
    } <= set(KEPT_CACHES)
    assert all(cache.cache_info().currsize == 0 for cache in KEPT_CACHES.values())


class TestGenSafePrime:
    def test_three_bits(self):
        params = gen_safe_prime(3, seed=0)
        assert (params.p, params.q) == (7, 3)

    def test_four_bits_unique_answer(self):
        for seed in range(5):
            params = gen_safe_prime(4, seed)
            assert (params.p, params.q) == (11, 5)

    def test_five_bits_unique_answer(self):
        params = gen_safe_prime(5, seed=123)
        assert (params.p, params.q) == (23, 11)

    def test_deterministic_in_seed(self):
        a = gen_safe_prime(24, seed=99)
        b = gen_safe_prime(24, seed=99)
        assert (a.p, a.q) == (b.p, b.q)

    def test_requested_bit_length(self):
        for bits, seed in ((12, 0), (20, 1), (32, 2)):
            params = gen_safe_prime(bits, seed)
            assert params.p.bit_length() == bits
            assert is_prime(params.p) and is_prime(params.q)
            assert params.p == 2 * params.q + 1

    def test_unit_group_exponent_annihilates(self):
        # every unit mod m2 is killed by the exponent field
        import random

        params = gen_safe_prime(14, seed=7)
        rng = random.Random(14)
        checked = 0
        while checked < 120:
            x = rng.randrange(2, params.m2)
            if math.gcd(x, params.m2) != 1:
                continue
            assert pow(x, params.exponent, params.m2) == 1
            checked += 1

    def test_returns_the_first_safe_draw(self):
        # the sieve skips no draw that the primality tests would accept:
        # the result is the first drawn q with q and 2q + 1 prime per sympy
        for bits, seed in [(b, s) for b in range(3, 41) for s in range(3)] + [
            (96, 0),
            (256, 1),
        ]:
            rng = random.Random(seed)
            while True:
                q = (1 << (bits - 2)) | rng.getrandbits(bits - 3) << 1 | 1
                if isprime(q) and isprime(2 * q + 1):
                    break
            assert gen_safe_prime(bits, seed).q == q, (bits, seed)

    def test_rejects_tiny_bits(self):
        with pytest.raises(InvalidInputError):
            gen_safe_prime(2, seed=0)


class TestPrimitiveRoot:
    def test_examples(self):
        assert primitive_root(11, factorize(10)) == 2
        assert primitive_root(7, factorize(6)) == 3
        assert primitive_root(23, factorize(22)) == 5

    def test_rejects_two(self):
        with pytest.raises(DegenerateModulusError):
            primitive_root(2, factorize(1))

    def test_rejects_bad_factorization(self):
        with pytest.raises(InvalidInputError):
            primitive_root(11, factorize(8))

    def test_order_is_full_by_brute_force(self):
        # walk the powers of the returned root; exactly p - 1 steps to reach 1
        for p in sieve(10_000):
            if p == 2:
                continue
            g = primitive_root(p, factorize(p - 1))
            x, k = g, 1
            while x != 1:
                x = x * g % p
                k += 1
            assert k == p - 1, (p, g)

    def test_smallest_root_returned(self):
        for p in PRIMES_1000[1:40]:
            f = factorize(p - 1)
            g = primitive_root(p, f)
            for smaller in range(2, g):
                assert any(
                    pow(smaller, (p - 1) // r, p) == 1 for r in f.primes
                ), (p, smaller)
