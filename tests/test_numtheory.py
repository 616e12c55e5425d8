import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dlogcrt import (
    Factorization,
    SafePrimeParams,
    carmichael_lambda,
    euler_phi,
    factorize,
    gen_safe_prime,
    is_prime,
    mod_pow,
    primitive_root,
)
from dlogcrt.errors import DegenerateModulusError, InvalidInputError

from conftest import PRIMES_1000, sieve


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
        for n in range(1, 2000):
            f = factorize(n)
            assert f.value == n
            assert all(is_prime(p) for p in f.primes)


def _brute_unit_group_exponent(n: int) -> int:
    lam = 1
    for a in range(1, n):
        if math.gcd(a, n) != 1:
            continue
        x, k = a % n, 1
        while x != 1:
            x = x * a % n
            k += 1
        lam = math.lcm(lam, k)
    return lam


class TestPhiAndLambda:
    def test_phi_examples(self):
        assert euler_phi(factorize(3025)) == 2200
        assert euler_phi(Factorization(())) == 1
        assert euler_phi(factorize(5)) == 4

    def test_lambda_examples(self):
        assert carmichael_lambda(factorize(4)) == 2
        assert carmichael_lambda(factorize(3025)) == 220
        assert carmichael_lambda(factorize(8)) == 2

    def test_lambda_against_brute_force(self):
        for n in range(2, 1200):
            assert carmichael_lambda(factorize(n)) == _brute_unit_group_exponent(n), n

    def test_phi_against_coprime_count(self):
        for n in range(1, 1200):
            count = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
            assert euler_phi(factorize(n)) == count, n

    @given(st.integers(2, 10**6))
    def test_lambda_divides_phi(self, n):
        f = factorize(n)
        assert euler_phi(f) % carmichael_lambda(f) == 0


class TestSafePrimeParams:
    def test_golden_derived_values(self, golden):
        assert (golden.m1, golden.m2, golden.m3) == (55, 3025, 166375)
        assert golden.exponent == 220
        assert golden.group_order == 10

    def test_rejects_non_safe_pair(self):
        with pytest.raises(InvalidInputError):
            SafePrimeParams(13, 5)

    def test_rejects_composite_q(self):
        with pytest.raises(InvalidInputError):
            SafePrimeParams(19, 9)

    def test_rejects_q_two(self):
        with pytest.raises(InvalidInputError):
            SafePrimeParams(5, 2)


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
            assert mod_pow(x, params.exponent, params.m2) == 1
            checked += 1

    def test_rejects_tiny_bits(self):
        with pytest.raises(InvalidInputError):
            gen_safe_prime(2, seed=0)


class TestPrimitiveRoot:
    def test_examples(self):
        assert primitive_root(11) == 2
        assert primitive_root(7) == 3
        assert primitive_root(23) == 5

    def test_rejects_two(self):
        with pytest.raises(DegenerateModulusError):
            primitive_root(2)

    def test_rejects_bad_factorization(self):
        with pytest.raises(InvalidInputError):
            primitive_root(11, factorize(8))

    def test_order_is_full_by_brute_force(self):
        # walk the powers of the returned root; exactly p - 1 steps to reach 1
        for p in sieve(10_000):
            if p == 2:
                continue
            g = primitive_root(p)
            x, k = g, 1
            while x != 1:
                x = x * g % p
                k += 1
            assert k == p - 1, (p, g)

    def test_smallest_root_returned(self):
        for p in PRIMES_1000[1:40]:
            g = primitive_root(p)
            f = factorize(p - 1)
            for smaller in range(2, g):
                assert any(
                    pow(smaller, (p - 1) // r, p) == 1 for r in f.primes
                ), (p, smaller)
