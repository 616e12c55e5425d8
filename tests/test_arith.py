import math
import sys
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dlogcrt import crt_pair, egcd, mod_inv
from dlogcrt.arith import _pow_fixed, _powers
from dlogcrt.errors import InvalidInputError, InvalidModuliError, NotInvertibleError

from conftest import CRYPTO_GROUPS


class TestEgcd:
    def test_gcd_with_one(self):
        assert egcd(1, 55) == (1, 1, 0)

    def test_coprime_pair(self):
        assert egcd(12, 55) == (1, 23, -5)
        assert 12 * 23 - 5 * 55 == 1

    def test_common_factor(self):
        g, s, t = egcd(10, 55)
        assert g == 5
        assert 10 * s + 55 * t == 5

    def test_rejects_double_zero(self):
        with pytest.raises(InvalidInputError):
            egcd(0, 0)

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            egcd(-3, 5)

    @given(st.integers(0, 2**128), st.integers(0, 2**128))
    def test_bezout_identity(self, a, b):
        assume(a or b)
        g, s, t = egcd(a, b)
        assert g == math.gcd(a, b)
        assert s * a + t * b == g


class TestModInv:
    def test_example(self):
        assert mod_inv(16, 55) == 31
        assert 16 * 31 % 55 == 1

    def test_identity(self):
        assert mod_inv(1, 7) == 1

    def test_not_invertible_carries_gcd(self):
        with pytest.raises(NotInvertibleError) as exc:
            mod_inv(10, 55)
        assert exc.value.gcd == 5

    def test_rejects_tiny_modulus(self):
        with pytest.raises(InvalidInputError):
            mod_inv(3, 1)

    @given(st.integers(1, 2**96), st.integers(2, 2**96))
    def test_inverse_property(self, a, m):
        assume(math.gcd(a, m) == 1)
        x = mod_inv(a, m)
        assert 0 <= x < m
        assert a * x % m == 1


class TestCrtPair:
    def test_golden_split_constant(self):
        assert crt_pair(6, 11, 3, 5) == 28

    def test_zero_case(self):
        assert crt_pair(0, 11, 0, 5) == 0

    def test_small_common_residue(self):
        assert crt_pair(4, 11, 4, 5) == 4

    def test_rejects_shared_factor(self):
        with pytest.raises(InvalidModuliError):
            crt_pair(1, 6, 1, 10)

    @settings(max_examples=100)
    @given(st.integers(2, 2**64), st.integers(2, 2**64), st.data())
    def test_round_trip(self, m1, m2, data):
        assume(math.gcd(m1, m2) == 1)
        x = data.draw(st.integers(0, m1 * m2 - 1))
        assert crt_pair(x % m1, m1, x % m2, m2) == x


# Moduli on both sides of _pow_fixed's 64-bit cutoff (2**64 - 59 and 2**64 + 13
# are prime), then p, q and p**2 of each crypto group, each with the prime p
# whose multiples are the non-units mod p**2 (None where there is none)
KERNEL_MODULI = {
    "2**64-59": (2**64 - 59, None),
    "2**64-1": (2**64 - 1, None),
    "2**64+1": (2**64 + 1, None),
    "2**64+13": (2**64 + 13, None),
} | {
    f"{name}@{p.bit_length()}": (m, p if name == "p**2" else None)
    for p, q in CRYPTO_GROUPS
    for name, m in (("p", p), ("q", q), ("p**2", p * p))
}


class TestPowFixed:
    """_pow_fixed against builtin pow: edge bases and exponents on every
    kernel modulus, random draws, and threads growing one table at once."""

    @pytest.mark.parametrize("m, p", KERNEL_MODULI.values(), ids=KERNEL_MODULI)
    def test_edge_cases(self, m, p):
        bits = m.bit_length()
        bases = [0, 1, 2, m - 1, -1, -7, m, m + 3, 5 * m + 2] + ([p, 3 * p] if p else [])
        # short exponents first, so the later ones grow the kept tables
        exponents = [0, 1, 2, 0xF0F, 2**bits - 1, 2**bits, 2**bits + 1, 2 ** (bits + 7) + 5]
        for e in exponents:
            for g in bases:
                assert _pow_fixed(g, e, m) == pow(g, e, m), (g, e)
        for g in (2, m - 1):  # negative exponents need a unit base
            for e in (-1, -(2**bits - 1)):
                assert _pow_fixed(g, e, m) == pow(g, e, m), (g, e)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.integers(2, 2**130),
            st.sampled_from([m for p, q in CRYPTO_GROUPS[:2] for m in (p, q, p * p)]),
        ),
        st.integers(-(2**140), 2**140),
        st.data(),
    )
    def test_matches_builtin_pow(self, m, g, data):
        e = data.draw(st.integers(0, 2 ** (m.bit_length() + 2)))
        assert _pow_fixed(g, e, m) == pow(g, e, m)

    def test_one_table_per_residue_above_the_cutoff(self):
        p = CRYPTO_GROUPS[0][0]
        for g in (3, 3 + p, 3 - p, 3 + 7 * p):
            assert _pow_fixed(g, p - 2, p) == pow(3, p - 2, p)
            assert _pow_fixed(g, p - 2, 2**64 - 59) == pow(g, p - 2, 2**64 - 59)
        assert _powers.cache_info().misses == 1

    def test_threads_growing_one_table(self):
        """Threads that grow one fresh table at once agree on every row."""
        p, _ = CRYPTO_GROUPS[1]
        e = 2 ** p.bit_length() - 1
        rows = [pow(3, 16**i, p) for i in range(128)]
        start = threading.Barrier(4)
        wrong = []

        def work() -> None:
            start.wait(timeout=60)
            if _pow_fixed(3, e, p) != pow(3, e, p):
                wrong.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                _powers.cache_clear()
                threads = [threading.Thread(target=work) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert _powers(3, p) == rows
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

