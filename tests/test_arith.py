import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dlogcrt import crt_pair, egcd, mod_inv
from dlogcrt.errors import InvalidInputError, InvalidModuliError, NotInvertibleError


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
