import random
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dlogcrt import LiftProfile, SafePrimeParams, lift_profile
from dlogcrt.errors import ExactnessError, NotAUnitError

from conftest import CRYPTO_GROUPS, DIFFERENTIAL_GROUPS, SAFE_QS, fermat_quotient

PARAM_SETS = [SafePrimeParams(2 * q + 1, q) for q in SAFE_QS[:5]]
P256 = SafePrimeParams(*CRYPTO_GROUPS[0])


def _random_units(params, rng, count, below=None):
    units = []
    while len(units) < count:
        x = rng.randrange(2, below or params.m1)
        if x % params.p and x % params.q:
            units.append(x)
    return units


def _quotient(params, x):
    return lift_profile(params, x).quotient


class TestFermatQuotient:
    """The test-local reference that teichmuller_digit is checked against."""

    def test_base_two(self):
        assert fermat_quotient(11, 2) == 5

    def test_base_one_vanishes(self):
        assert fermat_quotient(11, 1) == 0

    def test_vanishing_quotient(self):
        # 3**5 = 243 = 2*121 + 1, so 3**10 = 1 mod 121
        assert fermat_quotient(11, 3) == 0

    def test_additive_in_the_base(self):
        rng = random.Random(11)
        for p in (11, 23, 47, 107):
            for _ in range(60):
                x = rng.randrange(1, p)
                y = rng.randrange(1, p)
                lhs = fermat_quotient(p, x * y)
                rhs = (fermat_quotient(p, x) + fermat_quotient(p, y)) % p
                assert lhs == rhs, (p, x, y)


class TestLerchQuotient:
    def test_golden_values(self, golden):
        assert _quotient(golden, 2) == 18
        assert _quotient(golden, 4) == 36
        assert _quotient(golden, 1) == 0

    def test_rejects_non_units(self, golden):
        for x in (5, 11, 55, 110):
            with pytest.raises(NotAUnitError):
                lift_profile(golden, x)

    def test_defining_congruence(self):
        rng = random.Random(14)
        for params in PARAM_SETS:
            for x in _random_units(params, rng, 25):
                qx = _quotient(params, x)
                assert (
                    pow(x, params.exponent, params.m3)
                    == (1 + qx * params.m2) % params.m3
                )

    def test_additivity(self):
        rng = random.Random(15)
        for params in PARAM_SETS:
            for _ in range(40):
                x, y = _random_units(params, rng, 2)
                lhs = _quotient(params, x * y)
                rhs = (_quotient(params, x) + _quotient(params, y)) % params.m1
                assert lhs == rhs, (params.p, x, y)

    def test_power_rule(self):
        # q(x**j) = j*q(x) needs x**j known mod m3; reducing mod m1 would
        # destroy the quotient, so the power is taken mod m3
        rng = random.Random(16)
        for params in PARAM_SETS:
            for x in _random_units(params, rng, 5):
                qx = _quotient(params, x)
                for j in range(1, 21):
                    assert (
                        _quotient(params, pow(x, j, params.m3))
                        == j * qx % params.m1
                    )

    def test_depends_on_more_than_residue_mod_m1(self, golden):
        # two integers congruent mod pq generally have different quotients
        assert _quotient(golden, 2) != _quotient(golden, 2 + golden.m1)

    def test_depends_only_on_residue_mod_m2(self):
        rng = random.Random(19)
        for params in PARAM_SETS + [P256]:
            for x in _random_units(params, rng, 10):
                for t in (1, 2, params.m1, rng.randrange(params.m3)):
                    assert _quotient(params, x) == _quotient(
                        params, x + t * params.m2
                    ), (params.p, x, t)

    def test_corrupted_parameters_raise_exactness_error(self):
        # q = 9 is not prime, so 2**8 = 4 (mod 9) and the quotient is not exact
        params = SafePrimeParams(23, 11)
        object.__setattr__(params, "q", 9)
        with pytest.raises(ExactnessError):
            lift_profile(params, 2)


class TestBasePowerDigits:
    def test_golden_values(self, golden):
        for x, digits in ((2, (16, 0)), (4, (36, 4)), (1, (1, 0))):
            prof = lift_profile(golden, x)
            assert (prof.power_residue, prof.carry) == digits

    def test_carry_reconstructs_the_power(self):
        rng = random.Random(17)
        for params in PARAM_SETS:
            for x in _random_units(params, rng, 20):
                prof = lift_profile(params, x)
                low, carry = prof.power_residue, prof.carry
                assert 0 <= low < params.m1 and 0 <= carry < params.m1
                assert low + carry * params.m1 == pow(x, params.q - 1, params.m2)

    def test_rejects_non_unit(self, golden):
        with pytest.raises(NotAUnitError):
            lift_profile(golden, 33)


class TestLiftProfile:
    def test_golden_base(self, golden):
        prof = lift_profile(golden, 2)
        assert (prof.power_residue, prof.carry) == (16, 0)
        assert prof.quotient == 18
        assert prof.digit == 42
        assert prof.digit_literal == 42

    def test_golden_target_shows_discrepancy(self, golden):
        prof = lift_profile(golden, 4)
        assert (prof.power_residue, prof.carry) == (36, 4)
        assert prof.quotient == 36
        assert prof.digit == 28
        assert prof.digit_literal == 24
        assert prof.digit != prof.digit_literal

    def test_trivial_base(self, golden):
        prof = lift_profile(golden, 1)
        assert prof == lift_profile(golden, 1)
        assert (prof.power_residue, prof.carry, prof.quotient) == (1, 0, 0)
        assert prof.digit == 0 and prof.digit_literal == 0

    def test_digit_decomposition(self):
        # corrected digit = literal digit + carry, mod m1
        rng = random.Random(18)
        for params in PARAM_SETS:
            for x in _random_units(params, rng, 20):
                prof = lift_profile(params, x)
                assert prof.digit == (prof.digit_literal + prof.carry) % params.m1


def _profile_by_definition(params, x):
    """Lift profile from the defining powers mod (pq)**2 and (pq)**3."""
    power = pow(x, params.exponent, params.m3)
    assert (power - 1) % params.m2 == 0
    quotient = (power - 1) // params.m2 % params.m1
    full = pow(x, params.q - 1, params.m2)
    low = full % params.m1
    carry = (full - low) // params.m1
    return LiftProfile(
        power_residue=low,
        carry=carry,
        quotient=quotient,
        digit=(carry - low * quotient) % params.m1,
        digit_literal=-low * quotient % params.m1,
    )


@pytest.mark.parametrize(
    "pq", DIFFERENTIAL_GROUPS, ids=lambda pq: f"{pq[0].bit_length()}bit-q{pq[1] % 10**6}"
)
def test_matches_the_definitions(pq):
    """lift_profile against pow(x, exponent, m3) and pow(x, q - 1, m2), on
    bases up to m3."""
    params = SafePrimeParams(*pq)
    rng = random.Random(params.q)
    count = 3 if params.p.bit_length() > 256 else 12
    for x in [1, 2, params.m1 - 1] + _random_units(params, rng, count, params.m3):
        want = _profile_by_definition(params, x)
        assert lift_profile(params, x) == want, (params.p, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=P256.m3))
def test_matches_the_definitions_at_256_bits(x):
    assume(gcd(x, P256.m1) == 1)
    assert lift_profile(P256, x) == _profile_by_definition(P256, x)
