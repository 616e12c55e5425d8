import random
from math import gcd

import pytest

from dlogcrt import (
    SafePrimeParams,
    carry_beta_p2,
    carry_beta_pq,
    check_lemma1,
    check_lemma2,
    primitive_root,
    recover_index_mod_p2,
    teichmuller_digit,
)
from dlogcrt.errors import (
    InconsistentInputsError,
    Lemma1ViolationError,
    NotAUnitError,
    PreconditionError,
    ZeroDigitError,
)

from conftest import DIFFERENTIAL_GROUPS, factorize, fermat_quotient, sieve


class TestTeichmullerDigit:
    def test_examples(self):
        assert teichmuller_digit(11, 2) == 10
        assert teichmuller_digit(11, 8) == 10
        assert teichmuller_digit(11, 1) == 0

    def test_rejects_non_canonical_base(self):
        with pytest.raises(PreconditionError):
            teichmuller_digit(11, 13)

    def test_rejects_multiple_of_p(self):
        with pytest.raises(NotAUnitError):
            teichmuller_digit(11, 0)

    def test_lift_is_frobenius_fixed_point(self):
        for p in sieve(60):
            if p == 2:
                continue
            for x in range(1, p):
                lifted = x + teichmuller_digit(p, x) * p
                assert pow(lifted, p, p * p) == lifted, (p, x)

    def test_digit_is_base_times_fermat_quotient(self):
        for p in (3, 11, 23, 47):
            for x in range(1, p):
                assert teichmuller_digit(p, x) == x * fermat_quotient(p, x) % p


class TestCarryBetaP2:
    def test_no_carry(self):
        assert carry_beta_p2(11, 8, 8) == 0

    def test_carry_seven(self):
        assert carry_beta_p2(11, 4, 81) == 7

    def test_trivial(self):
        assert carry_beta_p2(11, 1, 1) == 0

    def test_power_of_two_carry(self):
        # 2**12 mod 121 = 103 = 4 + 9*11
        assert pow(2, 12, 121) == 103
        assert carry_beta_p2(11, 4, 103) == 9

    def test_rejects_inconsistent_inputs(self):
        with pytest.raises(InconsistentInputsError):
            carry_beta_p2(11, 4, 80)

    def test_rejects_non_canonical(self):
        with pytest.raises(PreconditionError):
            carry_beta_p2(11, 12, 80)


class TestRecoverIndex:
    def test_cube(self):
        assert recover_index_mod_p2(11, 2, pow(2, 3, 121))[0] == 3

    def test_golden_derivation(self):
        # 2**3 = 8 = 8 + 0*11 (mod 121); both Teichmuller digits are 10
        assert recover_index_mod_p2(11, 2, 8) == (3, 8, 0, 10, 10)

    def test_identity_power(self):
        assert recover_index_mod_p2(11, 2, 2)[0] == 1

    def test_rejects_vanishing_digit(self):
        with pytest.raises(ZeroDigitError):
            recover_index_mod_p2(11, 3, 9)

    def test_rejects_non_unit_power(self):
        with pytest.raises(NotAUnitError):
            recover_index_mod_p2(11, 2, 22)

    def test_top_of_range_maps_to_p_minus_1(self):
        # a0**(p-1) reduces to 1 mod p; recovery must land on p - 1, not 0
        assert recover_index_mod_p2(11, 2, pow(2, 10, 121))[0] == 10

    def test_round_trip_small_primes(self):
        for p in sieve(500):
            if p == 2:
                continue
            a0 = _smallest_usable_root(p)
            for n in range(1, p):
                assert recover_index_mod_p2(p, a0, pow(a0, n, p * p))[0] == n, (p, n)


def _smallest_usable_root(p: int) -> int:
    """Smallest primitive root of p whose first lift digit is nonzero."""
    f = factorize(p - 1)
    for g in range(primitive_root(p, f), p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in f.primes):
            if teichmuller_digit(p, g) % p != 0:
                return g
    raise AssertionError(f"no usable root below {p}")


class TestCarryBetaPq:
    def test_golden(self, golden):
        assert carry_beta_pq(golden, 2, 4, 2).beta == 4

    def test_trivial_no_carry(self, golden):
        assert carry_beta_pq(golden, 2, 2, 1).beta == 0

    def test_rejects_wrong_target(self, golden):
        with pytest.raises(Lemma1ViolationError):
            carry_beta_pq(golden, 2, 7, 2)

    def test_rejects_non_unit(self, golden):
        with pytest.raises(NotAUnitError):
            carry_beta_pq(golden, 2, 5, 2)

    def test_carry_reconstructs_power(self, params23):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randrange(0, params23.p - 1)
            b0 = pow(5, n, params23.p)
            if gcd(b0, params23.q) != 1:
                continue
            beta = carry_beta_pq(params23, 5, b0, n).beta
            b_res = pow(b0, params23.q - 1, params23.m1)
            assert b_res + beta * params23.m1 == pow(
                5, n * (params23.q - 1), params23.m2
            )

    def test_beta_depends_only_on_power_class(self, golden):
        # n' = 2 + 2200 shifts n*(q-1) by a multiple of the unit-group
        # exponent mod m2 and keeps 2**n' = 4 (mod 11), so beta is unchanged
        n_alt = 2 + 10 * golden.exponent
        assert pow(2, n_alt * (golden.q - 1), golden.m2) == pow(
            2, 2 * (golden.q - 1), golden.m2
        )
        assert carry_beta_pq(golden, 2, 4, n_alt).beta == 4


class TestCheckLemma1:
    def test_golden(self, golden):
        assert check_lemma1(golden, 2, 4, 2) is True

    def test_trivial(self, golden):
        assert check_lemma1(golden, 2, 2, 1) is True

    def test_random_instances(self, params23):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randrange(0, params23.p - 1)
            b0 = pow(5, n, params23.p)
            if gcd(b0, params23.q) != 1:
                continue
            assert check_lemma1(params23, 5, b0, n) is True

    def test_rejects_broken_premise(self, golden):
        with pytest.raises(PreconditionError):
            check_lemma1(golden, 2, 7, 2)

    def test_rejects_q_divisor(self, golden):
        with pytest.raises(PreconditionError):
            check_lemma1(golden, 2, 15, 2)


class TestCheckLemma2:
    def test_golden_corrected_holds_literal_fails(self, golden):
        report = check_lemma2(golden, 2, 4, 2)
        assert report.lift_identity_ok
        assert report.linear_congruence_ok
        assert report.eq19_corrected_ok
        assert report.corrected_ok
        assert not report.literal_lift_identity_ok
        assert report.profile_b.digit == 28
        assert report.profile_b.digit_literal == 24
        assert (report.index_coeff, report.constant) == (12, 28)
        assert report.beta == 4

    def test_trivial_instance_all_true(self, golden):
        report = check_lemma2(golden, 2, 2, 1)
        assert report.corrected_ok
        # carries vanish here, so the carry-free digits work too
        assert report.profile_a.carry == 0 and report.profile_b.carry == 0
        assert report.literal_lift_identity_ok

    def test_larger_instance(self, params23):
        report = check_lemma2(params23, 5, pow(5, 7, 23), 7)
        assert report.corrected_ok

    def test_propagates_carry_errors(self, golden):
        with pytest.raises(Lemma1ViolationError):
            check_lemma2(golden, 2, 7, 2)


@pytest.mark.parametrize(
    "pq", DIFFERENTIAL_GROUPS, ids=lambda pq: f"{pq[0].bit_length()}bit-q{pq[1] % 10**6}"
)
def test_carry_and_lift_identities_match_the_definitions(pq):
    """carry_beta_pq against pow(a0, n*(q-1), m2), and the lemma-2 lift
    identity flags against the powers taken mod m2, for bases up to m3 and
    targets that are not reduced mod p."""
    params = SafePrimeParams(*pq)
    p, q, m1, m2 = params.p, params.q, params.m1, params.m2
    rng = random.Random(q)
    cases = 0
    while cases < (3 if p.bit_length() > 256 else 10):
        a0 = rng.randrange(2, params.m3)
        n = rng.randrange(0, 4 * p)
        b0 = pow(a0, n, p) + p * rng.randrange(q)
        if gcd(a0, m1) != 1 or gcd(b0, m1) != 1:
            continue
        cases += 1
        full = pow(a0, n * (q - 1), m2)
        b_res = pow(b0, q - 1, m1)
        assert (full - b_res) % m1 == 0
        beta = carry_beta_pq(params, a0, b0, n).beta
        assert beta == (full - b_res) // m1, (p, a0, b0, n)

        report = check_lemma2(params, a0, b0, n)
        pa, pb = report.profile_a, report.profile_b
        assert report.beta == beta
        assert report.lift_identity_ok
        for digit_a, digit_b, flag in (
            (pa.digit, pb.digit, report.lift_identity_ok),
            (pa.digit_literal, pb.digit_literal, report.literal_lift_identity_ok),
        ):
            lhs = pow(pa.power_residue + digit_a * m1, n, m2)
            assert flag == (lhs == (pb.power_residue + digit_b * m1) % m2)
