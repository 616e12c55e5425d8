import random
from functools import cache
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dlogcrt import lift
from dlogcrt import (
    SafePrimeParams,
    carry_beta_pq,
    check_lemma1,
    check_lemma2,
    is_prime,
    lift_profile,
    primitive_root,
    recover_index_mod_p2,
)
from dlogcrt.errors import (
    DlogCrtError,
    InvalidInputError,
    Lemma1ViolationError,
    NotAUnitError,
    PreconditionError,
    ZeroDigitError,
)
from dlogcrt.quotients import _pow_m2

from conftest import (
    CRYPTO_GROUPS,
    DIFFERENTIAL_GROUPS,
    SAFE_QS,
    corrected_forms,
    factorize,
    fermat_quotient,
    sieve,
    skewed_target_digit,
    teichmuller_digit,
)


def _digits(p: int, power: int) -> tuple[int, int]:
    """The Teichmuller digits (a1, b1) recover_index_mod_p2 derives for the
    unit power mod p, against p's smallest usable root."""
    _, _, _, a1, b1 = recover_index_mod_p2(p, _smallest_usable_root(p), power)
    return a1, b1


class TestTeichmullerDigit:
    """The digits a1, b1 that recover_index_mod_p2 returns."""

    def test_examples(self):
        assert _digits(11, 2) == (10, 10)
        assert _digits(11, 8) == (10, 10)
        assert _digits(11, 1) == (10, 0)

    def test_rejects_multiple_of_p(self):
        for a0 in (0, 11):
            with pytest.raises(NotAUnitError, match="^a0 = 0 is not a unit mod 11"):
                recover_index_mod_p2(11, a0, 8)

    def test_lift_is_frobenius_fixed_point(self):
        for p in sieve(60):
            if p == 2:
                continue
            a0 = _smallest_usable_root(p)
            for x in range(1, p):
                a1, b1 = _digits(p, x)
                for base, digit in ((a0, a1), (x, b1)):
                    lifted = base + digit * p
                    assert pow(lifted, p, p * p) == lifted, (p, base)

    def test_digit_is_base_times_fermat_quotient(self):
        for p in (3, 11, 23, 47):
            for x in range(1, p):
                assert _digits(p, x)[1] == x * fermat_quotient(p, x) % p


class TestCarryBetaP2:
    """The carry beta with X mod p**2 = b0 + beta*p that
    recover_index_mod_p2 returns, with b0."""

    def test_no_carry(self):
        assert recover_index_mod_p2(11, 2, 8)[1:3] == (8, 0)

    def test_carry_seven(self):
        assert recover_index_mod_p2(11, 2, 81)[1:3] == (4, 7)

    def test_trivial(self):
        assert recover_index_mod_p2(11, 2, 1)[1:3] == (1, 0)

    def test_power_of_two_carry(self):
        # 2**12 mod 121 = 103 = 4 + 9*11
        assert pow(2, 12, 121) == 103
        assert recover_index_mod_p2(11, 2, 103)[1:3] == (4, 9)


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

    @pytest.mark.parametrize("p", [0, 1, 9, 15, 341, 561])
    def test_rejects_a_p_that_is_not_prime(self, p):
        # checked first: past it, 9 and 15 would fail the digit's exact
        # division, 341 and 561 the generator check, 1 the digit check, and
        # 0 would divide by zero
        with pytest.raises(InvalidInputError, match=f"^{p} is not prime$"):
            recover_index_mod_p2(p, 2, 4)

    def test_top_of_range_maps_to_p_minus_1(self):
        # a0**(p-1) reduces to 1 mod p; recovery must land on p - 1, not 0
        assert recover_index_mod_p2(11, 2, pow(2, 10, 121))[0] == 10

    def test_rejects_exactly_the_non_generators_of_safe_primes(self):
        # order by walking the powers; 5 mod 13 (order 4, not a square) too
        for p in [2 * q + 1 for q in [3] + SAFE_QS[:8]]:
            for a0 in range(1, p):
                order = next(k for k in range(1, p) if pow(a0, k, p) == 1)
                try:
                    recover_index_mod_p2(p, a0, a0)
                except ZeroDigitError:
                    continue
                except PreconditionError:
                    assert order < p - 1, (p, a0)
                else:
                    assert order == p - 1, (p, a0)
        with pytest.raises(PreconditionError, match="^base 5 is not a primitive root mod 13$"):
            recover_index_mod_p2(13, 5, 5)

    def test_every_answer_below_200_matches_brute_force(self):
        # every prime p < 200 (13 is the first whose p - 1 is neither 2q nor
        # 2**k), every a0 < p and a grid of X: an answer n needs a0 of order
        # p - 1 (walking its powers) and some N = n (mod p) below p(p - 1)
        # with a0**N = X (mod p**2); a unit X, a generator and a nonzero
        # digit give an answer, anything else a domain error
        for p in sieve(200):
            pp = p * p
            for a0 in range(p):
                order = next((k for k in range(1, p) if pow(a0, k, p) == 1), None)
                usable = order == p - 1 and teichmuller_digit(p, a0) % p != 0
                for x in (1, 2, 3, p, p + 1, pp - 1):
                    try:
                        n = recover_index_mod_p2(p, a0, x)[0]
                    except DlogCrtError:
                        assert not (usable and x % p), (p, a0, x)
                        continue
                    assert usable, (p, a0, x)
                    assert any(pow(a0, n + p * t, pp) == x % pp for t in range(p - 1)), (p, a0, x)

    def test_unfactored_p_minus_1_cannot_confirm_a_generator(self):
        # p - 1 = 14 * 65537 * 65539: trial division below 2**16 leaves the
        # composite 65537 * 65539; 2 passes the checks by 2 and 7
        p = 14 * 65537 * 65539 + 1
        assert is_prime(p) and all(pow(2, (p - 1) // r, p) != 1 for r in (2, 7))
        with pytest.raises(PreconditionError, match="^cannot confirm that base 2 generates"):
            recover_index_mod_p2(p, 2, 2)
        with pytest.raises(PreconditionError, match="^base 4 is not a primitive root"):
            recover_index_mod_p2(p, 4, 2)

    def test_round_trip_small_primes(self):
        for p in sieve(500):
            if p == 2:
                continue
            a0 = _smallest_usable_root(p)
            for n in range(1, p):
                assert recover_index_mod_p2(p, a0, pow(a0, n, p * p))[0] == n, (p, n)


@cache
def _smallest_usable_root(p: int) -> int:
    """Smallest primitive root of p whose first lift digit is nonzero."""
    f = factorize(p - 1)
    for g in range(primitive_root(p, f), p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in f.primes):
            if teichmuller_digit(p, g) % p != 0:
                return g
    raise AssertionError(f"no usable root below {p}")


def test_recover_index_mod_p2_matches_the_definitions():
    """The whole tuple (n, b0, beta, a1, b1) for random units X mod p**2,
    not only powers of a0, against its definitions taken with plain pow, on
    every odd prime p < 300."""
    rng = random.Random(300)
    for p in sieve(300)[1:]:
        a0 = _smallest_usable_root(p)
        pp = p * p
        for _ in range(20):
            power = rng.randrange(3 * pp)
            if power % p == 0:
                continue
            n, b0, beta, a1, b1 = recover_index_mod_p2(p, a0, power)
            assert b0 == power % p
            assert beta == (power % pp - b0) // p
            assert (a1, b1) == (teichmuller_digit(p, a0), teichmuller_digit(p, b0))
            assert 0 <= n < p
            assert (beta + n * b0 * pow(a0, -1, p) * a1 - b1) % p == 0, (p, power)


@pytest.mark.parametrize(
    "pq", DIFFERENTIAL_GROUPS, ids=lambda pq: f"{pq[0].bit_length()}bit-q{pq[1] % 10**6}"
)
def test_check_lemma1_matches_the_direct_powers(pq):
    """check_lemma1's Fermat-reduced powers mod p and mod q against the
    direct powers mod pq: bases and targets below pq, (pq)**2 and (pq)**3,
    bases divisible by p (targets then 0 mod p unless n = 0), and indices 0,
    multiples of q and p - 1, random ones and, for units, negative ones."""
    params = SafePrimeParams(*pq)
    p, q, m1 = params.p, params.q, params.m1
    rng = random.Random(q)
    for bound in (m1, m1**2, m1**3):
        for n in (0, 1, q, 2 * q, p - 1, rng.randrange(4 * p), -rng.randrange(1, 4 * p)):
            for divisible in (False, True) if n >= 0 else (False,):
                a0 = b0 = 0
                while gcd(a0, q) != 1 or (a0 % p == 0) != divisible:
                    a0 = rng.randrange(1, bound)
                    a0 -= a0 % p if divisible else 0
                while gcd(b0, q) != 1:
                    b0 = pow(a0, n, p) + p * rng.randrange(bound // p)
                direct = pow(a0, n * (q - 1), m1) == pow(b0, q - 1, m1)
                assert check_lemma1(params, a0, b0, n) == direct, (a0, b0, n)


@pytest.mark.parametrize("pq", CRYPTO_GROUPS, ids=lambda pq: f"{pq[0].bit_length()}bit")
def test_index_power_matches_the_direct_power(pq):
    """beta and _pow_m2, whose q**2 half is the binomial closed form, against
    pow(a0, n*(q-1), (pq)**2) at 256, 512 and 1024 bits."""
    params = SafePrimeParams(*pq)
    p, q, m1, m2 = params.p, params.q, params.m1, params.m2

    @settings(max_examples=5, deadline=None)
    @given(a0=st.integers(2, m2 - 1), n=st.integers(0, 4 * p), k=st.integers(0, q - 1))
    def check(a0, n, k):
        b0 = pow(a0, n, p) + k * p
        assume(gcd(a0, m1) == 1 and gcd(b0, m1) == 1)
        full = pow(a0, n * (q - 1), m2)
        assert _pow_m2(params, pow(a0, q - 1, m2), n) == full
        assert check_lemma2(params, a0, b0, n).beta == (full - pow(b0, q - 1, m1)) // m1

    check()


def test_pow_m2_rejects_a_base_not_1_mod_q(golden):
    assert _pow_m2(golden, 11, 3) == pow(11, 3, golden.m2)
    for x in (0, 2, 10):
        with pytest.raises(PreconditionError, match=f"^x = {x} is not 1 mod 5"):
            _pow_m2(golden, x, 3)


class TestCarryBetaPq:
    def test_golden(self, golden):
        assert carry_beta_pq(golden, 2, 4, 2).beta == 4

    def test_trivial_no_carry(self, golden):
        assert carry_beta_pq(golden, 2, 2, 1).beta == 0

    def test_rejects_wrong_target(self, golden):
        with pytest.raises(Lemma1ViolationError, match=r"^a0\*\*n = 4 != b0 = 7 \(mod 11\)$"):
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
        assert report.corrected_ok
        forms = corrected_forms(golden, 2, report.beta, report.profile_a, report.profile_b)
        assert all(forms.values()), forms
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
        with pytest.raises(Lemma1ViolationError, match=r"^a0\*\*n = 4 != b0 = 7 \(mod 11\)$"):
            check_lemma2(golden, 2, 7, 2)

    def test_off_by_one_target_digit_fails_the_corrected_flag(self, golden, monkeypatch):
        # b0's corrected digit one above its true value breaks the corrected
        # congruence, and leaves the literal digits and their flag alone
        true = check_lemma2(golden, 2, 4, 2)
        check_lemma2.cache_clear()
        monkeypatch.setattr(lift, "lift_profile", skewed_target_digit(lift_profile, 4))
        report = check_lemma2(golden, 2, 4, 2)
        assert report.profile_b.digit == true.profile_b.digit + 1
        assert report.corrected_ok is False
        # the full power confirms that the skewed digit does not lift
        forms = corrected_forms(golden, 2, report.beta, report.profile_a, report.profile_b)
        assert forms["lift"] is False
        assert report.literal_lift_identity_ok == true.literal_lift_identity_ok


class TestKeptDerivations:
    """lift_profile and check_lemma2 keep their results per process; a kept
    result must be the one a fresh derivation gives."""

    GROUPS = [SafePrimeParams(2 * q + 1, q) for q in SAFE_QS[:3]]

    def test_kept_results_equal_fresh_ones_under_eviction(self):
        # twice the bound of each cache, groups interleaved, then read back in
        # reverse: the latest entries hit, the first ones were evicted
        rng = random.Random(12)
        profiles, reports = [], []
        while len(reports) < 2 * check_lemma2.cache_info().maxsize:
            for params in self.GROUPS:
                p, q, m1 = params.p, params.q, params.m1
                a0, n = rng.randrange(2, params.m2), rng.randrange(4 * p)
                b0 = pow(a0, n, p) + p * rng.randrange(q)
                if gcd(a0, m1) == 1 and gcd(b0, m1) == 1:
                    profiles += [(params, a0), (params, b0)]
                    reports.append((params, a0, b0, n))
        for fn, keys in ((lift_profile, profiles), (check_lemma2, reports)):
            for key in keys + keys[::-1]:
                assert fn(*key) == fn.__wrapped__(*key), (fn.__name__, key)
            info = fn.cache_info()
            assert info.hits > 0 and info.misses > info.maxsize
            assert info.currsize == info.maxsize

    def test_profiles_are_keyed_on_the_exact_base(self, golden):
        # q(x) depends on x mod (pq)**2, so x and x + pq differ in profile
        x, y = 2, 2 + golden.m1
        assert lift_profile(golden, x) != lift_profile(golden, y)
        for base in (x, y):
            assert lift_profile(golden, base) == lift_profile.__wrapped__(golden, base)

    def test_errors_are_not_kept(self, golden):
        assert check_lemma2(golden, 2, 4, 2).beta == 4
        for _ in range(2):
            with pytest.raises(Lemma1ViolationError):
                check_lemma2(golden, 2, 7, 2)
            with pytest.raises(NotAUnitError, match="^a0 = 5 is not a unit mod 55"):
                carry_beta_pq(golden, 5, 4, 2)
            with pytest.raises(NotAUnitError, match="^b0 = 5 is not a unit mod 55"):
                carry_beta_pq(golden, 2, 5, 2)
            with pytest.raises(NotAUnitError, match="^base = 5 is not a unit mod 55"):
                lift_profile(golden, 5)
        assert check_lemma2.cache_info().currsize == 1


@pytest.mark.parametrize(
    "pq",
    DIFFERENTIAL_GROUPS + CRYPTO_GROUPS[2:],
    ids=lambda pq: f"{pq[0].bit_length()}bit-q{pq[1] % 10**6}",
)
def test_carry_and_lift_identities_match_the_definitions(pq):
    """carry_beta_pq against pow(a0, n*(q-1), m2), lemma 1 against the
    powers mod m1, and the lemma-2 lift identity flags against the powers
    taken mod m2, for bases up to m3 and targets that are not reduced mod p.
    Besides random indices, every group gets the indices where n mod pq
    vanishes or wraps while the exponent n*(q-1) does not. At 1024 bits one
    random case with a base below m2 keeps the direct powers fast."""
    params = SafePrimeParams(*pq)
    p, q, m1, m2 = params.p, params.q, params.m1, params.m2
    rng = random.Random(q)
    if p.bit_length() > 512:
        base_bound, indices = m2, [None]
    else:
        base_bound = params.m3
        indices = [None] * (3 if p.bit_length() > 256 else 10)
        indices += [0, 1, m1 - 1, m1, m1 + 1, 2 * m1]
    for fixed in indices:
        while True:
            a0 = rng.randrange(2, base_bound)
            n = rng.randrange(0, 4 * p) if fixed is None else fixed
            b0 = pow(a0, n, p) + p * rng.randrange(q)
            if gcd(a0, m1) == 1 and gcd(b0, m1) == 1:
                break
        full = pow(a0, n * (q - 1), m2)
        b_res = pow(b0, q - 1, m1)
        assert (full - b_res) % m1 == 0
        lemma1 = pow(a0, n * (q - 1), m1) == b_res
        assert check_lemma1(params, a0, b0, n) == lemma1

        hits = check_lemma2.cache_info().hits
        # the second pass reads the kept report: carry_beta_pq and
        # check_lemma2 must give the same beta and flags from the cache
        for _ in range(2):
            beta = carry_beta_pq(params, a0, b0, n).beta
            assert beta == (full - b_res) // m1, (p, a0, b0, n)
            report = check_lemma2(params, a0, b0, n)
            assert lemma1  # a report means lemma 1 holds
            pa, pb = report.profile_a, report.profile_b
            assert report.beta == beta
            assert report.corrected_ok
            for digit_a, digit_b, flag in (
                (pa.digit, pb.digit, report.corrected_ok),
                (pa.digit_literal, pb.digit_literal, report.literal_lift_identity_ok),
            ):
                lhs = pow(pa.power_residue + digit_a * m1, n, m2)
                assert flag == (lhs == (pb.power_residue + digit_b * m1) % m2)
        assert check_lemma2.cache_info().hits == hits + 3
