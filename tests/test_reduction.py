import random
import re
from functools import cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dlogcrt
from dlogcrt import arith, cli, lift, numtheory, oracle, quotients, reduction
from dlogcrt import (
    CongruenceSystem,
    CyclicContext,
    DlogInstance,
    Factorization,
    LinearCongruence,
    LinearSystem,
    SafePrimeParams,
    carry_beta_pq,
    check_lemma2,
    gen_safe_prime,
    primitive_root,
    solve_small,
    solve_system,
    subgroup_index_mod_q,
    transform,
    verify_instance,
)
from dlogcrt.errors import InvalidInstanceError, InvalidSystemError

from conftest import CRYPTO_GROUPS, KEPT_CACHES, SAFE_QS, corrected_forms, dlog_bruteforce


def make_instance(q: int, n: int) -> DlogInstance | None:
    """Instance over p = 2q + 1 with the smallest primitive root, or None
    when a coprimality hypothesis fails for this draw."""
    params = SafePrimeParams(2 * q + 1, q)
    a0 = primitive_root(params.p, Factorization(((2, 1), (q, 1))))
    if gcd(a0, q) != 1:
        return None
    b0 = pow(a0, n, params.p)
    if gcd(b0, q) != 1:
        return None
    return DlogInstance(params, a0, b0, known_index=n)


def random_instances(qs, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.choice(qs)
        inst = make_instance(q, rng.randrange(0, 2 * q))
        if inst is not None:
            out.append(inst)
    return out


class TestDlogInstance:
    def test_rejects_non_unit_target(self, golden):
        with pytest.raises(InvalidInstanceError):
            DlogInstance(golden, 2, 5)

    def test_rejects_non_primitive_root_base(self, golden):
        # 3 has order 5 mod 11, 10 has order 2; so has 21 (-1 mod 11), which
        # unlike 10 is a unit mod 55 and reaches the order checks
        for bad in (3, 10, 21):
            with pytest.raises(InvalidInstanceError):
                DlogInstance(golden, bad, 4)

    def test_rejects_wrong_known_index(self, golden):
        with pytest.raises(InvalidInstanceError):
            DlogInstance(golden, 2, 4, known_index=3)

    def test_accepts_golden(self, golden):
        inst = DlogInstance(golden, 2, 4, known_index=2)
        assert inst.params.m1 == 55


class TestTransform:
    def test_golden_master(self, golden):
        system = transform(DlogInstance(golden, 2, 4))
        m = system.master
        assert (m.beta_coeff, m.index_coeff, m.constant, m.modulus) == (1, 12, 28, 55)

    def test_golden_parts(self, golden):
        system = transform(DlogInstance(golden, 2, 4))
        p_part, q_part = system.parts
        assert (p_part.beta_coeff, p_part.index_coeff, p_part.constant, p_part.modulus) == (1, 1, 6, 11)
        assert (q_part.beta_coeff, q_part.index_coeff, q_part.constant, q_part.modulus) == (1, 2, 3, 5)

    def test_part_coefficients_drop_target_power(self, golden):
        # B = 1 (mod q) by Fermat, so mod q the coefficients collapse to
        # -q(a0) and k_b - q(b0)
        from dlogcrt import lift_profile

        system = transform(DlogInstance(golden, 2, 4))
        prof_a = lift_profile(golden, 2)
        prof_b = lift_profile(golden, 4)
        q_part = system.parts[1]
        assert q_part.index_coeff == -prof_a.quotient % golden.q
        assert q_part.constant == (prof_b.carry - prof_b.quotient) % golden.q

    def test_trivial_instance_satisfied_by_construction(self, golden):
        inst = DlogInstance(golden, 2, 2, known_index=1)
        system = transform(inst)
        beta = carry_beta_pq(golden, 2, 2, 1).beta
        assert system.satisfied_by((beta, 1))

    def test_soundness_on_random_instances(self):
        for inst in random_instances(SAFE_QS[:6], 40, seed=2):
            system = transform(inst)
            n = inst.known_index
            beta = carry_beta_pq(inst.params, inst.base, inst.target, n).beta
            assert system.satisfied_by((beta, n)), (inst.params.p, inst.base, inst.target, n)


@cache
def crypto_group(pq: tuple[int, int]) -> tuple[SafePrimeParams, int]:
    p, q = pq
    return SafePrimeParams(p, q), primitive_root(p, Factorization(((2, 1), (q, 1))))


@pytest.mark.parametrize("pq", CRYPTO_GROUPS, ids=lambda pq: f"{pq[0].bit_length()}bit")
def test_reduction_at_cryptographic_size(pq):
    """transform and check_lemma2 derive the same congruence, eq19 agrees
    with it, and (beta, n) lies in its multivariable-CRT solution set; no
    discrete log is solved."""
    params, a0 = crypto_group(pq)

    # 15 examples up to 512 bits; 4 at 1024 bits, where one takes about 0.2 s
    @settings(max_examples=15 if params.p.bit_length() <= 512 else 4, deadline=None)
    # unreduced n past pq (2^600 > pq at 256/512 bits); 2p spans the group at 1024
    @given(n=st.integers(0, max(2**600, 2 * params.p)))
    def check(n):
        b0 = pow(a0, n, params.p)
        assume(gcd(b0, params.q) == 1)
        system = transform(DlogInstance(params, a0, b0, known_index=n))
        lemma2 = check_lemma2(params, a0, b0, n)
        m = system.master
        assert (m.beta_coeff, m.index_coeff, m.constant, m.modulus) == (
            1, lemma2.index_coeff, lemma2.constant, params.m1,
        )
        assert lemma2.corrected_ok
        forms = corrected_forms(params, n, lemma2.beta, lemma2.profile_a, lemma2.profile_b)
        assert all(forms.values()), forms
        assert solve_system(system).contains((lemma2.beta, n))

    check()


def test_checked_reduction_shares_one_derivation(monkeypatch, capsys):
    """transform, check_lemma1, check_lemma2 and carry_beta_pq on one fresh
    256-bit instance derive the two lift profiles and the index power once;
    a second target of the group derives only its own profile. The premise
    a0**n mod p of DlogInstance, check_lemma1 and check_lemma2 is one kept
    miss and two hits, once per index. Each reduction builds its own
    SafePrimeParams, and only the first tests q.
    The first builds the group's 2 fixed-base power tables (a0 mod p, s_a
    mod p**2), the second none; an experiment run, whose p has at most 10
    bits (p**2 at most 20), builds none either."""
    p, q = CRYPTO_GROUPS[0]
    a0 = primitive_root(p, Factorization(((2, 1), (q, 1))))
    calls = {"is_prime": 0, "_pow_m2": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module, name in ((numtheory, "is_prime"), (lift, "_pow_m2")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

    def check_reduction(n):
        params = SafePrimeParams(p, q)
        b0 = pow(a0, n, p)
        transform(DlogInstance(params, a0, b0, known_index=n))
        assert lift.check_lemma1(params, a0, b0, n)
        assert check_lemma2(params, a0, b0, n).corrected_ok
        carry_beta_pq(params, a0, b0, n)

    def counts():
        return (
            quotients.lift_profile.cache_info().misses,
            arith._powers.cache_info().misses,
            lift._kept_index_power.cache_info()[:2],  # (hits, misses)
        )

    check_reduction(2**200 + 12345)
    assert (calls, counts()) == ({"is_prime": 1, "_pow_m2": 1}, (2, 2, (2, 1)))
    check_reduction(2**200 + 12346)
    assert (calls, counts()) == ({"is_prime": 1, "_pow_m2": 2}, (3, 2, (4, 2)))
    assert cli.main(["experiment", "--count", "50", "--seed", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 50
    for g, m in ((a0, p), (pow(a0, q - 1, p * p), p * p)):
        arith._powers(g % m, m)
    assert arith._powers.cache_info().misses == 2


class TestSubgroupIndex:
    def test_golden(self, golden):
        assert subgroup_index_mod_q(DlogInstance(golden, 2, 4)) == 2

    def test_trivial(self, golden):
        assert subgroup_index_mod_q(DlogInstance(golden, 2, 2)) == 1

    def test_mod_q_reduction(self, params23):
        inst = DlogInstance(params23, 5, pow(5, 8, 23))
        assert subgroup_index_mod_q(inst) == 8

    def test_matches_known_index_mod_q(self):
        for inst in random_instances(SAFE_QS[:6], 30, seed=3):
            assert subgroup_index_mod_q(inst) == inst.known_index % inst.params.q


class TestCandidates:
    def test_examples(self, golden, params23):
        assert verify_instance(DlogInstance(golden, 2, 4)).candidates == (2, 7)
        assert verify_instance(DlogInstance(golden, 2, 1)).candidates == (0, 5)
        target = pow(5, 10, 23)
        assert verify_instance(DlogInstance(params23, 5, target)).candidates == (10, 21)


class TestSolveSmall:
    def test_golden(self, golden):
        assert solve_small(DlogInstance(golden, 2, 4)) == 2

    def test_trivial(self, golden):
        assert solve_small(DlogInstance(golden, 2, 2)) == 1

    def test_larger(self, params23):
        assert solve_small(DlogInstance(params23, 5, pow(5, 17, 23))) == 17

    def test_target_one_is_index_zero(self, golden):
        assert solve_small(DlogInstance(golden, 2, 1)) == 0

    def test_exactly_one_candidate_verifies(self):
        for inst in random_instances(SAFE_QS[:6], 30, seed=4):
            hits = [
                c
                for c in verify_instance(inst).candidates
                if pow(inst.base, c, inst.params.p) == inst.target % inst.params.p
            ]
            assert len(hits) == 1
            assert hits[0] == inst.known_index % inst.params.group_order

    @pytest.mark.parametrize("bits", range(28, 33))
    def test_round_trip_on_generated_groups(self, bits):
        # many targets per group, so all but the first reuse its kept table
        params = gen_safe_prime(bits, seed=bits)
        p, q = params.p, params.q
        a0 = primitive_root(p, Factorization(((2, 1), (q, 1))))
        rng = random.Random(bits)
        for _ in range(40):
            n = rng.randrange(p - 1)
            b0 = pow(a0, n, p)
            if gcd(b0, q) != 1:
                continue
            found = solve_small(DlogInstance(params, a0, b0))
            assert found == n
            assert pow(a0, found, p) == b0


class TestVerifyInstance:
    def test_unindexed_instance_reports_as_indexed(self, golden):
        # the missing index is the one solve_small returns, and the report
        # is the one for the instance that carries it
        assert verify_instance(DlogInstance(golden, 2, 4)) == verify_instance(
            DlogInstance(golden, 2, 4, known_index=2)
        )
        for inst in random_instances(SAFE_QS[:6], 20, seed=9):
            # known_index is drawn from [0, p - 1), where the index is unique
            unindexed = DlogInstance(inst.params, inst.base, inst.target)
            assert verify_instance(unindexed) == verify_instance(inst)

    def test_golden_report_values(self, golden):
        report = verify_instance(DlogInstance(golden, 2, 4, known_index=2))
        pa, pb = report.lemma2.profile_a, report.lemma2.profile_b
        assert pa.power_residue == 16
        assert pb.power_residue == 36
        assert pa.carry == 0
        assert pb.carry == 4
        assert pa.quotient == 18
        assert pb.quotient == 36
        assert pa.digit == 42
        assert pb.digit == 28
        assert pb.digit_literal == 24
        assert report.lemma2.beta == 4
        master = transform(report.instance).master
        assert (master.index_coeff, master.constant) == (12, 28)
        assert (report.lemma2.index_coeff, report.lemma2.constant) == (12, 28)
        assert report.subgroup_index == 2
        assert report.candidates == (2, 7)
        assert report.recovered_index == 2
        assert report.all_ok
        assert not report.lemma2.literal_lift_identity_ok

    def test_trivial_instance(self, golden):
        report = verify_instance(DlogInstance(golden, 2, 2, known_index=1))
        assert report.all_ok

    def test_fifty_random_instances(self):
        for inst in random_instances(SAFE_QS[:6], 50, seed=5):
            report = verify_instance(inst)
            assert report.all_ok, (inst.params.p, inst.base, inst.target, inst.known_index)

    def test_derives_profiles_and_subgroup_log_once(self, monkeypatch, params23):
        calls = dict.fromkeys(
            ("lift_profile", "dlog_bsgs", "_pow_m2", "check_lemma1", "carry_beta_pq"), 0
        )

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, owner in (
            ("lift_profile", quotients),
            ("dlog_bsgs", oracle),
            ("_pow_m2", quotients),
            ("check_lemma1", lift),
            ("carry_beta_pq", lift),
        ):
            wrapped = counted(name, getattr(owner, name))
            for module in (dlogcrt, quotients, oracle, lift, reduction):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)

        report = verify_instance(DlogInstance(params23, 5, pow(5, 7, 23), known_index=7))
        assert report.all_ok
        # one index power mod (pq)**2 gives lemma 1, beta and the lift flags
        assert calls == {
            "lift_profile": 2,
            "dlog_bsgs": 1,
            "_pow_m2": 1,
            "check_lemma1": 0,
            "carry_beta_pq": 0,
        }


class TestOneDerivation:
    """verify_instance reads the subgroup residues from the lift profiles,
    calls the lemma-2 body directly and keeps its subgroup per group; each
    result is checked against a route that shares none of that."""

    @pytest.mark.parametrize("q", [q for q in SAFE_QS if q < 100])
    def test_every_index_against_independent_routes(self, q):
        params = SafePrimeParams(2 * q + 1, q)
        p = params.p
        a0 = primitive_root(p, Factorization(((2, 1), (q, 1))))
        subgroup = CyclicContext(pow(a0, q - 1, p), p, q)
        for n in range(p - 1):
            b0 = pow(a0, n, p)
            target = b0 if gcd(b0, q) == 1 else b0 + p
            report = verify_instance(DlogInstance(params, a0, target, known_index=n))
            assert report.subgroup_index == n % q
            assert report.subgroup_index == dlog_bruteforce(subgroup, pow(target, q - 1, p))
            assert report.lemma2 == check_lemma2(params, a0, target, n)
            assert report.recovered_ok and report.all_ok
            assert verify_instance(DlogInstance(params, a0, target)) == report

    def test_solve_and_verify_share_one_kept_subgroup(self, params23):
        # base 5 of p = 23: the solver's first target builds the subgroup,
        # every later solve and every verification of the group finds it
        cache = reduction._subgroup
        assert solve_small(DlogInstance(params23, 5, pow(5, 7, 23))) == 7
        assert cache.cache_info()[:2] == (0, 1)  # (hits, misses)
        assert solve_small(DlogInstance(params23, 5, pow(5, 10, 23))) == 10
        for n in (7, 10, 13):
            assert verify_instance(DlogInstance(params23, 5, pow(5, n, 23), known_index=n)).all_ok
        assert verify_instance(DlogInstance(params23, 5, pow(5, 13, 23))).recovered_index == 13
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (5, 1, 1)

    def test_kept_subgroups_stop_at_their_bound(self):
        # every primitive root of three groups as the base, more subgroups
        # than the cache holds, each verified twice: the kept contexts are
        # the fresh ones
        keys = []
        for q in (83, 89, 113):
            params = SafePrimeParams(2 * q + 1, q)
            p = params.p
            for a0 in range(2, p):
                if pow(a0, 2, p) == 1 or pow(a0, q, p) == 1 or gcd(a0, q) != 1:
                    continue
                for _ in range(2):
                    report = verify_instance(DlogInstance(params, a0, a0, known_index=1))
                    assert report.all_ok and report.recovered_index == 1
                keys.append((pow(a0, q - 1, p), p, q))
        info = reduction._subgroup.cache_info()
        assert len(set(keys)) > info.maxsize == numtheory._GROUPS
        assert info.hits > 0 and info.misses > info.maxsize
        assert info.currsize == info.maxsize
        for key in keys:
            assert reduction._subgroup(*key) == CyclicContext(*key)


def test_every_kept_cache_is_bounded():
    """Every lru_cache in src/ is one of conftest.KEPT_CACHES, which
    fresh_caches clears between tests, and each has a finite bound: the
    per-group bound numtheory._GROUPS, except the power tables, the
    sampler's groups and the parser."""
    src = Path(reduction.__file__).parent
    decorated = sum(
        len(re.findall(r"^@(?:functools\.)?(?:lru_cache|cache)\b", path.read_text(), re.M))
        for path in src.glob("*.py")
    )
    assert decorated == len(KEPT_CACHES)
    assert "dlogcrt.reduction._subgroup" in KEPT_CACHES
    bounds = {
        "dlogcrt.arith._powers": arith._POWER_TABLES,
        "dlogcrt.cli._group": cli.GROUP_CACHE_LIMIT,
        "dlogcrt.cli.build_parser": 1,
    }
    for name, cache in KEPT_CACHES.items():
        assert cache.cache_info().maxsize == bounds.get(name, numtheory._GROUPS), name


class TestSplitRecombine:
    def test_part_sets_recombine_to_master_set(self):
        # enumerable moduli only: pq <= 3000
        for q in (5, 11, 23, 29):
            inst = make_instance(q, 2)
            if inst is None:
                continue
            system = transform(inst)
            master_set = solve_system(LinearSystem(2, (system.master,)))
            parts_set = solve_system(system)
            assert master_set.count == parts_set.count == inst.params.m1
            limit = inst.params.m1
            assert master_set.enumerate(limit) == parts_set.enumerate(limit)

    @pytest.mark.parametrize("q", [q for q in SAFE_QS if q * (2 * q + 1) <= 3000])
    def test_master_and_parts_enumerate_the_same_points(self, q):
        pq = q * (2 * q + 1)
        for n in (1, q + 2, 2 * q - 1):
            inst = make_instance(q, n)
            if inst is None:
                continue
            system = transform(inst)
            m = system.master
            master_points = solve_system(LinearSystem(2, (m,))).enumerate(pq)
            assert len(master_points) == pq
            assert master_points == solve_system(system).enumerate(pq)

    def test_parts_sharing_a_factor_are_rejected(self):
        parts = (LinearCongruence((1, 2), 3, 6), LinearCongruence((1, 1), 1, 9))
        with pytest.raises(InvalidSystemError):
            CongruenceSystem(2, parts)
