import random
from math import gcd

import pytest

import dlogcrt
from dlogcrt import lift, oracle, quotients, reduction
from dlogcrt import (
    DlogInstance,
    LinearCongruence,
    LinearEquation,
    LinearSystem,
    SafePrimeParams,
    candidates_mod_group_order,
    carry_beta_pq,
    check_lemma2,
    master_coefficients,
    primitive_root,
    solve_small,
    solve_system,
    subgroup_index_mod_q,
    transform,
    verify_instance,
)
from dlogcrt.errors import InvalidInstanceError, PreconditionError

from conftest import SAFE_QS


def make_instance(q: int, n: int) -> DlogInstance | None:
    """Instance over p = 2q + 1 with the smallest primitive root, or None
    when a coprimality hypothesis fails for this draw."""
    params = SafePrimeParams(2 * q + 1, q)
    a0 = primitive_root(params.p)
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
        # 3 has order 5 mod 11, 10 has order 2
        for bad in (3, 10):
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
        assert system.satisfied_by(beta, 1)

    def test_matches_lemma2_coefficients(self, golden):
        c, d = master_coefficients(golden, 2, 4)
        report = check_lemma2(golden, 2, 4, 2)
        assert (c, d) == (report.index_coeff, report.constant)

    def test_soundness_on_random_instances(self):
        for inst in random_instances(SAFE_QS[:6], 40, seed=2):
            system = transform(inst)
            n = inst.known_index
            beta = carry_beta_pq(inst.params, inst.base, inst.target, n).beta
            assert system.satisfied_by(beta, n), (inst.params.p, inst.base, inst.target, n)


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
        assert candidates_mod_group_order(2, golden) == (2, 7)
        assert candidates_mod_group_order(0, golden) == (0, 5)
        assert candidates_mod_group_order(10, params23) == (10, 21)


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
            n_q = subgroup_index_mod_q(inst)
            hits = [
                c
                for c in candidates_mod_group_order(n_q, inst.params)
                if pow(inst.base, c, inst.params.p) == inst.target % inst.params.p
            ]
            assert len(hits) == 1
            assert hits[0] == inst.known_index % inst.params.group_order


class TestVerifyInstance:
    def test_requires_known_index(self, golden):
        with pytest.raises(PreconditionError):
            verify_instance(DlogInstance(golden, 2, 4))

    def test_golden_report_values(self, golden):
        report = verify_instance(DlogInstance(golden, 2, 4, known_index=2))
        assert report.profile_a.power_residue == 16
        assert report.profile_b.power_residue == 36
        assert report.profile_a.carry == 0
        assert report.profile_b.carry == 4
        assert report.profile_a.quotient == 18
        assert report.profile_b.quotient == 36
        assert report.profile_a.digit == 42
        assert report.profile_b.digit == 28
        assert report.profile_b.digit_literal == 24
        assert report.beta == 4
        assert report.system.master.index_coeff == 12
        assert report.system.master.constant == 28
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
        calls = {"lift_profile": 0, "dlog_bsgs": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, owner in (("lift_profile", quotients), ("dlog_bsgs", oracle)):
            wrapped = counted(name, getattr(owner, name))
            for module in (dlogcrt, quotients, oracle, lift, reduction):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)

        report = verify_instance(DlogInstance(params23, 5, pow(5, 7, 23), known_index=7))
        assert report.all_ok
        assert calls == {"lift_profile": 2, "dlog_bsgs": 1}


class TestSplitRecombine:
    def test_part_sets_recombine_to_master_set(self):
        # enumerable moduli only: pq <= 3000
        for q in (5, 11, 23, 29):
            inst = make_instance(q, 2)
            if inst is None:
                continue
            system = transform(inst)
            m = system.master
            master_set = solve_system(
                LinearSystem(
                    2,
                    (LinearEquation((m.beta_coeff, m.index_coeff), m.constant, m.modulus),),
                )
            )
            parts_set = solve_system(
                LinearSystem(
                    2,
                    tuple(
                        LinearEquation((part.beta_coeff, part.index_coeff), part.constant, part.modulus)
                        for part in system.parts
                    ),
                )
            )
            assert master_set.count == parts_set.count == inst.params.m1
            limit = inst.params.m1
            assert master_set.enumerate(limit) == parts_set.enumerate(limit)
