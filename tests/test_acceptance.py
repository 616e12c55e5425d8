"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them inline)."""

import itertools
import random
import time
from contextlib import contextmanager
from math import gcd

from dlogcrt import (
    CyclicContext,
    DlogInstance,
    LinearSystem,
    SafePrimeParams,
    dlog_bsgs,
    lift_profile,
    primitive_root,
    recover_index_mod_p2,
    solve_single,
    solve_system,
    teichmuller_digit,
    transform,
    verify_instance,
)
from dlogcrt.cli import sample_instance

from conftest import dlog_bruteforce, factorize, sieve


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL  criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE PASS  criterion {number}: {label} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s >= {budget}s"


_CACHE: dict = {}


def _instances_and_reports():
    """500 seeded instances with q prime in [5, 499], verified once."""
    if "reports" not in _CACHE:
        rng = random.Random(20260809)
        instances = [sample_instance(rng, 5, 499) for _ in range(500)]
        _CACHE["reports"] = [(inst, verify_instance(inst)) for inst in instances]
    return _CACHE["reports"]


def test_criterion_1_golden_instance():
    with criterion(1, "golden desk-scale instance, exact values", budget=1.0):
        params = SafePrimeParams(11, 5)
        prof_a = lift_profile(params, 2)
        prof_b = lift_profile(params, 4)
        assert prof_a.quotient == 18
        assert prof_b.quotient == 36
        assert prof_a.digit == 42
        assert prof_b.digit == 28

        inst = DlogInstance(params, 2, 4, known_index=2)
        system = transform(inst)
        m = system.master
        assert (m.beta_coeff, m.index_coeff, m.constant, m.modulus) == (1, 12, 28, 55)
        parts = [
            (c.beta_coeff, c.index_coeff, c.constant, c.modulus)
            for c in system.parts
        ]
        assert parts == [(1, 1, 6, 11), (1, 2, 3, 5)]

        report = verify_instance(inst)
        assert report.lemma2.beta == 4
        assert report.lemma2.profile_b.carry == 4
        # the discrepancy report must show the carry-free digit 24 != 28
        assert report.lemma2.profile_b.digit_literal == 24
        assert report.lemma2.profile_b.digit == 28
        assert not report.lemma2.literal_lift_identity_ok
        assert report.all_ok


def test_criterion_2_transform_soundness():
    with criterion(
        2, "transform soundness on 500 seeded instances, zero tolerance", budget=60.0
    ):
        reports = _instances_and_reports()
        assert len(reports) == 500
        seen_q = set()
        for inst, report in reports:
            seen_q.add(inst.params.q)
            assert 5 <= inst.params.q <= 499
            assert report.lemma1_ok
            assert report.lemma2.lift_identity_ok
            assert report.lemma2.linear_congruence_ok
            assert report.lemma2.eq19_corrected_ok
            assert report.parts_ok
        assert len(seen_q) >= 10  # the sampler actually spreads over the range


def test_criterion_3_index_recovery_mod_p2():
    with criterion(
        3, "index recovery from a0^n mod p^2 for every prime p < 300", budget=30.0
    ):
        for p in sieve(300):
            if p == 2:
                continue  # no generator with nonzero digit exists mod 2
            f = factorize(p - 1)
            a0 = None
            for g in range(primitive_root(p, f), p):
                if all(pow(g, (p - 1) // r, p) != 1 for r in f.primes):
                    if teichmuller_digit(p, g) % p != 0:
                        a0 = g
                        break
            assert a0 is not None, f"no usable primitive root below {p}"
            pp = p * p
            for n in range(1, p):
                assert recover_index_mod_p2(p, a0, pow(a0, n, pp))[0] == n, (p, a0, n)


def test_criterion_4_end_to_end_solve():
    with criterion(4, "end-to-end solve against the exhaustive oracle"):
        for inst, report in _instances_and_reports():
            params = inst.params
            full_group = CyclicContext(
                inst.base % params.p, params.p, params.group_order
            )
            truth = dlog_bruteforce(full_group, inst.target % params.p)
            assert truth == inst.known_index % params.group_order
            assert report.recovered_index == truth

            # BSGS and brute force agree on the subgroup query itself
            a_res = pow(inst.base, params.q - 1, params.m1)
            b_res = pow(inst.target, params.q - 1, params.m1)
            sub = CyclicContext(a_res, params.m1, params.q)
            assert dlog_bsgs(sub, b_res) == dlog_bruteforce(sub, b_res)


def test_criterion_5_quotient_algebra():
    with criterion(5, "quotient additivity and power rule, 1050 sampled pairs"):
        rng = random.Random(1729)
        checked = 0
        for q in (5, 11, 23, 29, 41):
            params = SafePrimeParams(2 * q + 1, q)
            pairs = 0
            while pairs < 210:
                x = rng.randrange(2, params.m1)
                y = rng.randrange(2, params.m1)
                if gcd(x, params.m1) != 1 or gcd(y, params.m1) != 1:
                    continue
                qx = lift_profile(params, x).quotient
                qy = lift_profile(params, y).quotient
                assert lift_profile(params, x * y).quotient == (qx + qy) % params.m1
                j = pairs % 20 + 1
                assert (
                    lift_profile(params, pow(x, j, params.m3)).quotient
                    == j * qx % params.m1
                )
                pairs += 1
                checked += 1
        assert checked == 1050


def test_criterion_6_mcrt_oracle_equivalence():
    with criterion(6, "solution sets match exhaustive scans; golden system"):
        rng = random.Random(55)
        for _ in range(200):
            m = rng.randrange(2, 51)
            r = rng.randrange(1, 4)
            coeffs = tuple(rng.randrange(m) for _ in range(r))
            w = rng.randrange(m)
            sol = solve_single(coeffs, w, m)
            expected = [
                pt
                for pt in itertools.product(range(m), repeat=r)
                if sum(c * x for c, x in zip(coeffs, pt)) % m == w
            ]
            assert sol.count == len(expected)
            assert sol.enumerate(m**r) == expected

        # the golden system of criterion 1: its parts and its master
        system = transform(DlogInstance(SafePrimeParams(11, 5), 2, 4))
        parts = solve_system(system)
        assert parts.count == 55
        master = solve_system(LinearSystem(2, (system.master,)))
        assert master.enumerate(55) == parts.enumerate(55)
