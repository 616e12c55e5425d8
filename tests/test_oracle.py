import random
import sys
import threading
import time
from collections import OrderedDict
from math import gcd

import pytest
from sympy.ntheory import discrete_log

from dlogcrt import (
    CyclicContext,
    DlogInstance,
    Factorization,
    SafePrimeParams,
    dlog_bsgs,
    is_prime,
    oracle,
    primitive_root,
    solve_small,
)
from dlogcrt.errors import InvalidInputError, OrderTooLargeError, PreconditionError

from conftest import SAFE_QS, dlog_bruteforce, factorize, sieve


@pytest.fixture
def tables(monkeypatch):
    """A fresh, empty table cache for one test."""
    fresh = oracle._Tables()
    monkeypatch.setattr(oracle, "_tables", fresh)
    return fresh


def subgroup(q: int) -> tuple[int, int, int]:
    """(p, A mod p, A mod pq) for p = 2q + 1 and A = a0**(q-1), a0 the
    smallest primitive root: A generates the order-q subgroup mod p and
    mod pq."""
    p = 2 * q + 1
    a0 = primitive_root(p, Factorization(((2, 1), (q, 1))))
    return p, pow(a0, q - 1, p), pow(a0, q - 1, p * q)


class YieldingDict(OrderedDict):
    """An OrderedDict that lets other threads run inside each eviction."""

    def popitem(self, last=True):
        time.sleep(0)
        return super().popitem(last)


def held_entries(tables) -> int:
    return sum(len(baby) for _, baby, _ in tables.by_group.values())


class TestCyclicContext:
    def test_rejects_wrong_order(self):
        with pytest.raises(InvalidInputError):
            CyclicContext(generator=2, modulus=11, order=7)

    def test_rejects_non_unit_generator(self):
        with pytest.raises(InvalidInputError):
            CyclicContext(generator=22, modulus=11, order=1)


class TestBruteforce:
    """The test-local reference that BSGS is checked against."""

    def test_examples(self):
        ctx = CyclicContext(2, 11, 10)
        assert dlog_bruteforce(ctx, 4) == 2
        assert dlog_bruteforce(ctx, 1) == 0

    def test_subgroup_example(self):
        ctx = CyclicContext(16, 55, 5)
        assert dlog_bruteforce(ctx, 36) == 2

    def test_outside_subgroup_is_none(self):
        ctx = CyclicContext(16, 55, 5)
        assert dlog_bruteforce(ctx, 2) is None


class TestBsgs:
    def test_examples(self):
        assert dlog_bsgs(CyclicContext(16, 55, 5), 36) == 2
        assert dlog_bsgs(CyclicContext(5, 23, 22), pow(5, 17, 23)) == 17
        assert dlog_bsgs(CyclicContext(2, 11, 10), 7) == 7

    def test_outside_subgroup_is_none(self):
        assert dlog_bsgs(CyclicContext(16, 55, 5), 2) is None

    def test_guard_on_large_order(self):
        ctx = CyclicContext(1, 2, 2**48 + 1)
        with pytest.raises(OrderTooLargeError):
            dlog_bsgs(ctx, 1)

    def test_trivial_group(self):
        ctx = CyclicContext(1, 7, 1)
        assert dlog_bsgs(ctx, 1) == 0
        assert dlog_bsgs(ctx, 3) is None

    def test_agrees_with_bruteforce_exhaustively(self):
        for p in sieve(200):
            if p == 2:
                continue
            g = primitive_root(p, factorize(p - 1))
            ctx = CyclicContext(g, p, p - 1)
            for h in range(1, p):
                assert dlog_bsgs(ctx, h) == dlog_bruteforce(ctx, h), (p, h)

    def test_agrees_with_bruteforce_randomized(self):
        rng = random.Random(8)
        for _ in range(40):
            p = rng.choice([211, 1009, 5003, 10007])
            g = primitive_root(p, factorize(p - 1))
            ctx = CyclicContext(g, p, p - 1)
            h = rng.randrange(1, p)
            assert dlog_bsgs(ctx, h) == dlog_bruteforce(ctx, h)

    def test_round_trip(self):
        rng = random.Random(9)
        p = 100003
        g = primitive_root(p, factorize(p - 1))
        ctx = CyclicContext(g, p, p - 1)
        for _ in range(25):
            n = rng.randrange(0, p - 1)
            assert dlog_bsgs(ctx, pow(g, n, p)) == n

    def test_returns_smallest_exponent(self):
        # generator of order 5 embedded with order claim 5: values repeat
        # only past the order, so results stay canonical in [0, order)
        ctx = CyclicContext(16, 55, 5)
        for n in range(5):
            assert dlog_bsgs(ctx, pow(16, n, 55)) == n


class TestBsgsDifferential:
    """dlog_bsgs against sympy and the brute-force reference on the order-q
    subgroup of every SAFE_QS group, mod p and mod pq, over all of [0, q)."""

    @pytest.mark.parametrize("q", SAFE_QS)
    def test_subgroup_cold_then_warm(self, q, tables, monkeypatch):
        p, a_p, a_pq = subgroup(q)
        for m, a in ((p, a_p), (p * q, a_pq)):
            ctx = CyclicContext(a, m, q)
            targets = [pow(a, n, m) for n in range(q)]
            want = [discrete_log(m, h, a) for h in targets]
            assert want == list(range(q))
            assert want == [dlog_bruteforce(ctx, h) for h in targets]
            with monkeypatch.context() as cold:
                cold.setattr(oracle, "_TABLE_ENTRIES", 0)  # nothing is kept
                assert [dlog_bsgs(ctx, h) for h in targets] == want
            assert (a, m, q) not in tables.by_group
            assert [dlog_bsgs(ctx, h) for h in targets] == want
            assert (a, m, q) in tables.by_group
            assert [dlog_bsgs(ctx, h) for h in targets] == want
            assert dlog_bsgs(ctx, m - 1) is None  # -1 has order 2

    @pytest.mark.parametrize("q", SAFE_QS)
    def test_claimed_order_multiple_gives_smallest_exponent(self, q, tables):
        # at 8*q**2 the table (about 1.4*q entries) holds each power twice
        p, a_p, a_pq = subgroup(q)
        for m, a in ((p, a_p), (p * q, a_pq)):
            for order in (2 * q, (q - 1) * q, 8 * q * q):
                ctx = CyclicContext(a, m, order)
                for n in range(q):
                    h = pow(a, n, m)
                    assert dlog_bsgs(ctx, h) == n == dlog_bruteforce(ctx, h), (m, order, n)

    def test_full_group_with_claimed_multiple(self, tables):
        for p in (11, 23, 101, 227):
            g = primitive_root(p, factorize(p - 1))
            ctx = CyclicContext(g, p, 4 * (p - 1) ** 2)  # p - 1 table entries
            for h in range(1, p):
                assert dlog_bsgs(ctx, h) == discrete_log(p, h, g) == dlog_bruteforce(ctx, h)

    def test_moduli_above_2_to_the_64(self, tables):
        # a prime m > 2**64 with m - 1 divisible by 1019, and a generator of
        # the order-1019 subgroup, asked with a claimed order multiple too
        m = next(m for m in range(2**64 + 1, 2**65) if m % 2038 == 1 and is_prime(m))
        g = pow(3, (m - 1) // 1019, m)
        for order in (1019, 3 * 1019):
            ctx = CyclicContext(g, m, order)
            for n in range(1019):
                h = pow(g, n, m)
                assert dlog_bsgs(ctx, h) == n == dlog_bruteforce(ctx, h)
            assert dlog_bsgs(ctx, 2) is None is dlog_bruteforce(ctx, 2)


class TestBsgsDifferentialStepScales(TestBsgsDifferential):
    """The differential tests above with the baby steps a table holds per
    sqrt(order) cut to 1/8 and raised to 8: many giant steps a query, the
    last one cut short, and a table that holds the whole group of every
    order up to 64, so that a query hits on its first giant step."""

    @pytest.fixture(autouse=True, params=[(1, 8), (8, 1)], ids=["short", "long"])
    def scale(self, request, monkeypatch):
        shapes = []
        baby_steps = oracle._baby_steps

        def scaled(g, m, order):
            table = baby_steps(g, m, order)
            shapes.append((order, table[0], (order - 1) // table[0] + 1))
            return table

        monkeypatch.setattr(oracle, "_STEP_SCALE", request.param)
        monkeypatch.setattr(oracle, "_baby_steps", scaled)
        yield
        assert shapes  # the scaled tables were built
        num, den = request.param
        for order, step, giants in shapes:
            if num < den:
                assert giants > step, (order, step)
            else:
                assert giants < step and (order > 64 or step >= order), (order, step)


class TestTableProbe:
    """The dict probe at its edges: the smallest j among repeated baby
    values, and the bound n < order on the last giant step."""

    def test_repeated_baby_values_give_the_smallest_j(self, tables):
        # at order 8*q**2 the step exceeds q, so a**j = a**(j + q) for j < step - q
        for q in (5, 23, 83):
            p, a, _ = subgroup(q)
            ctx = CyclicContext(a, p, 8 * q * q)
            for n in range(q):
                h = pow(a, n, p)
                assert dlog_bsgs(ctx, h) == n == dlog_bruteforce(ctx, h), (q, n)
            step, baby, _ = tables.by_group[(a, p, 8 * q * q)]
            assert step > q == len(baby)
            assert sorted(baby.values()) == list(range(q))

    def test_hit_past_the_order_on_the_last_step_is_rejected(self, tables, monkeypatch):
        # a valid order is a multiple of the generator's, and a last-step hit
        # past it was then found at step 0; order 9 below a's order 23, past
        # the check, gives step 2 and 5 giant steps, and a**9 hits the last
        # one with j = 1
        monkeypatch.setattr(CyclicContext, "__post_init__", lambda self: None)
        p, a, _ = subgroup(23)
        ctx = CyclicContext(a, p, 9)
        for n in range(23):
            h = pow(a, n, p)
            assert dlog_bsgs(ctx, h) == (n if n < 9 else None) == dlog_bruteforce(ctx, h), n
        assert tables.by_group[(a, p, 9)][0] == 2


class TestTableCache:
    def test_second_target_builds_no_table(self, tables, monkeypatch):
        built = []
        baby_steps = oracle._baby_steps
        monkeypatch.setattr(
            oracle, "_baby_steps", lambda *args: built.append(args) or baby_steps(*args)
        )
        p, a, _ = subgroup(491)
        ctx = CyclicContext(a, p, 491)
        assert dlog_bsgs(ctx, pow(a, 100, p)) == 100
        assert dlog_bsgs(ctx, pow(a, 7, p)) == 7
        assert dlog_bsgs(CyclicContext(a, p, 491), pow(a, 300, p)) == 300
        assert built == [(a, p, 491)]
        assert list(tables.by_group) == [(a, p, 491)]
        assert tables.entries == 13  # ceil(11/20 * sqrt(491))

    def test_held_entries_stay_within_bound(self, tables, monkeypatch):
        monkeypatch.setattr(oracle, "_TABLE_ENTRIES", 40)
        rng = random.Random(11)
        for _ in range(200):
            q = rng.choice(SAFE_QS)
            p, a, _ = subgroup(q)
            n = rng.randrange(q)
            assert dlog_bsgs(CyclicContext(a, p, q), pow(a, n, p)) == n
            assert tables.entries == held_entries(tables) <= 40
        assert len(tables.by_group) > 1

    def test_table_over_bound_is_not_kept(self, tables, monkeypatch):
        monkeypatch.setattr(oracle, "_TABLE_ENTRIES", 11)
        small_p, small_a, _ = subgroup(5)
        assert dlog_bsgs(CyclicContext(small_a, small_p, 5), pow(small_a, 3, small_p)) == 3
        p, a, _ = subgroup(491)  # a 13-entry table
        for n in (0, 1, 245, 490):
            assert dlog_bsgs(CyclicContext(a, p, 491), pow(a, n, p)) == n
        assert list(tables.by_group) == [(small_a, small_p, 5)]
        assert tables.entries == 2

    def test_oldest_tables_are_evicted_first(self, tables, monkeypatch):
        # tables of 3, 6, 7 and 9 entries against a bound of 16
        monkeypatch.setattr(oracle, "_TABLE_ENTRIES", 16)
        keys = []
        for q in (23, 83, 131, 239):
            p, a, _ = subgroup(q)
            assert dlog_bsgs(CyclicContext(a, p, q), pow(a, q - 1, p)) == q - 1
            keys.append((a, p, q))
        assert list(tables.by_group) == keys[2:]
        assert tables.entries == 16
        p, a, _ = subgroup(83)
        dlog_bsgs(CyclicContext(a, p, 83), a)
        assert list(tables.by_group) == [keys[3], keys[1]]
        assert tables.entries == 15

    def test_threads_keep_the_count_exact(self, tables, monkeypatch):
        # more threads than cores, switching often and inside every
        # eviction, against a bound that forces evictions: every result is
        # right and the running count matches the tables held
        monkeypatch.setattr(oracle, "_TABLE_ENTRIES", 30)
        tables.by_group = YieldingDict()
        groups = [subgroup(q)[:2] + (q,) for q in SAFE_QS]
        wrong = []

        def work(seed):
            rng = random.Random(seed)
            for _ in range(150):
                p, a, q = rng.choice(groups)
                n = rng.randrange(q)
                if dlog_bsgs(CyclicContext(a, p, q), pow(a, n, p)) != n:
                    wrong.append((p, n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert tables.entries == held_entries(tables) <= 30


# The solve-large benchmark's pinned groups (bench/fixtures.json), each with
# an order above oracle._IC_ORDER: 32-, 34-, 36- and 38-bit p
FIXTURE_GROUPS = [
    (3821532707, 1910766353, 2),
    (10142857247, 5071428623, 5),
    (45275519699, 22637759849, 2),
    (159621863267, 79810931633, 2),
]


def unit_target(p: int, q: int, a0: int, n: int) -> int:
    """a0**n mod p, moved by p when it is 0 mod q, so it is a unit mod pq."""
    b0 = pow(a0, n, p)
    return b0 if gcd(b0, q) == 1 else b0 + p


class TestIndexCalculus:
    """_dlog_index_calculus against the brute-force reference, pow and sympy,
    and subgroup_index_mod_q with every order forced onto it."""

    @pytest.fixture
    def forced(self, monkeypatch):
        monkeypatch.setattr(oracle, "_IC_ORDER", 0)

    @pytest.mark.parametrize("q", SAFE_QS)
    def test_every_unit_of_every_safe_group(self, q, forced, tables):
        # every element of the order-q subgroup gets its log, and every other
        # unit None; the contract allows SearchExhaustedError, never another
        # number, and none of these groups exhausts a bound
        p, a, _ = subgroup(q)
        ctx = CyclicContext(a, p, q)
        assert [oracle._dlog_index_calculus(ctx, h) for h in range(1, p)] == [
            dlog_bruteforce(ctx, h) for h in range(1, p)
        ]
        a0 = primitive_root(p, Factorization(((2, 1), (q, 1))))
        params = SafePrimeParams(p, q)
        for n in range(p - 1):
            assert solve_small(DlogInstance(params, a0, unit_target(p, q, a0, n))) == n
        assert not tables.by_group  # no baby-step table was built

    @pytest.mark.parametrize("p, q, a0", FIXTURE_GROUPS, ids=("32bit", "34bit", "36bit", "38bit"))
    def test_seeded_targets_on_the_fixture_groups(self, p, q, a0, tables):
        params = SafePrimeParams(p, q)
        rng = random.Random(q)
        for i in range(20):
            n = rng.randrange(p - 1)
            b0 = unit_target(p, q, a0, n)
            found = solve_small(DlogInstance(params, a0, b0))
            assert pow(a0, found, p) == b0 % p and found == n
            if i == 0:
                assert discrete_log(p, b0 % p, a0) == n
        assert not tables.by_group  # no baby-step table was built

    def test_second_target_runs_no_relation_phase(self, monkeypatch):
        phases = []
        echelon = oracle.RowEchelon
        monkeypatch.setattr(oracle, "RowEchelon", lambda q: phases.append(q) or echelon(q))
        p, q, a0 = FIXTURE_GROUPS[0]
        a = pow(a0, q - 1, p)
        assert oracle._dlog_index_calculus(CyclicContext(a, p, q), pow(a, 100, p)) == 100
        assert oracle._dlog_index_calculus(CyclicContext(a, p, q), pow(a, 7, p)) == 7
        n = q + 12345
        assert solve_small(DlogInstance(SafePrimeParams(p, q), a0, pow(a0, n, p))) == n
        assert phases == [q]

    def test_outside_the_subgroup_is_none(self):
        p, q, a0 = FIXTURE_GROUPS[1]
        ctx = CyclicContext(pow(a0, q - 1, p), p, q)
        for h in (a0, p - 1, 0, p):
            assert oracle._dlog_index_calculus(ctx, h) is None

    def test_guard_on_large_order(self):
        with pytest.raises(OrderTooLargeError):
            oracle._dlog_index_calculus(CyclicContext(1, 2, 2**48 + 1), 1)

    @pytest.mark.parametrize(
        "m, order",
        [(55, 5), (7, 6), (23, 2), (23, 5), (19, 3)],
        ids=("composite-modulus", "composite-order", "even-order", "not-a-divisor", "square-divides"),
    )
    def test_preconditions(self, m, order, monkeypatch):
        # 19 - 1 = 2 * 3**2: the cofactor 6 is not prime to the order 3
        monkeypatch.setattr(CyclicContext, "__post_init__", lambda self: None)
        with pytest.raises(PreconditionError):
            oracle._dlog_index_calculus(CyclicContext(1, m, order), 1)
