import random
import sys
import threading
from math import gcd

import pytest
from sympy.ntheory import discrete_log

from dlogcrt import (
    CyclicContext,
    DlogInstance,
    Factorization,
    SafePrimeParams,
    dlog,
    is_prime,
    oracle,
    primitive_root,
    solve_small,
)
from dlogcrt.errors import InvalidInputError, OrderTooLargeError, PreconditionError
from dlogcrt.oracle import dlog_bsgs

from conftest import SAFE_QS, dlog_bruteforce, factorize, sieve


def subgroup(q: int) -> tuple[int, int, int]:
    """(p, A mod p, A mod pq) for p = 2q + 1 and A = a0**(q-1), a0 the
    smallest primitive root: A generates the order-q subgroup mod p and
    mod pq."""
    p = 2 * q + 1
    a0 = primitive_root(p, Factorization(((2, 1), (q, 1))))
    return p, pow(a0, q - 1, p), pow(a0, q - 1, p * q)


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

    def test_guard_from_the_index_calculus_order(self):
        assert dlog_bsgs(CyclicContext(1, 2, oracle._IC_ORDER - 1), 1) == 0
        with pytest.raises(OrderTooLargeError):
            dlog_bsgs(CyclicContext(1, 2, oracle._IC_ORDER), 1)

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
    def test_subgroup_cold_then_warm(self, q):
        p, a_p, a_pq = subgroup(q)
        tables = oracle._baby_steps
        for m, a in ((p, a_p), (p * q, a_pq)):
            ctx = CyclicContext(a, m, q)
            targets = [pow(a, n, m) for n in range(q)]
            want = [discrete_log(m, h, a) for h in targets]
            assert want == list(range(q))
            assert want == [dlog_bruteforce(ctx, h) for h in targets]
            # cold: every query builds its table
            assert [tables.cache_clear() or dlog_bsgs(ctx, h) for h in targets] == want
            tables.cache_clear()
            assert [dlog_bsgs(ctx, h) for h in targets] == want
            assert [dlog_bsgs(ctx, h) for h in targets] == want
            assert dlog_bsgs(ctx, m - 1) is None  # -1 has order 2
            assert tables.cache_info()[:2] == (2 * q, 1)  # (hits, misses)

    @pytest.mark.parametrize("q", SAFE_QS)
    def test_claimed_order_multiple_gives_smallest_exponent(self, q):
        # at 8*q**2 the table (about 1.4*q entries) holds each power twice
        p, a_p, a_pq = subgroup(q)
        for m, a in ((p, a_p), (p * q, a_pq)):
            for order in (2 * q, (q - 1) * q, 8 * q * q):
                ctx = CyclicContext(a, m, order)
                for n in range(q):
                    h = pow(a, n, m)
                    assert dlog_bsgs(ctx, h) == n == dlog_bruteforce(ctx, h), (m, order, n)

    def test_full_group_with_claimed_multiple(self):
        for p in (11, 23, 101, 227):
            g = primitive_root(p, factorize(p - 1))
            ctx = CyclicContext(g, p, 4 * (p - 1) ** 2)  # p - 1 table entries
            for h in range(1, p):
                assert dlog_bsgs(ctx, h) == discrete_log(p, h, g) == dlog_bruteforce(ctx, h)

    def test_moduli_above_2_to_the_64(self):
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

        scaled.cache_clear, scaled.cache_info = baby_steps.cache_clear, baby_steps.cache_info
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

    def test_repeated_baby_values_give_the_smallest_j(self):
        # at order 8*q**2 the step exceeds q, so a**j = a**(j + q) for j < step - q
        for q in (5, 23, 83):
            p, a, _ = subgroup(q)
            ctx = CyclicContext(a, p, 8 * q * q)
            for n in range(q):
                h = pow(a, n, p)
                assert dlog_bsgs(ctx, h) == n == dlog_bruteforce(ctx, h), (q, n)
            step, baby, _ = oracle._baby_steps(a, p, 8 * q * q)
            assert step > q == len(baby)
            assert sorted(baby.values()) == list(range(q))

    def test_hit_past_the_order_on_the_last_step_is_rejected(self, monkeypatch):
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
        assert oracle._baby_steps(a, p, 9)[0] == 2


class TestTableCache:
    def test_second_target_builds_no_table(self):
        p, a, _ = subgroup(491)
        ctx = CyclicContext(a, p, 491)
        assert dlog_bsgs(ctx, pow(a, 100, p)) == 100
        assert dlog_bsgs(ctx, pow(a, 7, p)) == 7
        assert dlog_bsgs(CyclicContext(a, p, 491), pow(a, 300, p)) == 300
        assert dlog_bsgs(CyclicContext(a + p, p, 491), pow(a, 400, p)) == 400
        info = oracle._baby_steps.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 1, 1)
        assert oracle._baby_steps(a, p, 491)[0] == 13  # ceil(11/20 * sqrt(491))

    def test_threads_share_the_tables(self):
        # more threads than cores, switching often: every result is right
        # and the kept tables stay within the cache's bound
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
        info = oracle._baby_steps.cache_info()
        assert 0 < info.currsize <= info.maxsize


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
    def test_every_unit_of_every_safe_group(self, q, forced):
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
        assert oracle._baby_steps.cache_info().currsize == 0  # no baby-step table was built

    @pytest.mark.parametrize("p, q, a0", FIXTURE_GROUPS, ids=("32bit", "34bit", "36bit", "38bit"))
    def test_seeded_targets_on_the_fixture_groups(self, p, q, a0):
        params = SafePrimeParams(p, q)
        rng = random.Random(q)
        for i in range(20):
            n = rng.randrange(p - 1)
            b0 = unit_target(p, q, a0, n)
            found = solve_small(DlogInstance(params, a0, b0))
            assert pow(a0, found, p) == b0 % p and found == n
            if i == 0:
                assert discrete_log(p, b0 % p, a0) == n
        assert oracle._baby_steps.cache_info().currsize == 0  # no baby-step table was built

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


class TestDlog:
    """The one subgroup-log entry: its order limit and the engine it picks."""

    @pytest.mark.parametrize("q", [5, 83, 491])
    def test_engine_changes_at_the_index_calculus_order(self, q, monkeypatch):
        # order q - 1 (the units mod q) just below the boundary, order q
        # (the order-q subgroup mod 2q + 1) at it
        engines = []

        def recorded(name):
            engine = getattr(oracle, name)
            return lambda *args: engines.append(name) or engine(*args)

        for name in ("dlog_bsgs", "_dlog_index_calculus"):
            monkeypatch.setattr(oracle, name, recorded(name))
        monkeypatch.setattr(oracle, "_IC_ORDER", q)
        g = primitive_root(q, factorize(q - 1))
        p, a, _ = subgroup(q)
        below, at = CyclicContext(g, q, q - 1), CyclicContext(a, p, q)
        for ctx, engine in ((below, "dlog_bsgs"), (at, "_dlog_index_calculus")):
            engines.clear()
            units = range(1, ctx.modulus)
            assert [dlog(ctx, h) for h in units] == [dlog_bruteforce(ctx, h) for h in units]
            assert set(engines) == {engine}
        with pytest.raises(OrderTooLargeError):
            oracle.dlog_bsgs(at, a)

    def test_guard_above_the_order_limit(self):
        ctx = CyclicContext(1, 2, oracle._ORDER_LIMIT + 1)
        with pytest.raises(OrderTooLargeError):
            dlog(ctx, 1)
