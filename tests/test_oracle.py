import random

import pytest

from dlogcrt import CyclicContext, dlog_bsgs, primitive_root
from dlogcrt.errors import InvalidInputError, OrderTooLargeError

from conftest import dlog_bruteforce, factorize, sieve


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
