import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlogcrt import LinearEquation, LinearSystem, solve_single, solve_system
from dlogcrt.errors import InvalidSystemError, TooManySolutionsError


def scan_single(coeffs, constant, m):
    """Exhaustive oracle: all canonical tuples satisfying the congruence."""
    r = len(coeffs)
    return [
        pt
        for pt in itertools.product(range(m), repeat=r)
        if sum(c * x for c, x in zip(coeffs, pt)) % m == constant % m
    ]


class TestSolveSingle:
    def test_golden_mod_5(self):
        sol = solve_single((1, 2), 3, 5)
        assert sol.count == 5
        assert sol.contains((4, 2))

    def test_golden_mod_11(self):
        sol = solve_single((1, 1), 6, 11)
        assert sol.count == 11
        assert sol.contains((4, 2))

    def test_unsolvable_is_empty_value(self):
        sol = solve_single((0, 0), 1, 7)
        assert sol.empty
        assert sol.count == 0
        assert sol.enumerate(10) == []
        assert not sol.contains((0, 0))

    def test_gcd_two_case(self):
        sol = solve_single((2, 4), 6, 8)
        assert sol.count == 16
        assert sorted(scan_single((2, 4), 6, 8)) == sol.enumerate(64)

    def test_zero_equation_full_space(self):
        sol = solve_single((0, 0), 0, 4)
        assert sol.count == 16
        assert sol.enumerate(16) == list(itertools.product(range(4), repeat=2))

    def test_single_unknown(self):
        sol = solve_single((3,), 6, 9)
        assert sol.count == 3
        assert sol.enumerate(9) == [(2,), (5,), (8,)]

    def test_enumerate_respects_limit(self):
        with pytest.raises(TooManySolutionsError):
            solve_single((1, 2), 3, 5).enumerate(3)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_exhaustive_scan(self, data):
        r = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(2, 50))
        coeffs = tuple(data.draw(st.integers(0, m - 1)) for _ in range(r))
        constant = data.draw(st.integers(0, m - 1))
        sol = solve_single(coeffs, constant, m)
        expected = scan_single(coeffs, constant, m)
        g = gcd(*coeffs, m)
        if constant % g:
            assert sol.empty and len(expected) == 0
        else:
            assert sol.count == g * m ** (r - 1) == len(expected)
            assert sol.enumerate(m**r) == expected


class TestSolveSystem:
    def golden_system(self):
        return LinearSystem(
             2, (LinearEquation((1, 1), 6, 11), LinearEquation((1, 2), 3, 5))
        )

    def test_golden_count_and_membership(self):
        solutions = solve_system(self.golden_system())
        assert solutions.count == 55
        assert solutions.contains((4, 2))

    def test_satisfied_by_needs_every_equation(self):
        system = self.golden_system()
        assert system.satisfied_by((4, 2))
        assert not system.satisfied_by((6, 0))  # holds mod 11 only
        assert not system.satisfied_by((3, 0))  # holds mod 5 only

    def test_golden_members_satisfy_master(self):
        solutions = solve_system(self.golden_system())
        points = solutions.enumerate(100)
        assert len(points) == 55
        assert all((b + 12 * n) % 55 == 28 for b, n in points)

    def test_single_equation_system_matches_solve_single(self):
        system = LinearSystem(2, (LinearEquation((1, 2), 3, 5),))
        assert solve_system(system).enumerate(25) == solve_single((1, 2), 3, 5).enumerate(25)

    def test_classical_crt_as_one_unknown_system(self):
        system = LinearSystem(
            1, (LinearEquation((1,), 6, 11), LinearEquation((1,), 3, 5))
        )
        assert solve_system(system).enumerate(10) == [(28,)]

    def test_empty_part_empties_the_product(self):
        system = LinearSystem(
            2, (LinearEquation((0, 0), 1, 7), LinearEquation((1, 1), 0, 2))
        )
        solutions = solve_system(system)
        assert solutions.count == 0
        assert solutions.enumerate(100) == []

    def test_count_is_multiplicative(self):
        system = LinearSystem(
            2, (LinearEquation((2, 4), 6, 8), LinearEquation((1, 2), 3, 5))
        )
        solutions = solve_system(system)
        assert solutions.count == 16 * 5
        assert [
            solve_single(eq.coeffs, eq.constant, eq.modulus).count
            for eq in system.equations
        ] == [16, 5]

    def test_rejects_shared_moduli_factor(self):
        with pytest.raises(InvalidSystemError):
            LinearSystem(2, (LinearEquation((1, 1), 0, 6), LinearEquation((1, 1), 0, 10)))

    def test_rejects_mismatched_unknowns(self):
        with pytest.raises(InvalidSystemError):
            LinearSystem(2, (LinearEquation((1,), 0, 5),))

    def test_crt_bijection_with_scan(self):
        rng = random.Random(6)
        for _ in range(30):
            m1, m2 = 0, 0
            while gcd(m1, m2) != 1:
                m1, m2 = rng.randrange(2, 13), rng.randrange(2, 13)
            r = rng.randrange(1, 3)
            eqs = []
            for m in (m1, m2):
                eqs.append(
                    LinearEquation(
                        tuple(rng.randrange(m) for _ in range(r)), rng.randrange(m), m
                    )
                )
            solutions = solve_system(LinearSystem(r, tuple(eqs)))
            big = m1 * m2
            expected = [
                pt
                for pt in itertools.product(range(big), repeat=r)
                if all(
                    sum(c * x for c, x in zip(eq.coeffs, pt)) % eq.modulus
                    == eq.constant
                    for eq in eqs
                )
            ]
            assert solutions.count == len(expected)
            if expected:
                assert solutions.enumerate(big**r) == expected
            for pt in expected[:5]:
                assert solutions.contains(pt)
