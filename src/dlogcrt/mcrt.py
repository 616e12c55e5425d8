"""Solution sets of linear congruence systems in r unknowns over pairwise
coprime moduli.

A single equation c . x = w (mod m) is put in the form g*y1 = w (mod m) by
an integer column reduction c*U = (g0, 0, ..., 0) with U unimodular; its
solutions are a coset of a subgroup of (Z/m)**r described by a particular
solution plus r generators with cycle lengths (g, m, ..., m), g =
gcd(c1, ..., cr, m). Over coprime moduli each equation's coset is lifted to
the product modulus by its CRT idempotent (1 mod its own modulus, 0 mod the
others), so a system's solutions are again one coset. Sets are never
materialized unless enumeration is requested.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

from .arith import crt_pair, egcd, mod_inv
from .errors import InvalidSystemError, TooManySolutionsError

Point = tuple[int, ...]


@dataclass(frozen=True)
class LinearEquation:
    """c1*x1 + ... + cr*xr = w (mod m), coefficients canonical."""

    coeffs: tuple[int, ...]
    constant: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise InvalidSystemError(f"modulus must be >= 2, got {self.modulus}")
        if len(self.coeffs) < 1:
            raise InvalidSystemError("need at least one unknown")
        object.__setattr__(
            self, "coeffs", tuple(c % self.modulus for c in self.coeffs)
        )
        object.__setattr__(self, "constant", self.constant % self.modulus)

    @property
    def unknowns(self) -> int:
        return len(self.coeffs)

    def satisfied_by(self, point: Point) -> bool:
        total = sum(c * x for c, x in zip(self.coeffs, point, strict=True))
        return (total - self.constant) % self.modulus == 0


@dataclass(frozen=True)
class LinearSystem:
    """Equations in the same r unknowns over pairwise coprime moduli."""

    unknowns: int
    equations: tuple[LinearEquation, ...]

    def __post_init__(self):
        if self.unknowns < 1:
            raise InvalidSystemError("need at least one unknown")
        if not self.equations:
            raise InvalidSystemError("need at least one equation")
        for i, eq in enumerate(self.equations):
            if eq.unknowns != self.unknowns:
                raise InvalidSystemError(
                    f"equation {i} has {eq.unknowns} unknowns, expected {self.unknowns}"
                )
            for other in self.equations[i + 1 :]:
                g = gcd(eq.modulus, other.modulus)
                if g != 1:
                    raise InvalidSystemError(
                        f"moduli {eq.modulus} and {other.modulus} share factor {g}"
                    )

    @property
    def modulus(self) -> int:
        return prod(eq.modulus for eq in self.equations)

    def satisfied_by(self, point: Point) -> bool:
        return all(eq.satisfied_by(point) for eq in self.equations)


def _column_reduce(coeffs: list[int]) -> tuple[int, list[list[int]]]:
    """Integer column reduction: returns (g0, U) with U unimodular and
    coeffs . U = (g0, 0, ..., 0), g0 = gcd of the coefficients."""
    r = len(coeffs)
    v = list(coeffs)
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for j in range(1, r):
        if v[j] == 0:
            continue
        a, b = v[0], v[j]
        g, s, t = egcd(a, b)
        # the 2x2 block [[s, -b/g], [t, a/g]] has determinant 1
        for row in u:
            c0, cj = row[0], row[j]
            row[0] = s * c0 + t * cj
            row[j] = -(b // g) * c0 + (a // g) * cj
        v[0], v[j] = g, 0
    return v[0], u


@dataclass(frozen=True)
class SolutionSet:
    """Solutions of a system mod its product modulus: empty, or origin +
    span of the generators, each solution hit exactly once by
    origin + sum(t_i * gen_i) with 0 <= t_i < cycle_i."""

    system: LinearSystem
    empty: bool
    origin: Point
    generators: tuple[Point, ...]
    cycles: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.system.modulus

    @property
    def count(self) -> int:
        return 0 if self.empty else prod(self.cycles)

    def contains(self, point: Point) -> bool:
        return self.system.satisfied_by(point)

    def enumerate(self, limit: int) -> list[Point]:
        """All solutions mod the product modulus, lexicographically sorted,
        each re-verified against every equation before emission."""
        if self.count > limit:
            raise TooManySolutionsError(
                f"{self.count} solutions exceed the limit {limit}"
            )
        if self.empty:
            return []
        m = self.modulus
        points = []
        for steps in itertools.product(*(range(c) for c in self.cycles)):
            point = tuple(
                (o + sum(t * gen[i] for t, gen in zip(steps, self.generators)))
                % m
                for i, o in enumerate(self.origin)
            )
            if not self.contains(point):
                raise AssertionError(f"generated point {point} fails the system")
            points.append(point)
        points.sort()
        return points


def solve_single(coeffs: tuple[int, ...] | list[int], constant: int, modulus: int) -> SolutionSet:
    """Solution set of one linear congruence. Empty when
    g = gcd(coeffs..., m) does not divide the constant; otherwise the count
    is g * m**(r-1)."""
    eq = LinearEquation(tuple(coeffs), constant, modulus)
    return solve_system(LinearSystem(eq.unknowns, (eq,)))


def solve_system(system: LinearSystem) -> SolutionSet:
    """Solve each equation mod its own modulus and lift its coset to the
    product modulus by the CRT idempotent of that modulus; the count is the
    product of the per-equation counts."""
    r, big = system.unknowns, system.modulus
    origin, generators, cycles = [0] * r, [], []
    for eq in system.equations:
        m, w = eq.modulus, eq.constant
        g0, u = _column_reduce(list(eq.coeffs))
        g = gcd(g0, m)
        if w % g != 0:
            return SolutionSet(system, True, (0,) * r, (), ())
        step = m // g
        y1 = 0 if step == 1 else (w // g) * mod_inv(g0 // g, step) % step
        idem = crt_pair(1, m, 0, big // m)  # 1 mod m, 0 mod the other moduli
        for i in range(r):
            origin[i] = (origin[i] + idem * u[i][0] * y1) % big
        generators.append(tuple(idem * u[i][0] * step % big for i in range(r)))
        cycles.append(g)
        for j in range(1, r):
            generators.append(tuple(idem * u[i][j] % big for i in range(r)))
            cycles.append(m)
    return SolutionSet(system, False, tuple(origin), tuple(generators), tuple(cycles))
