"""Solution sets of linear congruence systems in r unknowns over pairwise
coprime moduli.

A single equation c . x = w (mod m) is put in the form g*y1 = w (mod m) by
an integer column reduction c*U = (g0, 0, ..., 0) with U unimodular; its
solutions are a coset of a subgroup of (Z/m)**r described by a particular
solution plus r generators with cycle lengths (g, m, ..., m), g =
gcd(c1, ..., cr, m). Systems over coprime moduli combine componentwise by
classical CRT. Sets are never materialized unless enumeration is requested.
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
class ModularSolutions:
    """Solutions of one equation mod m: empty, or origin + span of the
    generators, each coordinate tuple hit exactly once by
    origin + sum(t_i * gen_i) with 0 <= t_i < cycle_i."""

    equation: LinearEquation
    empty: bool
    origin: Point
    generators: tuple[Point, ...]
    cycles: tuple[int, ...]

    @property
    def count(self) -> int:
        return 0 if self.empty else prod(self.cycles)

    def contains(self, point: Point) -> bool:
        if self.empty:
            return False
        return self.equation.satisfied_by(point)

    def enumerate(self, limit: int) -> list[Point]:
        """All solutions, lexicographically sorted, each re-verified against
        the equation before emission."""
        if self.count > limit:
            raise TooManySolutionsError(
                f"{self.count} solutions exceed the limit {limit}"
            )
        if self.empty:
            return []
        m = self.equation.modulus
        points = []
        for steps in itertools.product(*(range(c) for c in self.cycles)):
            point = tuple(
                (o + sum(t * gen[i] for t, gen in zip(steps, self.generators)))
                % m
                for i, o in enumerate(self.origin)
            )
            if not self.equation.satisfied_by(point):
                raise AssertionError(f"generated point {point} fails its equation")
            points.append(point)
        points.sort()
        return points


def solve_single(coeffs: tuple[int, ...] | list[int], constant: int, modulus: int) -> ModularSolutions:
    """Solution set of one linear congruence. Empty when
    g = gcd(coeffs..., m) does not divide the constant; otherwise the count
    is g * m**(r-1)."""
    eq = LinearEquation(tuple(coeffs), constant, modulus)
    r, m, w = eq.unknowns, eq.modulus, eq.constant
    g0, u = _column_reduce(list(eq.coeffs))
    g = gcd(g0, m)
    if w % g != 0:
        return ModularSolutions(eq, True, (0,) * r, (), ())
    step = m // g
    y1 = 0 if step == 1 else (w // g) * mod_inv(g0 // g, step) % step
    origin = tuple(u[i][0] * y1 % m for i in range(r))
    generators = [tuple(u[i][0] * step % m for i in range(r))]
    cycles = [g]
    for j in range(1, r):
        generators.append(tuple(u[i][j] % m for i in range(r)))
        cycles.append(m)
    return ModularSolutions(eq, False, origin, tuple(generators), tuple(cycles))


@dataclass(frozen=True)
class SolutionSet:
    """Componentwise-CRT product of per-modulus solution sets."""

    system: LinearSystem
    parts: tuple[ModularSolutions, ...]

    @property
    def modulus(self) -> int:
        return self.system.modulus

    @property
    def count(self) -> int:
        return prod(part.count for part in self.parts)

    def contains(self, point: Point) -> bool:
        return all(
            part.contains(tuple(x % part.equation.modulus for x in point))
            for part in self.parts
        )

    def enumerate(self, limit: int) -> list[Point]:
        """All solutions mod the product modulus, lexicographically sorted,
        re-verified against every equation."""
        if self.count > limit:
            raise TooManySolutionsError(
                f"{self.count} solutions exceed the limit {limit}"
            )
        if self.count == 0:
            return []
        points = []
        per_part = [part.enumerate(limit) for part in self.parts]
        moduli = [part.equation.modulus for part in self.parts]
        for combo in itertools.product(*per_part):
            point = []
            for i in range(self.system.unknowns):
                acc, modulus = combo[0][i], moduli[0]
                for rest, m in zip(combo[1:], moduli[1:]):
                    acc = crt_pair(acc, modulus, rest[i], m)
                    modulus *= m
                point.append(acc)
            point = tuple(point)
            if not self.contains(point):
                raise AssertionError(f"recombined point {point} fails the system")
            points.append(point)
        points.sort()
        return points


def solve_system(system: LinearSystem) -> SolutionSet:
    """Solve per modulus and combine; the count is the product of the
    per-modulus counts and membership is componentwise."""
    parts = tuple(
        solve_single(eq.coeffs, eq.constant, eq.modulus)
        for eq in system.equations
    )
    return SolutionSet(system=system, parts=parts)
