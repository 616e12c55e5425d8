"""Ground-truth discrete-log solvers: exhaustive search and baby-step
giant-step. Used as verification oracles and by the end-to-end solver."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import mod_inv
from .errors import InvalidInputError, OrderTooLargeError
from .numtheory import Factorization

_BRUTEFORCE_LIMIT = 10**7
# Largest order dlog_bsgs accepts: its baby-step table holds ceil(sqrt(order))
# entries, 2**24 at this bound, which still admits every p up to 48 bits.
_BSGS_LIMIT = 2**48


@dataclass(frozen=True)
class CyclicContext:
    """A cyclic subgroup: generator, ambient modulus, and group order.

    Construction checks generator**order = 1 (mod modulus). Exactness of
    the order can additionally be asserted via assert_exact_order.
    """

    generator: int
    modulus: int
    order: int

    def __post_init__(self):
        if self.modulus < 2:
            raise InvalidInputError(f"modulus must be >= 2, got {self.modulus}")
        if self.order < 1:
            raise InvalidInputError(f"order must be >= 1, got {self.order}")
        if gcd(self.generator, self.modulus) != 1:
            raise InvalidInputError("generator must be a unit")
        if pow(self.generator, self.order, self.modulus) != 1:
            raise InvalidInputError(
                f"generator**{self.order} != 1 (mod {self.modulus})"
            )

    def assert_exact_order(self, order_factors: Factorization) -> None:
        """Check the order is exact: g**(order/r) != 1 for each prime r."""
        if order_factors.value != self.order:
            raise InvalidInputError("factorization does not multiply to the order")
        for r in order_factors.primes:
            if pow(self.generator, self.order // r, self.modulus) == 1:
                raise InvalidInputError(
                    f"generator order divides {self.order // r}; not exact"
                )


def dlog_bruteforce(ctx: CyclicContext, h: int) -> int | None:
    """Smallest n >= 0 with g**n = h (mod m), or None. Guarded to small orders."""
    if ctx.order > _BRUTEFORCE_LIMIT:
        raise OrderTooLargeError(
            f"order {ctx.order} exceeds brute-force limit {_BRUTEFORCE_LIMIT}"
        )
    h = h % ctx.modulus
    x = 1
    for n in range(ctx.order):
        if x == h:
            return n
        x = x * ctx.generator % ctx.modulus
    return None


def dlog_bsgs(ctx: CyclicContext, h: int) -> int | None:
    """Baby-step giant-step: smallest n in [0, order) with g**n = h (mod m),
    or None if h is outside the subgroup. O(sqrt(order)) group operations;
    the table is local to the query. Guarded to orders up to 2**48."""
    if ctx.order > _BSGS_LIMIT:
        raise OrderTooLargeError(
            f"order {ctx.order} exceeds baby-step giant-step limit {_BSGS_LIMIT}"
        )
    g, m, order = ctx.generator, ctx.modulus, ctx.order
    h = h % m
    step = isqrt(order)
    if step * step < order:
        step += 1
    baby = {}
    x = 1
    for j in range(step):
        baby.setdefault(x, j)
        x = x * g % m
    giant = pow(mod_inv(g, m), step, m)
    y = h
    for i in range((order - 1) // step + 1):
        j = baby.get(y)
        if j is not None and i * step + j < order:
            return i * step + j
        y = y * giant % m
    return None
