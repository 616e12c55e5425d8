"""Baby-step giant-step discrete logs in a cyclic subgroup, the
end-to-end solver's subgroup step."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import mod_inv
from .errors import InvalidInputError, OrderTooLargeError

# Largest order dlog_bsgs accepts: its baby-step table holds ceil(sqrt(order))
# entries, 2**24 at this bound, which still admits every p up to 48 bits.
_BSGS_LIMIT = 2**48


@dataclass(frozen=True)
class CyclicContext:
    """A cyclic subgroup: generator, ambient modulus, and group order.

    Construction checks generator**order = 1 (mod modulus).
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
