"""Baby-step giant-step discrete logs in a cyclic subgroup, the
end-to-end solver's subgroup step.

Baby-step tables are kept across calls, one per group (generator, modulus,
order), so a second target in a group pays only the giant steps. The
entries held across all kept tables are bounded by _TABLE_ENTRIES.

A group whose giant phase is longer than _LANE_STEPS steps, with a modulus
below 2**64 on a little-endian host, takes its giant steps in batches of
_LANES (arith._lane_powers, exact): a batch costs eleven big-int operations
and is probed against the table at C speed, and the first batch that hits is
walked one step at a time from its first lane, so the result is the one the
plain loop returns. Other groups take the plain loop. A kept table holds its
lane constants: 4 ints of at most _LANES lanes of w bits each (w a multiple
of 64 and at least 3*bits(m) + 1; 64 kB for a 32- to 42-bit modulus)."""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress, count
from math import gcd, isqrt
from threading import Lock

from .arith import _lane_powers, _lane_table, mod_inv
from .errors import InvalidInputError, OrderTooLargeError

# Largest order dlog_bsgs accepts: its baby-step table holds
# ceil(sqrt(order)/2) entries, 2**23 at this bound, which still admits every
# p up to 48 bits.
_BSGS_LIMIT = 2**48

# Most baby-step entries kept across calls, over all groups. 2**19 entries
# take about 53 MB of dict (tracemalloc, CPython 3.11 on x86-64, 40- to
# 61-bit keys; about 100 bytes an entry): room for the tables of a 32-, 34-,
# 36- and 38-bit group at once (274000 entries). A larger table is used for
# its own call and not kept.
_TABLE_ENTRIES = 2**19

# Giant steps above which a group takes them in lanes. The solver's giant
# phase is about sqrt(2p) steps, so this sits where p outgrows one 30-bit
# CPython digit and the plain loop's step slows. Per call, 300 targets of a
# subgroup mod p (scratch script, 2-vCPU x86-64 host, 3 rounds, plain loop /
# lanes): 45997 steps (30-bit p) 2.7-3.6 / 3.7-4.3 ms; 65533 steps (31-bit p)
# 9.9-10.9 / 6.3-8.6 ms; 32-bit p (87000 steps) 12.4-15.0 / 7.5-10.3 ms.
_LANE_STEPS = 2**16

# Giant steps per lane batch. The kernel took 70-120 ns a step at 256, 512,
# 1024 and 2048 lanes alike (scratch script, 32- and 38-bit moduli, 200
# batches each, on a host whose speed varies), so the count is set by waste
# and memory: a query's last batch, half used on average, costs under 1% at
# 87000 steps or more, and the constants of a 32- to 42-bit table take 64 kB.
_LANES = 1024


class _Tables:
    """Kept baby-step tables, oldest first: (generator, modulus, order) ->
    (step, {g**j: j for j in [0, step)}, g**-step, lane constants or None),
    with the entries they hold in total."""

    def __init__(self):
        self.by_group: OrderedDict[tuple[int, int, int], tuple] = OrderedDict()
        self.entries = 0
        self.lock = Lock()

    def keep(self, key: tuple[int, int, int], table: tuple) -> None:
        """Keep a table, evicting the oldest until the entries fit the bound;
        a table larger than the bound is not kept."""
        size = len(table[1])
        if size > _TABLE_ENTRIES:
            return
        with self.lock:
            if key in self.by_group:
                return
            while self.entries + size > _TABLE_ENTRIES:
                _, (_, old, _, _) = self.by_group.popitem(last=False)
                self.entries -= len(old)
            self.by_group[key] = table
            self.entries += size


_tables = _Tables()


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


def _baby_steps(g: int, m: int, order: int) -> tuple[int, dict[int, int], int, tuple | None]:
    """(step, table, giant stride, lanes) with step = ceil(sqrt(order)/2): the
    table maps g**j to j for j in [0, step), filled with descending j so a
    repeated value keeps its smallest j, the stride is g**-step, and lanes are
    the stride's arith._lane_table when the group takes lanes, else None."""
    step = (isqrt(order - 1) + 2) // 2
    inv = mod_inv(g, m)
    x = pow(g, step - 1, m)
    baby = {}
    for j in range(step - 1, -1, -1):
        baby[x] = j
        x = x * inv % m
    giant = pow(inv, step, m)
    if (order - 1) // step + 1 > _LANE_STEPS and m < 1 << 64 and sys.byteorder == "little":
        return step, baby, giant, _lane_table(giant, m, _LANES)
    return step, baby, giant, None


def dlog_bsgs(ctx: CyclicContext, h: int) -> int | None:
    """Baby-step giant-step: smallest n in [0, order) with g**n = h (mod m),
    or None if h is outside the subgroup. Guarded to orders up to 2**48.

    The baby-step table of ceil(sqrt(order)/2) entries is built on a group's
    first query and kept for later ones (see _TABLE_ENTRIES); a query costs
    up to 2*sqrt(order) giant steps, about sqrt(order) on average."""
    if ctx.order > _BSGS_LIMIT:
        raise OrderTooLargeError(
            f"order {ctx.order} exceeds baby-step giant-step limit {_BSGS_LIMIT}"
        )
    g, m, order = ctx.generator, ctx.modulus, ctx.order
    key = (g % m, m, order)
    table = _tables.by_group.get(key)
    if table is None:
        table = _baby_steps(g, m, order)
        _tables.keep(key, table)
    step, baby, giant, lanes = table
    steps = (order - 1) // step + 1
    i, y = 0, h % m
    while lanes is not None and i < steps:
        batch = _lane_powers(y, lanes)[: steps - i]
        hit = next(compress(count(), map(baby.__contains__, batch)), None)
        if hit is not None:
            i, y = i + hit, batch[hit]
            break
        i, y = i + len(batch), batch[-1] * giant % m
    for i in range(i, steps):
        j = baby.get(y)
        if j is not None and i * step + j < order:
            return i * step + j
        y = y * giant % m
    return None
