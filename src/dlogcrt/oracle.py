"""Baby-step giant-step discrete logs in a cyclic subgroup, the
end-to-end solver's subgroup step.

A group's baby steps are g**j for j below step = ceil(_STEP_SCALE *
sqrt(order)), held twice: as a frozenset, which a giant step is probed
against, and as a list in ascending j, whose index() gives the smallest j of
a value. Both share the int objects: an entry takes its int (32 bytes), a
list slot (8) and 16 bytes per set slot at 15-60% load, 67-128 bytes in all
(83 over the tables of a 32-, 34-, 36- and 38-bit group; tracemalloc,
CPython 3.11 on x86-64), against about 100 for a {g**j: j} dict. Tables are
kept across calls, one per group (generator, modulus, order), so a second
target in a group pays only the giant steps. The entries held across all
kept tables are bounded by _TABLE_ENTRIES.

A group whose giant phase is longer than _LANE_STEPS steps, with a modulus
below 2**64 on a little-endian host, takes its giant steps in batches of
_LANES (arith._lane_powers, exact): a batch costs eleven big-int operations
and is probed against the set in one C call (isdisjoint). Only the batch
that hits is walked, from its first lane that hits, so the result is the one
the plain loop returns. Other groups take the plain loop. A kept table holds
its lane constants: 4 ints of at most _LANES lanes of w bits each (w a
multiple of 64 and at least 3*bits(m) + 1; 64 kB for a 32- to 42-bit
modulus)."""

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
# ceil(11/20*sqrt(order)) entries, about 9.2 million at this bound, which
# still admits every p up to 48 bits.
_BSGS_LIMIT = 2**48

# Most baby-step entries kept across calls, over all groups, about 35-67 MB
# at 67-128 bytes an entry (see above): room for the tables of a 32-, 34-,
# 36- and 38-bit group at once (301343 entries, 23.9 MB), or for a 40-bit
# group's (404398 entries, 31.6 MB). A larger table is used for its own call
# and not kept.
_TABLE_ENTRIES = 2**19

# Giant steps above which a group takes them in lanes. The solver's giant
# phase is about 1.3*sqrt(p) steps, so this sits below where p outgrows one
# 30-bit CPython digit and the plain loop's step slows. Per call, warm, 300
# targets of the order-q subgroup mod p = gen_safe_prime(bits, seed=1).p
# (scratch script, 2-vCPU x86-64 host, 5 rounds, twice, plain loop / lanes):
# 24435 steps (29-bit p) 1.36-1.98 / 1.52-2.04 ms; 36984 steps (30-bit p)
# 2.64-3.05 / 2.87-3.09 ms; 57273 steps (31-bit p) 5.76-8.96 / 4.52-5.74 ms;
# 79477 steps (32-bit p) 10.3-11.6 / 5.5-5.9 ms.
_LANE_STEPS = 2**15

# Baby steps a table holds per sqrt(order), as a fraction: step is the
# smallest int at least 11/20*sqrt(order). A query then takes at most
# order/step giant steps, about 0.91*sqrt(order) on average. The memory of a
# set jumps where its table doubles; at 11/20 the four solve-large tables
# above take 23.9 MB against 27.0 MB for dicts at 1/2, and 3/5 would double
# the 38-bit group's set (28.7 MB in all).
_STEP_SCALE = (11, 20)

# Giant steps per lane batch. The kernel took 70-120 ns a step at 256, 512,
# 1024 and 2048 lanes alike (scratch script, 32- and 38-bit moduli, 200
# batches each, on a host whose speed varies), so the count is set by waste
# and memory: a query's last batch, half used on average, costs under 1% at
# 87000 steps or more, and the constants of a 32- to 42-bit table take 64 kB.
_LANES = 1024


class _Tables:
    """Kept baby-step tables, oldest first: (generator, modulus, order) ->
    (step, frozenset of the powers, [g**j for j in [0, step)], g**-step,
    lane constants or None), with the entries they hold in total."""

    def __init__(self):
        self.by_group: OrderedDict[tuple[int, int, int], tuple] = OrderedDict()
        self.entries = 0
        self.lock = Lock()

    def keep(self, key: tuple[int, int, int], table: tuple) -> None:
        """Keep a table, evicting the oldest until the entries fit the bound;
        a table larger than the bound is not kept."""
        size = table[0]
        if size > _TABLE_ENTRIES:
            return
        with self.lock:
            if key in self.by_group:
                return
            while self.entries + size > _TABLE_ENTRIES:
                _, (old, *_) = self.by_group.popitem(last=False)
                self.entries -= old
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


def _baby_steps(g: int, m: int, order: int) -> tuple[int, frozenset, list[int], int, tuple | None]:
    """(step, baby, powers, giant stride, lanes) with step the smallest int at
    least _STEP_SCALE*sqrt(order): powers is [g**j for j in [0, step)],
    ascending, so powers.index(y) is the smallest j with g**j = y; baby is
    its frozenset; the stride is g**-step; lanes are the stride's
    arith._lane_table when the group takes lanes, else None."""
    num, den = _STEP_SCALE
    step = (isqrt(num * num * order - 1) + den) // den
    powers, x = [], 1
    for _ in range(step):
        powers.append(x)
        x = x * g % m
    giant, lanes = mod_inv(x, m), None
    if (order - 1) // step + 1 > _LANE_STEPS and m < 1 << 64 and sys.byteorder == "little":
        lanes = _lane_table(giant, m, _LANES)
    return step, frozenset(powers), powers, giant, lanes


def dlog_bsgs(ctx: CyclicContext, h: int) -> int | None:
    """Baby-step giant-step: smallest n in [0, order) with g**n = h (mod m),
    or None if h is outside the subgroup. Guarded to orders up to 2**48.

    The baby-step table of ceil(11/20*sqrt(order)) entries is built on a
    group's first query and kept for later ones (see _TABLE_ENTRIES); a query
    costs up to about 1.82*sqrt(order) giant steps, 0.91*sqrt(order) on
    average."""
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
    step, baby, powers, giant, lanes = table
    steps = (order - 1) // step + 1
    i, y = 0, h % m
    while lanes is not None and i < steps:
        batch = _lane_powers(y, lanes)[: steps - i].tolist()
        if not baby.isdisjoint(batch):
            hit = next(compress(count(), map(baby.__contains__, batch)))
            i, y = i + hit, batch[hit]
            break
        i, y = i + len(batch), batch[-1] * giant % m
    for i in range(i, steps):
        if y in baby:  # only the last step can reach past the order
            n = i * step + powers.index(y)
            return n if n < order else None
        y = y * giant % m
    return None
