"""Discrete logs in a cyclic subgroup, the end-to-end solver's subgroup step,
by one entry, dlog, and two engines: index calculus (_dlog_index_calculus)
from order _IC_ORDER up, for a subgroup of odd prime order in the units mod
a prime, and baby-step giant-step (dlog_bsgs) below it, for any cyclic
subgroup.

A group's baby steps are g**j for j below step = ceil(_STEP_SCALE *
sqrt(order)), held as one {g**j: j} dict that keeps the smallest j of a
value. On the subgroups of gen_safe_prime(bits, seed=1) an entry took
76-114 bytes for 12- to 29-bit p (22-7392 entries), against 111-138 for a
frozenset of the powers plus an ascending list of them (tracemalloc,
CPython 3.11 on x86-64). Tables are kept across calls, one per group
(g mod m, m, order), so a second target in a group pays only the giant
steps; _baby_steps keeps numtheory._GROUPS = 64 of them, least recently used
evicted first, each at most ceil(11/20*sqrt(_IC_ORDER)) = 9012 entries.

Index calculus (Adleman 1979; HAC 3.6.5) takes the subgroup of odd prime
order q in the units mod a prime m whose cofactor k = (m - 1)/q is prime to
q (k = 2 for a safe prime; k is even, as q is odd). Its unknowns are the
logs L_l = log_g(l**k) of the factor-base primes l < B. A candidate g**e is
split by extended Euclid as +-a/b (mod m) with a and b near sqrt(m), which
are both smooth far more often than one number of m's size. When they are,
a = prod(l**i_l) and b = prod(l**j_l) give k*e = sum((i_l - j_l)*L_l)
(mod q): the k-th power takes g**e into the unknowns, and the sign out, as k
is even. The exponents e walk by a stride seeded from (g, m); a stride of 1
with a small g would repeat the last relation plus one unit vector. A
candidate is tested by gcd-stripping against the product of the base and
trial-divided only when smooth. The relations are reduced online mod q
(mcrt.RowEchelon) until they reach full rank or the relation cap, and the
logs they fix are kept per group (_factor_base_logs, an lru_cache), so a
second target runs no relation phase. A target h needs only its descent:
the first h*g**r = +-a/b with a and b smooth over the fixed primes gives
log h = (sum((i_l - j_l)*L_l))/k - r (mod q), returned only once
pow(g, n, m) == h confirms it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod
from random import Random

from .arith import mod_inv
from .errors import InvalidInputError, OrderTooLargeError, PreconditionError, SearchExhaustedError
from .mcrt import RowEchelon
from .numtheory import _GROUPS, is_prime

# Largest order dlog accepts, which admits every p up to 48 bits. It bounds
# index-calculus time: a cold 48-bit `dlogcrt solve` (relation phase and one
# target, interpreter start included) took 0.28-0.33 s and 16 MB peak RSS in
# a child process (three gen_safe_prime(48, seed) groups, 2-vCPU x86-64 host).
_ORDER_LIMIT = 2**48

# Orders from which dlog takes index calculus, and the limit of dlog_bsgs:
# the smallest power of two above which a cold index-calculus solve
# (relation phase and one target, fresh process) was no slower than a cold
# baby-step giant-step solve. Medians of 3 targets each, gen_safe_prime(bits,
# seed) for seeds 1-5, BSGS / index calculus, 2-vCPU x86-64 host: 29-bit p
# (order 2**27) 1.6-3.1 / 2.2-4.7 ms, BSGS faster for all five; 30-bit p
# (2**28) 2.8-5.2 / 2.0-3.8 ms, index calculus faster for all five; 32-bit p
# (2**30, seeds 1-3) 10-15 / 3.5-7.6 ms; the 32-, 34-, 36- and 38-bit
# solve-large groups 10 / 3.7, 16 / 9.6, 44 / 11 and 69 / 13 ms.
_IC_ORDER = 2**28

# Baby steps a table holds per sqrt(order), as a fraction: step is the
# smallest int at least 11/20*sqrt(order). A query then takes at most
# order/step giant steps, about 0.91*sqrt(order) on average.
_STEP_SCALE = (11, 20)


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


def dlog(ctx: CyclicContext, h: int) -> int | None:
    """The n in [0, order) with g**n = h (mod m), or None if h is outside
    the subgroup, for orders up to 2**48: index calculus from order
    _IC_ORDER up, baby-step giant-step below it."""
    if ctx.order > _ORDER_LIMIT:
        raise OrderTooLargeError(
            f"order {ctx.order} exceeds the subgroup-log limit {_ORDER_LIMIT}"
        )
    if ctx.order >= _IC_ORDER:
        return _dlog_index_calculus(ctx, h)
    return dlog_bsgs(ctx, h)


@lru_cache(maxsize=_GROUPS)
def _baby_steps(g: int, m: int, order: int) -> tuple[int, dict[int, int], int]:
    """(step, baby, giant stride) with step the smallest int at least
    _STEP_SCALE*sqrt(order): baby maps each g**j, j in [0, step), to the
    smallest such j, and the stride is g**-step."""
    num, den = _STEP_SCALE
    step = (isqrt(num * num * order - 1) + den) // den
    baby, x = {}, 1
    for j in range(step):
        baby.setdefault(x, j)
        x = x * g % m
    return step, baby, mod_inv(x, m)


def dlog_bsgs(ctx: CyclicContext, h: int) -> int | None:
    """Baby-step giant-step: smallest n in [0, order) with g**n = h (mod m),
    or None if h is outside the subgroup, for orders below _IC_ORDER
    (OrderTooLargeError from it up).

    The baby-step table of ceil(11/20*sqrt(order)) entries is built on a
    group's first query and kept for later ones; a query costs up to about
    1.82*sqrt(order) giant steps, 0.91*sqrt(order) on average."""
    if ctx.order >= _IC_ORDER:
        raise OrderTooLargeError(
            f"order {ctx.order} is not below the baby-step giant-step limit {_IC_ORDER}"
        )
    m, order = ctx.modulus, ctx.order
    step, baby, giant = _baby_steps(ctx.generator % m, m, order)
    y = h % m
    for i in range((order - 1) // step + 1):
        if y in baby:  # only the last step can reach past the order
            n = i * step + baby[y]
            return n if n < order else None
        y = y * giant % m
    return None


# Factor-base bound B by modulus bits: the primes below B for a modulus of
# at most that many bits, and the last B above. Each is the B of least cold
# cost (relation phase and first target, seeds 1-3), the larger of two
# within the spread of the seeds, as it cuts the warm cost a target: cold /
# warm at 30 bits 3 / 0.04-0.06 ms, 36 bits 12-17 / 0.14-0.17 ms, 42 bits
# 53-65 / 0.15-0.27 ms, 48 bits 173-205 / 0.29-0.39 ms.
_IC_BASES = ((33, 128), (37, 256), (47, 512), (49, 1024))

# The loop bounds. A relation phase tests at most _IC_CANDIDATES candidates
# and keeps at most 2N + 30 relations for N factor-base primes (the cap); a
# descent tries at most _IC_DESCENT target powers. A 48-bit relation phase
# took 14187-14990 candidates, and a 48-bit descent 40-44 on average and 297
# at most over 300 targets each (seeds 1-3). Past the cap, below full rank,
# only the logs the relations fix are used; running out of candidates or
# descent attempts raises SearchExhaustedError.
_IC_CANDIDATES = 2**20
_IC_DESCENT = 2**14


def _smooth(x: int, base: int) -> bool:
    """Whether x > 0 has no prime factor outside the squarefree product base:
    each gcd with what is left takes every base prime still dividing it."""
    d = gcd(x, base)
    while d > 1:
        x //= d
        d = gcd(x, d)
    return x == 1


def _halves(x: int, m: int, cut: int) -> tuple[int, int]:
    """(a, b) with b*x = +-a (mod m), a <= cut and b < m/cut: extended
    Euclid on (m, x), stopped at the first remainder a <= cut."""
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > cut:
        quot = r0 // r1
        r0, r1, t0, t1 = r1, r0 - quot * r1, t1, t0 - quot * t1
    return r1, abs(t1)


def _exponents(x: int, primes) -> dict[int, int]:
    """{l: e} with x = prod(l**e), for x smooth over the ascending primes."""
    exps = {}
    for l in primes:
        if x == 1:
            break
        while x % l == 0:
            x //= l
            exps[l] = exps.get(l, 0) + 1
    return exps


# Factor-base logs are kept per group, numtheory._GROUPS of them: a few
# hundred ints each.
@lru_cache(maxsize=_GROUPS)
def _factor_base_logs(g: int, m: int, order: int) -> tuple[int, dict[int, int], int, int, int]:
    """(1/k mod order, logs, product, stride, step) for the subgroup of odd
    prime order in the units mod the prime m, k = (m - 1)/order: logs maps
    each factor-base prime l the relations fix to log_g(l**k) mod order,
    ascending, and product is theirs; the relation and descent walks
    multiply by stride = g**step. Checks its preconditions once per group."""
    k = (m - 1) // order
    if not (is_prime(m) and is_prime(order) and order % 2 and k * order == m - 1 and k % order):
        raise PreconditionError(
            f"index calculus needs a prime modulus m and an odd prime order dividing "
            f"m - 1 once, got m = {m} and order {order}"
        )
    bound = next((b for bits, b in _IC_BASES if m.bit_length() <= bits), _IC_BASES[-1][1])
    primes = [l for l in range(2, min(bound, m)) if is_prime(l)]
    base, cut = prod(primes), isqrt(m)
    step = Random(f"{g}:{m}").randrange(1, order)
    stride = pow(g, step, m)
    echelon = RowEchelon(order)
    x, e, relations = stride, step, 0
    for _ in range(_IC_CANDIDATES):
        a, b = _halves(x, m, cut)
        if _smooth(a, base) and _smooth(b, base):
            exps = _exponents(a, primes)
            for l, j in _exponents(b, primes).items():
                exps[l] = exps.get(l, 0) - j
            echelon.add(exps, k * e)
            relations += 1
            if len(echelon.rows) == len(primes) or relations >= 2 * len(primes) + 30:
                break
        x, e = x * stride % m, (e + step) % order
    else:
        raise SearchExhaustedError(
            f"index calculus relation phase: rank {len(echelon.rows)} of {len(primes)} "
            f"after {_IC_CANDIDATES} candidates"
        )
    logs = echelon.solve()
    return pow(k, -1, order), logs, prod(logs), stride, step


def _dlog_index_calculus(ctx: CyclicContext, h: int) -> int | None:
    """Index calculus: the n in [0, order) with g**n = h (mod m), or None if
    h is outside the subgroup; for a subgroup of odd prime order in the units
    mod a prime (PreconditionError otherwise).

    A group's first query runs the relation phase and keeps the logs it
    fixes; every query runs a descent of about 40 target powers at 48 bits."""
    g, m, order = ctx.generator % ctx.modulus, ctx.modulus, ctx.order
    h %= m
    if pow(h, order, m) != 1:
        return None
    k_inv, logs, base, stride, step = _factor_base_logs(g, m, order)
    y, r, cut = h, 0, isqrt(m)
    for _ in range(_IC_DESCENT):
        a, b = _halves(y, m, cut)
        if _smooth(a, base) and _smooth(b, base):
            total = sum(i * logs[l] for l, i in _exponents(a, logs).items())
            total -= sum(j * logs[l] for l, j in _exponents(b, logs).items())
            n = (k_inv * total - r) % order
            if pow(g, n, m) == h:
                return n
        y, r = y * stride % m, r + step
    raise SearchExhaustedError(
        f"index calculus descent: no smooth target power in {_IC_DESCENT} attempts"
    )
