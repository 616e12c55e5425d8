"""Transform of a safe-prime discrete-log instance into one linear
congruence in the unknowns (beta, n) mod pq, split over the coprime moduli
p and q; plus the order-q subgroup recovery of n mod q and the end-to-end
solver built on it."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from math import gcd

from .arith import _pow_fixed, crt_pair
from .errors import InvalidInstanceError, NoSolutionError
from .lift import Lemma2Report, _index_power, _lemma2, _linear_coefficients
from .mcrt import LinearEquation, LinearSystem
from .numtheory import _GROUPS, SafePrimeParams
from .oracle import CyclicContext, dlog
from .quotients import lift_profile


@dataclass(frozen=True)
class DlogInstance:
    """A discrete-log instance base**n = target (mod p) over safe-prime
    parameters, with an optional known index for verification runs."""

    params: SafePrimeParams
    base: int
    target: int
    known_index: int | None = None

    def __post_init__(self):
        p, q, m1 = self.params.p, self.params.q, self.params.m1
        for name, x in (("base", self.base), ("target", self.target)):
            g = gcd(x, m1)
            if g != 1:
                raise InvalidInstanceError(
                    f"{name} = {x} is not a unit mod {m1} (gcd = {g})"
                )
        if pow(self.base, 2, p) == 1 or _pow_fixed(self.base, q, p) == 1:
            raise InvalidInstanceError(
                f"base = {self.base} is not a primitive root of {p}"
            )
        if self.known_index is not None:
            if self.known_index < 0:
                raise InvalidInstanceError("known index must be nonnegative")
            if _index_power(self.base, self.known_index, p) != self.target % p:
                raise InvalidInstanceError(
                    f"base**{self.known_index} != target (mod {p})"
                )


class LinearCongruence(LinearEquation):
    """u*beta + v*n = w (mod m): a linear equation in the two unknowns
    (beta, n), with coeffs = (u, v)."""

    @property
    def beta_coeff(self) -> int:
        return self.coeffs[0]

    @property
    def index_coeff(self) -> int:
        return self.coeffs[1]


class CongruenceSystem(LinearSystem):
    """Congruences in (beta, n) over pairwise coprime moduli, the parts of
    one master congruence mod their product."""

    @property
    def parts(self) -> tuple[LinearCongruence, ...]:
        return self.equations

    @property
    def master(self) -> LinearCongruence:
        """The parts recombined into one congruence mod their product: the
        CRT of each coefficient and of the constant."""

        def recombine(x: LinearCongruence, y: LinearCongruence) -> LinearCongruence:
            *coeffs, constant = (
                crt_pair(a, x.modulus, b, y.modulus)
                for a, b in zip((*x.coeffs, x.constant), (*y.coeffs, y.constant))
            )
            return LinearCongruence(tuple(coeffs), constant, x.modulus * y.modulus)

        return reduce(recombine, self.parts)


def transform(instance: DlogInstance) -> CongruenceSystem:
    """Reduce the instance to beta + c*n = d (mod pq) plus its reductions
    mod p and mod q. The carry beta of base**(n*(q-1)) above the target's
    (q-1)-th power residue, paired with the true index n, satisfies every
    equation of the system."""
    params = instance.params
    prof_a = lift_profile(params, instance.base)
    prof_b = lift_profile(params, instance.target)
    c, d = _linear_coefficients(params, prof_a, prof_b)
    return CongruenceSystem(
        2, tuple(LinearCongruence((1, c), d, m) for m in (params.p, params.q))
    )


# The order-q subgroups of the solve and verify paths, validated once and
# kept per (A mod p, p, q) under numtheory._GROUPS. Errors are not kept.
@lru_cache(maxsize=_GROUPS)
def _subgroup(a_res: int, p: int, q: int) -> CyclicContext:
    """The order-q subgroup generated by a_res mod p."""
    return CyclicContext(generator=a_res, modulus=p, order=q)


def _subgroup_log(a_res: int, b_res: int, p: int, q: int) -> int:
    """The n_q in [0, q) with a_res**n_q = b_res (mod p) in the kept order-q
    subgroup generated by a_res = base**(q-1) mod p, for b_res =
    target**(q-1) mod p."""
    n_q = dlog(_subgroup(a_res, p, q), b_res)
    if n_q is None:
        raise NoSolutionError(
            "target power residue is outside the subgroup; instance invariants broken"
        )
    return n_q


def subgroup_index_mod_q(instance: DlogInstance) -> int:
    """Index n mod q, recovered inside the order-q subgroup generated by
    A = base**(q-1): the unique n_q with A**n_q = B (mod pq). The log is
    taken mod p, which gives the same n_q: A and B are 1 mod q by Fermat,
    so A**n = B holds mod pq exactly when it holds mod p."""
    p, q = instance.params.p, instance.params.q
    return _subgroup_log(pow(instance.base, q - 1, p), pow(instance.target, q - 1, p), p, q)


def _lift_candidates(instance: DlogInstance, n_q: int) -> tuple[tuple[int, int], int]:
    """The two index candidates (n_q, n_q + q) mod p - 1 = 2q for the
    subgroup index n_q in [0, q), and the one n among them with
    base**n = target (mod p)."""
    p = instance.params.p
    candidates = (n_q, n_q + instance.params.q)
    for candidate in candidates:
        if pow(instance.base, candidate, p) == instance.target % p:
            return candidates, candidate
    raise NoSolutionError("no candidate verifies; instance invariants broken")


def solve_small(instance: DlogInstance) -> int:
    """The index n mod p - 1, found by subgroup recovery mod q and direct
    verification of the two lifted candidates, for orders up to 2**48, which
    admits every p up to 48 bits. The subgroup step is index calculus from
    q = 2**28 (a relation phase once per group, then a descent per target)
    and baby-step giant-step, O(sqrt(q)) group operations, below it."""
    return _lift_candidates(instance, subgroup_index_mod_q(instance))[1]


@dataclass(frozen=True)
class VerificationReport:
    """All intermediate values and checks for an instance and its index.

    Everything is re-derivable from (p, q, base, target, known index); the
    lift profiles, beta, c, d and the lemma-2 flags are those of lemma2,
    whose literal digits sit next to the corrected ones so any discrepancy
    is explicit in the report rather than hidden. The parts of transform's
    system split lemma2's one congruence over p and q and carry no flag.
    """

    instance: DlogInstance
    lemma2: Lemma2Report
    subgroup_index: int
    candidates: tuple[int, int]
    recovered_index: int
    recovered_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.lemma2.corrected_ok and self.recovered_ok


def verify_instance(instance: DlogInstance) -> VerificationReport:
    """Run every check on an instance and collect the evidence into one
    report. An instance without a known index gets the index solve_small
    would return. Each derived value is computed once: the two lift profiles
    give the subgroup residues A and B mod p and feed the lemma-2 body,
    which takes lemma 1, beta, c, d and the corrected congruence from them
    (DlogInstance has checked its premise), and the subgroup log runs once
    for the candidates, the recovery and any missing index. No congruence
    system is built."""
    params, p = instance.params, instance.params.p
    prof_a = lift_profile(params, instance.base)
    prof_b = lift_profile(params, instance.target)
    n_q = _subgroup_log(prof_a.power_residue % p, prof_b.power_residue % p, p, params.q)
    candidates, recovered = _lift_candidates(instance, n_q)
    if instance.known_index is None:
        instance = replace(instance, known_index=recovered)
    n = instance.known_index

    return VerificationReport(
        instance=instance,
        lemma2=_lemma2(params, prof_a, prof_b, n),
        subgroup_index=n_q,
        candidates=candidates,
        recovered_index=recovered,
        recovered_ok=recovered == n % params.group_order,
    )
