"""Transform of a safe-prime discrete-log instance into one linear
congruence in the unknowns (beta, n) mod pq, split over the coprime moduli
p and q; plus the order-q subgroup recovery of n mod q and the desk-scale
end-to-end solver built on it."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InvalidInstanceError, NoSolutionError, PreconditionError
from .lift import Lemma2Report, check_lemma1, check_lemma2
from .numtheory import SafePrimeParams
from .oracle import CyclicContext, dlog_bsgs
from .quotients import LiftProfile, lift_profile


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
        if pow(self.base, 2, p) == 1 or pow(self.base, q, p) == 1:
            raise InvalidInstanceError(
                f"base = {self.base} is not a primitive root of {p}"
            )
        if self.known_index is not None:
            if self.known_index < 0:
                raise InvalidInstanceError("known index must be nonnegative")
            if pow(self.base, self.known_index, p) != self.target % p:
                raise InvalidInstanceError(
                    f"base**{self.known_index} != target (mod {p})"
                )


@dataclass(frozen=True)
class LinearCongruence:
    """u*beta + v*n = w (mod m), coefficients canonical."""

    beta_coeff: int
    index_coeff: int
    constant: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise InvalidInstanceError(f"modulus must be >= 2, got {self.modulus}")
        for f in ("beta_coeff", "index_coeff", "constant"):
            object.__setattr__(self, f, getattr(self, f) % self.modulus)

    def satisfied_by(self, beta: int, n: int) -> bool:
        return (
            self.beta_coeff * beta + self.index_coeff * n - self.constant
        ) % self.modulus == 0

    def reduced(self, modulus: int) -> "LinearCongruence":
        if self.modulus % modulus != 0:
            raise InvalidInstanceError(
                f"{modulus} does not divide the modulus {self.modulus}"
            )
        return LinearCongruence(
            self.beta_coeff % modulus,
            self.index_coeff % modulus,
            self.constant % modulus,
            modulus,
        )


@dataclass(frozen=True)
class CongruenceSystem:
    """A master congruence mod pq together with its reductions mod the
    pairwise-coprime factors."""

    master: LinearCongruence
    parts: tuple[LinearCongruence, ...]

    def __post_init__(self):
        product = 1
        for i, part in enumerate(self.parts):
            product *= part.modulus
            for other in self.parts[i + 1 :]:
                if gcd(part.modulus, other.modulus) != 1:
                    raise InvalidInstanceError("part moduli must be coprime")
            if part != self.master.reduced(part.modulus):
                raise InvalidInstanceError(
                    f"part mod {part.modulus} is not the reduced master"
                )
        if product != self.master.modulus:
            raise InvalidInstanceError(
                "part moduli must multiply to the master modulus"
            )

    def satisfied_by(self, beta: int, n: int) -> bool:
        return self.master.satisfied_by(beta, n) and all(
            part.satisfied_by(beta, n) for part in self.parts
        )


def master_coefficients(
    params: SafePrimeParams, base: int, target: int
) -> tuple[int, int]:
    """Coefficients (c, d) of the master congruence beta + c*n = d (mod pq):
    c = -B*q(base) and d = k_b - B*q(target), taken from the target's lift
    profile (d is exactly the target's corrected digit)."""
    prof_b = lift_profile(params, target)
    quotient_a = lift_profile(params, base).quotient
    c = -prof_b.power_residue * quotient_a % params.m1
    return c, prof_b.digit


def _master_system(params: SafePrimeParams, c: int, d: int) -> CongruenceSystem:
    """beta + c*n = d (mod pq) with its reductions mod p and mod q."""
    master = LinearCongruence(1, c, d, params.m1)
    return CongruenceSystem(
        master=master,
        parts=(master.reduced(params.p), master.reduced(params.q)),
    )


def transform(instance: DlogInstance) -> CongruenceSystem:
    """Reduce the instance to beta + c*n = d (mod pq) plus its reductions
    mod p and mod q. The carry beta of base**(n*(q-1)) above the target's
    (q-1)-th power residue, paired with the true index n, satisfies every
    equation of the system."""
    params = instance.params
    return _master_system(
        params, *master_coefficients(params, instance.base, instance.target)
    )


def subgroup_index_mod_q(instance: DlogInstance) -> int:
    """Index n mod q, recovered inside the order-q subgroup of units mod pq
    generated by A = base**(q-1): the unique n_q with A**n_q = B (mod pq)."""
    params = instance.params
    a_res = pow(instance.base, params.q - 1, params.m1)
    b_res = pow(instance.target, params.q - 1, params.m1)
    ctx = CyclicContext(generator=a_res, modulus=params.m1, order=params.q)
    n_q = dlog_bsgs(ctx, b_res)
    if n_q is None:
        raise NoSolutionError(
            "target power residue is outside the subgroup; instance invariants broken"
        )
    return n_q


def candidates_mod_group_order(n_q: int, params: SafePrimeParams) -> tuple[int, int]:
    """The two index candidates {n_q, n_q + q} mod p - 1 = 2q."""
    order = params.group_order
    return (n_q % order, (n_q % order + params.q) % order)


def _verified_candidate(instance: DlogInstance, candidates: tuple[int, int]) -> int:
    """The candidate n with base**n = target (mod p)."""
    p = instance.params.p
    for candidate in candidates:
        if pow(instance.base, candidate, p) == instance.target % p:
            return candidate
    raise NoSolutionError("no candidate verifies; instance invariants broken")


def solve_small(instance: DlogInstance) -> int:
    """The index n mod p - 1, found by subgroup recovery mod q and direct
    verification of the two lifted candidates. Desk scale only: the
    subgroup step costs O(sqrt(q)) group operations."""
    n_q = subgroup_index_mod_q(instance)
    return _verified_candidate(
        instance, candidates_mod_group_order(n_q, instance.params)
    )


@dataclass(frozen=True)
class VerificationReport:
    """All intermediate values and checks for an instance with known index.

    Everything is re-derivable from (p, q, base, target, known index); the
    literal digits sit next to the corrected ones so any discrepancy is
    explicit in the report rather than hidden.
    """

    instance: DlogInstance
    profile_a: LiftProfile
    profile_b: LiftProfile
    beta: int
    system: CongruenceSystem
    lemma2: Lemma2Report
    lemma1_ok: bool
    master_ok: bool
    parts_ok: bool
    subgroup_index: int
    candidates: tuple[int, int]
    recovered_index: int
    recovered_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.lemma1_ok
            and self.lemma2.corrected_ok
            and self.master_ok
            and self.parts_ok
            and self.recovered_ok
        )


def verify_instance(instance: DlogInstance) -> VerificationReport:
    """Run every check on an instance with known index and collect the
    evidence into one report. Each derived value is computed once: the lift
    profiles, beta, c and d come from the lemma-2 check, and the subgroup
    discrete log runs once for both the candidates and the recovery."""
    if instance.known_index is None:
        raise PreconditionError("verification requires a known index")
    params, a0, b0 = instance.params, instance.base, instance.target
    n = instance.known_index

    lemma1_ok = check_lemma1(params, a0, b0, n)
    lemma2 = check_lemma2(params, a0, b0, n)
    beta = lemma2.beta
    system = _master_system(params, lemma2.index_coeff, lemma2.constant)
    master_ok = system.master.satisfied_by(beta, n)
    parts_ok = all(part.satisfied_by(beta, n) for part in system.parts)

    n_q = subgroup_index_mod_q(instance)
    candidates = candidates_mod_group_order(n_q, params)
    recovered = _verified_candidate(instance, candidates)
    recovered_ok = recovered == n % params.group_order

    return VerificationReport(
        instance=instance,
        profile_a=lemma2.profile_a,
        profile_b=lemma2.profile_b,
        beta=beta,
        system=system,
        lemma2=lemma2,
        lemma1_ok=lemma1_ok,
        master_ok=master_ok,
        parts_ok=parts_ok,
        subgroup_index=n_q,
        candidates=candidates,
        recovered_index=recovered,
        recovered_ok=recovered_ok,
    )
