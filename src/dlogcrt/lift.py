"""The two lift engines.

Prime-squared path: Hensel-lift a unit x mod p to the root of X**p - X
congruent to x, i.e. the truncated Teichmuller expansion x + x1*p mod p**2.
Knowing a0**n mod p**2 then pins the index n mod p by a linear equation.

Composite path: for safe-prime parameters, lift A = a0**(q-1) mod pq to
mod (pq)**2 with the carry-corrected digits and linearize the power
relation into one congruence in the unknowns (beta, n) mod pq.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import gcd

from .arith import _pow_fixed, mod_inv
from .errors import (
    InvalidInputError,
    Lemma1ViolationError,
    NotAUnitError,
    PreconditionError,
    ZeroDigitError,
)
from .numtheory import _GROUPS, SafePrimeParams, is_prime
from .quotients import LiftProfile, _exact_quotient, _pow_m2, _require_unit, lift_profile

# recover_index_mod_p2 factors p - 1 by trial division below this bound, and
# the cofactor left must be 1 or pass is_prime. That factors p - 1 for every
# p below 2**33 (the odd cofactor of p - 1 is below 2**32, and a composite
# one would need two prime factors above 2**16) and for every safe prime.
# Where the loop runs to the bound (p - 1 = 2q) it took 8 ms at 256 bits and
# 53 ms at 1024 bits (CPython 3.11, x86-64).
_TRIAL_BOUND = 2**16


@dataclass(frozen=True)
class CompositeCarry:
    """Carry beta of a0**(n*(q-1)) mod (pq)**2 above B = b0**(q-1) mod pq."""

    beta: int


def recover_index_mod_p2(p: int, a0: int, power: int) -> tuple[int, int, int, int, int]:
    """Index n mod p of a primitive root a0 from X = a0**n mod p**2, for a
    prime p (InvalidInputError otherwise), with the values it is derived
    from: the tuple (n, b0, beta, a1, b1).

    The Teichmuller digit of a unit x < p is x1 = ((x**p mod p**2) - x) / p:
    the lift x + x1*p is the fixed point of Y -> Y**p mod p**2 above x.
    Writing X = b0 + beta*p and using the digits a1, b1 of a0 and b0, the
    linearized lift relation beta + n*(b0/a0)*a1 = b1 (mod p) is solved for
    n. For 1 <= n <= p - 1 the recovered index is n. Bases whose digit a1
    vanishes mod p are rejected: the relation then says nothing. So are the
    bases that do not generate the units mod p, by a0**((p-1)/r) = 1 for a
    prime r of p - 1 (trial division below _TRIAL_BOUND, and is_prime on the
    cofactor), and, when that leaves a composite cofactor, every base: it
    cannot be confirmed to generate.
    """
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    a0 = a0 % p
    _require_unit(a0, p, "a0")
    if gcd(power, p) != 1:
        raise NotAUnitError(f"power {power} is not a unit mod {p}**2")

    def digit(x: int) -> int:
        return _exact_quotient(pow(x, p, p * p) - x, p, "Teichmuller digit")

    a1 = digit(a0)
    if a1 % p == 0:
        raise ZeroDigitError(
            f"base {a0} has vanishing lift digit mod {p}; index recovery impossible"
        )
    rest, primes = p - 1, []
    for r in chain((2,), range(3, _TRIAL_BOUND, 2)):
        if r * r > rest:
            break
        if rest % r == 0:
            primes.append(r)
            while rest % r == 0:
                rest //= r
    if rest > 1 and is_prime(rest):
        primes.append(rest)
        rest = 1
    if any(pow(a0, (p - 1) // r, p) == 1 for r in primes):
        raise PreconditionError(f"base {a0} is not a primitive root mod {p}")
    if rest > 1:
        raise PreconditionError(
            f"cannot confirm that base {a0} generates the units mod {p}: p - 1 has"
            f" the composite factor {rest} with no prime factor below {_TRIAL_BOUND}"
        )
    beta, b0 = divmod(power % (p * p), p)
    b1 = digit(b0)
    coeff = b0 * mod_inv(a0, p) * a1 % p
    return (b1 - beta) * mod_inv(coeff, p) % p, b0, beta, a1, b1


def carry_beta_pq(params: SafePrimeParams, a0: int, b0: int, n: int) -> CompositeCarry:
    """Carry beta with a0**(n*(q-1)) mod (pq)**2 = B + beta*pq, where
    B = b0**(q-1) mod pq. Exact whenever a0**n = b0 (mod p). It is the beta
    of check_lemma2, so a call after check_lemma2 on the same instance takes
    no power."""
    _require_unit(a0, params.m1, "a0")
    _require_unit(b0, params.m1, "b0")
    return CompositeCarry(beta=check_lemma2(params, a0, b0, n).beta)


def check_lemma1(params: SafePrimeParams, a0: int, b0: int, n: int) -> bool:
    """Whether a0**(n*(q-1)) = b0**(q-1) (mod pq).

    Preconditions (checked): a0, b0 coprime to q, and a0**n = b0 (mod p).
    Under them the congruence always holds (Fermat mod q, the premise mod p).
    Mod q both sides are 1 by Fermat, as both bases are units there, so it is
    checked mod p, a unit's exponent reduced mod p - 1 by Fermat; a base that
    is 0 mod p keeps its exponent, as pow needs no reduction there. The
    premise and a0's side use a0's kept power tables (arith._pow_fixed); no
    profile or lemma-2 report is read, so the route stays independent.
    """
    p = params.p
    if gcd(a0, params.q) != 1 or gcd(b0, params.q) != 1:
        raise PreconditionError("a0 and b0 must be units mod q")
    if _pow_fixed(a0, n, p) != b0 % p:
        raise PreconditionError(f"a0**n != b0 (mod {p}); the index premise is violated")

    def power(x: int, e: int, kernel=pow) -> int:  # x**e mod p
        return kernel(x, e % (p - 1) if x % p else e, p)

    e = params.q - 1
    return power(a0, n * e, _pow_fixed) == power(b0, e)


def _linear_coefficients(
    params: SafePrimeParams, prof_a: LiftProfile, prof_b: LiftProfile
) -> tuple[int, int]:
    """Coefficients (c, d) of beta + c*n = d (mod pq) from the lift profiles
    of a0 and b0: c = -B*q(a0) and d = k_b - B*q(b0), which is exactly b0's
    corrected digit."""
    return -prof_b.power_residue * prof_a.quotient % params.m1, prof_b.digit


@dataclass(frozen=True)
class Lemma2Report:
    """Outcome of checking the composite lift identity for one instance:
    the one derivation of its lift profiles, beta, c and d.

    The identity is one congruence, beta + c*n = d (mod pq), checked once
    as corrected_ok. With A, B the (q-1)-th power residues, the lift
    identity (A + a1*pq)**n = B + b1*pq (mod (pq)**2) is it times A, and
    eq19, n*q(a0) = q(b0) + (beta - k_b)/B, is it times -1/B. Corrected
    digits (carry included) are the operative ones; the literal digits
    (carry omitted) are evaluated side by side so the discrepancy is
    visible whenever the carries do not vanish.
    """

    profile_a: LiftProfile
    profile_b: LiftProfile
    beta: int
    index_coeff: int  # c in beta + c*n = d (mod pq)
    constant: int  # d
    corrected_ok: bool
    literal_lift_identity_ok: bool


@lru_cache(maxsize=_GROUPS)
def check_lemma2(params: SafePrimeParams, a0: int, b0: int, n: int) -> Lemma2Report:
    """Evaluate the composite lift identity with the corrected and with the
    literal digits (see _lemma2). The lift profiles of a0 and b0 are taken
    first, then the premise a0**n = b0 (mod p) of lemma 1 is checked.

    Reports are kept per process (see numtheory._GROUPS), keyed on the
    unreduced n; an instance that violates lemma 1 raises on every call.
    """
    p = params.p
    prof_a = lift_profile(params, a0)
    prof_b = lift_profile(params, b0)
    if (a_n := _pow_fixed(a0, n, p)) != b0 % p:
        raise Lemma1ViolationError(f"a0**n = {a_n} != b0 = {b0 % p} (mod {p})")
    return _lemma2(params, prof_a, prof_b, n)


def _lemma2(
    params: SafePrimeParams, prof_a: LiftProfile, prof_b: LiftProfile, n: int
) -> Lemma2Report:
    """The lemma-2 report of a0**n = b0 (mod p), a premise the caller has
    checked, from the lift profiles of a0 and b0.

    The one power taken, P = (A + k_a*pq)**n = B + beta*pq (mod (pq)**2),
    gives lemma 1 and beta; c and d come from _linear_coefficients. As
    A**(n-1) = B/A (mod pq), (A + x*pq)**n = P + n*(x - k_a)*(B/A)*pq, so
    digits x, y lift exactly when A*(beta - y) + n*B*(x - k_a) = 0 (mod pq).
    For the corrected digits x = k_a - A*q(a0), y = d this is A times
    beta + c*n = d (mod pq), the one corrected flag.
    """
    m1 = params.m1
    a_res, b_res, k_a = prof_a.power_residue, prof_b.power_residue, prof_a.carry
    full = _pow_m2(params, a_res + k_a * m1, n)
    if full % m1 != b_res:
        raise Lemma1ViolationError(
            f"a0**(n*(q-1)) = {full % m1} != {b_res} (mod {m1})"
        )
    beta = (full - b_res) // m1
    coeff, constant = _linear_coefficients(params, prof_a, prof_b)

    def lifts(digit_a: int, digit_b: int) -> bool:
        return (a_res * (beta - digit_b) + n * b_res * (digit_a - k_a)) % m1 == 0

    return Lemma2Report(
        profile_a=prof_a,
        profile_b=prof_b,
        beta=beta,
        index_coeff=coeff,
        constant=constant,
        corrected_ok=lifts(prof_a.digit, prof_b.digit),
        literal_lift_identity_ok=lifts(prof_a.digit_literal, prof_b.digit_literal),
    )
