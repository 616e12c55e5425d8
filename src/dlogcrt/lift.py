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
from math import gcd

from .arith import mod_inv
from .errors import (
    InconsistentInputsError,
    Lemma1ViolationError,
    NotAUnitError,
    PreconditionError,
    ZeroDigitError,
)
from .numtheory import SafePrimeParams
from .quotients import LiftProfile, _exact_quotient, _pow_m2, _require_unit, lift_profile


@dataclass(frozen=True)
class CompositeCarry:
    """Carry beta of a0**(n*(q-1)) mod (pq)**2 above B = b0**(q-1) mod pq."""

    beta: int


def teichmuller_digit(p: int, x: int) -> int:
    """First lift digit x1 = ((x**p mod p**2) - x) / p for a unit x < p; the
    lift x + x1*p is the fixed point of X -> X**p mod p**2 above x."""
    if not 0 <= x < p:
        raise PreconditionError(f"base {x} must be canonical mod {p}")
    _require_unit(x, p, "base")
    return _exact_quotient(pow(x, p, p * p) - x, p, "Teichmuller digit")


def carry_beta_p2(p: int, b0: int, power: int) -> int:
    """Carry beta = (power - b0) / p where power is known mod p**2 and
    reduces to b0 mod p."""
    if not 0 <= b0 < p:
        raise PreconditionError(f"b0 = {b0} must be canonical mod {p}")
    if not 0 <= power < p * p:
        raise PreconditionError(f"power {power} must be canonical mod {p}**2")
    if power % p != b0:
        raise InconsistentInputsError(
            f"power {power} is {power % p}, not {b0}, mod {p}"
        )
    return (power - b0) // p


def recover_index_mod_p2(p: int, a0: int, power: int) -> tuple[int, int, int, int, int]:
    """Index n mod p of a primitive root a0 from X = a0**n mod p**2, with
    the values it is derived from: the tuple (n, b0, beta, a1, b1).

    Writing X = b0 + beta*p and using the Teichmuller digits a1, b1 of
    a0 and b0, the linearized lift relation beta + n*(b0/a0)*a1 = b1 (mod p)
    is solved for n. For 1 <= n <= p - 1 the recovered index is n. Bases whose
    digit a1 vanishes mod p are rejected: the relation then says nothing.
    """
    a0 = a0 % p
    _require_unit(a0, p, "a0")
    if gcd(power, p) != 1:
        raise NotAUnitError(f"power {power} is not a unit mod {p}**2")
    a1 = teichmuller_digit(p, a0)
    if a1 % p == 0:
        raise ZeroDigitError(
            f"base {a0} has vanishing lift digit mod {p}; index recovery impossible"
        )
    b0 = power % p
    beta = carry_beta_p2(p, b0, power % (p * p))
    b1 = teichmuller_digit(p, b0)
    coeff = b0 * mod_inv(a0, p) * a1 % p
    return (b1 - beta) * mod_inv(coeff, p) % p, b0, beta, a1, b1


def carry_beta_pq(
    params: SafePrimeParams, a0: int, b0: int, n: int
) -> CompositeCarry:
    """Carry beta with a0**(n*(q-1)) mod (pq)**2 = B + beta*pq, where
    B = b0**(q-1) mod pq. Exact whenever a0**n = b0 (mod p)."""
    _require_unit(a0, params.m1, "a0")
    _require_unit(b0, params.m1, "b0")
    if pow(a0, n, params.p) != b0 % params.p:
        raise Lemma1ViolationError(
            f"a0**n = {pow(a0, n, params.p)} != b0 = {b0 % params.p} (mod {params.p})"
        )
    b_residue = pow(b0, params.q - 1, params.m1)
    full = _pow_m2(params, a0, n * (params.q - 1))
    if full % params.m1 != b_residue:
        raise Lemma1ViolationError(
            f"a0**(n*(q-1)) = {full % params.m1} != {b_residue} (mod {params.m1})"
        )
    return CompositeCarry(beta=(full - b_residue) // params.m1)


def check_lemma1(params: SafePrimeParams, a0: int, b0: int, n: int) -> bool:
    """Whether a0**(n*(q-1)) = b0**(q-1) (mod pq).

    Preconditions (checked): a0, b0 coprime to q, and a0**n = b0 (mod p).
    Under them the congruence always holds (Fermat mod q, the premise mod p).
    """
    if gcd(a0, params.q) != 1 or gcd(b0, params.q) != 1:
        raise PreconditionError("a0 and b0 must be units mod q")
    if pow(a0, n, params.p) != b0 % params.p:
        raise PreconditionError(
            f"a0**n != b0 (mod {params.p}); the index premise is violated"
        )
    return pow(a0, n * (params.q - 1), params.m1) == pow(
        b0, params.q - 1, params.m1
    )


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

    Corrected digits (carry included) are the operative ones; the literal
    digits (carry omitted) are evaluated side by side so the discrepancy is
    visible whenever the carries do not vanish.
    """

    profile_a: LiftProfile
    profile_b: LiftProfile
    beta: int
    index_coeff: int  # c in beta + c*n = d (mod pq)
    constant: int  # d
    lift_identity_ok: bool
    linear_congruence_ok: bool
    eq19_corrected_ok: bool
    literal_lift_identity_ok: bool

    @property
    def corrected_ok(self) -> bool:
        # eq19 is the linear congruence divided by the unit B, so the two
        # agree; both are kept as separate checks
        return (
            self.lift_identity_ok
            and self.linear_congruence_ok
            and self.eq19_corrected_ok
        )


def check_lemma2(params: SafePrimeParams, a0: int, b0: int, n: int) -> Lemma2Report:
    """Evaluate the composite lift identity and its linearization.

    Checks, with A, B the (q-1)-th power residues and a1, b1 the corrected
    digits:

      lift identity        (A + a1*pq)**n = B + b1*pq   (mod (pq)**2)
      linear congruence    beta + n*c = d               (mod pq)
      quotient relation    n*q(a0) = q(b0) + (beta - k_b)/B  (mod pq)

    with c and d from _linear_coefficients. The lift identity with the
    literal digits is recorded as the literal flag.
    """
    m1, m2 = params.m1, params.m2
    prof_a = lift_profile(params, a0)
    prof_b = lift_profile(params, b0)
    beta = carry_beta_pq(params, a0, b0, n).beta
    coeff, constant = _linear_coefficients(params, prof_a, prof_b)
    a_res, b_res = prof_a.power_residue, prof_b.power_residue
    eq19_rhs = (prof_b.quotient + (beta - prof_b.carry) * mod_inv(b_res, m1)) % m1

    def lifts(digit_a: int, digit_b: int) -> bool:
        return _pow_m2(params, a_res + digit_a * m1, n) == (b_res + digit_b * m1) % m2

    return Lemma2Report(
        profile_a=prof_a,
        profile_b=prof_b,
        beta=beta,
        index_coeff=coeff,
        constant=constant,
        lift_identity_ok=lifts(prof_a.digit, prof_b.digit),
        linear_congruence_ok=(beta + n * coeff) % m1 == constant,
        eq19_corrected_ok=n * prof_a.quotient % m1 == eq19_rhs,
        literal_lift_identity_ok=lifts(prof_a.digit_literal, prof_b.digit_literal),
    )
