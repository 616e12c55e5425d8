"""The composite-modulus generalization of the Fermat quotient for
safe-prime parameters, and the carry-corrected lift digits.

The generalized quotient q(x) is defined by

    x**(pq*(q-1)) = 1 + q(x) * (pq)**2   (mod (pq)**3),

which is well defined because pq*(q-1) is the exponent of the unit group
mod (pq)**2. q(x) depends on x mod (pq)**2, not on x mod pq: all operations
here therefore take the base as an int, never as a pre-reduced residue mod pq.

No power is taken mod (pq)**2 or (pq)**3. For q >= 3 the binomial theorem
gives q(x) = -3*f_p(x) (mod p) and q(x) = f_q(x) (mod q), where
f_r(x) = (x**(r-1) mod r**2 - 1)/r is the classical Fermat quotient, so
every lift quantity of x comes from x**(q-1) mod p**2 and mod q**2, and a
residue mod (pq)**2 is the CRT of its residues mod p**2 and q**2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ExactnessError, NotAUnitError
from .numtheory import SafePrimeParams


@dataclass(frozen=True)
class LiftProfile:
    """Per-base data for lifting x**(q-1) from mod pq to mod (pq)**2.

    power_residue  A = x**(q-1) mod pq
    carry          k with x**(q-1) mod (pq)**2 = A + k*pq
    quotient       generalized quotient q(x), canonical mod pq
    digit          corrected lift digit (k - A*q(x)) mod pq
    digit_literal  naive digit (-A*q(x)) mod pq, which ignores the carry;
                   kept for the discrepancy report
    """

    power_residue: int
    carry: int
    quotient: int
    digit: int
    digit_literal: int


def _require_unit(x: int, m: int, what: str) -> None:
    g = gcd(x, m)
    if g != 1:
        raise NotAUnitError(f"{what} = {x} is not a unit mod {m} (gcd = {g})")


def _exact_quotient(numerator: int, divisor: int, context: str) -> int:
    quot, rem = divmod(numerator, divisor)
    if rem != 0:
        raise ExactnessError(f"{context}: {numerator} not divisible by {divisor}")
    return quot


def _fermat(r: int, power: int) -> int:
    """Fermat quotient (power - 1)/r mod r of power = x**(r-1) mod r**2."""
    return _exact_quotient(power - 1, r, "Fermat quotient") % r


def _crt_m2(params: SafePrimeParams, r_p2: int, r_q2: int) -> int:
    """The residue mod (pq)**2 that is r_p2 mod p**2 and r_q2 mod q**2.

    p = 1 + 2q gives p**2 = 1 + 4q (mod q**2), whose inverse is 1 - 4q.
    """
    q2 = params.q * params.q
    return r_p2 + params.p * params.p * ((r_q2 - r_p2) * (1 - 4 * params.q) % q2)


def _pow_m2(params: SafePrimeParams, x: int, e: int) -> int:
    """x**e mod (pq)**2, from the powers mod p**2 and mod q**2."""
    return _crt_m2(
        params, pow(x, e, params.p * params.p), pow(x, e, params.q * params.q)
    )


def lift_profile(params: SafePrimeParams, x: int) -> LiftProfile:
    """Assemble the full lift profile of a base from s_p = x**(q-1) mod p**2
    and s_q = x**(q-1) mod q**2. Their CRT is x**(q-1) mod (pq)**2 = A + k*pq;
    q(x) is the CRT of -3*f_p(x) mod p and f_q(x) mod q. The divisions by p
    and q are exact for prime p and q; a failure signals corrupted parameters.

    The corrected digit includes the integer carry k of x**(q-1) from mod pq
    to mod (pq)**2; the literal digit -A*q(x) omits it and is wrong whenever
    k != 0 (both are recorded).
    """
    _require_unit(x, params.m1, "base")
    p, q, m1 = params.p, params.q, params.m1
    p2 = p * p
    s_p, s_q = pow(x, q - 1, p2), pow(x, q - 1, q * q)
    carry, power_residue = divmod(_crt_m2(params, s_p, s_q), m1)
    # x**(p-1) = s_p**2 * x**2 (mod p**2), and p = 1 (mod q)
    r_p = -3 * _fermat(p, s_p * s_p * pow(x, 2, p2) % p2) % p
    quotient = r_p + p * ((_fermat(q, s_q) - r_p) % q)
    digit = (carry - power_residue * quotient) % m1
    digit_literal = -power_residue * quotient % m1
    return LiftProfile(
        power_residue=power_residue,
        carry=carry,
        quotient=quotient,
        digit=digit,
        digit_literal=digit_literal,
    )
