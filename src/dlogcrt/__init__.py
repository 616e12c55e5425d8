"""Reduction of safe-prime discrete-log instances to linear congruence
systems in two unknowns over coprime moduli, with the lift machinery, a
subgroup discrete-log solver, and a general multivariable-CRT solver behind it."""

from .arith import crt_pair, egcd, mod_inv
from .lift import (
    CompositeCarry,
    Lemma2Report,
    carry_beta_pq,
    check_lemma1,
    check_lemma2,
    recover_index_mod_p2,
)
from .mcrt import (
    LinearEquation,
    LinearSystem,
    SolutionSet,
    solve_system,
)
from .numtheory import (
    Factorization,
    SafePrimeParams,
    gen_safe_prime,
    is_prime,
    primitive_root,
)
from .oracle import CyclicContext, dlog
from .quotients import LiftProfile, lift_profile
from .reduction import (
    CongruenceSystem,
    DlogInstance,
    LinearCongruence,
    VerificationReport,
    solve_small,
    subgroup_index_mod_q,
    transform,
    verify_instance,
)

__version__ = "0.1.0"

__all__ = [
    "CompositeCarry",
    "CongruenceSystem",
    "CyclicContext",
    "DlogInstance",
    "Factorization",
    "Lemma2Report",
    "LiftProfile",
    "LinearCongruence",
    "LinearEquation",
    "LinearSystem",
    "SafePrimeParams",
    "SolutionSet",
    "VerificationReport",
    "carry_beta_pq",
    "check_lemma1",
    "check_lemma2",
    "crt_pair",
    "dlog",
    "egcd",
    "gen_safe_prime",
    "is_prime",
    "lift_profile",
    "mod_inv",
    "primitive_root",
    "recover_index_mod_p2",
    "solve_small",
    "solve_system",
    "subgroup_index_mod_q",
    "transform",
    "verify_instance",
]
