"""Exception hierarchy. Every error carries a short machine-readable code
that the CLI emits in its structured error documents."""


class DlogCrtError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class InvalidInputError(DlogCrtError, ValueError):
    code = "invalid-input"


class NotInvertibleError(DlogCrtError):
    """Modular inverse does not exist; carries the offending gcd."""

    code = "not-invertible"

    def __init__(self, a: int, modulus: int, gcd: int):
        super().__init__(f"{a} is not invertible mod {modulus} (gcd = {gcd})")
        self.a = a
        self.modulus = modulus
        self.gcd = gcd


class InvalidModuliError(DlogCrtError, ValueError):
    code = "invalid-moduli"


class NotAUnitError(DlogCrtError, ValueError):
    code = "not-a-unit"


class ExactnessError(DlogCrtError):
    """An exact division failed. This is a bug detector: a non-exact carry
    means a precondition of the underlying identity was violated."""

    code = "exactness-violation"


class DegenerateModulusError(DlogCrtError, ValueError):
    code = "degenerate-modulus"


class SearchExhaustedError(DlogCrtError):
    code = "search-exhausted"


class ZeroDigitError(DlogCrtError):
    """The base has vanishing first lift digit, so index recovery from the
    prime-squared lift would divide by zero."""

    code = "zero-digit"


class Lemma1ViolationError(DlogCrtError):
    code = "lemma1-violated"


class PreconditionError(DlogCrtError, ValueError):
    code = "precondition-violated"


class NoSolutionError(DlogCrtError):
    code = "no-solution"


class TooManySolutionsError(DlogCrtError):
    code = "too-many-solutions"


class InvalidSystemError(DlogCrtError, ValueError):
    code = "invalid-system"


class OrderTooLargeError(DlogCrtError):
    code = "order-too-large"


class InvalidInstanceError(DlogCrtError, ValueError):
    code = "invalid-instance"
