"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract, so new error conditions
should subclass one of the classes below rather than raising bare
exceptions.
"""


class VrgError(Exception):
    """Base class for all errors raised by this package."""


class InputError(VrgError):
    """Malformed input: a spec, a report, an option value or a setting."""


class ParseError(InputError):
    """Malformed polynomial expression. Carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotDivisibleError(VrgError):
    """Exact division was requested but the remainder is nonzero."""


class NotHomogeneousError(InputError):
    """A generator is not weighted-homogeneous for the declared weights."""


class NotFiniteError(VrgError):
    """The generators do not define a finite extension (V(f) != {0})."""


class SpecFileError(InputError):
    """An extension spec file is structurally invalid."""


class DegreeCapExceededError(VrgError):
    """A polynomial passed a cap: an intermediate Groebner polynomial, or a
    power ``base^e`` written in an expression, above the degree cap; or a
    written power of a constant above 65536 bits (``poly._MAX_POWER_BITS``)."""


class ContractionError(VrgError):
    """The contraction of a prime failed to collapse to a single generator."""


class TheoremViolationError(VrgError):
    """An internal cross-check failed.

    Either the Jacobian-exponent identity m_Q = e_Q - 1 broke (which points
    at a factor that is not absolutely irreducible, or a bug), or the two
    well-ramified characterizations disagreed.
    """


class FiberProbeError(InputError):
    """The fiber probe was asked something it cannot do, or its numeric
    listing gave up."""
