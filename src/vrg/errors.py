"""Exception hierarchy shared across the package, and the one table of exit codes.

Each class carries the exit code that ``vrg`` returns for it in ``exit_code``,
and a subclass inherits its parent's, so a new error condition subclasses one
of these classes rather than raising a bare exception:

    2  InputError, ParseError, SpecFileError, NotHomogeneousError,
       FiberProbeError: invalid input
    3  NotFiniteError: the extension is not finite
    4  VrgError, NotDivisibleError, DegreeCapExceededError, ContractionError,
       TheoremViolationError: an internal cross-check failed

``vrg`` adds 0 for success, 1 for an I/O failure (``OSError``) and 10 for a
sound "no" from ``wellramified``.
"""


class VrgError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 4


class InputError(VrgError):
    """Malformed input: a spec, a report, an option value or a setting."""

    exit_code = 2


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

    exit_code = 3


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
