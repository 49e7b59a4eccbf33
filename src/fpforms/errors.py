"""Exception types shared across the kernel.

The hierarchy mirrors how the command line reports failures:

* ParseError and its relatives are usage errors (exit code 1),
* MathDomainError covers violated mathematical preconditions (exit code 2),
* InternalError marks conditions that indicate a bug in the kernel (exit 3).
"""


def _shown(value) -> str:
    """repr(value) for an error message, even where str() refuses an int.

    An int of more digits than sys.get_int_max_str_digits() allows (4300
    by default) is named by its digit count, as '<5001-digit int>', also
    inside a list or tuple; any other value that will not print is named
    by its type.  Every value that prints is shown exactly as repr shows it.
    """
    try:
        return repr(value)
    except ValueError:
        pass
    if isinstance(value, int):
        m = abs(value)
        # a (b+1)-bit m has floor(b * log10(2)) + 1 or one more digits
        k = int((m.bit_length() - 1) * 0.30102999566398120) + 1
        k += m >= 10**k
        return "%s<%d-digit int>" % ("-" if value < 0 else "", k)
    if isinstance(value, (list, tuple)):
        parts = ", ".join(map(_shown, value))
        if isinstance(value, list):
            return "[%s]" % parts
        return "(%s%s)" % (parts, "," if len(value) == 1 else "")
    return "<%s>" % type(value).__name__


class FpFormsError(Exception):
    """Base class for every error raised by this package."""


class ParseError(FpFormsError):
    """Malformed expression text.  Carries position and expectations."""

    def __init__(self, message, line=1, column=1, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        suffix = ""
        if self.expected:
            suffix = " (expected %s)" % " or ".join(self.expected)
        super().__init__(
            "%s at line %d, column %d%s" % (message, line, column, suffix)
        )


class VariableOutOfRange(ParseError):
    """A variable name denotes an index outside 1..n."""


class PrimeOutOfRange(FpFormsError):
    """The characteristic is not a prime in the supported range."""


class MathDomainError(FpFormsError):
    """A mathematical precondition of an operation was violated."""


class DivisionByZero(MathDomainError, ZeroDivisionError):
    """Inversion or division by the zero residue."""


class ZeroDenominator(MathDomainError, ZeroDivisionError):
    """A rational function was given the zero polynomial as denominator."""


class PrimeMismatch(MathDomainError):
    """Two operands live over different prime fields."""


class ArityMismatch(MathDomainError):
    """Two operands live in different numbers of variables."""


class IndexOutOfRange(MathDomainError, IndexError):
    """A variable or multi-index entry lies outside 1..n."""


class ObstructedAntiderivative(MathDomainError):
    """A monomial with z_i-exponent = p-1 (mod p) has no antiderivative."""


class NotPthPower(MathDomainError):
    """An exponent vector is not componentwise divisible by p."""


class DegreeOverflow(MathDomainError):
    """A per-variable exponent exceeded the configured degree limit."""


class NotClosed(MathDomainError):
    """The form is not closed, so the operation is undefined."""


class NotPClosed(MathDomainError):
    """The form is not p-closed, so no potential exists."""


class NonPolynomial(MathDomainError):
    """The operation is defined for polynomial coefficients only."""


class DegreeZero(MathDomainError):
    """The operation requires a form of degree at least one."""


class DegreeMismatch(MathDomainError):
    """Two forms have different degrees where equal degrees are required."""


class SystemTooLarge(MathDomainError):
    """One weight block of the exactness oracle exceeds 200,000 cells.

    The oracle's degree bound does not enter: any margin >= 1 asks the
    unbounded question, since a potential's exponents never pass the
    form's per-variable degree + 1.
    """


class InternalError(FpFormsError):
    """An invariant the kernel relies on failed to hold."""


class InternalResidual(InternalError):
    """Integration terminated with a nonzero residual."""
