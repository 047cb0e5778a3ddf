"""Exception types shared across the package.

Each failure mode callers are expected to distinguish gets its own
class; everything derives from ValueError, RuntimeError, or
ArithmeticError so generic handling still works.
"""

import sys

__all__ = [
    "MatrixParseError",
    "SeifertMatrixError",
    "EvenModulusError",
    "EnumerationCapError",
    "SignatureIndeterminateError",
    "CriterionInapplicableError",
    "NonSquareFreeError",
    "StabilizationError",
    "require_odd",
    "require_dihedral_order",
    "oversized_digits",
    "require_printable",
]


class MatrixParseError(ValueError):
    """Matrix text could not be parsed; the message carries position info."""


class SeifertMatrixError(ValueError):
    """A matrix failed Seifert-matrix validation."""


class EvenModulusError(ValueError):
    """An operation that needs an odd dihedral order n was given an even one."""


class EnumerationCapError(RuntimeError):
    """A torsion group is too large to enumerate under the configured cap."""


class SignatureIndeterminateError(ArithmeticError):
    """The Hermitian form is singular at the requested root of unity, a
    root of the Alexander polynomial, so its signature is not defined."""


class CriterionInapplicableError(ValueError):
    """The cyclic-order shortcut was asked about a non-cyclic group."""


class NonSquareFreeError(ValueError):
    """The ribbon inequality was asked for a modulus with a square factor."""


class StabilizationError(ValueError):
    """A class cannot be zero-framed: its form value is not 0 mod n^2."""


def require_odd(n):
    """Reject even moduli up front; every n-dependent operation calls this."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"modulus must be an integer, got {n!r}")
    if n % 2 == 0:
        raise EvenModulusError(f"modulus must be odd, got {n}")
    return n


def require_dihedral_order(n):
    """Reject anything but an odd dihedral order n > 1."""
    require_odd(n)
    if n <= 1:
        raise ValueError(f"dihedral order must be > 1, got {n}")
    return n


def oversized_digits(x):
    """The decimal digit count of the integer x when it is above the
    interpreter's limit for int-to-str conversion
    (sys.get_int_max_str_digits()), else 0."""
    x, limit = abs(x), sys.get_int_max_str_digits()
    if not limit or x.bit_length() <= 3 * limit:  # x < 8^limit < 10^limit
        return 0
    k = int((x.bit_length() - 1) * 0.30103) - 1  # below log10(x), the digit count less one
    while 10 ** k <= x:
        k += 1
    return k if k > limit else 0


def require_printable(x, what):
    """Reject an integer too long to print before any work uses it: the
    error names what it is and its digit count."""
    k = oversized_digits(x)
    if k:
        raise ValueError(f"{what} has {k} digits, above the limit of "
                         f"{sys.get_int_max_str_digits()} for integer string conversion")
    return x
