"""Exception types shared across the package.

Each failure mode callers are expected to distinguish gets its own
class; everything derives from ValueError, RuntimeError, or
ArithmeticError so generic handling still works.
"""

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
