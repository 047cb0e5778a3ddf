"""Exception types shared across the package.

Each failure mode callers are expected to distinguish gets its own
class; everything derives from ValueError, RuntimeError, or
ArithmeticError so generic handling still works. The checks of values
from outside live here too: the one integer check, the one reader of
integer text, the dihedral order and the printable size.
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
    "DivisorSearchError",
    "integer",
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


class DivisorSearchError(ValueError):
    """Finding the dihedral orders n that divide a determinant would
    trial-divide past the search bound. search says how far; the advice
    that follows it names the way out in the caller's terms."""

    def __init__(self, search, advice="give the orders n explicitly, or a smaller n_max"):
        super().__init__(f"{search}; {advice}")
        self.search = search


_setattr = object.__setattr__  # sets a record slot; a global is quicker to call


class _Record:
    """The base of every immutable record. A subclass names its compared
    fields in _fields, in constructor order, and declares them first in
    its own __slots__, then any derived attributes. Its _put holds the
    __set__ of each slot, in __slots__ order, which writes past the
    guarded __setattr__. The shared __init__ takes the fields by
    position or keyword, a missing trailing one from _defaults; _make
    builds a record from all its slot values without the class's own
    __init__. Equality (same class only), hash and repr read _fields;
    pickle and copy call the constructor."""

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._put = tuple(vars(cls)[s].__set__ for s in vars(cls).get("__slots__", ()))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for put, value in zip(self._put, args):
            put(self, value)

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values of a call not all positional; TypeError names a wrong field."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes the fields {fields}, got {len(args)} values")
        try:  # pop each field given, so that a keyword left over is a wrong one
            values = [*args, *[kwargs.pop(f) if f in kwargs else cls._defaults[f]
                               for f in fields[len(args):]]]
        except KeyError as e:
            raise TypeError(f"{name}() is missing field {e.args[0]!r}") from None
        if kwargs:
            f = next(iter(kwargs))
            raise TypeError(f"{name}() got field {f!r} twice" if f in fields
                            else f"{name}() got an unknown field {f!r}")
        return values

    @classmethod
    def _make(cls, *values):
        self = object.__new__(cls)
        for put, value in zip(cls._put, values):
            put(self, value)
        return self

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _check_int(x, where):
    """The one check of an integer value: an int, not a bool (an int
    subclass, and almost surely a bug here). TypeError names where.
    A plain int passes on the first test, which hot callers rely on."""
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
        raise TypeError(f"{where} is not an integer: {x!r}")
    return x


def integer(text, what="value"):
    """The one reader of integer text from outside: an optional sign and
    ASCII digits, nothing else (int() alone also takes spaces,
    underscores and non-ASCII digits). ValueError names what."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} must be an integer, got {text!r}")
    try:
        return int(text)
    except ValueError as e:  # more digits than the interpreter converts
        raise ValueError(f"{what}: {e}") from None


def require_dihedral_order(n):
    """Reject anything but an odd dihedral order n > 1, even moduli with
    EvenModulusError; every n-dependent operation calls this."""
    if _check_int(n, "modulus") % 2 == 0:
        raise EvenModulusError(f"modulus must be odd, got {n}")
    if n <= 1:
        raise ValueError(f"dihedral order must be > 1, got {n}")
    return n


def oversized_digits(x):
    """The decimal digit count of the integer x when it is above the
    interpreter's limit for int-to-str conversion
    (sys.get_int_max_str_digits()), else 0. A limit of 0 is no limit."""
    x, limit = abs(x), sys.get_int_max_str_digits()
    if not limit:
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
