"""Exact integer matrix algebra.

Small dense matrices over arbitrary-precision integers, with the
handful of algorithms everything else is built on: Smith normal form
with its transformation matrices, Bareiss determinants, and
four-square decompositions, and ResidueQZ, a residue mod 1 held as an
integer numerator over its denominator (a Fraction only when its value
is asked for). Nothing in this module ever rounds.
"""

import functools
import itertools
import math
from operator import mul

from .errors import _check_int, _Record, _setattr, oversized_digits

__all__ = [
    "IntMatrix",
    "SNFResult",
    "ResidueQZ",
    "snf",
    "det",
    "four_squares",
]


class IntMatrix:
    """An immutable dense matrix of Python integers.

    Rows are stored as a tuple of tuples. A matrix with zero rows is
    the 0x0 matrix.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows):
        data = [tuple(r) for r in rows]
        for i, r in enumerate(data):
            if len(r) != len(data[0]):
                raise ValueError(f"row {i} has length {len(r)}, expected {len(data[0])}")
            for j, x in enumerate(r):
                _check_int(x, f"entry ({i},{j})")
        self._rows = tuple(data)

    @classmethod
    def identity(cls, n):
        return _derived(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

    @classmethod
    def from_columns(cls, columns, nrows):
        """Assemble a matrix whose j-th column is columns[j]."""
        cols = [tuple(c) for c in columns]
        for j, c in enumerate(cols):
            if len(c) != nrows:
                raise ValueError(f"column {j} has length {len(c)}, expected {nrows}")
        return cls([[c[i] for c in cols] for i in range(nrows)])

    @classmethod
    def block_diag(cls, *blocks):
        size = sum(b.rows for b in blocks)
        out = [[0] * size for _ in range(size)]
        at = 0
        for b in blocks:
            if b.rows != b.cols:
                raise ValueError("block_diag needs square blocks")
            for i in range(b.rows):
                for j in range(b.cols):
                    out[at + i][at + j] = b[i, j]
            at += b.rows
        return _derived(out)

    @property
    def rows(self):
        return len(self._rows)

    @property
    def cols(self):
        return len(self._rows[0]) if self._rows else 0

    def row(self, i):
        return self._rows[i]

    def column(self, j):
        return tuple(r[j] for r in self._rows)

    def __getitem__(self, key):
        i, j = key
        return self._rows[i][j]

    def transpose(self):
        return _derived(self.column(j) for j in range(self.cols))

    def __neg__(self):
        return _derived(tuple(-x for x in r) for r in self._rows)

    def _same_shape(self, other):
        if not isinstance(other, IntMatrix):
            raise TypeError("expected an IntMatrix")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __add__(self, other):
        self._same_shape(other)
        return _derived(tuple(a + b for a, b in zip(r, s))
                        for r, s in zip(self._rows, other._rows))

    def __sub__(self, other):
        self._same_shape(other)
        return _derived(tuple(a - b for a, b in zip(r, s))
                        for r, s in zip(self._rows, other._rows))

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = [other.column(j) for j in range(other.cols)]
        return _derived(tuple(sum(map(mul, r, c)) for c in cols)
                        for r in self._rows)

    def apply(self, vec):
        """Matrix-vector product, returned as a tuple of ints."""
        v = tuple(vec)
        if len(v) != self.cols:
            raise ValueError(f"vector has length {len(v)}, expected {self.cols}")
        return tuple(sum(map(mul, r, v)) for r in self._rows)

    def to_lists(self):
        return [list(r) for r in self._rows]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"IntMatrix({self.to_lists()!r})"


def _derived(rows):
    """An IntMatrix over rows computed from IntMatrix operands, which are
    integers of one width by construction: unlike IntMatrix(rows), no
    checks. Validation happens where a matrix enters from outside."""
    m = object.__new__(IntMatrix)
    m._rows = tuple(map(tuple, rows))
    return m


@functools.total_ordering
class ResidueQZ(_Record):
    """A rational residue mod 1: numerator / denominator in lowest terms,
    with 0 <= numerator < denominator, reduced once where it is made.
    value is the Fraction of the two ints, built when first read."""

    __slots__ = ("value", "numerator", "denominator")
    _fields = ("value",)

    def __init__(self, value):  # checks its fields, so not shared
        from fractions import Fraction
        if not isinstance(value, Fraction):
            raise TypeError(f"residue value must be a Fraction, got {value!r}")
        if not 0 <= value < 1:
            raise ValueError(f"residue {value} is outside [0, 1)")
        for put, x in zip(self._put, (value, value.numerator, value.denominator)):
            put(self, x)

    def __getattr__(self, name):  # only for a slot left unset: value, until first read
        if name != "value":
            raise AttributeError(f"'ResidueQZ' object has no attribute {name!r}")
        from fractions import Fraction
        value = Fraction(self.numerator, self.denominator)
        _setattr(self, "value", value)
        return value

    def __eq__(self, other):  # lowest terms: equal values have equal ints
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.numerator * other.denominator < other.numerator * self.denominator

    @classmethod
    def of(cls, q, den=1):
        """Reduce the rational q / den into [0, 1): q an int or a Fraction,
        den an int (a bool or float raises TypeError, 0 ZeroDivisionError)."""
        _check_int(den, "residue denominator")
        if not isinstance(q, int):
            from fractions import Fraction
            if isinstance(q, Fraction):
                q, den = q.numerator, q.denominator * den
        _check_int(q, "residue numerator")
        return cls._reduced(q if den > 0 else -q, abs(den))

    @classmethod
    def _reduced(cls, q, e):
        """q / e mod 1 for ints q and e > 0: q % e proves the range."""
        q %= e
        g = math.gcd(q, e)
        r = object.__new__(cls)
        _setattr(r, "numerator", q // g)
        _setattr(r, "denominator", e // g)
        return r

    @property
    def is_zero(self):
        return self.numerator == 0

    def __str__(self):
        return f"{self.numerator}/{self.denominator}" if self.numerator else "0"


def det(a):
    """Determinant of a square IntMatrix, by fraction-free elimination.

    The Bareiss recurrence keeps every intermediate value an integer,
    so the result is exact. The empty matrix has determinant 1.
    """
    if a.rows != a.cols:
        raise ValueError(f"determinant needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class SNFResult(_Record):
    """Smith normal form data: P @ A @ Q == D with P, Q unimodular.

    D is diagonal with nonnegative entries, each dividing the next
    nonzero one; invariant_factors, the diagonal entries > 1, is read
    off D. _diagonal keeps the diagonal the constructor checks.
    """

    __slots__ = ("P", "Q", "D", "_diagonal")
    _fields = ("P", "Q", "D")

    def __init__(self, P, Q, D):  # checks its fields, so not shared
        _setattr(self, "P", P)
        _setattr(self, "Q", Q)
        _setattr(self, "D", D)
        rows = D._rows
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x and i != j:
                    raise ValueError(f"D is not diagonal at ({i},{j})")
        _setattr(self, "_diagonal", diag := tuple(row[i] for i, row in enumerate(rows[:D.cols])))
        for i, x in enumerate(diag):
            if x < 0:
                raise ValueError(f"D has a negative entry at ({i},{i})")
        for prev, nxt in zip(diag, diag[1:]):
            if prev == 0 and nxt != 0:
                raise ValueError("zero diagonal entries must come last")
            if prev != 0 and nxt % prev != 0:
                raise ValueError(f"diagonal entry {prev} does not divide {nxt}")

    def diagonal(self):
        return self._diagonal

    @property
    def invariant_factors(self):
        return tuple(x for x in self.diagonal() if x > 1)


def snf(a):
    """Smith normal form of an IntMatrix, with transforms.

    Classical row/column reduction with smallest-pivot selection
    (_eliminate). P @ A @ Q == D is rechecked on the eliminated rows, and
    the unimodularity of P and Q by their determinants; both checks
    raise, so they also run under python -O.
    """
    p, q, w = _eliminate(a)
    a_cols, q_cols = list(zip(*a._rows)), list(zip(*q))
    pa = [[sum(map(mul, r, c)) for c in a_cols] for r in p]
    if [[sum(map(mul, r, c)) for c in q_cols] for r in pa] != w:
        raise ArithmeticError("Smith normal form failed its factorization check")
    pm, qm = _derived(p), _derived(q)
    if abs(det(pm)) != 1 or abs(det(qm)) != 1:
        raise ArithmeticError("Smith normal form transforms are not unimodular")
    return SNFResult(P=pm, Q=qm, D=_derived(w))


def _eliminate(a):
    """The elimination behind snf: (P, Q, D) as lists of int rows, with
    P and Q built from the identity by the same row and column moves
    that take A to D. Unchecked; snf checks the result."""
    m, n = a.rows, a.cols
    w = a.to_lists()
    p = [[0] * i + [1] + [0] * (m - i - 1) for i in range(m)]
    q = [[0] * j + [1] + [0] * (n - j - 1) for j in range(n)]

    def row_add(dst, src, f):
        w[dst] = [x + f * y for x, y in zip(w[dst], w[src])]
        p[dst] = [x + f * y for x, y in zip(p[dst], p[src])]

    def col_add(dst, src, f):
        for row in w:
            row[dst] += f * row[src]
        for row in q:
            row[dst] += f * row[src]

    def row_swap(i, j):
        w[i], w[j] = w[j], w[i]
        p[i], p[j] = p[j], p[i]

    def col_swap(i, j):
        for row in w:
            row[i], row[j] = row[j], row[i]
        for row in q:
            row[i], row[j] = row[j], row[i]

    t = 0
    while True:  # until the remaining block, empty past min(m, n), is zero
        # pick the smallest nonzero entry of the remaining block as pivot,
        # the first in row order among equals
        best, low = None, 0
        for i in range(t, m):
            row = w[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (not low or x < low):
                    best, low = (i, j), x
        if best is None:
            break
        bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)

        dirty = False
        for i in range(t + 1, m):
            if w[i][t]:
                row_add(i, t, -(w[i][t] // w[t][t]))
                if w[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if w[t][j]:
                col_add(j, t, -(w[t][j] // w[t][t]))
                if w[t][j]:
                    dirty = True
        if dirty:
            continue

        # force the divisibility chain: fold any bad entry into row t
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if w[i][j] % w[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_add(t, bad, 1)
            continue

        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
            p[t] = [-x for x in p[t]]
        t += 1
    return p, q, w


# The four-square search walks candidates in the order of its answer, so
# its cost grows with k itself, not with the digit count: a 21-digit k
# would run for years. The census and benchmark knots need at most 14
# steps, and every k below 10^5 at most 8,154 (k = 92,332). A million
# steps, about 0.3 s, is far above both; past it the search refuses.
_FOUR_SQUARES_STEPS = 1_000_000


def four_squares(k):
    """Lexicographically smallest ascending (a1, a2, a3, a4) with sum of
    squares k: twice that of k / 4 while 8 | k, a1 > 0 where k = 4^a (8b + 7)
    (Legendre), by a plain search in that order; past _FOUR_SQUARES_STEPS
    steps it raises ArithmeticError naming the digit count of k.

    a1 is 0 or 1, never more. Once 8 | k is divided out, m is either a
    sum of three squares (Legendre), or m = 8b + 7 or 4 (8b + 7); then
    m - 1 is 6 or 3 mod 8, a sum of three squares none of them 0, as no
    two squares sum to 6 mod 8 and three give 3 only as odd ones. So some
    a2 <= sqrt((m - a1^2) / 3) always answers, and a2 needs no bound."""
    _check_int(k, "four_squares argument")
    if k < 0:
        raise ValueError(f"four_squares needs a nonnegative integer, got {k}")
    m, scale = k, 1
    while m and m % 8 == 0:
        m, scale = m // 4, 2 * scale
    a1 = int(m % 8 == 7 or m % 32 == 28)
    r1, steps = m - a1 * a1, 0
    for a2 in itertools.count(a1):
        r2 = r1 - a2 * a2
        for a3 in range(a2, math.isqrt(r2 // 2) + 1):  # so that a4 >= a3
            steps += 1
            if steps > _FOUR_SQUARES_STEPS:
                digits = oversized_digits(k) or len(str(k))
                raise ArithmeticError(f"four-square search for a {digits}-digit integer "
                                      f"stopped after {_FOUR_SQUARES_STEPS} steps")
            r3 = r2 - a3 * a3
            a4 = math.isqrt(r3)
            if a4 * a4 == r3:
                return (scale * a1, scale * a2, scale * a3, scale * a4)
