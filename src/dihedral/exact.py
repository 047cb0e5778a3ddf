"""Exact integer matrix algebra.

Small dense matrices over arbitrary-precision integers, with the
handful of algorithms everything else is built on: Smith normal form
with its transformation matrices, Bareiss determinants, integer
inverses scaled by the group exponent, a primitivity test, and
four-square decompositions. Nothing in this module ever rounds.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "IntMatrix",
    "SNFResult",
    "ResidueQZ",
    "snf",
    "det",
    "scaled_inverse",
    "is_primitive",
    "four_squares",
]


def _check_int(x, where):
    # bool is an int subclass; matrices of True/False are almost surely a bug
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{where} is not an integer: {x!r}")
    return x


class IntMatrix:
    """An immutable dense matrix of Python integers.

    Rows are stored as a tuple of tuples. A matrix with zero rows is
    the 0x0 matrix.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows):
        data = [tuple(r) for r in rows]
        width = len(data[0]) if data else 0
        for i, r in enumerate(data):
            if len(r) != width:
                raise ValueError(f"row {i} has length {len(r)}, expected {width}")
            for j, x in enumerate(r):
                _check_int(x, f"entry ({i},{j})")
        self._rows = tuple(data)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls([[0] * ncols for _ in range(nrows)])

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
        return cls(out)

    @property
    def rows(self):
        return len(self._rows)

    @property
    def cols(self):
        return len(self._rows[0]) if self._rows else 0

    @property
    def entries(self):
        """All entries, row-major."""
        return tuple(x for r in self._rows for x in r)

    def row(self, i):
        return self._rows[i]

    def column(self, j):
        return tuple(r[j] for r in self._rows)

    def __getitem__(self, key):
        i, j = key
        return self._rows[i][j]

    def transpose(self):
        return IntMatrix([self.column(j) for j in range(self.cols)])

    def __neg__(self):
        return IntMatrix([[-x for x in r] for r in self._rows])

    def _same_shape(self, other):
        if not isinstance(other, IntMatrix):
            raise TypeError("expected an IntMatrix")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __add__(self, other):
        self._same_shape(other)
        return IntMatrix(
            [[a + b for a, b in zip(r, s)] for r, s in zip(self._rows, other._rows)]
        )

    def __sub__(self, other):
        self._same_shape(other)
        return IntMatrix(
            [[a - b for a, b in zip(r, s)] for r, s in zip(self._rows, other._rows)]
        )

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = [other.column(j) for j in range(other.cols)]
        return IntMatrix(
            [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in self._rows]
        )

    def apply(self, vec):
        """Matrix-vector product, returned as a tuple of ints."""
        v = tuple(vec)
        if len(v) != self.cols:
            raise ValueError(f"vector has length {len(v)}, expected {self.cols}")
        return tuple(sum(a * b for a, b in zip(r, v)) for r in self._rows)

    def to_lists(self):
        return [list(r) for r in self._rows]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"IntMatrix({self.to_lists()!r})"


@dataclass(frozen=True, order=True)
class ResidueQZ:
    """A rational residue mod 1, stored reduced into [0, 1)."""

    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            raise TypeError(f"residue value must be a Fraction, got {self.value!r}")
        if not 0 <= self.value < 1:
            raise ValueError(f"residue {self.value} is outside [0, 1)")

    @classmethod
    def of(cls, q, den=1):
        """Reduce the rational q / den into [0, 1)."""
        f = Fraction(q, den)
        return cls(f - math.floor(f))

    @property
    def is_zero(self):
        return self.value == 0

    @property
    def numerator(self):
        return self.value.numerator

    @property
    def denominator(self):
        return self.value.denominator

    def __str__(self):
        if self.value == 0:
            return "0"
        return f"{self.value.numerator}/{self.value.denominator}"


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


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form data: P @ A @ Q == D with P, Q unimodular.

    D is diagonal with nonnegative entries, each dividing the next
    nonzero one; invariant_factors lists the diagonal entries > 1.
    """

    P: IntMatrix
    Q: IntMatrix
    D: IntMatrix
    invariant_factors: tuple

    def __post_init__(self):
        diag = []
        for i in range(self.D.rows):
            for j in range(self.D.cols):
                if i != j and self.D[i, j] != 0:
                    raise ValueError(f"D is not diagonal at ({i},{j})")
            if i < self.D.cols:
                diag.append(self.D[i, i])
        for i, x in enumerate(diag):
            if x < 0:
                raise ValueError(f"D has a negative entry at ({i},{i})")
        for prev, nxt in zip(diag, diag[1:]):
            if prev == 0 and nxt != 0:
                raise ValueError("zero diagonal entries must come last")
            if prev != 0 and nxt % prev != 0:
                raise ValueError(f"diagonal entry {prev} does not divide {nxt}")
        if self.invariant_factors != tuple(x for x in diag if x > 1):
            raise ValueError("invariant_factors do not match the diagonal")

    def diagonal(self):
        return tuple(self.D[i, i] for i in range(min(self.D.rows, self.D.cols)))


def snf(a):
    """Smith normal form of an IntMatrix, with transforms.

    Classical row/column reduction with smallest-pivot selection. The
    factorization P @ A @ Q == D and unimodularity of P and Q are
    rechecked before returning.
    """
    m, n = a.rows, a.cols
    w = a.to_lists()
    p = IntMatrix.identity(m).to_lists()
    q = IntMatrix.identity(n).to_lists()

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

    def row_negate(i):
        w[i] = [-x for x in w[i]]
        p[i] = [-x for x in p[i]]

    t = 0
    while t < min(m, n):
        # pick the smallest nonzero entry of the remaining block as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(w[i][j])
                if x and (best is None or x < abs(w[best[0]][best[1]])):
                    best = (i, j)
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
            row_negate(t)
        t += 1

    pm, qm, dm = IntMatrix(p), IntMatrix(q), IntMatrix(w)
    if pm @ a @ qm != dm:
        raise ArithmeticError("Smith normal form failed its factorization check")
    if abs(det(pm)) != 1 or abs(det(qm)) != 1:
        raise ArithmeticError("Smith normal form transforms are not unimodular")
    diag = tuple(dm[i, i] for i in range(min(m, n)))
    return SNFResult(P=pm, Q=qm, D=dm, invariant_factors=tuple(x for x in diag if x > 1))


def scaled_inverse(a):
    """Return (N, e) with a @ N == e * identity and N integral.

    e is the largest invariant factor of a (1 when a is unimodular),
    the exponent of Z^m / a Z^m, so linking values through N are
    integers mod e. From the Smith form P a Q = D, a^{-1} = Q D^{-1} P
    and N = Q diag(e / d_i) P. Raises ValueError on a singular input.
    """
    if a.rows != a.cols:
        raise ValueError(f"inverse needs a square matrix, got {a.rows}x{a.cols}")
    res = snf(a)
    diag = res.diagonal()
    if 0 in diag:
        raise ValueError("matrix is singular")
    e = diag[-1] if diag else 1
    q_scaled = IntMatrix([[x * (e // d) for x, d in zip(row, diag)] for row in res.Q.to_lists()])
    n = q_scaled @ res.P
    if a @ n != IntMatrix([[e if i == j else 0 for j in range(a.rows)] for i in range(a.rows)]):
        raise ArithmeticError("scaled inverse failed its self-check")
    return n, e


def is_primitive(v):
    """True when the integer vector has gcd 1. The empty vector is not."""
    vv = tuple(v)
    for i, x in enumerate(vv):
        _check_int(x, f"entry {i}")
    if not vv:
        return False
    return math.gcd(*vv) == 1


def four_squares(k):
    """Lexicographically smallest (a1, a2, a3, a4), ascending, with sum of
    squares k. Plain bounded search; exact for any nonnegative k."""
    _check_int(k, "four_squares argument")
    if k < 0:
        raise ValueError(f"four_squares needs a nonnegative integer, got {k}")
    for a1 in range(math.isqrt(k // 4) + 1):
        r1 = k - a1 * a1
        for a2 in range(a1, math.isqrt(r1 // 3) + 1):
            r2 = r1 - a2 * a2
            for a3 in range(a2, math.isqrt(r2 // 2) + 1):
                r3 = r2 - a3 * a3
                a4 = math.isqrt(r3)
                if a4 * a4 == r3 and a4 >= a3:
                    return (a1, a2, a3, a4)
    raise ArithmeticError(f"no four-square decomposition found for {k}")
