"""Seifert matrices and the constructions performed on them.

A Seifert matrix here is a square integer matrix V of even size with
det(V - V^T) = 1, the linking data of a genus-g spanning surface. The
empty matrix is the unknot. Homology classes on the surface are plain
tuples of integer coordinates in the basis implicit in V.
"""

import math
from operator import itemgetter, mul

from .errors import (SeifertMatrixError, StabilizationError, _check_int, _Record,
                     oversized_digits, require_dihedral_order)
from .exact import IntMatrix, det, four_squares, snf

__all__ = [
    "SeifertMatrix",
    "ZeroFramedStabilization",
    "symmetrize",
    "knot_determinant",
    "twist_knot",
    "connected_sum",
    "stabilize_zero_framed",
]


class SeifertMatrix:
    """A validated Seifert matrix.

    Accepts an IntMatrix or any iterable of integer rows; the empty
    matrix stands for the unknot. Validation checks squareness, even
    size, and det(V - V^T) = 1 exactly. A = V + V^T is formed here,
    once, and handed out by symmetrize; its Smith basis and its terms on
    and above the diagonal are computed on first use and kept.
    """

    __slots__ = ("_m", "_sym", "_smith", "_terms")

    def __init__(self, rows):
        m = rows if isinstance(rows, IntMatrix) else IntMatrix(rows)
        if m.rows != m.cols:
            raise SeifertMatrixError(f"Seifert matrix must be square, got {m.rows}x{m.cols}")
        if m.rows % 2 != 0:
            raise SeifertMatrixError(f"Seifert matrix must have even size, got {m.rows}")
        mt = m.transpose()
        d = det(m - mt)
        if d != 1:
            k = oversized_digits(d)
            shown = f"a {k}-digit integer" if k else d
            raise SeifertMatrixError(f"det(V - V^T) must be 1, got {shown}")
        self._m = m
        self._sym = m + mt
        self._smith = self._terms = None

    @classmethod
    def _block_sum(cls, *parts):
        """The block sum of validated Seifert matrices. det(V - V^T) of a
        block sum is the product of the parts' determinants, each checked
        to be 1 when that part was built, so no determinant is run."""
        for p in parts:
            if not isinstance(p, SeifertMatrix):
                raise TypeError("block sum parts must be SeifertMatrix instances")
        s = object.__new__(cls)
        s._m = IntMatrix.block_diag(*(p._m for p in parts))
        s._sym = IntMatrix.block_diag(*(p._sym for p in parts))
        s._smith = s._terms = None
        return s

    @property
    def matrix(self):
        return self._m

    @property
    def size(self):
        return self._m.rows

    @property
    def genus(self):
        return self._m.rows // 2

    def __getitem__(self, key):
        return self._m[key]

    def __eq__(self, other):
        return isinstance(other, SeifertMatrix) and self._m == other._m

    def __hash__(self):
        return hash(self._m)

    def __repr__(self):
        return f"SeifertMatrix({self._m.to_lists()!r})"


def symmetrize(v):
    """V + V^T, the intersection-form presentation matrix, as formed
    when v was constructed."""
    if not isinstance(v, SeifertMatrix):
        raise TypeError("symmetrize expects a SeifertMatrix")
    return v._sym


def _characteristic_value(v, beta, n):
    """The form value beta^T (V + V^T) beta when the surface class beta, a
    tuple of v.size ints, is characteristic and primitive mod n:
    (V + V^T) beta = 0 mod n and gcd(beta, n) = 1. None when it is not.
    The one characteristic test for a class from outside."""
    a = symmetrize(v)
    for i, x in enumerate(beta):
        _check_int(x, f"coordinate {i}")
    if len(beta) != v.size:
        raise ValueError(f"class has {len(beta)} coordinates, matrix is {v.size}x{v.size}")
    ab = a.apply(beta)
    if any(x % n for x in ab) or math.gcd(*beta, n) != 1:
        return None
    return sum(x * y for x, y in zip(beta, ab))


class _SmithBasis:
    """The Smith basis of a nonsingular square A, read off its one Smith
    form P A Q = D (checked by snf): at the torsion entries d_t > 1 of D,
    the rows p_t of P, the columns q_t of Q, the generators
    g_t = A q_t / d_t (columns of P^{-1}, checked P g_t = e_t, which with
    P unimodular also makes A q_t divisible by d_t) and G = Q^T A Q,
    G_ij = d_j (q_i . g_j). The one reader of P and Q."""

    __slots__ = ("factors", "p", "q", "generators", "gram")

    def __init__(self, a):
        res = snf(a)
        diag = res.diagonal()
        if 0 in diag:
            raise ValueError("presentation matrix is singular")
        at = [k for k, d in enumerate(diag) if d > 1]
        self.factors = tuple(diag[k] for k in at)
        self.p = tuple(res.P.row(k) for k in at)
        self.q = tuple(res.Q.column(k) for k in at)
        gens = tuple(tuple(x // d for x in a.apply(q)) for d, q in zip(self.factors, self.q))
        for i, (k, g) in enumerate(zip(at, gens)):
            if res.P.apply(g) != tuple(int(j == k) for j in range(a.rows)):
                raise ArithmeticError(f"P does not send generator {i} to e_{k}")
        self.generators = gens
        self.gram = tuple(tuple(d * sum(map(mul, q, g)) for d, g in zip(self.factors, gens))
                          for q in self.q)

    def coords(self, w):
        """(P w)_t at each torsion position t, unreduced."""
        return tuple(sum(map(mul, row, w)) for row in self.p)


def _smith_form(v):
    """The Smith basis of V + V^T, built on first use and kept: the knot
    determinant, the cover homology, its linking form and the walk at
    every n read it."""
    if v._smith is None:
        v._smith = _SmithBasis(symmetrize(v))
    return v._smith


def _upper_terms(v):
    """A = V + V^T by its nonzero terms on and above the diagonal, per row i
    having any: (i, a getter of their columns as a tuple, weights A_ii and
    2 A_ij). Built on first use and kept."""
    if v._terms is None:
        a = symmetrize(v)
        rows = ((i, [j for j in range(i, a.cols) if a[i, j]]) for i in range(a.rows))
        v._terms = tuple((i, itemgetter(*c) if len(c) > 1 else itemgetter(slice(c[0], c[0] + 1)),
                          tuple(a[i, j] * (1 + (j > i)) for j in c)) for i, c in rows if c)
    return v._terms


def knot_determinant(v):
    """|det(V + V^T)|, the product of the torsion entries of its Smith
    diagonal (P and Q are unimodular, the other entries are 1). Always
    odd: det(V + V^T) = det(V - V^T) = 1 mod 2, and snf checks P A Q = D
    with P and Q unimodular."""
    return math.prod(_smith_form(v).factors)


def twist_knot(m):
    """The genus-1 twist family member with m full twists in one band.

    m = -1 is the trefoil, m = 2 is the knot 6_1.
    """
    return SeifertMatrix([[-1, 1], [0, _check_int(m, "twist parameter")]])


def connected_sum(v1, v2):
    """Block sum of two Seifert matrices."""
    if not isinstance(v1, SeifertMatrix) or not isinstance(v2, SeifertMatrix):
        raise TypeError("connected_sum expects SeifertMatrix arguments")
    return SeifertMatrix._block_sum(v1, v2)


# One stabilizing band pair contributes this block (sign +1) or its
# negative-twist mirror (sign -1); both have zero-framed second band.
# Validated once, here.
_STAB_BLOCKS = {1: SeifertMatrix([[0, -1], [0, 0]]), -1: SeifertMatrix([[0, 1], [0, 0]])}


class ZeroFramedStabilization(_Record):
    """Result of stabilize_zero_framed.

    Iterates as the pair (matrix, cls) so it unpacks like a 2-tuple;
    the remaining fields record how the stabilization was laid out.
    """

    __slots__ = _fields = ("matrix", "cls", "blocks_added", "flipped_sign", "squares")

    _defaults = {"blocks_added": 0, "flipped_sign": False, "squares": ()}

    def __iter__(self):
        return iter((self.matrix, self.cls))


def stabilize_zero_framed(v, beta, n):
    """Stabilize the surface so the class beta becomes zero-framed.

    Requires beta to be characteristic mod n with form value divisible
    by n^2. Four band pairs are added, carrying n times the four-square
    parts of the needed correction (largest square first); when the
    form value is negative the blocks are mirrored, which is recorded
    in flipped_sign. A zero form value returns the input unchanged.
    """
    require_dihedral_order(n)
    if not isinstance(v, SeifertMatrix):
        raise TypeError("stabilize_zero_framed expects a SeifertMatrix")
    beta = tuple(beta)
    value = _characteristic_value(v, beta, n)
    if value is None:
        raise StabilizationError(f"class {list(beta)} is not characteristic mod {n}")
    if value % (n * n) != 0:
        raise StabilizationError(
            f"form value {value} is not divisible by {n}^2; the class cannot be zero-framed"
        )
    if value == 0:
        return ZeroFramedStabilization(v, beta)

    squares, flipped, tail = _zero_framing(value, n)
    v2 = SeifertMatrix._block_sum(v, *[_STAB_BLOCKS[-1 if flipped else 1]] * 4)
    beta2 = beta + tail
    check = sum(x * y for x, y in zip(beta2, symmetrize(v2).apply(beta2)))
    if check != 0:
        raise ArithmeticError(f"stabilized form value should be 0, got {check}")
    return ZeroFramedStabilization(v2, beta2, blocks_added=4, flipped_sign=flipped,
                                   squares=squares)


def _zero_framing(value, n):
    """How four band pairs zero-frame a class whose nonzero form value is
    divisible by n^2: (squares s, largest first; whether the blocks are
    mirrored, for a negative value; the class's coordinates on the new
    bands, n*s twice per pair). Each pair moves the form value 2 (n*s)^2
    toward 0, so |value| - 2 n^2 sum(s^2), the stabilized value up to
    sign, is checked to be 0. The value is even (A has an even diagonal)
    and n odd, so |value| / n^2 is even; were it odd, n^2 would be left."""
    squares = tuple(sorted(four_squares(abs(value) // (2 * n * n)), reverse=True))
    flipped = value < 0
    rest = abs(value) - 2 * n * n * sum(s * s for s in squares)
    if rest != 0:
        raise ArithmeticError("stabilized form value should be 0, "
                              f"got {-rest if flipped else rest}")
    return squares, flipped, tuple(n * s for s in squares for _ in range(2))
