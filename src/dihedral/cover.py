"""Homology and linking form of the double branched cover.

The symmetrized Seifert matrix A presents the first homology of the
double branched cover as Z^m / A Z^m, always a finite group of odd
order. Everything here is read off the Smith basis of A, built once per
knot from its Smith form P A Q = D: the generators g_t = A q_t / d_t at
the torsion entries d_t, the coordinates (P w)_t mod d_t of the class
of w, and G = Q^T A Q, which gives lk(g_i, g_j) = G_ij / (d_i d_j) mod 1.

Inside the layer a linking value is an integer mod the group exponent
e (the largest invariant factor): e * lk is integral because e
annihilates the group. A ResidueQZ, that integer over e in lowest terms,
is built only for values handed out; no Fraction is made.
"""

import itertools
import math
from operator import mod, mul

from .errors import _check_int, _Record, _setattr
from .exact import IntMatrix, ResidueQZ, snf
from .seifert import SeifertMatrix, _smith_form, _SmithBasis, symmetrize

__all__ = [
    "TorsionGroup",
    "LinkingForm",
    "double_cover_homology",
    "linking_form",
    "evaluate_linking",
]


class TorsionGroup(_Record):
    """The torsion group Z^m / A Z^m with a chosen generating set.

    invariant_factors is the increasing divisor chain (d_1 | d_2 | ...)
    of cyclic orders, all odd and > 1; generators[i] is an integer
    vector in Z^m whose class has order exactly d_i. Construction
    reduces A to its Smith basis and checks the factors are those of D,
    which makes them a divisor chain of entries > 1, that d_i
    annihilates the Smith coordinates T[:, i] = P g_i mod d, and that
    the columns of T generate Z^r / diag(d); the orders follow. For an
    explicit basis _basis holds the columns of T and _solve the snf of
    [T | diag(d)]; both are None on the Smith basis, where T is the
    identity.
    """

    __slots__ = ("invariant_factors", "generators", "ambient", "_smith", "_basis", "_solve")
    _fields = ("invariant_factors", "generators", "ambient")

    def __init__(self, invariant_factors, generators, ambient):  # checks its fields, so not shared
        if not isinstance(ambient, IntMatrix):
            raise TypeError("ambient must be an IntMatrix")
        if ambient.rows != ambient.cols:
            raise ValueError("ambient presentation matrix must be square")
        factors = tuple(invariant_factors)
        gens = tuple(_vector(g, ambient.rows, f"generator {i}") for i, g in enumerate(generators))
        if len(factors) != len(gens):
            raise ValueError(f"{len(factors)} factors but {len(gens)} generators")
        for i, d in enumerate(factors):
            if _check_int(d, f"invariant factor {i}") % 2 == 0:
                raise ValueError(f"invariant factor {d} is even; the group must have odd order")

        smith = _SmithBasis(ambient)
        if factors != smith.factors:
            raise ValueError(f"invariant factors {list(factors)} differ from those of "
                             f"the presentation, {list(smith.factors)}")
        t = tuple(tuple(x % d for x, d in zip(smith.coords(g), factors)) for g in gens)
        for i, (d, col) in enumerate(zip(factors, t)):
            if any(d * x % di for x, di in zip(col, factors)):
                raise ValueError(f"generator {i} is not annihilated by its factor {d}")
        solve = snf(IntMatrix([[col[i] for col in t] + [d * (k == i) for k in range(len(t))]
                               for i, d in enumerate(factors)]))
        if any(x != 1 for x in solve.diagonal()):
            raise ValueError("generators do not generate the quotient group")
        for put, value in zip(self._put, (factors, gens, ambient, smith, t, solve)):
            put(self, value)

    @property
    def rank(self):
        return len(self.invariant_factors)

    @property
    def order(self):
        return math.prod(self.invariant_factors)

    @property
    def exponent(self):
        """The largest invariant factor; 1 for the trivial group."""
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def elements(self):
        """All elements as coordinate tuples, in lexicographic order."""
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def coords_of(self, vec):
        """Coordinates of the class of an ambient integer vector.

        On the Smith basis they are (P w)_i mod d_i; for an explicit basis
        [T | diag(d)] x = P w is solved through its Smith data, and t is
        the first r entries of x. The answer is double-checked:
        P (w - sum c_i g_i) must lie in D Z^m.
        """
        v = _vector(vec, self.ambient.rows)
        coords = self._coords(v)
        diff = [x - sum(c * g[i] for c, g in zip(coords, self.generators)) for i, x in enumerate(v)]
        if any(x % d for x, d in zip(self._smith.coords(diff), self.invariant_factors)):
            raise ArithmeticError("coordinate solve failed its self-check")
        return coords

    def _coords(self, v):
        """coords_of's solve for a tuple of ints, without its self-check."""
        u = self._smith.coords(v)
        if self._solve is not None:
            # P [T | diag(d)] Q = [I | 0]: x = Q (P u, y) for any y, so
            # take y = 0 and read only the first r rows of Q
            res, pu = self._solve, self._solve.P.apply(u)
            u = [sum(map(mul, res.Q.row(i), pu)) for i in range(self.rank)]
        return tuple(map(mod, u, self.invariant_factors))

    def __repr__(self):
        return f"TorsionGroup(factors={list(self.invariant_factors)!r})"


class LinkingForm(_Record):
    """The linking form on a TorsionGroup, tabulated on its generators.

    The table holds e * lk(g_i, g_j) mod e, for the group exponent e,
    read once off G = Q^T A Q of the group's Smith basis: on the Smith
    generators lk(g_i, g_j) = G_ij / (d_i d_j), and a caller's basis of
    Smith coordinates T gets T^T (that table) T. Construction checks on
    the Smith-basis table its annihilation (d_i * entry = 0 mod e, that
    is d_j | G_ij) and symmetry. e is odd (TorsionGroup refuses an even
    factor, and a knot's Smith factors are odd), so every denominator is
    odd; matrix[i][j] is the entry over e as a residue mod 1, built once
    from it.
    """

    __slots__ = ("group", "matrix", "_table")
    _fields = ("group",)

    def __init__(self, group):  # checks its fields, so not shared
        _setattr(self, "group", group)
        if not isinstance(group, TorsionGroup):
            raise TypeError("LinkingForm expects a TorsionGroup")
        factors, e = group.invariant_factors, self.exponent
        table = []
        for i, (d, row) in enumerate(zip(factors, group._smith.gram)):
            scaled = [x * (e // dj) for x, dj in zip(row, factors)]  # d_i e lk(g_i, g_j)
            for j, x in enumerate(scaled):
                if x % e:
                    raise ValueError(f"entry ({i},{j}) is not annihilated by {d}")
            table.append(tuple(x // d % e for x in scaled))
        for i, j in itertools.combinations(range(len(table)), 2):
            if table[i][j] != table[j][i]:
                raise ValueError(f"linking matrix is not symmetric at ({i},{j})")
        _setattr(self, "_table", tuple(table))
        if group._basis is not None:  # T^T (that table) T
            basis = group._basis
            _setattr(self, "_table", tuple(tuple(self.pair(ti, tj) for tj in basis) for ti in basis))
        _setattr(self, "matrix", tuple(tuple(ResidueQZ._reduced(x, e) for x in row)
                                       for row in self._table))

    @property
    def rank(self):
        return self.group.rank

    @property
    def exponent(self):
        return self.group.exponent

    def pair(self, x, y):
        """e * lk(x, y) mod e for elements given by coordinate tuples."""
        total = 0
        for xi, row in zip(x, self._table):
            if xi:
                total += xi * sum(map(mul, y, row))
        return total % self.exponent

    def __repr__(self):
        rows = [[str(x) for x in row] for row in self.matrix]
        return f"LinkingForm({rows!r})"


def double_cover_homology(v):
    """First homology of the double branched cover of a knot: the
    factors and generators g_k = A q_k / d_k of the Smith basis of
    A = V + V^T, which the SeifertMatrix keeps. Its check P g_k = e_k,
    given P A Q = D, confirms each generator's order and that they
    generate."""
    if not isinstance(v, SeifertMatrix):
        raise TypeError("double_cover_homology expects a SeifertMatrix")
    smith = _smith_form(v)
    return TorsionGroup._make(smith.factors, smith.generators, symmetrize(v), smith, None, None)


def linking_form(group):
    """Tabulate the linking form of a TorsionGroup on its generators."""
    return LinkingForm(group)


def evaluate_linking(a, u, v):
    """lk of two ambient integer vectors through a presentation matrix:
    u^T A^{-1} v = sum_t (Q^T u)_t (P v)_t / d_t reduced mod 1, read off
    the Smith basis of A, for any nonsingular A: G gives the linking
    only when A is symmetric. Raises ValueError when A is singular."""
    if not isinstance(a, IntMatrix):
        raise TypeError("evaluate_linking expects an IntMatrix")
    if a.rows != a.cols:
        raise ValueError("presentation matrix must be square")
    uu, vv = _vector(u, a.rows), _vector(v, a.rows)
    smith = _SmithBasis(a)
    e = math.lcm(*smith.factors)  # the last factor, or 1
    dual = (sum(map(mul, q, uu)) for q in smith.q)  # (Q^T u)_t
    total = sum(x * y * (e // d) for x, y, d in zip(dual, smith.coords(vv), smith.factors))
    return ResidueQZ._reduced(total % e, e)


def _vector(vec, m, what="vector"):
    """An ambient vector from outside as a tuple of m ints (not bools)."""
    v = tuple(vec)
    if len(v) != m:
        raise ValueError(f"{what} has length {len(v)}, expected {m}")
    for i, x in enumerate(v):
        _check_int(x, f"{what} entry {i}")
    return v


def _element(group, c):
    """The one check of an element of H from outside: c must hold one int
    (not bool) per invariant factor d_i, each in [0, d_i). Returns c as
    a tuple."""
    c = tuple(c)
    factors = group.invariant_factors
    if len(c) != len(factors):
        raise ValueError(f"expected {len(factors)} coordinates, got {len(c)}")
    for i, (x, d) in enumerate(zip(c, factors)):
        if not 0 <= _check_int(x, f"coordinate {i}") < d:
            raise ValueError(f"coordinate {i} = {x} is outside [0, {d})")
    return c

