"""Homology and linking form of the double branched cover.

The symmetrized Seifert matrix A presents the first homology of the
double branched cover as Z^m / A Z^m, always a finite group of odd
order. This module extracts the cyclic decomposition from the Smith
normal form, keeps explicit generator vectors, and evaluates the
Q/Z-valued linking form lk(u, v) = u^T A^{-1} v mod 1 exactly.

Inside the layer a linking value is an integer mod the group exponent
e (the largest invariant factor): e * lk is integral because e
annihilates the group. A ResidueQZ is built only for values handed out.
"""

import itertools
import math
from dataclasses import dataclass, field

from .exact import IntMatrix, ResidueQZ, det, scaled_inverse, snf
from .seifert import SeifertMatrix, symmetrize

__all__ = [
    "GroupElement",
    "TorsionGroup",
    "LinkingForm",
    "double_cover_homology",
    "linking_form",
    "evaluate_linking",
    "self_linking",
]


@dataclass(frozen=True, order=True)
class GroupElement:
    """Coordinates of a torsion-group element, one per cyclic factor,
    each reduced into [0, d_i)."""

    coords: tuple

    def __post_init__(self):
        for i, x in enumerate(self.coords):
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"coordinate {i} is not an integer: {x!r}")

    @property
    def is_trivial(self):
        return all(x == 0 for x in self.coords)

    def __repr__(self):
        return f"GroupElement({list(self.coords)!r})"


def _prime_factors(n):
    """Distinct prime factors by trial division; group orders here are small."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


class TorsionGroup:
    """The torsion group Z^m / A Z^m with a chosen generating set.

    invariant_factors is the increasing divisor chain (d_1 | d_2 | ...)
    of cyclic orders, all odd and > 1; generators[i] is an integer
    vector in Z^m whose class has order exactly d_i. Construction
    reverifies everything: the factor chain, the order of every
    generator, that the generators generate, and that the product of
    the factors equals |det A|.
    """

    __slots__ = ("_factors", "_gens", "_ambient", "_scaled", "_coord_data")

    def __init__(self, invariant_factors, generators, ambient):
        if not isinstance(ambient, IntMatrix):
            raise TypeError("ambient must be an IntMatrix")
        if ambient.rows != ambient.cols:
            raise ValueError("ambient presentation matrix must be square")
        factors = tuple(invariant_factors)
        gens = tuple(tuple(g) for g in generators)
        if len(factors) != len(gens):
            raise ValueError(f"{len(factors)} factors but {len(gens)} generators")
        for d in factors:
            if not isinstance(d, int) or isinstance(d, bool) or d <= 1:
                raise ValueError(f"invariant factor {d!r} must be an integer > 1")
            if d % 2 == 0:
                raise ValueError(f"invariant factor {d} is even; the group must have odd order")
        for prev, nxt in zip(factors, factors[1:]):
            if nxt % prev != 0:
                raise ValueError(f"invariant factor {prev} does not divide {nxt}")

        order = math.prod(factors)
        adet = det(ambient)
        if adet == 0:
            raise ValueError("presentation matrix is singular")
        if order != abs(adet):
            raise ValueError(
                f"invariant factors multiply to {order}, but |det A| = {abs(adet)}"
            )

        self._factors = factors
        self._gens = gens
        self._ambient = ambient
        self._scaled = scaled_inverse(ambient)
        self._coord_data = None

        m = ambient.rows
        for i, g in enumerate(gens):
            if len(g) != m:
                raise ValueError(f"generator {i} has length {len(g)}, expected {m}")
            self._check_order(i)
        self._check_generation()

    def _in_image(self, vec):
        """Whether vec lies in A Z^m, via the scaled inverse."""
        n, e = self._scaled
        return all(x % e == 0 for x in n.apply(vec))

    def _check_order(self, i):
        d = self._factors[i]
        g = self._gens[i]
        if not self._in_image([d * x for x in g]):
            raise ValueError(f"generator {i} is not annihilated by its factor {d}")
        for p in _prime_factors(d):
            if self._in_image([(d // p) * x for x in g]):
                raise ValueError(f"generator {i} has order dividing {d}//{p}, not exactly {d}")

    def _augmented(self):
        """Smith data of [generators | A], cached; used both to confirm the
        generators generate and to solve for coordinates."""
        if self._coord_data is None:
            m = self._ambient.rows
            cols = list(self._gens) + [self._ambient.column(j) for j in range(m)]
            b = IntMatrix.from_columns(cols, m)
            res = snf(b)
            self._coord_data = res
        return self._coord_data

    def _check_generation(self):
        res = self._augmented()
        diag = res.diagonal()
        if len(diag) != self._ambient.rows or any(x != 1 for x in diag):
            raise ValueError("generators do not generate the quotient group")

    @property
    def invariant_factors(self):
        return self._factors

    @property
    def generators(self):
        return self._gens

    @property
    def ambient(self):
        return self._ambient

    @property
    def rank(self):
        return len(self._factors)

    @property
    def order(self):
        return math.prod(self._factors)

    @property
    def exponent(self):
        """The largest invariant factor; 1 for the trivial group."""
        return self._factors[-1] if self._factors else 1

    def element(self, coords):
        """Reduce arbitrary integer coordinates into canonical range."""
        c = tuple(coords)
        if len(c) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(c)}")
        return GroupElement(tuple(x % d for x, d in zip(c, self._factors)))

    def elements(self):
        """All elements, in lexicographic coordinate order."""
        for c in itertools.product(*(range(d) for d in self._factors)):
            yield GroupElement(c)

    def coords_of(self, vec):
        """Coordinates of the class of an ambient integer vector.

        Solves [generators | A] t = vec through the cached Smith data,
        then double-checks the answer against the ambient image.
        """
        v = tuple(vec)
        m = self._ambient.rows
        if len(v) != m:
            raise ValueError(f"vector has length {len(v)}, expected {m}")
        res = self._augmented()
        u = res.P.apply(v)
        s = tuple(u) + (0,) * self.rank
        t = res.Q.apply(s)
        coords = tuple(t[j] % d for j, d in zip(range(self.rank), self._factors))
        diff = [sum(c * g[i] for c, g in zip(coords, self._gens)) - v[i] for i in range(m)]
        if not self._in_image(diff):
            raise ArithmeticError("coordinate solve failed its self-check")
        return GroupElement(coords)

    def pairing(self, u, v):
        """lk of two ambient integer vectors, as a residue mod 1."""
        n, e = self._scaled
        return ResidueQZ.of(sum(a * b for a, b in zip(u, n.apply(v))), e)

    def __eq__(self, other):
        return (
            isinstance(other, TorsionGroup)
            and self._factors == other._factors
            and self._gens == other._gens
            and self._ambient == other._ambient
        )

    def __hash__(self):
        return hash((self._factors, self._gens, self._ambient))

    def __repr__(self):
        return f"TorsionGroup(factors={list(self._factors)!r})"


@dataclass(frozen=True)
class LinkingForm:
    """The linking form on a TorsionGroup, tabulated on its generators.

    matrix[i][j] is lk(l_i, l_j) as a residue mod 1. Construction
    recomputes every entry from the group's presentation and checks
    symmetry, annihilation (d_i * entry integral), and odd denominators,
    then tabulates the integers e * matrix[i][j] mod e for `pair`.
    """

    group: TorsionGroup
    matrix: tuple
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = self.group.rank
        if len(self.matrix) != r or any(len(row) != r for row in self.matrix):
            raise ValueError(f"linking matrix must be {r}x{r}")
        gens = self.group.generators
        for i in range(r):
            for j in range(r):
                entry = self.matrix[i][j]
                if not isinstance(entry, ResidueQZ):
                    raise TypeError(f"entry ({i},{j}) is not a residue")
                if entry != self.group.pairing(gens[i], gens[j]):
                    raise ValueError(f"entry ({i},{j}) does not match the presentation")
                if entry != self.matrix[j][i]:
                    raise ValueError(f"linking matrix is not symmetric at ({i},{j})")
                d = self.group.invariant_factors[i]
                if (d * entry.value).denominator != 1:
                    raise ValueError(f"entry ({i},{j}) is not annihilated by {d}")
                if entry.denominator % 2 == 0:
                    raise ValueError(f"entry ({i},{j}) has even denominator")
        e = self.exponent
        table = tuple(tuple(x.numerator * (e // x.denominator) for x in row)
                      for row in self.matrix)
        object.__setattr__(self, "_table", table)

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
                total += xi * sum(yj * lij for yj, lij in zip(y, row))
        return total % self.exponent

    def __repr__(self):
        rows = [[str(x) for x in row] for row in self.matrix]
        return f"LinkingForm({rows!r})"


def double_cover_homology(v):
    """First homology of the double branched cover of a knot.

    Runs the Smith normal form of A = V + V^T and reads off the cyclic
    decomposition; the generator for the factor at diagonal position i
    is column i of P^{-1} = A Q D^{-1}, that is A q_i / d_i for column
    q_i of Q. The TorsionGroup constructor then verifies it has exactly
    the right order.
    """
    if not isinstance(v, SeifertMatrix):
        raise TypeError("double_cover_homology expects a SeifertMatrix")
    a = symmetrize(v)
    res = snf(a)
    diag = res.diagonal()
    if any(x == 0 for x in diag):
        raise ArithmeticError("V + V^T is singular; input is corrupt")
    aq = a @ res.Q
    gens = []
    for i, d in enumerate(diag):
        if d > 1:
            col = aq.column(i)
            if any(x % d for x in col):
                raise ArithmeticError(f"column {i} of A Q is not divisible by {d}")
            gens.append(tuple(x // d for x in col))
    return TorsionGroup(res.invariant_factors, gens, a)


def linking_form(group):
    """Tabulate the linking form of a TorsionGroup on its generators."""
    if not isinstance(group, TorsionGroup):
        raise TypeError("linking_form expects a TorsionGroup")
    gens = group.generators
    matrix = tuple(
        tuple(group.pairing(gi, gj) for gj in gens) for gi in gens
    )
    return LinkingForm(group, matrix)


def evaluate_linking(a, u, v):
    """lk of two ambient integer vectors through a presentation matrix:
    u^T A^{-1} v reduced mod 1."""
    if not isinstance(a, IntMatrix):
        raise TypeError("evaluate_linking expects an IntMatrix")
    if a.rows != a.cols:
        raise ValueError("presentation matrix must be square")
    uu, vv = tuple(u), tuple(v)
    if len(uu) != a.rows or len(vv) != a.rows:
        raise ValueError("vector length does not match the matrix")
    n, e = scaled_inverse(a)
    return ResidueQZ.of(sum(x * y for x, y in zip(uu, n.apply(vv))), e)


def self_linking(form, c):
    """lk(c, c) for an element given by coordinates on the form's group."""
    if not isinstance(form, LinkingForm):
        raise TypeError("self_linking expects a LinkingForm")
    if not isinstance(c, GroupElement):
        raise TypeError("self_linking expects a GroupElement")
    factors = form.group.invariant_factors
    if len(c.coords) != len(factors):
        raise ValueError(f"expected {len(factors)} coordinates, got {len(c.coords)}")
    for i, (x, d) in enumerate(zip(c.coords, factors)):
        if not 0 <= x < d:
            raise ValueError(f"coordinate {i} = {x} is outside [0, {d})")
    return ResidueQZ.of(form.pair(c.coords, c.coords), form.exponent)
