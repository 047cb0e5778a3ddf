"""Dihedral quotients and the extension obstruction.

A surjection of the knot group onto the dihedral group D_n (n odd)
corresponds to a nonzero character on the double-cover homology with
values in the order-n subgroup of Q/Z. The character extends over a
spanning surface pushed into the 4-ball if and only if its
self-linking vanishes; equivalently, a characteristic knot on the
surface is zero-framable after stabilization.

Both routes come from one walk over k in prod Z/g_t, g_t = gcd(d_t, n),
which reads the knot's Smith basis (seifert._SmithBasis): its torsion
entries d_t, columns q_t of Q and G = Q^T A Q. Each k names the
character c_t = k_t d_t / g_t and the characteristic class beta = Q y
mod n, y_t = k_t n / g_t, carried with f = y^T G y mod n^2, the form
value of beta and n^2 lk(c, c); the last k_t is summed in closed form.
Checked per unit orbit, that is per quotient class: pair(c, c) from
the linking table against f. Per class with f = 0: its exact value,
from the terms of A on and above the diagonal, against f. Per block:
the map behind char_knot_to_character solves the first
representative's class through P back to its c, and checks the table's
pairings of c with the generators against e (g_j . beta) / n, which
reads no entry of G.
"""

import functools
import math
from itertools import repeat
from operator import add, itemgetter, mod, mul

from .cover import LinkingForm, TorsionGroup, _element, double_cover_homology, linking_form
from .errors import (CriterionInapplicableError, EnumerationCapError, _check_int, _Record,
                     _setattr, require_dihedral_order)
from .exact import ResidueQZ
from .seifert import SeifertMatrix, _characteristic_value, _smith_form, _upper_terms, symmetrize

__all__ = [
    "SCOPE_ORIENTABLE_B4",
    "SCOPE_ALSO_NONORIENTABLE",
    "SCOPE_ALSO_ANY_AMBIENT",
    "SCOPE_ALL_DIHEDRAL_IF_3_DIVIDES_N",
    "DEFAULT_ENUM_CAP",
    "Character",
    "QuotientClass",
    "ExtensionVerdict",
    "CharKnotClass",
    "surjective_characters",
    "quotient_classes",
    "verdict",
    "characteristic_knot_classes",
    "char_knot_to_character",
    "cyclic_criterion",
]

SCOPE_ORIENTABLE_B4 = "orientable-B4"
SCOPE_ALSO_NONORIENTABLE = "also-nonorientable"
SCOPE_ALSO_ANY_AMBIENT = "also-any-ambient-4-manifold"
SCOPE_ALL_DIHEDRAL_IF_3_DIVIDES_N = "obstructs-all-if-3-divides-n"

DEFAULT_ENUM_CAP = 1_000_000
# The largest cap taken: a block walked to it would need about 3.8 GB, half
# of an 8 GB machine (0.94 KB of peak memory per element on the 12-trefoil sum)
_MAX_ENUM_CAP = 4_000_000

# The scope tags of a verdict, keyed by (extends, 3 divides n).
_FAILED = (SCOPE_ORIENTABLE_B4, SCOPE_ALSO_NONORIENTABLE, SCOPE_ALSO_ANY_AMBIENT)
_SCOPES = {(True, False): _FAILED[:1], (True, True): _FAILED[:1], (False, False): _FAILED,
           (False, True): _FAILED + (SCOPE_ALL_DIHEDRAL_IF_3_DIVIDES_N,)}


def _enum_cap(enum_cap, what="enumeration cap"):
    """The one check of an enumeration cap from outside, made by every
    entry point that walks: None (no cap) or an int from 1 to _MAX_ENUM_CAP,
    not a bool. The error names what, the flag or variable it came from."""
    if enum_cap is not None and _check_int(enum_cap, what) < 1:
        raise ValueError(f"{what} must be >= 1, got {enum_cap}")
    if enum_cap is not None and enum_cap > _MAX_ENUM_CAP:
        raise ValueError(f"{what} must be at most {_MAX_ENUM_CAP}, got {enum_cap}: "
                         "a walked element takes about 1 KB of memory")
    return enum_cap


def _check_cap(what, count, enum_cap):
    if enum_cap is not None and count > enum_cap:
        raise EnumerationCapError(
            f"{what} has {count} elements, above the enumeration cap {enum_cap}"
        )


@functools.cache
def _basis(rank):
    """Coordinates of the group generators."""
    return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


def _image_order(form, coords):
    """Order of the subgroup of Q/Z generated by the character's values."""
    e = form.exponent
    return e // math.gcd(e, *(form.pair(coords, g) for g in _basis(form.rank)))


class Character(_Record):
    """A character of the double-cover homology with image exactly the
    order-n subgroup of Q/Z, named by the element c (a coordinate tuple)
    representing it through the linking form."""

    __slots__ = _fields = ("form", "c", "n")

    def __init__(self, form, c, n):  # checks its fields, so not shared
        _setattr(self, "form", form)
        _setattr(self, "n", n)
        if not isinstance(form, LinkingForm):
            raise TypeError("Character expects a LinkingForm")
        require_dihedral_order(n)
        _setattr(self, "c", _element(form.group, c))
        got = _image_order(form, self.c)
        if got != n:
            raise ValueError(f"character image has order {got}, expected {n}")

    def evaluate(self, x):
        """The character on an element given by its coordinate tuple."""
        x = _element(self.form.group, x)
        return ResidueQZ.of(self.form.pair(self.c, x), self.form.exponent)

    def self_linking(self):
        return ResidueQZ.of(self.form.pair(self.c, self.c), self.form.exponent)


class ExtensionVerdict(_Record):
    """Whether a character extends over a pushed-in spanning surface,
    which it does exactly when its self-linking vanishes, with the scope
    tags the verdict carries. A failed verdict also rules out
    non-orientable surfaces and arbitrary oriented ambient 4-manifolds;
    when 3 | n it obstructs every dihedral order at once."""

    __slots__ = _fields = ("self_linking", "scope_note", "surjective")

    _defaults = {"surjective": True}

    @property
    def extends(self):
        return self.self_linking.is_zero


class QuotientClass(_Record):
    """An orbit of surjective characters under the unit action, which is
    exactly one dihedral quotient up to equivalence, and the verdict of
    its representative, built by quotient_classes. Since lk(uc, uc) =
    u^2 lk(c, c) for a unit u mod n, that verdict decides every member."""

    __slots__ = _fields = ("members", "n", "verdict")

    @property
    def representative(self):
        return self.members[0]

    @property
    def extends(self):
        return self.verdict.extends

    def __len__(self):
        return len(self.members)


def _walk(n, factors, enum_cap, what, v=None):
    """The one walk at n: (c, beta, f) for each k in prod Z/g_t,
    g_t = gcd(d_t, n) over the invariant factors d_t, whose y
    (y_t = k_t n / g_t) is primitive mod n, in lexicographic order of k
    and so of c (c_t = k_t d_t / g_t). The g_t divide each other, so y
    is primitive, and c has order n, only when the last g_t is n; then
    each p^a || n needs a t with p^a | g_t and p not dividing k_t.
    Given the Seifert matrix v with these Smith factors, beta = Q y mod n
    and f = y^T G y mod n^2 from the columns of Q and the rows of
    G = Q^T A Q its Smith basis keeps, reduced as the leaf is kept (the
    last coordinate in closed form); without v, () and 0."""
    moduli = [math.gcd(d, n) for d in factors]
    _check_cap(what, math.prod(moduli), enum_cap)
    if not moduli or moduli[-1] != n:
        return []
    walked = [t for t, g in enumerate(moduli) if g > 1]
    smith = None if v is None else _smith_form(v)
    qs = [smith.q[t] if smith else () for t in walked]
    gram = [[smith.gram[t][u] if smith else 0 for u in walked] for t in walked]
    nn = n * n
    # per walked t (the last ones, as the g_t divide each other), where k_t
    # steps by 1 and y_t by s: what each k_t adds to c and to beta (k_t times
    # its column mod n), the column of G y mod n^2, s^2 G_tt mod n^2
    steps = []
    for i, (t, q, row) in enumerate(zip(walked, qs, gram)):
        g = moduli[t]
        s, c_step = n // g, factors[t] // g
        b_col = [s * x % n for x in q]
        steps.append((g, s, tuple((x * c_step,) for x in range(g)),
                      tuple(tuple(x * b for b in b_col) for x in range(g)),
                      tuple(s * x % nn for x in row), s * s * row[i] % nn))
    return _walk_from(steps, 0, (0,) * walked[0], (0,) * len(qs[0]), (0,) * len(steps), 0, n, n, [])


def _walk_from(steps, i, c, beta, gy, f, content, n, out):
    """Walk coordinate i and those after it; the coordinates below i are
    fixed in c, beta, G y, f and content = gcd(n, y). A step adds the
    column of G y and f += 2 s (G y)_i + s^2 G_ii; the last coordinate,
    where g = n and s = 1, is closed: beta + t col and
    f + t 2 (G y)_i + t^2 G_ii at k_i = t."""
    g, s, tails, b_cols, g_col, f_step = steps[i]
    if i + 1 < len(steps):
        for t in range(g):
            if t:
                f += 2 * s * gy[i] + f_step
                gy = tuple(map(add, gy, g_col))
            _walk_from(steps, i + 1, c + tails[t], tuple(map(add, beta, b_cols[t])), gy, f,
                       math.gcd(content, t * s), n, out)
        return out
    nn, lin = n * n, 2 * gy[i]
    for t in range(g):
        if math.gcd(content, t) == 1:
            out.append((c + tails[t], tuple(map(mod, map(add, beta, b_cols[t]), repeat(n))),
                        (f + t * lin + t * t * f_step) % nn))
    return out


def _orbits(coords, factors, n):
    """The unit-action orbits of coordinate tuples listed in increasing
    order, as (index of the least member, sorted members), least members
    first; ValueError when the set is not closed under the units."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    left = set(coords)
    for i, c in enumerate(coords):
        if c in left:
            orbit = {tuple(map(mod, map(mul, c, repeat(u)), factors)) for u in units}
            if not orbit <= left:
                raise ValueError("character set is not closed under the unit action")
            left -= orbit
            yield i, sorted(orbit)


def surjective_characters(group, form, n, *, enum_cap=DEFAULT_ENUM_CAP):
    """All characters with image exactly the order-n subgroup of Q/Z,
    in lexicographic coordinate order: the c of the one walk, without
    surface columns, so any basis of the group will do. The form is
    nondegenerate, so chi_c has image order n exactly when c has order n;
    the walk's primitivity test is that one check, and it skips the
    validation of Character.
    """
    require_dihedral_order(n)
    _enum_cap(enum_cap)
    if not isinstance(group, TorsionGroup):
        raise TypeError("surjective_characters expects a TorsionGroup")
    if form.group != group:
        raise ValueError("linking form does not belong to the given group")
    leaves = _walk(n, group.invariant_factors, enum_cap, f"n-torsion subgroup H[{n}]")
    return tuple(Character._make(form, c, n) for c, _, _ in leaves)


def quotient_classes(chars, n):
    """Group surjective characters into unit-action orbits.

    Each orbit is one dihedral quotient up to equivalence. Classes are
    sorted by their representative, members within a class by
    coordinates, and each carries the verdict of its representative.
    The input must be closed under the unit action.
    """
    require_dihedral_order(n)
    chars = tuple(chars)
    if not chars:
        return ()
    by_coords = {}
    for ch in chars:
        if not isinstance(ch, Character):
            raise TypeError("quotient_classes expects Characters")
        if ch.n != n:
            raise ValueError(f"character has order {ch.n}, expected {n}")
        if ch.form != chars[0].form:
            raise ValueError("characters live on different linking forms")
        by_coords[ch.c] = ch
    form = chars[0].form
    classes = []
    for _, orbit in _orbits(sorted(by_coords), form.group.invariant_factors, n):
        members = tuple(by_coords[c] for c in orbit)
        classes.append(QuotientClass(members, n, verdict(form, members[0])))
    return tuple(classes)


def verdict(form, c, n=None):
    """Extension verdict for a character, or for a bare element.

    A Character carries its own n. A bare element, given as a coordinate
    tuple, needs n passed explicitly; the degenerate (non-surjective)
    cases, the trivial element included, are allowed and flagged through
    the surjective field.
    """
    if not isinstance(form, LinkingForm):
        raise TypeError("verdict expects a LinkingForm")
    if isinstance(c, Character):
        if n is not None and n != c.n:
            raise ValueError(f"character has order {c.n}, but n = {n} was passed")
        n = c.n
        if form != c.form:
            raise ValueError("character does not live on the given form")
        elem, surjective = c.c, True
    else:
        if n is None:
            raise ValueError("a bare element needs an explicit n")
        require_dihedral_order(n)
        elem = _element(form.group, c)
        surjective = _image_order(form, elem) == n
    sl = ResidueQZ._reduced(form.pair(elem, elem), form.exponent)
    return ExtensionVerdict(sl, _SCOPES[sl.is_zero, n % 3 == 0], surjective)


class CharKnotClass(_Record):
    """A characteristic surface class mod n: (V + V^T) beta = 0 mod n,
    primitive mod n. Stored with coordinates reduced into [0, n), the
    canonical integer lift, and with its form value beta^T (V + V^T) beta
    mod n^2, which decides the criterion. characteristic_knot_classes
    builds its classes without this constructor: its walk checks them
    and carries the value mod n^2 forward, so the exact value of a walked
    class is formed on first use of form_value()."""

    __slots__ = ("V", "beta", "n", "_value_mod_n2", "_value")
    _fields = ("V", "beta", "n")

    def __init__(self, V, beta, n):  # checks its fields, so not shared
        _setattr(self, "V", V)
        _setattr(self, "n", n)
        require_dihedral_order(n)
        if not isinstance(V, SeifertMatrix):
            raise TypeError("CharKnotClass expects a SeifertMatrix")
        b = tuple(_check_int(x, f"coordinate {i}") % n for i, x in enumerate(beta))
        value = _characteristic_value(V, b, n)
        if value is None:
            raise ValueError(f"class {list(beta)} is not characteristic and primitive mod {n}")
        _setattr(self, "beta", b)
        _setattr(self, "_value_mod_n2", value % (n * n))
        _setattr(self, "_value", value)

    def form_value(self):
        """beta^T (V + V^T) beta on the canonical lift, exact. Formed on
        first call for a walked class and checked against the value mod
        n^2 the walk carried."""
        if self._value is None:
            _setattr(self, "_value", _form_value(self.V, self.beta, self._value_mod_n2, self.n))
        return self._value

    def form_value_mod_n2(self):
        """The form value reduced into [0, n^2)."""
        return self._value_mod_n2


def _form_value(v, beta, f, n):
    """beta^T (V + V^T) beta, exact, row by row from the terms on and above
    the diagonal, skipping beta_i = 0; checked against f mod n^2 from the walk."""
    value = 0
    for i, get, weights in _upper_terms(v):
        if beta[i]:
            value += beta[i] * sum(map(mul, weights, get(beta)))
    if (value - f) % (n * n):
        raise ArithmeticError(f"form value {value} of class {list(beta)} disagrees with "
                              f"{f} mod {n}^2 from the walk; input is corrupt")
    return value


def characteristic_knot_classes(v, n, *, enum_cap=DEFAULT_ENUM_CAP):
    """All characteristic classes mod n, sorted by coordinates: the beta
    of the one walk. With P A Q = D (checked by snf) and beta = Q y,
    D y = 0 mod n makes each beta walked characteristic, and Q is
    unimodular, so beta has the content of y. The walk carries each
    form value mod n^2 and skips CharKnotClass's validation; a passing
    class gets its exact value, checked, at once."""
    require_dihedral_order(n)
    _enum_cap(enum_cap)
    if not isinstance(v, SeifertMatrix):
        raise TypeError("characteristic_knot_classes expects a SeifertMatrix")
    leaves = _walk(n, _smith_form(v).factors, enum_cap, f"kernel mod {n}", v)
    return tuple(CharKnotClass._make(v, beta, n, f, None if f else _form_value(v, beta, 0, n))
                 for _, beta, f in sorted(leaves, key=itemgetter(1)))


def _check_linking(got, e, value, n):
    """e lk(c, c) / e against the form value of c's characteristic class
    over n^2, mod 1, cross-multiplied."""
    if (got * n * n - value * e) % (e * n * n) != 0:
        raise ArithmeticError(
            f"self-linking {got}/{e} disagrees with form value {value}/{n * n} mod 1; "
            "routes are inconsistent"
        )


def _extension_walk(v, form, n, enum_cap):
    """Both routes at n from one walk, checked per class and per block:
    ((members, e lk(c, c) mod e) per quotient class, with members the
    sorted character coordinates and c the first; the leaves (c, beta mod
    n, f mod n^2) sorted by beta, each beta once as Q is unimodular). form
    is on the Smith basis of v's cover homology, of exponent e. The cap
    names the kernel mod n, which has the size of H[n]."""
    factors = form.group.invariant_factors
    leaves = _walk(n, factors, enum_cap, f"kernel mod {n}", v)
    e = form.exponent
    classes = []
    for i, members in _orbits([c for c, _, _ in leaves], factors, n):
        got = form.pair(members[0], members[0])
        _check_linking(got, e, leaves[i][2], n)
        classes.append((tuple(members), got))
    if leaves:
        _class_map(form, leaves[0][1], n, leaves[0][0])
    return classes, sorted(leaves, key=itemgetter(1))


def _class_map(form, lift, n, c):
    """The per-block route check, and the core of char_knot_to_character:
    the characteristic class lift (a tuple of ints) must name chi_c.
    The class of w = A beta / n (A beta = 0 mod n checked), solved
    through P, must be c. As A^{-1} w = beta / n, chi_c on generator h_j
    is e lk(h_j, w) = e (h_j . beta) / n mod e, which reads no entry of G
    ((q_j . w) e / d_j on the Smith basis); each must equal the table's
    pair(c, e_j), and together they must give image order n."""
    group, e = form.group, form.exponent
    av = group.ambient.apply(lift)
    if any(x % n for x in av):
        raise ArithmeticError("characteristic class failed A beta = 0 mod n; input is corrupt")
    got = group._coords(tuple(x // n for x in av))
    if got != c:
        raise ArithmeticError(f"class {list(lift)} maps through P to {list(got)}, not to "
                              f"{list(c)}; routes disagree at n={n}")
    values = []
    for j, (h, unit) in enumerate(zip(group.generators, _basis(group.rank))):
        x, r = divmod(e * sum(map(mul, h, lift)), n)
        if r or form.pair(c, unit) != x % e:
            raise ArithmeticError(f"linking table disagrees with generator {j} on class "
                                  f"{list(lift)}; routes disagree at n={n}")
        values.append(x)
    if e // math.gcd(e, *values) != n:
        raise ArithmeticError(
            "characteristic class produced a non-surjective character; input is corrupt"
        )


def char_knot_to_character(v, beta, form=None):
    """The character corresponding to a characteristic class.

    The class of w = (1/n) A beta-lift in the cover homology pairs
    through the linking form to give the character. Passing a
    precomputed linking form avoids rebuilding the group. The result
    is rechecked by the per-block map _class_map, coords_of's own
    self-check, the same answer for another lift, and its self-linking,
    which must equal the form value of the lift over n^2, mod 1.
    """
    if not isinstance(beta, CharKnotClass):
        raise TypeError("char_knot_to_character expects a CharKnotClass")
    if beta.V != v:
        raise ValueError("class was built on a different Seifert matrix")
    if form is None:
        form = linking_form(double_cover_homology(v))
    group = form.group
    a = symmetrize(v)
    if group.ambient != a:
        raise ValueError("linking form was built on a different matrix")
    n, lift = beta.n, beta.beta
    c, c2 = (group.coords_of(tuple(x // n for x in a.apply(b)))
             for b in (lift, tuple(x + n for x in lift)))
    if c2 != c:
        raise ArithmeticError("character depends on the chosen lift; solver is corrupt")
    _class_map(form, lift, n, c)
    _check_linking(form.pair(c, c), form.exponent, beta.form_value_mod_n2(), n)
    return Character._make(form, c, n)


def cyclic_criterion(group, n):
    """Order shortcut for cyclic covers: extendable exactly when n^2
    divides the group order. Inapplicable to non-cyclic groups."""
    require_dihedral_order(n)
    if not isinstance(group, TorsionGroup):
        raise TypeError("cyclic_criterion expects a TorsionGroup")
    if group.rank > 1:
        raise CriterionInapplicableError(
            f"criterion inapplicable: group with factors {list(group.invariant_factors)} is not cyclic"
        )
    if group.order % n != 0:
        raise ValueError(f"n = {n} does not divide the group order {group.order}")
    return group.order % (n * n) == 0
