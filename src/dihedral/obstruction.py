"""Dihedral quotients and the extension obstruction.

A surjection of the knot group onto the dihedral group D_n (n odd)
corresponds to a nonzero character on the double-cover homology with
values in the order-n subgroup of Q/Z. The character extends over a
spanning surface pushed into the 4-ball if and only if its
self-linking vanishes; equivalently, a characteristic knot on the
surface is zero-framable after stabilization. Both routes are
implemented here, independently, and the character built from a
characteristic class cross-checks one against the other.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field
from operator import add

from .cover import GroupElement, LinkingForm, TorsionGroup, double_cover_homology, linking_form, self_linking
from .errors import CriterionInapplicableError, EnumerationCapError, require_dihedral_order
from .exact import ResidueQZ, _check_int
from .seifert import SeifertMatrix, _characteristic_value, _smith_form, symmetrize

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
    "enumerate_isotropic",
    "surjective_characters",
    "quotient_classes",
    "verdict",
    "is_characteristic_class",
    "characteristic_knot_classes",
    "char_knot_to_character",
    "seifert_criterion",
    "cyclic_criterion",
]

SCOPE_ORIENTABLE_B4 = "orientable-B4"
SCOPE_ALSO_NONORIENTABLE = "also-nonorientable"
SCOPE_ALSO_ANY_AMBIENT = "also-any-ambient-4-manifold"
SCOPE_ALL_DIHEDRAL_IF_3_DIVIDES_N = "obstructs-all-if-3-divides-n"

DEFAULT_ENUM_CAP = 1_000_000


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


@dataclass(frozen=True)
class Character:
    """A character of the double-cover homology with image exactly the
    order-n subgroup of Q/Z, named by the element c representing it
    through the linking form."""

    form: LinkingForm
    c: GroupElement
    n: int

    def __post_init__(self):
        require_dihedral_order(self.n)
        factors = self.form.group.invariant_factors
        if len(self.c.coords) != len(factors):
            raise ValueError(f"expected {len(factors)} coordinates, got {len(self.c.coords)}")
        for i, (x, d) in enumerate(zip(self.c.coords, factors)):
            if not 0 <= x < d:
                raise ValueError(f"coordinate {i} = {x} is outside [0, {d})")
        got = _image_order(self.form, self.c.coords)
        if got != self.n:
            raise ValueError(f"character image has order {got}, expected {self.n}")

    def values(self):
        """The character on each group generator."""
        e = self.form.exponent
        return tuple(ResidueQZ.of(self.form.pair(self.c.coords, g), e)
                     for g in _basis(self.form.rank))

    def evaluate(self, x):
        """The character on an arbitrary element given by coordinates."""
        if not isinstance(x, GroupElement):
            raise TypeError("evaluate expects a GroupElement")
        return ResidueQZ.of(self.form.pair(self.c.coords, x.coords), self.form.exponent)

    def self_linking(self):
        return self_linking(self.form, self.c)


def _units(n):
    return tuple(u for u in range(1, n) if math.gcd(u, n) == 1)


def _unit_act(u, coords, factors):
    return tuple((u * x) % d for x, d in zip(coords, factors))


@dataclass(frozen=True)
class ExtensionVerdict:
    """Whether a character extends over a pushed-in spanning surface,
    with the scope tags the verdict carries. A failed verdict also
    rules out non-orientable surfaces and arbitrary oriented ambient
    4-manifolds; when 3 | n it obstructs every dihedral order at once."""

    extends: bool
    self_linking: ResidueQZ
    scope_note: tuple
    surjective: bool = True

    def __post_init__(self):
        if self.extends != self.self_linking.is_zero:
            raise ValueError("verdict contradicts the self-linking value")


@dataclass(frozen=True)
class QuotientClass:
    """An orbit of surjective characters under the unit action, which is
    exactly one dihedral quotient up to equivalence, and the verdict of
    its representative, built by quotient_classes. Since lk(uc, uc) =
    u^2 lk(c, c) for a unit u mod n, that verdict decides every member."""

    members: tuple
    n: int
    verdict: ExtensionVerdict

    @property
    def representative(self):
        return self.members[0]

    @property
    def extends(self):
        return self.verdict.extends

    def __len__(self):
        return len(self.members)


def enumerate_isotropic(form, n, *, enum_cap=DEFAULT_ENUM_CAP):
    """All elements with vanishing self-linking, the trivial one included,
    in lexicographic coordinate order."""
    require_dihedral_order(n)
    group = form.group
    _check_cap("torsion group", group.order, enum_cap)
    return tuple(c for c in group.elements() if form.pair(c.coords, c.coords) == 0)


def surjective_characters(group, form, n, *, enum_cap=DEFAULT_ENUM_CAP):
    """All characters with image exactly the order-n subgroup of Q/Z,
    in lexicographic coordinate order.

    The linking form is nondegenerate, so chi_c has image order n
    exactly when c has order n, and only the n-torsion H[n] is walked:
    c_i = t_i * (d_i / g_i) with g_i = gcd(d_i, n) and 0 <= t_i < g_i.
    The cap bounds |H[n]|, as it does for characteristic_knot_classes.
    The coordinates are ints in range by construction and the lcm test is
    the one image-order check, so the walk skips the validation of
    GroupElement and Character.
    """
    require_dihedral_order(n)
    if not isinstance(group, TorsionGroup):
        raise TypeError("surjective_characters expects a TorsionGroup")
    if form.group != group:
        raise ValueError("linking form does not belong to the given group")
    factors = group.invariant_factors
    moduli = [math.gcd(d, n) for d in factors]
    _check_cap(f"n-torsion subgroup H[{n}]", math.prod(moduli), enum_cap)
    if group.exponent % n != 0:
        return ()
    steps = [d // g for d, g in zip(factors, moduli)]
    out = []
    for ts in itertools.product(*(range(g) for g in moduli)):
        if math.lcm(*(g // math.gcd(g, t) for g, t in zip(moduli, ts))) == n:
            c = object.__new__(GroupElement)
            object.__setattr__(c, "coords", tuple(t * s for t, s in zip(ts, steps)))
            ch = object.__new__(Character)
            vars(ch).update(form=form, c=c, n=n)
            out.append(ch)
    return tuple(out)


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
    form = chars[0].form
    factors = form.group.invariant_factors
    by_coords = {}
    for ch in chars:
        if not isinstance(ch, Character):
            raise TypeError("quotient_classes expects Characters")
        if ch.n != n:
            raise ValueError(f"character has order {ch.n}, expected {n}")
        if ch.form != form:
            raise ValueError("characters live on different linking forms")
        by_coords[ch.c.coords] = ch
    units = _units(n)
    seen = set()
    classes = []
    for coords in sorted(by_coords):
        if coords in seen:
            continue
        orbit = set()
        for u in units:
            moved = _unit_act(u, coords, factors)
            if moved not in by_coords:
                raise ValueError("character set is not closed under the unit action")
            orbit.add(moved)
        seen |= orbit
        members = tuple(by_coords[c] for c in sorted(orbit))
        classes.append(QuotientClass(members, n, verdict(form, members[0])))
    return tuple(classes)


def _scope_tags(extends, n):
    if extends:
        return (SCOPE_ORIENTABLE_B4,)
    tags = [SCOPE_ORIENTABLE_B4, SCOPE_ALSO_NONORIENTABLE, SCOPE_ALSO_ANY_AMBIENT]
    if n % 3 == 0:
        tags.append(SCOPE_ALL_DIHEDRAL_IF_3_DIVIDES_N)
    return tuple(tags)


def verdict(form, c, n=None):
    """Extension verdict for a character, or for a bare element.

    A Character carries its own n. A bare GroupElement needs n passed
    explicitly; the degenerate (non-surjective) cases, the trivial
    element included, are allowed and flagged through the surjective
    field.
    """
    if isinstance(c, Character):
        if n is not None and n != c.n:
            raise ValueError(f"character has order {c.n}, but n = {n} was passed")
        n = c.n
        if form != c.form:
            raise ValueError("character does not live on the given form")
        elem = c.c
        surjective = True
    elif isinstance(c, GroupElement):
        if n is None:
            raise ValueError("a bare element needs an explicit n")
        require_dihedral_order(n)
        elem = c
        surjective = _image_order(form, elem.coords) == n
    else:
        raise TypeError("verdict expects a Character or a GroupElement")
    sl = self_linking(form, elem)
    extends = sl.is_zero
    return ExtensionVerdict(
        extends=extends,
        self_linking=sl,
        scope_note=_scope_tags(extends, n),
        surjective=surjective,
    )


def is_characteristic_class(v, coords, n):
    """Whether the surface class is characteristic mod n and primitive
    there: (V + V^T) beta = 0 mod n and gcd(entries, n) = 1."""
    require_dihedral_order(n)
    return _characteristic_value(v, tuple(coords), n) is not None


@dataclass(frozen=True)
class CharKnotClass:
    """A characteristic surface class mod n: (V + V^T) beta = 0 mod n,
    primitive mod n. Stored with coordinates reduced into [0, n), the
    canonical integer lift, and with its form value beta^T (V + V^T) beta
    mod n^2, which decides the criterion. characteristic_knot_classes
    builds its classes without this constructor: its walk checks them
    and carries the value mod n^2 forward, so the exact value of a walked
    class is formed on first use of form_value()."""

    V: SeifertMatrix
    beta: tuple
    n: int
    _value_mod_n2: int = field(init=False, repr=False, compare=False)
    _value: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_dihedral_order(self.n)
        if not isinstance(self.V, SeifertMatrix):
            raise TypeError("CharKnotClass expects a SeifertMatrix")
        b = tuple(_check_int(x, f"coordinate {i}") % self.n for i, x in enumerate(self.beta))
        value = _characteristic_value(self.V, b, self.n)
        if value is None:
            raise ValueError(
                f"class {list(self.beta)} is not characteristic and primitive mod {self.n}")
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "_value_mod_n2", value % (self.n * self.n))
        object.__setattr__(self, "_value", value)

    def form_value(self):
        """beta^T (V + V^T) beta on the canonical lift, exact. Formed on
        first call for a walked class and checked against the value mod
        n^2 the walk carried."""
        if self._value is None:
            beta = self.beta
            value = sum(x * y for x, y in zip(beta, symmetrize(self.V).apply(beta)))
            if (value - self._value_mod_n2) % (self.n * self.n):
                raise ArithmeticError(
                    f"form value {value} of class {list(beta)} disagrees with "
                    f"{self._value_mod_n2} mod {self.n}^2 from the walk; input is corrupt")
            object.__setattr__(self, "_value", value)
        return self._value

    def form_value_mod_n2(self):
        """The form value reduced into [0, n^2)."""
        return self._value_mod_n2


def _walk_kernel(steps, k, beta, gy, f, content, keep):
    """Call keep(beta, f) for every primitive y, walking coordinate k and
    those after it; the coordinates below k are fixed in beta, G y, f and
    content = gcd(n, y). keep reduces the sums."""
    g, s, b_col, g_col, f_step = steps[k]
    for t in range(g):
        if t:
            f += 2 * s * gy[k] + f_step
            beta = tuple(map(add, beta, b_col))
            gy = tuple(map(add, gy, g_col))
        c = math.gcd(content, t * s)
        if k + 1 < len(steps):
            _walk_kernel(steps, k + 1, beta, gy, f, c, keep)
        elif c == 1:
            keep(beta, f)


def characteristic_knot_classes(v, n, *, enum_cap=DEFAULT_ENUM_CAP):
    """All characteristic classes mod n, sorted by coordinates.

    The kernel of A mod n is parametrized through the Smith form the
    SeifertMatrix keeps: with P A Q = D (checked by snf) and beta = Q y,
    the condition D y = 0 mod n pins each y_i to multiples of
    s_i = n / g_i, g_i = gcd(D_ii, n), so every beta walked is
    characteristic. Q is unimodular, so beta has the content of y, and a
    y that is not primitive mod n is skipped.

    The walk nests one loop per coordinate with g_i > 1 and keeps one
    state per loop, so it holds nothing but the kept classes. Each step
    adds one precomputed column to beta mod n and to G y mod n^2, where
    G = Q^T A Q, and updates f = y^T G y mod n^2 and the content of y.
    Since A Q y = 0 mod n, f is the form value of the canonical lift mod
    n^2. The exact form value is formed only for the classes with f = 0,
    whose stabilization needs it, and checked against f there; the walk
    skips CharKnotClass's validation.
    """
    require_dihedral_order(n)
    if not isinstance(v, SeifertMatrix):
        raise TypeError("characteristic_knot_classes expects a SeifertMatrix")
    res = _smith_form(v)
    walked = [(res.Q.column(i), g) for i, d in enumerate(res.diagonal())
              if (g := math.gcd(d, n)) > 1]
    _check_cap(f"kernel mod {n}", math.prod(g for _, g in walked), enum_cap)
    if math.gcd(n, *(n // g for _, g in walked)) != 1:
        return ()  # gcd(n, s_1, ..., s_r) > 1 divides every y: none is primitive
    a = symmetrize(v)
    nn = n * n
    # per walked coordinate k, where y_k steps by s_k through g_k values: the
    # step's column of beta mod n and of G y mod n^2 (s_k G e_k), and
    # s_k^2 G_kk mod n^2, so that f += 2 s_k (G y)_k + s_k^2 G_kk
    steps = []
    for k, (q, g) in enumerate(walked):
        s, aq = n // g, a.apply(q)
        g_col = [sum(x * y for x, y in zip(qj, aq)) for qj, _ in walked]
        steps.append((g, s, tuple(s * x % n for x in q), tuple(s * x % nn for x in g_col),
                      s * s * g_col[k] % nn))
    out = []

    def keep(beta, f):
        ck = object.__new__(CharKnotClass)
        vars(ck).update(V=v, beta=tuple(x % n for x in beta), n=n,
                        _value_mod_n2=f % nn, _value=None)
        if ck._value_mod_n2 == 0:
            ck.form_value()
        out.append(ck)

    _walk_kernel(steps, 0, (0,) * v.size, (0,) * len(steps), 0, n, keep)
    out.sort(key=lambda ck: ck.beta)
    return tuple(out)


def char_knot_to_character(v, beta, form=None):
    """The character corresponding to a characteristic class.

    The class of w = (1/n) A beta-lift in the cover homology pairs
    through the linking form to give the character. Passing a
    precomputed linking form avoids rebuilding the group. The result
    is rechecked: its self-linking must equal the form value of the
    lift divided by n^2, mod 1.
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
    n = beta.n
    lift = beta.beta
    av = a.apply(lift)
    if any(x % n != 0 for x in av):
        raise ArithmeticError("characteristic class failed A beta = 0 mod n; input is corrupt")
    w = tuple(x // n for x in av)
    c = group.coords_of(w)
    shifted = tuple(x + n for x in lift)
    w2 = tuple(x // n for x in a.apply(shifted))
    if group.coords_of(w2) != c:
        raise ArithmeticError("character depends on the chosen lift; solver is corrupt")
    ch = Character(form, c, n) if _image_order(form, c.coords) == n else None
    # e * lk(c, c) / e == form value / n^2 mod 1, cross-multiplied
    e, got, value = form.exponent, form.pair(c.coords, c.coords), beta.form_value_mod_n2()
    if (got * n * n - value * e) % (e * n * n) != 0:
        raise ArithmeticError(
            f"self-linking {got}/{e} disagrees with form value {value}/{n * n} mod 1; "
            "routes are inconsistent"
        )
    if ch is None:
        raise ArithmeticError(
            "characteristic class produced a non-surjective character; input is corrupt"
        )
    return ch


def seifert_criterion(v, beta):
    """Surface-side extension test: the form value of the class must be
    divisible by n^2. Equivalent to the vanishing of the corresponding
    character's self-linking."""
    if not isinstance(beta, CharKnotClass):
        raise TypeError("seifert_criterion expects a CharKnotClass")
    if beta.V != v:
        raise ValueError("class was built on a different Seifert matrix")
    return beta.form_value_mod_n2() == 0


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
