"""Dihedral quotients, extension verdicts, characteristic knot classes."""

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import dihedral
import dihedral.report
from dihedral import (
    Character,
    CharKnotClass,
    CriterionInapplicableError,
    EnumerationCapError,
    EvenModulusError,
    ExtensionVerdict,
    QuotientClass,
    ResidueQZ,
    SeifertMatrix,
    analyze,
    char_knot_to_character,
    characteristic_knot_classes,
    cyclic_criterion,
    double_cover_homology,
    knot_determinant,
    linking_form,
    quotient_classes,
    surjective_characters,
    symmetrize,
    twist_knot,
    verdict,
)
from dihedral import obstruction, seifert
from dihedral.cover import LinkingForm, TorsionGroup
from dihedral.exact import IntMatrix, snf
from dihedral.obstruction import _walk

NINE_37 = SeifertMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, -2, 1], [-1, -1, 0, -1]])


def walk_inputs(corpus):
    """(matrix, n) for the first 25 corpus knots at n in {3, 5, 7, 9, 15, 45}
    and for 9_37#9_37 at n in {3, 5, 9, 15, 45}, where n divides the
    determinant."""
    nine_sum = dihedral.connected_sum(NINE_37, NINE_37)
    for v, ns in [(v, (3, 5, 7, 9, 15, 45)) for v in corpus[:25]] + [(nine_sum, (3, 5, 9, 15, 45))]:
        for n in ns:
            if knot_determinant(v) % n == 0:
                yield v, n


def walked_classes(corpus):
    """(form, n, characters, quotient classes) over walk_inputs."""
    for v, n in walk_inputs(corpus):
        form = linking_form(double_cover_homology(v))
        chars = surjective_characters(form.group, form, n)
        yield form, n, chars, quotient_classes(chars, n)


def element_order(group, coords):
    return math.lcm(*(d // math.gcd(d, x)
                      for x, d in zip(coords, group.invariant_factors)))


def isotropic(form):
    """The elements of vanishing self-linking, the trivial one included."""
    return [c for c in form.group.elements() if form.pair(c, c) == 0]


class TestIsotropic:
    def test_nine37_count(self):
        form = linking_form(double_cover_homology(NINE_37))
        assert len(isotropic(form)) == 5

    def test_trefoil_only_zero(self):
        form = linking_form(double_cover_homology(twist_knot(-1)))
        assert isotropic(form) == [(0,)]


class TestSurjectiveCharacters:
    def test_matches_order_n_elements(self, corpus):
        # independent route: a character is surjective exactly when its
        # naming element has order n, by nondegeneracy
        for v in corpus[:40]:
            d = knot_determinant(v)
            group = double_cover_homology(v)
            form = linking_form(group)
            for n in (3, 5, 7, 9):
                if d % n:
                    continue
                got = {ch.c for ch in surjective_characters(group, form, n)}
                want = {c for c in group.elements() if element_order(group, c) == n}
                assert got == want

    def test_nine37_count(self):
        group = double_cover_homology(NINE_37)
        chars = surjective_characters(group, linking_form(group), 3)
        assert len(chars) == 8

    def test_non_divisor_gives_nothing(self):
        group = double_cover_homology(twist_knot(-1))
        assert surjective_characters(group, linking_form(group), 5) == ()

    @pytest.mark.parametrize("n", [9, 25, 27, 45, 75, 81])
    def test_order_divisor_beyond_exponent_gives_nothing(self, n):
        # n divides |H| = 2025 but not the exponent 15: no element has order n
        group = double_cover_homology(dihedral.connected_sum(NINE_37, NINE_37))
        assert (group.order, group.exponent) == (2025, 15)
        assert surjective_characters(group, linking_form(group), n) == ()

    def test_cap_bounds_n_torsion(self):
        # H = Z21: H[3] has 3 elements, within a cap the whole group exceeds
        group = double_cover_homology(twist_knot(5))
        form = linking_form(group)
        chars = surjective_characters(group, form, 3, enum_cap=5)
        assert [ch.c for ch in chars] == [(7,), (14,)]
        with pytest.raises(EnumerationCapError, match=r"H\[3\] has 3 elements"):
            surjective_characters(group, form, 3, enum_cap=2)

    def test_even_n(self):
        group = double_cover_homology(NINE_37)
        form = linking_form(group)
        with pytest.raises(EvenModulusError):
            surjective_characters(group, form, 2)
        with pytest.raises(EvenModulusError):
            verdict(form, (0, 0), n=2)

    def test_image_is_validated(self):
        group = double_cover_homology(NINE_37)
        form = linking_form(group)
        with pytest.raises(ValueError, match="image has order 1"):
            Character(form, (0, 0), 3)
        with pytest.raises(ValueError, match="image has order 15"):
            Character(form, (0, 1), 3)


class TestCharacter:
    @pytest.mark.parametrize("form", ["none", "torsion-group"])
    def test_form_type_checked(self, form):
        group = double_cover_homology(twist_knot(-1))
        with pytest.raises(TypeError, match="Character expects a LinkingForm"):
            Character(None if form == "none" else group, (1,), 3)

    def test_evaluate_matches_self_linking_and_values(self, corpus):
        for v in corpus[:20]:
            d = knot_determinant(v)
            group = double_cover_homology(v)
            form = linking_form(group)
            for n in (3, 5, 7, 9):
                if d % n:
                    continue
                for ch in surjective_characters(group, form, n):
                    assert ch.evaluate(ch.c) == ch.self_linking()
                    assert _on_generators(ch) == _residue_row(form, ch)

    def test_values_match_residue_matrix(self):
        group = double_cover_homology(NINE_37)
        form = linking_form(group)
        for ch in surjective_characters(group, form, 3):
            assert _on_generators(ch) == _residue_row(form, ch)


def _on_generators(ch):
    rank = ch.form.group.rank
    return tuple(ch.evaluate(tuple(int(i == j) for j in range(rank))) for i in range(rank))


def _residue_row(form, ch):
    """Oracle for _on_generators: sum_i c_i lk(g_i, g_j) from the
    tabulated residues."""
    return tuple(ResidueQZ.of(sum(x * row[j].value for x, row in zip(ch.c, form.matrix)))
                 for j in range(form.group.rank))


def _element_takers():
    """The three entry points that take an element of H from outside, on
    9_37 at n = 3; each runs the one element check of dihedral.cover."""
    form = linking_form(double_cover_homology(NINE_37))
    ch = surjective_characters(form.group, form, 3)[0]
    return {
        "Character": lambda c: Character(form, c, 3),
        "Character.evaluate": ch.evaluate,
        "verdict": lambda c: verdict(form, c, n=3),
    }


ELEMENT_TAKERS = sorted(_element_takers())


@pytest.mark.parametrize("taker", ELEMENT_TAKERS)
class TestElementBoundary:
    # H = Z3 + Z15 on the Smith basis; (1, 5) has order 3

    def test_accepts_a_tuple_or_a_list(self, taker):
        take = _element_takers()[taker]
        assert take((1, 5)) == take([1, 5])

    @pytest.mark.parametrize("c, message", [
        ((1,), "expected 2 coordinates, got 1"),
        ((1, 0, 7), "expected 2 coordinates, got 3"),
        ((1, 15), r"coordinate 1 = 15 is outside \[0, 15\)"),
        ((-1, 5), r"coordinate 0 = -1 is outside \[0, 3\)"),
    ], ids=["short", "long", "above-range", "negative"])
    def test_rejects_malformed(self, taker, c, message):
        with pytest.raises(ValueError, match=message):
            _element_takers()[taker](c)

    @pytest.mark.parametrize("c", [(1.0, 5), (1, True)], ids=["float", "bool"])
    def test_non_int_coordinate(self, taker, c):
        with pytest.raises(TypeError, match="is not an integer"):
            _element_takers()[taker](c)


def _malformed_calls():
    """Calls with an argument of the wrong type, or from another knot or n,
    each with the error type and message it must raise; the trefoil and
    6_1 both have characters at n = 3."""
    trefoil, six1 = twist_knot(-1), twist_knot(2)
    group = double_cover_homology(trefoil)
    form, other = linking_form(group), linking_form(double_cover_homology(six1))
    ch, ch61 = (surjective_characters(f.group, f, 3)[0] for f in (form, other))
    ck = characteristic_knot_classes(trefoil, 3)[0]
    return {
        "surjective-group-type": (lambda: surjective_characters(form, form, 3), TypeError,
                                  "surjective_characters expects a TorsionGroup"),
        "surjective-other-group": (lambda: surjective_characters(other.group, form, 3),
                                   ValueError, "linking form does not belong to the given group"),
        "classes-type": (lambda: quotient_classes([(1,)], 3), TypeError,
                         "quotient_classes expects Characters"),
        "classes-order": (lambda: quotient_classes([ch], 5), ValueError,
                          "character has order 3, expected 5"),
        "classes-forms": (lambda: quotient_classes([ch, ch61], 3), ValueError,
                          "characters live on different linking forms"),
        "verdict-n": (lambda: verdict(form, ch, n=5), ValueError,
                      "character has order 3, but n = 5 was passed"),
        "verdict-form": (lambda: verdict(other, ch), ValueError,
                         "character does not live on the given form"),
        "class-type": (lambda: CharKnotClass(trefoil.matrix, (1, 1), 3), TypeError,
                       "CharKnotClass expects a SeifertMatrix"),
        "classes-of-type": (lambda: characteristic_knot_classes(trefoil.matrix, 3), TypeError,
                            "characteristic_knot_classes expects a SeifertMatrix"),
        "to-character-type": (lambda: char_knot_to_character(trefoil, (1, 1)), TypeError,
                              "char_knot_to_character expects a CharKnotClass"),
        "to-character-matrix": (lambda: char_knot_to_character(six1, ck), ValueError,
                                "class was built on a different Seifert matrix"),
        "to-character-form": (lambda: char_knot_to_character(trefoil, ck, other), ValueError,
                              "linking form was built on a different matrix"),
        "cyclic-type": (lambda: cyclic_criterion(form, 3), TypeError,
                        "cyclic_criterion expects a TorsionGroup"),
    }


@pytest.mark.parametrize("call", sorted(_malformed_calls()))
def test_rejects_malformed_arguments(call):
    run, error, message = _malformed_calls()[call]
    with pytest.raises(error, match=message):
        run()


class TestQuotientClasses:
    def test_nine37_partition(self):
        group = double_cover_homology(NINE_37)
        form = linking_form(group)
        chars = surjective_characters(group, form, 3)
        classes = quotient_classes(chars, 3)
        assert len(classes) == 4
        assert sum(qc.extends for qc in classes) == 2
        seen = [ch.c for qc in classes for ch in qc.members]
        assert sorted(seen) == sorted(ch.c for ch in chars)

    def test_isotropic_subset(self):
        group = double_cover_homology(NINE_37)
        form = linking_form(group)
        chars = surjective_characters(group, form, 3)
        iso = tuple(ch for ch in chars if ch.self_linking().is_zero)
        classes = quotient_classes(iso, 3)
        assert len(classes) == 2
        assert all(qc.extends for qc in classes)

    def test_orbit_structure(self, corpus):
        for v in corpus[:25]:
            d = knot_determinant(v)
            for n in (3, 5):
                if d % n:
                    continue
                group = double_cover_homology(v)
                form = linking_form(group)
                chars = surjective_characters(group, form, n)
                classes = quotient_classes(chars, n)
                units = [u for u in range(1, n) if math.gcd(u, n) == 1]
                for qc in classes:
                    coords = {ch.c for ch in qc.members}
                    rep = qc.members[0].c
                    orbit = {
                        tuple((u * x) % f for x, f in
                              zip(rep, group.invariant_factors))
                        for u in units
                    }
                    assert coords == orbit

    def test_rejects_non_closed_input(self):
        group = double_cover_homology(NINE_37)
        form = linking_form(group)
        chars = surjective_characters(group, form, 3)
        with pytest.raises(ValueError):
            quotient_classes(chars[:1], 3)

    def test_members_share_verdict(self, corpus):
        for form, n, chars, classes in walked_classes(corpus):
            # the walk builds its characters unvalidated; the validating
            # constructor must accept each and give the same character
            for ch in chars:
                assert Character(form, ch.c, n) == ch
            for qc in classes:
                flags = {ch.self_linking().is_zero for ch in qc.members}
                assert flags == {qc.extends}


class TestVerdict:
    def test_trefoil_negative(self):
        group = double_cover_homology(twist_knot(-1))
        form = linking_form(group)
        chars = surjective_characters(group, form, 3)
        vd = verdict(form, chars[0])
        assert not vd.extends
        assert vd.self_linking.value == Fraction(1, 3)
        assert "also-nonorientable" in vd.scope_note
        assert "also-any-ambient-4-manifold" in vd.scope_note
        assert "obstructs-all-if-3-divides-n" in vd.scope_note
        assert vd.surjective

    def test_positive_scope(self):
        group = double_cover_homology(twist_knot(2))
        form = linking_form(group)
        chars = surjective_characters(group, form, 3)
        vd = verdict(form, chars[0])
        assert vd.extends
        assert vd.scope_note == ("orientable-B4",)

    def test_extends_read_off_self_linking(self):
        assert ExtensionVerdict(ResidueQZ.of(0), ("orientable-B4",)).extends
        assert not ExtensionVerdict(ResidueQZ.of(Fraction(1, 3)), ()).extends

    def test_trivial_element_flagged(self):
        group = double_cover_homology(twist_knot(-1))
        form = linking_form(group)
        vd = verdict(form, (0,), n=3)
        assert vd.extends
        assert not vd.surjective

    def test_bare_element_needs_n(self):
        group = double_cover_homology(twist_knot(-1))
        form = linking_form(group)
        with pytest.raises(ValueError):
            verdict(form, (1,))

    def test_form_type_checked(self):
        group = double_cover_homology(twist_knot(-1))
        ch = surjective_characters(group, linking_form(group), 3)[0]
        for c in (ch, (1,)):
            with pytest.raises(TypeError, match="expects a LinkingForm"):
                verdict(group, c, n=3)

    def test_unit_action_invariance(self, corpus):
        # each class stores its representative's verdict; every member u*c
        # has that verdict, its self-linking scaled by u^2
        for form, n, _, classes in walked_classes(corpus):
            units = [u for u in range(1, n) if math.gcd(u, n) == 1]
            for qc in classes:
                rep, stored = qc.representative, qc.verdict
                assert stored == verdict(form, rep)
                by_coords = {ch.c: ch for ch in qc.members}
                for u in units:
                    member = by_coords[tuple((u * x) % d for x, d in
                                             zip(rep.c, form.group.invariant_factors))]
                    scaled = ResidueQZ.of(u * u * stored.self_linking.value)
                    assert verdict(form, member) == ExtensionVerdict(
                        scaled, stored.scope_note, stored.surjective)


class TestCharacteristicClasses:
    def test_trefoil_exact_set(self):
        got = {ck.beta for ck in characteristic_knot_classes(twist_knot(-1), 3)}
        assert got == {(1, 2), (2, 1)}

    def test_membership_cases(self):
        v = twist_knot(-1)
        assert CharKnotClass(v, (1, 2), 3).beta == (1, 2)
        assert CharKnotClass(v, (-1, 1), 3).beta == (2, 1)
        for beta in ((1, 1), (0, 0)):
            with pytest.raises(ValueError, match="not characteristic and primitive mod 3"):
                CharKnotClass(v, beta, 3)

    def test_enumeration_matches_brute_force(self, corpus):
        for v in corpus[:20]:
            d = knot_determinant(v)
            for n in (3, 5):
                if d % n:
                    continue
                a = symmetrize(v)
                size = v.size
                got = {ck.beta for ck in characteristic_knot_classes(v, n)}
                want = set()
                for beta in _all_vectors(size, n):
                    if all(x % n == 0 for x in a.apply(beta)) and math.gcd(*beta, n) == 1:
                        want.add(beta)
                assert got == want

    def test_count_matches_character_count(self, corpus):
        for v in corpus[:30]:
            d = knot_determinant(v)
            group = double_cover_homology(v)
            form = linking_form(group)
            for n in (3, 5, 7):
                if d % n:
                    continue
                cks = characteristic_knot_classes(v, n)
                chars = surjective_characters(group, form, n)
                assert len(cks) == len(chars)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            characteristic_knot_classes(NINE_37, 3, enum_cap=3)

    def test_form_value_stored(self, corpus):
        # the walk builds its classes unvalidated; the validating
        # constructor must accept each and give the same class and value
        for v, n in walk_inputs(corpus):
            a = symmetrize(v)
            for ck in characteristic_knot_classes(v, n):
                want = sum(x * y for x, y in zip(ck.beta, a.apply(ck.beta)))
                assert ck.form_value() == want
                built = CharKnotClass(v, ck.beta, n)
                assert built == ck
                assert built.form_value() == ck.form_value()

    def test_cap_is_on_by_default(self):
        # 3^13 kernel elements of the sum of 13 trefoils at n = 3 exceed
        # DEFAULT_ENUM_CAP; a walk without a cap would pass the timeout
        script = textwrap.dedent("""
            from dihedral import EnumerationCapError, characteristic_knot_classes, connected_sum, twist_knot
            v = twist_knot(-1)
            for _ in range(12):
                v = connected_sum(v, twist_knot(-1))
            try:
                characteristic_knot_classes(v, 3)
            except EnumerationCapError as e:
                print(e)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(dihedral.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=30, check=True)
        assert out.stdout.startswith(f"kernel mod 3 has {3 ** 13} elements, above the "
                                     "enumeration cap 1000000")

    def test_walk_products(self, monkeypatch):
        # the walk applies A nowhere, as its columns of Q and rows of G come
        # from the knot's kept Smith basis, and forms the exact form value
        # once per passing class, from A's kept terms; a modulus no
        # primitive y can reach walks nothing
        v = dihedral.connected_sum(NINE_37, NINE_37)
        assert knot_determinant(v) == 2025
        applies, values = [], []
        real_apply, real_value = IntMatrix.apply, obstruction._form_value

        def counted_apply(self, vec):
            applies.append(vec)
            return real_apply(self, vec)

        def counted_value(v, beta, f, n):
            values.append(beta)
            return real_value(v, beta, f, n)

        monkeypatch.setattr(IntMatrix, "apply", counted_apply)
        monkeypatch.setattr(obstruction, "_form_value", counted_value)
        for n, classes, passing, setup in ((9, 0, 0, 0), (45, 0, 0, 0), (15, 1920, 256, 0)):
            applies.clear()
            values.clear()
            cks = characteristic_knot_classes(v, n)
            assert len(cks) == classes
            assert (len(applies), len(values)) == (setup, passing)
            assert values == [ck.beta for ck in cks if ck.form_value_mod_n2() == 0]
            assert sum(ck.form_value_mod_n2() == 0 for ck in cks) == passing
            # the criterion reads the carried value
            assert (len(applies), len(values)) == (setup, passing)

    def test_form_value_matches_dense_product(self, corpus, scrambled_genus4):
        # the exact value from A's terms on and above the diagonal equals the
        # dense sum of beta_i A_ij beta_j: on every class of the corpus at
        # n = 3, 5, 7 and of the scrambled genus-4 sum at n = 3, and on seeded
        # integer vectors with zeros and negative entries for the latter
        def dense(v, beta):
            a = symmetrize(v)
            return sum(beta[i] * a[i, j] * beta[j] for i in range(v.size) for j in range(v.size))

        cases = [(v, n) for v in corpus for n in (3, 5, 7) if knot_determinant(v) % n == 0]
        cases.append((scrambled_genus4, 3))
        seen = 0
        for v, n in cases:
            for ck in characteristic_knot_classes(v, n):
                want = dense(v, ck.beta)
                assert obstruction._form_value(v, ck.beta, ck.form_value_mod_n2(), n) == want
                assert ck.form_value() == want
                seen += 1
        assert seen == 538
        rng = random.Random(25)
        for _ in range(200):
            beta = tuple(rng.choice((0, 0, 1, -1, 2, -7, 40)) for _ in range(8))
            want = dense(scrambled_genus4, beta)
            assert obstruction._form_value(scrambled_genus4, beta, want % 9, 3) == want

    def test_walk_matches_product_oracle(self, corpus):
        # the product walk this one replaced, beta = Q y mod n and
        # beta^T A beta by products, gives the same classes and values
        for v, n in walk_inputs(corpus):
            want = _product_walk(v, n)
            cks = characteristic_knot_classes(v, n)
            assert [ck.beta for ck in cks] == sorted(want)
            for ck in cks:
                assert ck.form_value_mod_n2() == want[ck.beta] % (n * n)
                assert ck.form_value() == want[ck.beta]

    def test_form_value_checked_against_walk(self):
        ck = next(ck for ck in characteristic_knot_classes(NINE_37, 5)
                  if ck.form_value_mod_n2())
        object.__setattr__(ck, "_value_mod_n2", ck.form_value_mod_n2() + 1)
        with pytest.raises(ArithmeticError, match="disagrees"):
            ck.form_value()

    def test_smith_form_reduced_once_per_knot(self, monkeypatch):
        # the determinant, the cover homology, its linking form, the
        # characteristic classes and the character bridge all read the one
        # Smith form the SeifertMatrix keeps; snf is patched at every binding
        import dihedral.exact as exact_mod

        calls = []
        real = exact_mod.snf

        def counted(a):
            calls.append(a)
            return real(a)

        bound = 0
        for name, mod in list(sys.modules.items()):
            if (name == "dihedral" or name.startswith("dihedral.")) and \
                    getattr(mod, "snf", None) is real:
                monkeypatch.setattr(mod, "snf", counted)
                bound += 1
        assert bound >= 4  # exact, seifert, cover, the package
        v = SeifertMatrix(NINE_37.matrix.to_lists())
        assert knot_determinant(v) == 45
        form = linking_form(double_cover_homology(v))
        for n in (3, 5, 15):
            for ck in characteristic_knot_classes(v, n):
                char_knot_to_character(v, ck, form)
        char_knot_to_character(v, characteristic_knot_classes(v, 3)[0])
        assert calls == [symmetrize(v)]


class TestCharacterBridge:
    def test_trefoil_frozen_value(self):
        v = twist_knot(-1)
        form = linking_form(double_cover_homology(v))
        ck = characteristic_knot_classes(v, 3)[0]
        ch = char_knot_to_character(v, ck, form)
        assert ch.self_linking().value == Fraction(1, 3)

    def test_lift_check_runs_under_optimize(self):
        # a coordinate solver that depends on the lift must be caught
        # even when assertions and __debug__ blocks are compiled out
        script = textwrap.dedent("""
            import itertools
            from dihedral import char_knot_to_character, characteristic_knot_classes, twist_knot
            from dihedral.cover import TorsionGroup

            solve, calls = TorsionGroup.coords_of, itertools.count()

            def lift_dependent(self, vec):
                c = solve(self, vec)
                return c if next(calls) % 2 == 0 else ((c[0] + 1) % 3,)

            TorsionGroup.coords_of = lift_dependent
            v = twist_knot(-1)
            try:
                char_knot_to_character(v, characteristic_knot_classes(v, 3)[0])
            except ArithmeticError as e:
                print(e)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(dihedral.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        assert "depends on the chosen lift" in out.stdout

    def test_class_level_round_trip(self, corpus):
        # the walk's class beta(k) of each quotient class representative c(k)
        # maps back to c(k) by the independent map, and the class verdict is
        # f(k) = 0 mod n^2; the classes hit by criterion-passing
        # characteristic knots are exactly the extendable ones
        for v, n in walk_inputs(corpus):
            form = linking_form(double_cover_homology(v))
            classes = quotient_classes(surjective_characters(form.group, form, n), n)
            reps = {qc.representative.c: qc for qc in classes}
            seen = 0
            for c, beta, f in _walk(n, form.group.invariant_factors, None, "", v):
                if c in reps:
                    ck = CharKnotClass(v, beta, n)
                    assert ck.form_value_mod_n2() == f % (n * n)
                    assert char_knot_to_character(v, ck, form).c == c
                    assert reps[c].extends == (f % (n * n) == 0)
                    seen += 1
            assert seen == len(classes)
            index = {ch.c: i for i, qc in enumerate(classes) for ch in qc.members}
            hit = {index[char_knot_to_character(v, ck, form).c]
                   for ck in characteristic_knot_classes(v, n) if ck.form_value_mod_n2() == 0}
            assert hit == {i for i, qc in enumerate(classes) if qc.extends}


class TestRouteChecks:
    """analyze checks each class's verdict against the form value f the
    walk carried, and runs the independent map once per block: a fault on
    either side raises."""

    @staticmethod
    def corrupt_table(monkeypatch):
        def corrupted(group):
            form = LinkingForm(group)
            table = [list(row) for row in form._table]
            table[0][0] = (table[0][0] + 1) % form.exponent
            object.__setattr__(form, "_table", tuple(map(tuple, table)))
            return form

        monkeypatch.setattr(dihedral.report, "linking_form", corrupted)

    @staticmethod
    def corrupt_column(monkeypatch):
        real = obstruction._walk_from

        def corrupted(steps, i, *state):
            if i == 0:  # one entry of the first step's column of G y
                g, s, tails, b_cols, g_col, f_step = steps[0]
                g_col = (g_col[0],) + (g_col[1] + 1,) + g_col[2:]
                steps = [(g, s, tails, b_cols, g_col, f_step)] + steps[1:]
            return real(steps, i, *state)

        monkeypatch.setattr(obstruction, "_walk_from", corrupted)

    @staticmethod
    def drop_square(monkeypatch):
        # the last coordinate's closed form without its t^2 s^2 G_ii term:
        # in the last step, s^2 G_ii feeds only that term
        real = obstruction._walk_from

        def corrupted(steps, i, *state):
            if i == 0:
                steps = steps[:-1] + [steps[-1][:5] + (0,)]
            return real(steps, i, *state)

        monkeypatch.setattr(obstruction, "_walk_from", corrupted)

    @staticmethod
    def corrupt_solver(monkeypatch):
        # the solve through P that the per-block map reads returns 2c, which
        # has the image order of c at n = 3 and lk(2c, 2c) = 4 lk(c, c)
        real = TorsionGroup._coords

        def corrupted(self, v):
            c = real(self, v)
            return tuple(2 * x % d for x, d in zip(c, self.invariant_factors))

        monkeypatch.setattr(TorsionGroup, "_coords", corrupted)

    @staticmethod
    def corrupt_gram(monkeypatch):
        # G_01 and G_10 both raised by d_1: the table stays symmetric and
        # annihilated, and the walk and the per-class check read the same G,
        # so only the map's pairings through the generators see it
        real = seifert._SmithBasis.__init__

        def corrupted(self, a):
            real(self, a)
            gram = [list(row) for row in self.gram]
            gram[0][1] += self.factors[1]
            gram[1][0] += self.factors[1]
            self.gram = tuple(map(tuple, gram))

        monkeypatch.setattr(seifert._SmithBasis, "__init__", corrupted)

    @staticmethod
    def zero_leaf(monkeypatch):
        # a walk that also yields the zero class first: it is characteristic,
        # maps to c = 0 and pairs to 0 on both routes, but its image order is 1
        real = obstruction._walk

        def corrupted(n, factors, enum_cap, what, v=None):
            leaves = real(n, factors, enum_cap, what, v)
            c, beta, _ = leaves[0]
            return [((0,) * len(c), (0,) * len(beta), 0)] + leaves

        monkeypatch.setattr(obstruction, "_walk", corrupted)

    @staticmethod
    def shift_class(monkeypatch):
        # the first leaf's class moved by e_0, which A = V + V^T does not
        # send to 0 mod 3; its c and f stay, so only the per-block map sees it
        real = obstruction._walk

        def corrupted(n, factors, enum_cap, what, v=None):
            leaves = real(n, factors, enum_cap, what, v)
            c, beta, f = leaves[0]
            leaves[0] = (c, (beta[0] + 1,) + beta[1:], f)
            return leaves

        monkeypatch.setattr(obstruction, "_walk", corrupted)

    def test_exact_value_checked_in_report(self, monkeypatch):
        # the report forms beta^T A beta only for a class whose f reads 0 mod
        # n^2 and checks it there; the per-class linking check reads only
        # representatives, so a non-representative leaf reaches that check
        nine_sum = dihedral.connected_sum(NINE_37, NINE_37)
        assert analyze(nine_sum, [5]).blocks[0].char_classes
        real = obstruction._walk

        def corrupted(n, factors, enum_cap, what, v=None):
            leaves = real(n, factors, enum_cap, what, v)
            reps = {i for i, _ in obstruction._orbits([c for c, _, _ in leaves], factors, n)}
            i = next(i for i, (_, _, f) in enumerate(leaves) if i not in reps and f)
            leaves[i] = leaves[i][:2] + (0,)
            return leaves

        monkeypatch.setattr(obstruction, "_walk", corrupted)
        with pytest.raises(ArithmeticError, match=r"disagrees with 0 mod 5\^2 from the walk"):
            analyze(nine_sum, [5])

    @pytest.mark.parametrize("fault, message", [
        ("corrupt_table", "routes are inconsistent"),
        ("corrupt_column", "routes are inconsistent"),
        ("corrupt_solver", "routes disagree at n=3"),
        ("corrupt_gram", "routes disagree at n=3"),
        ("zero_leaf", "non-surjective character"),
        ("shift_class", r"failed A beta = 0 mod n"),
    ])
    def test_corrupted_side_raises(self, monkeypatch, fault, message):
        assert analyze(NINE_37, [3]).blocks[0].quotient_class_count == 4
        getattr(self, fault)(monkeypatch)
        with pytest.raises(ArithmeticError, match=message):  # NINE_37 keeps its Smith basis
            analyze(SeifertMatrix(NINE_37.matrix.to_lists()), [3])

    def test_closed_form_square_term_checked(self, monkeypatch):
        # the per-class route check of pair(c, c) against f catches the last
        # coordinate's f without its square term, before the per-block map
        nine_sum = dihedral.connected_sum(NINE_37, NINE_37)
        assert analyze(nine_sum, [15]).blocks[0].quotient_class_count == 240
        self.drop_square(monkeypatch)
        with pytest.raises(ArithmeticError, match="routes are inconsistent") as info:
            analyze(nine_sum, [15])
        assert "char_knot_to_character" not in {entry.name for entry in info.traceback}


class TestCriteria:
    def test_twist_family_divisibility(self):
        for m in range(-30, 31):
            v = twist_knot(m)
            if knot_determinant(v) % 3:
                continue
            passes = [ck.form_value_mod_n2() == 0 for ck in characteristic_knot_classes(v, 3)]
            assert all(p == (m % 9 == 2) for p in passes)

    def test_cyclic_shortcut(self):
        v = SeifertMatrix([[-10, 1], [0, 2]])
        group = double_cover_homology(v)
        assert group.invariant_factors == (81,)
        assert cyclic_criterion(group, 3)
        assert cyclic_criterion(group, 9)
        assert not cyclic_criterion(group, 27)
        assert not cyclic_criterion(group, 81)

    def test_cyclic_needs_cyclic(self):
        group = double_cover_homology(NINE_37)
        with pytest.raises(CriterionInapplicableError):
            cyclic_criterion(group, 3)

    def test_cyclic_needs_divisor(self):
        group = double_cover_homology(twist_knot(-1))
        with pytest.raises(ValueError):
            cyclic_criterion(group, 5)

    def test_cyclic_agrees_with_characters(self, corpus):
        for v in corpus[:30]:
            group = double_cover_homology(v)
            if group.rank != 1:
                continue
            d = group.order
            form = linking_form(group)
            for n in (3, 5, 7, 9):
                if d % n:
                    continue
                chars = surjective_characters(group, form, n)
                by_chars = any(ch.self_linking().is_zero for ch in chars)
                assert cyclic_criterion(group, n) == by_chars


def _all_vectors(size, n):
    out = [()]
    for _ in range(size):
        out = [v + (x,) for v in out for x in range(n)]
    return out


def _product_walk(v, n):
    """{beta: beta^T A beta} by the product walk: y over the kernel of D
    mod n, beta = Q y mod n, and A beta for each primitive class, from
    its own Smith form of A, not the one the SeifertMatrix keeps."""
    a = symmetrize(v)
    res = snf(a)
    moduli = [math.gcd(d, n) for d in res.diagonal()]
    out = {}
    for ts in itertools.product(*(range(g) for g in moduli)):
        y = [t * (n // g) for t, g in zip(ts, moduli)]
        if math.gcd(*y, n) == 1:
            beta = tuple(x % n for x in res.Q.apply(y))
            out[beta] = sum(b * c for b, c in zip(beta, a.apply(beta)))
    return out
