"""Dihedral quotients, extension verdicts, characteristic knot classes."""

import math
import random
from fractions import Fraction

import pytest

from dihedral import (
    Character,
    CharKnotClass,
    CriterionInapplicableError,
    EnumerationCapError,
    EvenModulusError,
    QuotientClass,
    ResidueQZ,
    SeifertMatrix,
    char_knot_to_character,
    characteristic_knot_classes,
    cyclic_criterion,
    double_cover_homology,
    enumerate_isotropic,
    is_characteristic_class,
    knot_determinant,
    linking_form,
    quotient_classes,
    seifert_criterion,
    self_linking,
    surjective_characters,
    symmetrize,
    twist_knot,
    verdict,
    zero_framed_exists,
)
from dihedral.cover import GroupElement

NINE_37 = SeifertMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, -2, 1], [-1, -1, 0, -1]])


def element_order(group, coords):
    return math.lcm(*(d // math.gcd(d, x)
                      for x, d in zip(coords, group.invariant_factors)))


class TestIsotropic:
    def test_nine37_count(self):
        form = linking_form(double_cover_homology(NINE_37))
        assert len(enumerate_isotropic(form, 3)) == 5

    def test_trefoil_only_zero(self):
        form = linking_form(double_cover_homology(twist_knot(-1)))
        iso = enumerate_isotropic(form, 3)
        assert len(iso) == 1 and iso[0].is_trivial

    def test_cap(self):
        form = linking_form(double_cover_homology(NINE_37))
        with pytest.raises(EnumerationCapError):
            enumerate_isotropic(form, 3, enum_cap=10)

    def test_even_n(self):
        form = linking_form(double_cover_homology(NINE_37))
        with pytest.raises(EvenModulusError):
            enumerate_isotropic(form, 2)


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
                got = {ch.c.coords for ch in surjective_characters(group, form, n)}
                want = {
                    c.coords
                    for c in group.elements()
                    if not c.is_trivial and element_order(group, c.coords) == n
                }
                assert got == want

    def test_nine37_count(self):
        group = double_cover_homology(NINE_37)
        chars = surjective_characters(group, linking_form(group), 3)
        assert len(chars) == 8

    def test_non_divisor_gives_nothing(self):
        group = double_cover_homology(twist_knot(-1))
        assert surjective_characters(group, linking_form(group), 5) == ()

    def test_image_is_validated(self):
        group = double_cover_homology(NINE_37)
        form = linking_form(group)
        with pytest.raises(ValueError):
            Character(form, group.element((0, 0)), 3)
        with pytest.raises(ValueError):
            Character(form, group.element((0, 1)), 3)


class TestCharacter:
    def test_evaluate_matches_self_linking_and_values(self, corpus):
        for v in corpus[:20]:
            d = knot_determinant(v)
            group = double_cover_homology(v)
            form = linking_form(group)
            gens = [group.element(tuple(int(i == j) for j in range(group.rank)))
                    for i in range(group.rank)]
            for n in (3, 5, 7, 9):
                if d % n:
                    continue
                for ch in surjective_characters(group, form, n):
                    assert ch.evaluate(ch.c) == ch.self_linking()
                    assert tuple(ch.evaluate(g) for g in gens) == ch.values()

    def test_values_match_residue_matrix(self):
        # oracle: sum_i c_i lk(g_i, g_j) from the tabulated residues
        group = double_cover_homology(NINE_37)
        form = linking_form(group)
        for ch in surjective_characters(group, form, 3):
            want = tuple(
                ResidueQZ.of(sum(x * row[j].value for x, row in zip(ch.c.coords, form.matrix)))
                for j in range(group.rank)
            )
            assert ch.values() == want


class TestQuotientClasses:
    def test_nine37_partition(self):
        group = double_cover_homology(NINE_37)
        form = linking_form(group)
        chars = surjective_characters(group, form, 3)
        classes = quotient_classes(chars, 3)
        assert len(classes) == 4
        assert sum(qc.extends for qc in classes) == 2
        seen = [ch.c.coords for qc in classes for ch in qc.members]
        assert sorted(seen) == sorted(ch.c.coords for ch in chars)

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
                    coords = {ch.c.coords for ch in qc.members}
                    rep = qc.members[0].c.coords
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
        for v in corpus[:25]:
            d = knot_determinant(v)
            if d % 3:
                continue
            group = double_cover_homology(v)
            form = linking_form(group)
            for qc in quotient_classes(surjective_characters(group, form, 3), 3):
                flags = {ch.self_linking().is_zero for ch in qc.members}
                assert len(flags) == 1


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

    def test_trivial_element_flagged(self):
        group = double_cover_homology(twist_knot(-1))
        form = linking_form(group)
        vd = verdict(form, group.element((0,)), n=3)
        assert vd.extends
        assert not vd.surjective

    def test_bare_element_needs_n(self):
        group = double_cover_homology(twist_knot(-1))
        form = linking_form(group)
        with pytest.raises(ValueError):
            verdict(form, group.element((1,)))

    def test_unit_action_invariance(self, corpus):
        for v in corpus[:20]:
            if knot_determinant(v) % 3:
                continue
            group = double_cover_homology(v)
            form = linking_form(group)
            for qc in quotient_classes(surjective_characters(group, form, 3), 3):
                flags = {verdict(form, ch).extends for ch in qc.members}
                assert len(flags) == 1


class TestCharacteristicClasses:
    def test_trefoil_exact_set(self):
        got = {ck.beta for ck in characteristic_knot_classes(twist_knot(-1), 3)}
        assert got == {(1, 2), (2, 1)}

    def test_membership_cases(self):
        v = twist_knot(-1)
        assert is_characteristic_class(v, (1, 2), 3)
        assert is_characteristic_class(v, (-1, 1), 3)
        assert not is_characteristic_class(v, (1, 1), 3)
        assert not is_characteristic_class(v, (0, 0), 3)

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


class TestCharacterBridge:
    def test_trefoil_frozen_value(self):
        v = twist_knot(-1)
        form = linking_form(double_cover_homology(v))
        ck = characteristic_knot_classes(v, 3)[0]
        ch = char_knot_to_character(v, ck, form)
        assert ch.self_linking().value == Fraction(1, 3)

    def test_class_level_round_trip(self, corpus):
        # the classes of isotropic surjective characters are exactly the
        # classes hit by criterion-passing characteristic knots
        for v in corpus[:15]:
            d = knot_determinant(v)
            if d % 3:
                continue
            group = double_cover_homology(v)
            form = linking_form(group)
            chars = surjective_characters(group, form, 3)
            classes = quotient_classes(chars, 3)
            hit = set()
            for ck in characteristic_knot_classes(v, 3):
                if not seifert_criterion(v, ck):
                    continue
                ch = char_knot_to_character(v, ck, form)
                for idx, qc in enumerate(classes):
                    if any(m.c == ch.c for m in qc.members):
                        hit.add(idx)
            extendable = {i for i, qc in enumerate(classes) if qc.extends}
            assert hit == extendable


class TestCriteria:
    def test_twist_family_divisibility(self):
        for m in range(-30, 31):
            v = twist_knot(m)
            if knot_determinant(v) % 3:
                continue
            passes = [seifert_criterion(v, ck)
                      for ck in characteristic_knot_classes(v, 3)]
            assert all(p == (m % 9 == 2) for p in passes)

    def test_zero_framed_alias(self):
        v = twist_knot(2)
        for ck in characteristic_knot_classes(v, 3):
            assert zero_framed_exists(v, ck) == seifert_criterion(v, ck)

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
