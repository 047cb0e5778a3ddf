"""Acceptance gate: one test per shipped guarantee, timed where promised.

Every computation here is exact unless a test says otherwise; numeric
budgets are wall-clock upper bounds on the timed body alone.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce

from dihedral import (
    ResidueQZ,
    SeifertMatrix,
    TorsionGroup,
    analyze,
    char_knot_to_character,
    characteristic_knot_classes,
    connected_sum,
    cyclic_criterion,
    double_cover_homology,
    evaluate_linking,
    knot_determinant,
    linking_form,
    quotient_classes,
    render_matrix,
    snf,
    stabilize_zero_framed,
    surjective_characters,
    symmetrize,
    tristram_levine,
    twist_family,
    twist_knot,
    verdict,
)
from dihedral.cli import main
from dihedral.exact import det
from dihedral.obstruction import CharKnotClass

NINE_37 = SeifertMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, -2, 1], [-1, -1, 0, -1]])
GEN_3 = (-1, -1, 0, 0)
GEN_15 = (-1, 0, 0, 0)


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.3f}s, budget {seconds}s"


def test_criterion_01_nine37_end_to_end():
    with budget(0.1):
        a = symmetrize(NINE_37)
        assert snf(a).diagonal() == (1, 1, 3, 15)

        auto = double_cover_homology(NINE_37)
        assert auto.invariant_factors == (3, 15)

        explicit_basis = TorsionGroup((3, 15), (GEN_3, GEN_15), a)
        lam = [[evaluate_linking(a, u, v).value for v in (GEN_3, GEN_15)]
               for u in (GEN_3, GEN_15)]
        assert lam == [[Fraction(2, 3), Fraction(1, 3)],
                       [Fraction(1, 3), Fraction(2, 5)]]

        form = linking_form(explicit_basis)
        iso = tuple(c for c in explicit_basis.elements() if form.pair(c, c) == 0)
        assert iso == ((0, 0), (0, 5), (0, 10), (1, 5), (2, 10))

        chars = surjective_characters(explicit_basis, form, 3)
        nontrivial_isotropic = tuple(
            ch for ch in chars if ch.self_linking().is_zero
        )
        classes = quotient_classes(nontrivial_isotropic, 3)
        assert len(classes) == 2
        assert all(qc.extends for qc in classes)

        # same facts through the automatic basis
        auto_form = linking_form(auto)
        assert sum(auto_form.pair(c, c) == 0 for c in auto.elements()) == 5
        auto_chars = surjective_characters(auto, auto_form, 3)
        assert len(auto_chars) == 8
        auto_iso = tuple(ch for ch in auto_chars if ch.self_linking().is_zero)
        auto_classes = quotient_classes(auto_iso, 3)
        assert len(auto_classes) == 2
        assert all(qc.extends for qc in auto_classes)

    # the published report counts all surjective orbits and flags the
    # two extendable ones
    block = analyze(NINE_37, [3]).blocks[0]
    assert block.quotient_class_count == 4
    assert block.extendable_class_count == 2


def test_criterion_02_twist_family_laws():
    with budget(1.0):
        for m in range(-50, 51):
            v = twist_knot(m)
            d = knot_determinant(v)
            assert d == abs(4 * m + 1)

            group = double_cover_homology(v)
            form = linking_form(group)
            chars = surjective_characters(group, form, 3)
            exists_chars = bool(chars)

            cks = characteristic_knot_classes(v, 3)
            exists_cks = bool(cks)

            assert exists_chars == exists_cks == (m % 3 == 2)
            if not exists_chars:
                continue

            extends_chars = any(ch.self_linking().is_zero for ch in chars)
            extends_cks = any(ck.form_value_mod_n2() == 0 for ck in cks)
            assert extends_chars == extends_cks == (m % 9 == 2)


def test_criterion_03_trefoil_strong_negative():
    trefoil = twist_knot(-1)
    group = double_cover_homology(trefoil)
    form = linking_form(group)
    chars = surjective_characters(group, form, 3)
    assert chars, "the trefoil admits an order-3 quotient"
    for ch in chars:
        vd = verdict(form, ch)
        assert vd.extends is False
        assert "also-nonorientable" in vd.scope_note
        assert "also-any-ambient-4-manifold" in vd.scope_note

    report = analyze(trefoil, [3])
    entry = report.blocks[0].classes[0]
    assert entry.extends is False
    assert "also-nonorientable" in entry.scope
    assert "also-any-ambient-4-manifold" in entry.scope


def test_criterion_04_cyclic_order_81():
    v = SeifertMatrix([[-10, 1], [0, 2]])
    group = double_cover_homology(v)
    assert group.invariant_factors == (81,)

    form = linking_form(group)
    for n, want in ((3, True), (9, True), (27, False), (81, False)):
        assert cyclic_criterion(group, n) is want
        chars = surjective_characters(group, form, n)
        assert chars, f"order-{n} characters must exist on a cyclic group of order 81"
        by_chars = any(ch.self_linking().is_zero for ch in chars)
        assert by_chars is want


def test_criterion_05_criterion_equivalence_oracle(corpus):
    assert len(corpus) >= 200
    with budget(10.0):
        for v in corpus:
            d = knot_determinant(v)
            ns = [n for n in range(3, d + 1, 2) if d % n == 0]
            if not ns:
                continue
            group = double_cover_homology(v)
            form = linking_form(group)
            for n in ns:
                for ck in characteristic_knot_classes(v, n):
                    lhs = ck.form_value_mod_n2() == 0
                    rhs = char_knot_to_character(v, ck, form).self_linking().is_zero
                    assert lhs == rhs, (v, n, ck.beta)


def test_criterion_06_connected_sum_law(corpus):
    eligible = []
    for v in corpus:
        factors = double_cover_homology(v).invariant_factors
        exponent = factors[-1] if factors else 1
        for n in (3, 5, 7, 9, 11, 13, 15):
            if exponent % n == 0:
                eligible.append((v, n))
    rng = random.Random(977)
    sample = rng.sample(eligible, 20)
    for v, n in sample:
        beta = characteristic_knot_classes(v, n)[0].beta
        summed = reduce(connected_sum, [v] * n)
        diagonal = beta * n
        ck = CharKnotClass(summed, diagonal, n)
        assert ck.form_value_mod_n2() == 0, (v, n)


def test_criterion_07_stabilization(corpus):
    def lift_value(v, coords):
        a = symmetrize(v)
        return sum(x * y for x, y in zip(coords, a.apply(tuple(coords))))

    jobs = []
    for m in range(-50, 51):
        if m % 9 == 2 and m != 2:
            jobs.append((twist_knot(m), (-1, 1), 3))
    for v in corpus:
        d = knot_determinant(v)
        for n in (3, 5, 7):
            if d % n:
                continue
            for ck in characteristic_knot_classes(v, n):
                if ck.form_value_mod_n2() == 0 and ck.form_value() != 0:
                    jobs.append((v, ck.beta, n))

    assert len(jobs) >= 15
    flipped = 0
    for v, beta, n in jobs:
        out = stabilize_zero_framed(v, beta, n)
        size = v.size
        coords = out.cls
        assert coords[:size] == tuple(beta)
        assert all(x % n == 0 for x in coords[size:])
        assert lift_value(out.matrix, coords) == 0
        skew = out.matrix.matrix - out.matrix.matrix.transpose()
        assert det(skew) == 1
        flipped += out.flipped_sign
    assert flipped > 0, "negative form values must appear among the cases"


def test_criterion_08_xi_and_ribbon():
    rows = {r.m: r for r in twist_family(-50, 50)}
    assert sorted(rows[2].xi_candidates) == [Fraction(-1), Fraction(1)]
    assert rows[2].ribbon == "consistent-with-ribbon"
    for m in range(-50, 51):
        if m % 3 != 2:
            assert rows[m].xi_candidates is None
            continue
        base = Fraction(4, 9) * (2 * m - 4)
        assert sorted(rows[m].xi_candidates) == [base - 1, base + 1]
        if m != 2:
            assert rows[m].ribbon == "not-ribbon", m


def test_criterion_09_signature_sanity(corpus):
    trefoil = twist_knot(-1)
    granny = connected_sum(trefoil, trefoil)
    unknot = SeifertMatrix([])
    assert tristram_levine(trefoil, (1, 2)) == -2
    assert tristram_levine(granny, (1, 2)) == -4
    assert tristram_levine(unknot, (1, 2)) == 0
    for v in (trefoil, granny) + tuple(corpus[:10]):
        lo = tristram_levine(v, (1, 2), precision_bits=128)
        hi = tristram_levine(v, (1, 2), precision_bits=256)
        assert lo == hi


def test_criterion_10_linking_form_properties(corpus):
    rng = random.Random(978)
    for v in corpus:
        group = double_cover_homology(v)
        if group.order == 1 or group.order > 10_000:
            continue
        a = symmetrize(v)
        form = linking_form(group)
        factors = group.invariant_factors
        gens = group.generators

        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                entry = form.matrix[i][j]
                # symmetry
                assert entry == form.matrix[j][i]
                # order annihilation
                assert ResidueQZ.of(factors[i] * entry.value).is_zero
                # no even part in the torsion
                assert entry.denominator % 2 == 1
                # lift independence
                z = [rng.randint(-2, 2) for _ in range(v.size)]
                shifted = tuple(x + y for x, y in zip(gi, a.apply(z)))
                assert evaluate_linking(a, shifted, gj) == entry

        # injectivity of c -> lk(c, .)
        for c in group.elements():
            if not any(c):
                continue
            pairings = [
                ResidueQZ.of(sum(Fraction(x) * form.matrix[i][j].value
                                 for i, x in enumerate(c)))
                for j in range(group.rank)
            ]
            assert any(not p.is_zero for p in pairings), (v, c)


def test_criterion_11_genus60_analyze_budget(capsys):
    # sixty copies of 6_1: H = Z9^60, both n = 3 enumerations capped, so
    # the time is the cover layer and the matrix work around it
    v = twist_knot(2)
    for _ in range(59):
        v = connected_sum(v, twist_knot(2))
    text = render_matrix(v)
    with budget(2.5):
        assert main(["analyze", "--matrix", text, "--n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["genus"] == 60 and doc["invariant_factors"] == ["9"] * 60
    block, = doc["quotients"]
    assert not block["characters_enumerated"] and not block["characteristic_classes_enumerated"]
