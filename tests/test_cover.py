"""Double-cover homology and the linking form."""

import random
from fractions import Fraction

import pytest

from dihedral import (
    LinkingForm,
    ResidueQZ,
    SeifertMatrix,
    TorsionGroup,
    double_cover_homology,
    evaluate_linking,
    knot_determinant,
    linking_form,
    self_linking,
    symmetrize,
    twist_knot,
)
from dihedral.cover import GroupElement

NINE_37 = SeifertMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, -2, 1], [-1, -1, 0, -1]])


class TestHomology:
    def test_trefoil(self):
        group = double_cover_homology(twist_knot(-1))
        assert group.invariant_factors == (3,)
        assert group.order == 3

    def test_six_one(self):
        assert double_cover_homology(twist_knot(2)).invariant_factors == (9,)

    def test_nine_37(self):
        group = double_cover_homology(NINE_37)
        assert group.invariant_factors == (3, 15)
        assert group.order == 45
        assert group.rank == 2

    def test_unknot(self):
        group = double_cover_homology(SeifertMatrix([]))
        assert group.invariant_factors == ()
        assert group.order == 1

    def test_order_matches_determinant(self, corpus):
        for v in corpus:
            assert double_cover_homology(v).order == knot_determinant(v)

    def test_generator_orders_verified(self, corpus):
        # d_i * gen_i lies in the image lattice, (d_i / p) * gen_i does not
        for v in corpus[:25]:
            group = double_cover_homology(v)
            for d, gen in zip(group.invariant_factors, group.generators):
                assert group.coords_of(tuple(d * x for x in gen)).coords == (0,) * group.rank


class TestTorsionGroup:
    def test_rejects_wrong_order_generator(self):
        a = symmetrize(NINE_37)
        good = double_cover_homology(NINE_37)
        g3, g15 = good.generators
        with pytest.raises(ValueError):
            TorsionGroup((3, 15), (g15, g3), a)

    def test_rejects_non_generating_set(self):
        a = symmetrize(twist_knot(2))
        with pytest.raises(ValueError):
            TorsionGroup((9,), ((3, 0),), a)

    def test_rejects_wrong_order_product(self):
        a = symmetrize(twist_knot(-1))
        gen = double_cover_homology(twist_knot(-1)).generators[0]
        with pytest.raises(ValueError):
            TorsionGroup((9,), (gen,), a)

    def test_rejects_even_factor(self):
        with pytest.raises(ValueError):
            TorsionGroup((2,), ((1, 0),), symmetrize(twist_knot(-1)))

    def test_element_reduction(self):
        group = double_cover_homology(NINE_37)
        assert group.element((4, 16)).coords == (1, 1)
        assert group.element((-1, -1)).coords == (2, 14)

    def test_elements_enumeration(self):
        group = double_cover_homology(NINE_37)
        elems = tuple(group.elements())
        assert len(elems) == 45
        assert len(set(elems)) == 45

    def test_coords_round_trip(self):
        rng = random.Random(31)
        group = double_cover_homology(NINE_37)
        g1, g2 = group.generators
        for _ in range(20):
            x = rng.randrange(3)
            y = rng.randrange(15)
            w = tuple(x * a + y * b for a, b in zip(g1, g2))
            assert group.coords_of(w).coords == (x, y)

    def test_pairing_symmetry(self, corpus):
        for v in corpus[:20]:
            group = double_cover_homology(v)
            gens = group.generators
            for i, gi in enumerate(gens):
                for gj in gens[i:]:
                    assert group.pairing(gi, gj) == group.pairing(gj, gi)

    def test_pairing_bilinear(self):
        group = double_cover_homology(NINE_37)
        g1, g2 = group.generators
        s = tuple(a + b for a, b in zip(g1, g2))
        lhs = group.pairing(s, g1)
        rhs = ResidueQZ.of(group.pairing(g1, g1).value + group.pairing(g2, g1).value)
        assert lhs == rhs


class TestLinkingForm:
    def test_nine37_explicit_basis_values(self):
        a = symmetrize(NINE_37)
        g3 = (-1, -1, 0, 0)
        g15 = (-1, 0, 0, 0)
        group = TorsionGroup((3, 15), (g3, g15), a)
        form = linking_form(group)
        want = ((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 5)))
        got = tuple(tuple(e.value for e in row) for row in form.matrix)
        assert got == want

    def test_trefoil_self_linking(self):
        # both generators of Z3 give the same value: units square to 1 mod 3
        group = double_cover_homology(twist_knot(-1))
        form = linking_form(group)
        assert form.matrix[0][0].value == Fraction(1, 3)

    def test_rank(self):
        form = linking_form(double_cover_homology(NINE_37))
        assert form.rank == 2

    def test_tampered_matrix_rejected(self):
        group = double_cover_homology(twist_knot(-1))
        bad = ((ResidueQZ.of(Fraction(2, 3)),),)
        with pytest.raises(ValueError):
            LinkingForm(group, bad)

    def test_nondegenerate_on_corpus(self, corpus):
        # injectivity of c -> lk(c, .): no nonzero element pairs to zero
        # with every generator
        for v in corpus:
            group = double_cover_homology(v)
            if group.order == 1 or group.order > 10_000:
                continue
            form = linking_form(group)
            for c in group.elements():
                if c.is_trivial:
                    continue
                pairs = [
                    ResidueQZ.of(
                        sum(
                            Fraction(x) * e.value
                            for x, e in zip(c.coords, col)
                        )
                    )
                    for col in zip(*form.matrix)
                ]
                assert any(not p.is_zero for p in pairs), (v, c)


class TestPairing:
    def test_exponent(self):
        assert linking_form(double_cover_homology(NINE_37)).exponent == 15
        assert linking_form(double_cover_homology(SeifertMatrix([]))).exponent == 1

    def test_matches_residue_matrix(self):
        # e * lk(x, y) mod e agrees with sum x_i y_j lk(g_i, g_j) mod 1
        group = double_cover_homology(NINE_37)
        form = linking_form(group)
        elems = list(group.elements())
        for x in elems[::4]:
            for y in elems[::7]:
                want = ResidueQZ.of(sum(
                    xi * yj * form.matrix[i][j].value
                    for i, xi in enumerate(x.coords)
                    for j, yj in enumerate(y.coords)
                ))
                got = form.pair(x.coords, y.coords)
                assert 0 <= got < form.exponent
                assert ResidueQZ.of(got, form.exponent) == want


class TestEvaluateLinking:
    def test_matches_form_on_generators(self, corpus):
        for v in corpus[:15]:
            a = symmetrize(v)
            group = double_cover_homology(v)
            form = linking_form(group)
            for i, gi in enumerate(group.generators):
                for j, gj in enumerate(group.generators):
                    assert evaluate_linking(a, gi, gj) == form.matrix[i][j]

    def test_lift_independence(self):
        rng = random.Random(32)
        a = symmetrize(NINE_37)
        group = double_cover_homology(NINE_37)
        g1, g2 = group.generators
        base = evaluate_linking(a, g1, g2)
        for _ in range(10):
            z = [rng.randint(-3, 3) for _ in range(4)]
            shifted = tuple(x + y for x, y in zip(g1, a.apply(z)))
            assert evaluate_linking(a, shifted, g2) == base

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_linking(symmetrize(twist_knot(-1)), (1,), (1, 0))


class TestSelfLinking:
    def test_known_values(self):
        import math

        group = double_cover_homology(NINE_37)
        form = linking_form(group)

        def order(c):
            return math.lcm(*(d // math.gcd(d, x)
                              for x, d in zip(c.coords, group.invariant_factors)))

        vals = {
            c.coords: self_linking(form, c).value
            for c in group.elements()
            if not c.is_trivial and order(c) == 3
        }
        zero = {k for k, v in vals.items() if v == 0}
        assert len(vals) == 8
        assert len(zero) == 4

    def test_out_of_range_coords_rejected(self):
        form = linking_form(double_cover_homology(twist_knot(-1)))
        with pytest.raises(ValueError):
            self_linking(form, GroupElement((5,)))
