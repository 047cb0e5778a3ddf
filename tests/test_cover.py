"""Double-cover homology and the linking form."""

import random
from fractions import Fraction

import pytest

from dihedral import (
    IntMatrix,
    LinkingForm,
    ResidueQZ,
    SeifertMatrix,
    TorsionGroup,
    double_cover_homology,
    evaluate_linking,
    knot_determinant,
    linking_form,
    symmetrize,
    twist_knot,
    verdict,
)

class Int(int):
    """An int subclass that is not bool."""


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
                assert group.coords_of(tuple(d * x for x in gen)) == (0,) * group.rank


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

    @pytest.mark.parametrize("factors", [(15, 3), (1, 3, 15), (3, 5)])
    def test_factors_must_be_those_of_the_presentation(self, factors):
        # the comparison with the Smith factors also refuses a factor 1
        # and a chain out of divisor order
        gens = ((0,) * 4,) * len(factors)
        with pytest.raises(ValueError, match="differ from those of the presentation"):
            TorsionGroup(factors, gens, symmetrize(NINE_37))

    @pytest.mark.parametrize("factors, gens, ambient, error, message", [
        ((3,), ((1, 0),), [[-2, 1], [1, 2]], TypeError, "ambient must be an IntMatrix"),
        ((3,), ((1, 0),), IntMatrix([[1, 2, 3], [4, 5, 6]]), ValueError,
         "ambient presentation matrix must be square"),
        ((3,), ((1, 0), (0, 1)), symmetrize(twist_knot(-1)), ValueError,
         "1 factors but 2 generators"),
    ], ids=["not-an-IntMatrix", "not-square", "counts-differ"])
    def test_rejects_malformed_arguments(self, factors, gens, ambient, error, message):
        with pytest.raises(error, match=message):
            TorsionGroup(factors, gens, ambient)

    def test_explicit_rank_one_basis(self):
        # H = Z/9 for 6_1 with Smith generator g: 2g also generates, and
        # g = 5 (2g) since 10 = 1 mod 9
        a = symmetrize(twist_knot(2))
        (g,) = double_cover_homology(twist_knot(2)).generators
        group = TorsionGroup((9,), (tuple(2 * x for x in g),), a)
        assert group.coords_of(g) == (5,)

    def test_vectors_from_outside_are_integers(self):
        a = symmetrize(twist_knot(-1))
        gen = double_cover_homology(twist_knot(-1)).generators[0]
        with pytest.raises(TypeError, match="generator 0 entry 0 is not an integer"):
            TorsionGroup((3,), ((True, 0),), a)
        with pytest.raises(TypeError, match="invariant factor 0 is not an integer"):
            TorsionGroup((3.0,), (gen,), a)
        with pytest.raises(TypeError, match="vector entry 1 is not an integer"):
            double_cover_homology(twist_knot(-1)).coords_of((0, 1.0))
        with pytest.raises(TypeError, match="vector entry 0 is not an integer"):
            evaluate_linking(a, (False, 1), gen)
        # an int subclass other than bool is an integer
        assert double_cover_homology(twist_knot(-1)).coords_of(tuple(map(Int, gen))) == (1,)

    def test_element_reduction(self):
        # any integer combination of the generators comes back in range
        group = double_cover_homology(NINE_37)

        def combination(coeffs):
            return [sum(c * g[i] for c, g in zip(coeffs, group.generators))
                    for i in range(len(group.generators[0]))]

        assert group.coords_of(combination((4, 16))) == (1, 1)
        assert group.coords_of(combination((-1, -1))) == (2, 14)

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
            assert group.coords_of(w) == (x, y)

    def test_explicit_basis_coords(self):
        # a caller's basis: coords_of solves through [T | diag(d)], and the
        # form on the coordinates agrees with evaluate_linking on vectors
        rng = random.Random(33)
        a = symmetrize(NINE_37)
        g3, g15 = (-1, -1, 0, 0), (-1, 0, 0, 0)
        group = TorsionGroup((3, 15), (g3, g15), a)
        form = linking_form(group)
        vectors = []
        for _ in range(30):
            x, y = rng.randint(-40, 40), rng.randint(-40, 40)
            z = [rng.randint(-3, 3) for _ in range(4)]
            w = tuple(x * p + y * q + r for p, q, r in zip(g3, g15, a.apply(z)))
            assert group.coords_of(w) == (x % 3, y % 15)
            vectors.append(w)
        for u, w in zip(vectors, vectors[1:]):
            got = form.pair(group.coords_of(u), group.coords_of(w))
            assert ResidueQZ.of(got, form.exponent) == evaluate_linking(a, u, w)

    def test_pairing_symmetry(self, corpus):
        for v in corpus[:20]:
            group = double_cover_homology(v)
            a, gens = group.ambient, group.generators
            for i, gi in enumerate(gens):
                for gj in gens[i:]:
                    assert evaluate_linking(a, gi, gj) == evaluate_linking(a, gj, gi)

    def test_pairing_bilinear(self):
        group = double_cover_homology(NINE_37)
        a = group.ambient
        g1, g2 = group.generators
        s = tuple(x + y for x, y in zip(g1, g2))
        lhs = evaluate_linking(a, s, g1)
        rhs = ResidueQZ.of(evaluate_linking(a, g1, g1).value + evaluate_linking(a, g2, g1).value)
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

    def test_built_from_the_group_alone(self):
        group = double_cover_homology(NINE_37)
        form = LinkingForm(group)
        gens = group.generators
        a = group.ambient
        assert form.matrix == tuple(tuple(evaluate_linking(a, gi, gj) for gj in gens)
                                    for gi in gens)
        assert linking_form(group) == form
        with pytest.raises(TypeError):
            LinkingForm(group, form.matrix)
        with pytest.raises(TypeError):
            LinkingForm(symmetrize(NINE_37))

    def test_nondegenerate_on_corpus(self, corpus):
        # injectivity of c -> lk(c, .): no nonzero element pairs to zero
        # with every generator
        for v in corpus:
            group = double_cover_homology(v)
            if group.order == 1 or group.order > 10_000:
                continue
            form = linking_form(group)
            for c in group.elements():
                if not any(c):
                    continue
                pairs = [
                    ResidueQZ.of(
                        sum(
                            Fraction(x) * e.value
                            for x, e in zip(c, col)
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
                    for i, xi in enumerate(x)
                    for j, yj in enumerate(y)
                ))
                got = form.pair(x, y)
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

    @pytest.mark.parametrize("a, error, message", [
        ([[-2, 1], [1, 2]], TypeError, "evaluate_linking expects an IntMatrix"),
        (IntMatrix([[1, 2, 3], [4, 5, 6]]), ValueError, "presentation matrix must be square"),
    ], ids=["not-an-IntMatrix", "not-square"])
    def test_rejects_malformed_matrix(self, a, error, message):
        with pytest.raises(error, match=message):
            evaluate_linking(a, (1, 0), (0, 1))

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            evaluate_linking(IntMatrix([[1, 2], [2, 4]]), (1, 0), (0, 1))

    def test_matches_gauss_jordan_oracle(self):
        # u^T A^{-1} v mod 1 on random matrices, almost all of them not
        # symmetric, against A^{-1} v solved over the rationals
        rng = random.Random(10)
        invertible = singular = 0
        for _ in range(120):
            m = rng.randint(1, 5)
            a = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(m)]
            u = [rng.randint(-9, 9) for _ in range(m)]
            v = [rng.randint(-9, 9) for _ in range(m)]
            x = _solve_rational(a, v)
            if x is None:
                singular += 1
                with pytest.raises(ValueError, match="singular"):
                    evaluate_linking(IntMatrix(a), u, v)
                continue
            invertible += 1
            want = ResidueQZ.of(sum(ui * xi for ui, xi in zip(u, x)))
            assert evaluate_linking(IntMatrix(a), u, v) == want
        assert invertible >= 100 and singular >= 1


def _solve_rational(a, b):
    """A^{-1} b by Gauss-Jordan elimination over Fraction; None if A is singular."""
    m = len(a)
    w = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for k in range(m):
        piv = next((i for i in range(k, m) if w[i][k] != 0), None)
        if piv is None:
            return None
        w[k], w[piv] = w[piv], w[k]
        w[k] = [x / w[k][k] for x in w[k]]
        for i in range(m):
            if i != k and w[i][k] != 0:
                f = w[i][k]
                w[i] = [x - f * y for x, y in zip(w[i], w[k])]
    return [row[m] for row in w]


class TestSelfLinking:
    def test_known_values(self):
        import math

        group = double_cover_homology(NINE_37)
        form = linking_form(group)

        def order(c):
            return math.lcm(*(d // math.gcd(d, x)
                              for x, d in zip(c, group.invariant_factors)))

        vals = {c: verdict(form, c, 3).self_linking.value
                for c in group.elements() if order(c) == 3}
        zero = {k for k, v in vals.items() if v == 0}
        assert len(vals) == 8
        assert len(zero) == 4

    def test_out_of_range_coords_rejected(self):
        form = linking_form(double_cover_homology(twist_knot(-1)))
        with pytest.raises(ValueError):
            verdict(form, (5,), 3)


class TestSmithBasisChecks:
    """The knot's Smith basis checks its generators, and the linking form
    its table, by raising, so the checks also run under python -O."""

    def test_generator_check(self, monkeypatch):
        # a P that still passes snf's own record checks but does not send
        # A q_k / d_k to e_k
        import dihedral.seifert as seifert_mod

        real = seifert_mod.snf

        def wrong_p(a):
            res = real(a)
            p = res.P.to_lists()
            p[0] = [x + y for x, y in zip(p[0], p[3])]  # a unimodular P, still
            return type(res)(IntMatrix(p), res.Q, res.D)

        monkeypatch.setattr(seifert_mod, "snf", wrong_p)
        with pytest.raises(ArithmeticError, match="P does not send generator 1 to e_3"):
            double_cover_homology(SeifertMatrix(NINE_37.matrix.to_lists()))

    @pytest.mark.parametrize("shift, message", [
        (1, r"entry \(0,1\) is not annihilated by 3"),   # G_01 not divisible by d_1 = 15
        (15, r"linking matrix is not symmetric at \(0,1\)"),  # G_01 != G_10
    ])
    def test_table_checks(self, shift, message):
        group = double_cover_homology(SeifertMatrix(NINE_37.matrix.to_lists()))
        gram = [list(row) for row in group._smith.gram]
        gram[0][1] += shift
        group._smith.gram = tuple(map(tuple, gram))
        with pytest.raises(ValueError, match=message):
            LinkingForm(group)

    def test_coordinate_check(self, monkeypatch):
        # a solve off by one in the first coordinate
        group = double_cover_homology(NINE_37)
        real = TorsionGroup._coords

        def off_by_one(self, v):
            c = real(self, v)
            return ((c[0] + 1) % self.invariant_factors[0],) + c[1:]

        monkeypatch.setattr(TorsionGroup, "_coords", off_by_one)
        with pytest.raises(ArithmeticError, match="coordinate solve failed its self-check"):
            group.coords_of(group.generators[1])

    def test_singular_presentation_refused_once(self):
        with pytest.raises(ValueError, match="presentation matrix is singular"):
            TorsionGroup((3,), ((1, 0),), IntMatrix([[1, 2], [2, 4]]))
