"""Exact integer linear algebra."""

import copy
import math
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import dihedral
import dihedral.exact as exact_mod
from dihedral.exact import (
    IntMatrix,
    ResidueQZ,
    SNFResult,
    det,
    four_squares,
    snf,
)


def rand_matrix(rng, m, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(m)] for _ in range(m)])


class TestIntMatrix:
    def test_construction_and_access(self):
        a = IntMatrix([[1, 2], [3, 4]])
        assert a.rows == 2 and a.cols == 2
        assert a[0, 1] == 2
        assert a.row(1) == (3, 4)
        assert a.column(0) == (1, 3)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            IntMatrix([[1.5, 0], [0, 1]])
        with pytest.raises(TypeError):
            IntMatrix([[True, 0], [0, 1]])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_arithmetic(self):
        rng = random.Random(11)
        a = rand_matrix(rng, 3)
        b = rand_matrix(rng, 3)
        i = IntMatrix.identity(3)
        assert a @ i == a
        assert (a + b) - b == a
        assert -(-a) == a
        assert (a @ b).transpose() == b.transpose() @ a.transpose()

    def test_apply(self):
        a = IntMatrix([[2, 0], [1, 3]])
        assert a.apply((1, 1)) == (2, 4)

    def test_block_diag(self):
        a = IntMatrix([[1]])
        b = IntMatrix([[2, 0], [0, 3]])
        c = IntMatrix.block_diag(a, b)
        assert c.to_lists() == [[1, 0, 0], [0, 2, 0], [0, 0, 3]]

    def test_from_columns(self):
        cols = [(1, 2), (3, 4)]
        a = IntMatrix.from_columns(cols, 2)
        assert a.column(0) == (1, 2)
        assert a.column(1) == (3, 4)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: IntMatrix.from_columns([(1, 2), (3,)], 2), ValueError,
         "column 1 has length 1, expected 2"),
        (lambda: IntMatrix.block_diag(IntMatrix([[1]]), IntMatrix([[1, 2]])), ValueError,
         "block_diag needs square blocks"),
        (lambda: IntMatrix.identity(2) + [[1, 0], [0, 1]], TypeError, "expected an IntMatrix"),
        (lambda: IntMatrix.identity(2) - IntMatrix.identity(3), ValueError, "shape mismatch"),
        (lambda: IntMatrix.identity(2) @ [[1, 0], [0, 1]], TypeError, "unsupported operand"),
        (lambda: IntMatrix.identity(2) @ IntMatrix([[1, 2]]), ValueError,
         "shape mismatch in matrix product"),
        (lambda: IntMatrix.identity(2).apply((1, 2, 3)), ValueError,
         "vector has length 3, expected 2"),
    ], ids=["from_columns", "block_diag", "add", "sub", "matmul-type", "matmul-shape", "apply"])
    def test_shape_checks(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_hashable(self):
        a = IntMatrix([[1]])
        b = IntMatrix([[1]])
        assert len({a, b}) == 1

    def test_derived_matrices_match_validated_ones(self):
        # results of operations skip the entry checks; each must still be
        # indistinguishable from the same rows passed through IntMatrix
        rng = random.Random(15)
        for _ in range(20):
            m = rng.randint(0, 4)
            a, b = rand_matrix(rng, m), rand_matrix(rng, m)
            res = snf(a)
            derived = [a.transpose(), -a, a + b, a - b, a @ b,
                       IntMatrix.block_diag(a, b), IntMatrix.identity(m),
                       res.P, res.Q, res.D]
            for d in derived:
                checked = IntMatrix(d.to_lists())
                assert d == checked and hash(d) == hash(checked)
                assert type(d._rows) is tuple
                assert all(type(r) is tuple for r in d._rows)


class TestDeterminant:
    def test_empty_matrix(self):
        assert det(IntMatrix([])) == 1

    def test_non_square(self):
        with pytest.raises(ValueError, match="determinant needs a square matrix, got 1x2"):
            det(IntMatrix([[1, 2]]))

    def test_known_values(self):
        assert det(IntMatrix([[5]])) == 5
        assert det(IntMatrix([[1, 2], [3, 4]])) == -2
        assert det(IntMatrix.identity(4)) == 1

    def test_multiplicative(self):
        rng = random.Random(7)
        for _ in range(25):
            a = rand_matrix(rng, rng.randint(1, 4))
            b = rand_matrix(rng, a.rows)
            assert det(a @ b) == det(a) * det(b)

    def test_transpose_invariant(self):
        rng = random.Random(8)
        for _ in range(25):
            a = rand_matrix(rng, rng.randint(1, 5))
            assert det(a) == det(a.transpose())


class TestInverse:
    def test_round_trip(self):
        # P^{-1} = A Q D^{-1}: each column A q_i / d_i is integral, and P
        # times those columns is the identity
        rng = random.Random(9)
        done = 0
        while done < 20:
            a = rand_matrix(rng, rng.randint(1, 4))
            if det(a) == 0:
                continue
            res = snf(a)
            aq = a @ res.Q
            cols = []
            for i, d in enumerate(res.diagonal()):
                col = aq.column(i)
                assert all(x % d == 0 for x in col)
                cols.append([x // d for x in col])
            assert res.P @ IntMatrix.from_columns(cols, a.rows) == IntMatrix.identity(a.rows)
            done += 1


class TestSmithForm:
    def test_known_diagonal(self):
        a = IntMatrix([[2, 0, 1, -1], [0, 2, 0, -1], [1, 0, -4, 1], [-1, -1, 1, -2]])
        res = snf(a)
        assert res.diagonal() == (1, 1, 3, 15)
        assert res.invariant_factors == (3, 15)

    def test_trefoil_diagonal(self):
        assert snf(IntMatrix([[-2, 1], [1, -2]])).diagonal() == (1, 3)

    def test_transform_identity(self):
        rng = random.Random(12)
        for _ in range(30):
            m = rng.randint(1, 5)
            a = rand_matrix(rng, m)
            res = snf(a)
            assert res.P @ a @ res.Q == res.D
            assert abs(det(res.P)) == 1
            assert abs(det(res.Q)) == 1

    def test_divisibility_chain(self):
        rng = random.Random(13)
        for _ in range(30):
            a = rand_matrix(rng, rng.randint(1, 5))
            diag = snf(a).diagonal()
            for x, y in zip(diag, diag[1:]):
                if y != 0:
                    assert x != 0 and y % x == 0

    def test_determinant_preserved(self):
        rng = random.Random(14)
        for _ in range(30):
            a = rand_matrix(rng, rng.randint(1, 4))
            prod = math.prod(snf(a).diagonal())
            assert prod == abs(det(a))

    @pytest.mark.parametrize("fault, message", [
        # row 1 of P added to row 0: still unimodular, but P A Q != D
        ("p_only", "failed its factorization check"),
        # row 3 doubled in P and in D: P A Q = D holds, det P = 2
        ("p_and_d", "transforms are not unimodular"),
    ])
    def test_planted_elimination_faults(self, monkeypatch, fault, message):
        # snf checks what its elimination returns by raising, so the checks
        # also run under python -O
        real = exact_mod._eliminate

        def corrupted(a):
            p, q, w = real(a)
            if fault == "p_only":
                p[0] = [x + y for x, y in zip(p[0], p[1])]
            else:
                p[3], w[3] = [2 * x for x in p[3]], [2 * x for x in w[3]]
            return p, q, w

        a = IntMatrix([[2, 0, 1, -1], [0, 2, 0, -1], [1, 0, -4, 1], [-1, -1, 1, -2]])
        assert snf(a).diagonal() == (1, 1, 3, 15)
        monkeypatch.setattr(exact_mod, "_eliminate", corrupted)
        with pytest.raises(ArithmeticError, match=message):
            snf(a)

    def test_zero_matrix(self):
        res = snf(IntMatrix([[0, 0], [0, 0]]))
        assert res.diagonal() == (0, 0)
        assert res.invariant_factors == ()

    def test_result_validates(self):
        good = snf(IntMatrix([[2]]))
        with pytest.raises(ValueError):
            SNFResult(good.P, good.Q, IntMatrix([[0, 1], [0, 0]]))

    @pytest.mark.parametrize("diagonal, message", [
        ((1, -3), r"D has a negative entry at \(1,1\)"),
        ((0, 3), "zero diagonal entries must come last"),
        ((3, 5), "diagonal entry 3 does not divide 5"),
    ])
    def test_result_rejects_bad_diagonal(self, diagonal, message):
        ident = IntMatrix.identity(2)
        with pytest.raises(ValueError, match=message):
            SNFResult(ident, ident, IntMatrix([[diagonal[0], 0], [0, diagonal[1]]]))

    def test_invariant_factors_read_off_d(self):
        ident = IntMatrix.identity(3)
        res = SNFResult(ident, ident, IntMatrix([[1, 0, 0], [0, 3, 0], [0, 0, 15]]))
        assert res.invariant_factors == (3, 15)
        assert SNFResult(ident, ident, IntMatrix.identity(3)).invariant_factors == ()
        # any matrix, not only a knot's: an even entry 2 is a factor too
        assert snf(IntMatrix([[2, 0], [0, 4]])).invariant_factors == (2, 4)

    def test_keeps_its_diagonal(self):
        # the diagonal the constructor checks is kept; the record is still P, Q, D
        res = snf(IntMatrix([[2, 1, 0], [1, 2, 0], [0, 0, 5]]))
        assert res.diagonal() is res.diagonal()
        assert res.diagonal() == tuple(res.D[i, i] for i in range(3)) == (1, 1, 15)
        assert res._values() == (res.P, res.Q, res.D)
        assert "_diagonal" not in repr(res)
        for copied in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
            assert copied == res and hash(copied) == hash(res)
            assert copied.diagonal() == res.diagonal()
        wide = SNFResult(IntMatrix.identity(2), IntMatrix.identity(3), IntMatrix([[1, 0, 0],
                                                                                  [0, 4, 0]]))
        assert wide.diagonal() == (1, 4)


class TestResidue:
    def test_reduction_window(self):
        assert ResidueQZ.of(Fraction(7, 3)).value == Fraction(1, 3)
        assert ResidueQZ.of(Fraction(-2, 3)).value == Fraction(1, 3)
        assert ResidueQZ.of(5).is_zero

    def test_str(self):
        assert str(ResidueQZ.of(Fraction(2, 5))) == "2/5"

    def test_ordering(self):
        assert ResidueQZ.of(Fraction(1, 3)) < ResidueQZ.of(Fraction(2, 3))

    def test_against_fraction(self):
        # every p/q with 1 <= q <= 60 and -2q <= p <= 2q, against its Fraction
        pairs = [(p, q) for q in range(1, 61) for p in range(-2 * q, 2 * q + 1)]
        made, oracles = [], []
        for p, q in pairs:
            f = Fraction(p, q) - math.floor(Fraction(p, q))
            r = ResidueQZ.of(p, q)
            same = (r, ResidueQZ._reduced(p, q), ResidueQZ.of(-p, -q), ResidueQZ.of(Fraction(p, q)))
            for x in same:
                assert (x.numerator, x.denominator) == (f.numerator, f.denominator), (p, q)
                assert type(x.numerator) is int and type(x.denominator) is int
                assert x.is_zero is (f == 0)
                assert str(x) == ("0" if f == 0 else f"{f.numerator}/{f.denominator}")
                assert x == r and hash(x) == hash(r)
            assert r == ResidueQZ(f) and hash(r) == hash(ResidueQZ(f))
            assert type(r.value) is Fraction and r.value == f
            for y in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
                assert type(y) is ResidueQZ and y == r and hash(y) == hash(r)
                assert (y.numerator, y.denominator) == (r.numerator, r.denominator)
            made.append(r)
            oracles.append(f)
        # each against the next, the last against the first
        for r, f, s, g in zip(made, oracles, made[1:] + made[:1], oracles[1:] + oracles[:1]):
            assert (r < s, r <= s, r > s, r >= s, r == s, r != s) == (
                f < g, f <= g, f > g, f >= g, f == g, f != g)
        assert [r.value for r in sorted(made)] == sorted(oracles)

    def test_equal_values_hash_equal(self):
        # over the p/q grid above: residues of one value, made from different
        # p/q, are equal and hash alike, and those of different values differ
        hashes, made = {}, set()
        for q in range(1, 61):
            for p in range(-2 * q, 2 * q + 1):
                r = ResidueQZ.of(p, q)
                assert hashes.setdefault(Fraction(p, q) % 1, hash(r)) == hash(r), (p, q)
                made.add(r)
        assert len(made) == len(hashes)

    def test_compare_and_hash_without_fractions(self):
        # == and hash read the int slots, so neither builds a Fraction
        src = os.path.dirname(os.path.dirname(os.path.abspath(dihedral.__file__)))
        code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                "from dihedral.exact import ResidueQZ\n"
                "a, b, c = ResidueQZ.of(2, 6), ResidueQZ._reduced(4, 3), ResidueQZ.of(1, 2)\n"
                "assert a == b and hash(a) == hash(b) and a != c and not a == c\n"
                "assert len({a, b, c}) == 2 and a != 1 / 3\n"
                "print(*[m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-I", "-c", code, src], check=True,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.split() == []

    @pytest.mark.parametrize("q, den", [(True, 3), (True, -3), (1, True), (0.5, 1), (1, 3.0),
                                        (Fraction(1, 3), True), (Fraction(1, 3), 2.0)])
    def test_of_takes_ints_only(self, q, den):
        with pytest.raises(TypeError):
            ResidueQZ.of(q, den)

    def test_of_takes_a_fraction(self):
        assert ResidueQZ.of(Fraction(7, 3)) == ResidueQZ(Fraction(1, 3))
        assert ResidueQZ.of(Fraction(1, 3), 2) == ResidueQZ(Fraction(1, 6))
        assert ResidueQZ.of(Fraction(1, 3), -2) == ResidueQZ(Fraction(5, 6))

    @pytest.mark.parametrize("value, error, message", [
        (1, TypeError, "residue value must be a Fraction, got 1"),
        (Fraction(1), ValueError, r"residue 1 is outside \[0, 1\)"),
        (Fraction(-1, 3), ValueError, r"residue -1/3 is outside \[0, 1\)"),
    ])
    def test_constructor_checks(self, value, error, message):
        with pytest.raises(error, match=message):
            ResidueQZ(value)

    @pytest.mark.parametrize("q", [1, 0, Fraction(1, 3)])
    def test_of_zero_denominator(self, q):
        with pytest.raises(ZeroDivisionError):
            ResidueQZ.of(q, 0)


class TestFourSquares:
    def test_pinned_values(self):
        assert four_squares(0) == (0, 0, 0, 0)
        assert four_squares(1) == (0, 0, 0, 1)
        assert four_squares(7) == (1, 1, 1, 2)
        assert four_squares(12) == (0, 2, 2, 2)
        assert four_squares(31) == (1, 1, 2, 5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="four_squares needs a nonnegative integer, got -1"):
            four_squares(-1)

    def test_step_budget(self, monkeypatch):
        # 23 = 8 * 2 + 7 skips a1 = 0, so 23 = 1 + 4 + 9 + 9 is found at
        # the 5th step (the 14th before the skip)
        import dihedral.exact as exact_mod

        monkeypatch.setattr(exact_mod, "_FOUR_SQUARES_STEPS", 5)
        assert four_squares(23) == (1, 2, 3, 3)
        monkeypatch.setattr(exact_mod, "_FOUR_SQUARES_STEPS", 4)
        with pytest.raises(ArithmeticError, match="2-digit integer stopped after 4 steps"):
            four_squares(23)

    def test_minimal_ascending(self):
        for k in range(0, 80):
            got = four_squares(k)
            assert sum(x * x for x in got) == k
            assert list(got) == sorted(got)
            best = min(
                (a, b, c, d)
                for a in range(10)
                for b in range(a, 10)
                for c in range(b, 10)
                for d in range(c, 10)
                if a * a + b * b + c * c + d * d == k
            )
            assert got == best

    def test_matches_plain_search(self):
        # halving while 8 | k and skipping a1 = 0 where Legendre's theorem
        # rules it out keep the answer of the plain search in that order
        def plain(k):
            for a1 in range(math.isqrt(k // 4) + 1):
                r1 = k - a1 * a1
                for a2 in range(a1, math.isqrt(r1 // 3) + 1):
                    r2 = r1 - a2 * a2
                    for a3 in range(a2, math.isqrt(r2 // 2) + 1):
                        a4 = math.isqrt(r2 - a3 * a3)
                        if a4 * a4 == r2 - a3 * a3 and a4 >= a3:
                            return (a1, a2, a3, a4)

        for k in range(10**4):
            assert four_squares(k) == plain(k), k

    @pytest.mark.parametrize("k, want", [(376_832, (64, 64, 192, 576)),
                                         (94_208, (32, 32, 96, 288))])
    def test_powers_of_four_times_23(self, k, want):
        # 2^14 * 23 was refused by the budget and 2^12 * 23 took 557,524 steps;
        # both reduce to 92 = 4 * 23 = 1 + 1 + 9 + 81
        start = time.perf_counter()
        assert four_squares(k) == want
        assert time.perf_counter() - start < 0.05
