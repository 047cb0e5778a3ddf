"""Exact integer linear algebra."""

import math
import random
from fractions import Fraction

import pytest

from dihedral.exact import (
    IntMatrix,
    ResidueQZ,
    SNFResult,
    det,
    four_squares,
    is_primitive,
    scaled_inverse,
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

    def test_hashable(self):
        a = IntMatrix([[1]])
        b = IntMatrix([[1]])
        assert len({a, b}) == 1


class TestDeterminant:
    def test_empty_matrix(self):
        assert det(IntMatrix([])) == 1

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

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            scaled_inverse(IntMatrix([[1, 2], [2, 4]]))

    def test_scaled_inverse_identity(self):
        rng = random.Random(10)
        done = 0
        while done < 20:
            a = rand_matrix(rng, rng.randint(1, 4))
            if det(a) == 0:
                continue
            n, scale = scaled_inverse(a)
            assert scale == max(snf(a).diagonal())
            scaled_id = IntMatrix(
                [[scale if i == j else 0 for j in range(a.rows)] for i in range(a.rows)]
            )
            assert a @ n == scaled_id
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

    def test_zero_matrix(self):
        res = snf(IntMatrix([[0, 0], [0, 0]]))
        assert res.diagonal() == (0, 0)
        assert res.invariant_factors == ()

    def test_result_validates(self):
        good = snf(IntMatrix([[2]]))
        with pytest.raises(ValueError):
            SNFResult(good.P, good.Q, good.D, (5,))
        with pytest.raises(ValueError):
            SNFResult(good.P, good.Q, IntMatrix([[0, 1], [0, 0]]), ())


class TestResidue:
    def test_reduction_window(self):
        assert ResidueQZ.of(Fraction(7, 3)).value == Fraction(1, 3)
        assert ResidueQZ.of(Fraction(-2, 3)).value == Fraction(1, 3)
        assert ResidueQZ.of(5).is_zero

    def test_str(self):
        assert str(ResidueQZ.of(Fraction(2, 5))) == "2/5"

    def test_ordering(self):
        assert ResidueQZ.of(Fraction(1, 3)) < ResidueQZ.of(Fraction(2, 3))


class TestPrimitivity:
    def test_cases(self):
        assert is_primitive((1, 2))
        assert is_primitive((0, 0, 1))
        assert not is_primitive((2, 4))
        assert not is_primitive(())
        assert not is_primitive((0, 0))


class TestFourSquares:
    def test_pinned_values(self):
        assert four_squares(0) == (0, 0, 0, 0)
        assert four_squares(1) == (0, 0, 0, 1)
        assert four_squares(7) == (1, 1, 1, 2)
        assert four_squares(12) == (0, 2, 2, 2)
        assert four_squares(31) == (1, 1, 2, 5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            four_squares(-1)

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
