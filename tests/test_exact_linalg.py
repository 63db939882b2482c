import math
import random
from fractions import Fraction

import pytest

from hamloop import (
    IntMatrix,
    NoSolution,
    NotSquare,
    ZeroVector,
    determinant,
    integer_kernel,
    primitive,
    solve_rational,
)
from hamloop.exact_linalg import rational_rank

BLOWUP_W = IntMatrix.from_rows([[1, 1, 1, 0, 1],
                                [0, 0, 1, 1, 0]])


def invariant_factors(M: IntMatrix) -> list[int]:
    """Diagonal of the Smith normal form (nonzero invariant factors only)."""
    A = M.row_lists()
    nrows, ncols = len(A), M.cols
    factors: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        if all(A[i][j] == 0 for i in range(t, nrows) for j in range(t, ncols)):
            break
        while True:
            i0, j0 = min(((i, j) for i in range(t, nrows) for j in range(t, ncols)
                          if A[i][j] != 0),
                         key=lambda ij: (abs(A[ij[0]][ij[1]]), ij))
            if i0 != t:
                A[t], A[i0] = A[i0], A[t]
            if j0 != t:
                for row in A:
                    row[t], row[j0] = row[j0], row[t]
            p = A[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if A[i][t] != 0:
                    q = A[i][t] // p
                    if q:
                        A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t] != 0:
                        dirty = True
            for j in range(t + 1, ncols):
                if A[t][j] != 0:
                    q = A[t][j] // p
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                    if A[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            p = A[t][t]
            bad = next((i for i in range(t + 1, nrows)
                        for j in range(t + 1, ncols) if A[i][j] % p != 0), None)
            if bad is None:
                break
            # fold a non-divisible row into the pivot row and keep reducing
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
        factors.append(abs(A[t][t]))
        t += 1
    return factors


class TestIntMatrix:
    @pytest.mark.parametrize("rows, cols, entries", [
        (-1, 0, ()),
        (0, -2, ()),
        (2, 2, (1, 2, 3)),
        (1, 2, (1, 2, 3)),
    ])
    def test_bad_shape(self, rows, cols, entries):
        with pytest.raises(ValueError):
            IntMatrix(rows, cols, entries)

    def test_value_equality(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix(2, 2, (1, 2, 3, 4))
        assert a == b and hash(a) == hash(b)
        assert a != a.transpose()


class TestIntegerKernel:
    def test_one_relation(self):
        W = IntMatrix.from_rows([[1, 1]])
        Q = integer_kernel(W)
        assert (Q.rows, Q.cols) == (2, 1)
        assert (W @ Q).is_zero()
        assert abs(Q.entry(0, 0)) == 1 and Q.entry(0, 0) == -Q.entry(1, 0)

    def test_blowup_kernel(self):
        Q = integer_kernel(BLOWUP_W)
        assert (Q.rows, Q.cols) == (5, 3)
        assert (BLOWUP_W @ Q).is_zero()
        assert invariant_factors(Q) == [1, 1, 1]

    def test_injective_map(self):
        Q = integer_kernel(IntMatrix.identity(2))
        assert (Q.rows, Q.cols) == (2, 0)

    def test_random_kernels_are_saturated(self):
        rng = random.Random(20240601)
        for _ in range(25):
            r = rng.choice((1, 2, 3))
            m = r + rng.choice((0, 1, 2, 3))
            W = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(m)]
                                     for _ in range(r)])
            Q = integer_kernel(W)
            assert (W @ Q).is_zero()
            rank = rational_rank(W.row_lists())
            assert Q.cols == m - rank
            if Q.cols:
                assert invariant_factors(Q) == [1] * Q.cols


class TestSolveRational:
    def test_segment(self):
        W = IntMatrix.from_rows([[1, 1]])
        s0 = solve_rational(W, (Fraction(1),))
        assert W.mul_vector(s0) == (Fraction(1),)

    def test_blowup(self):
        s0 = solve_rational(BLOWUP_W, (Fraction(2), Fraction(1)))
        assert s0[0] + s0[1] + s0[2] + s0[4] == 2
        assert s0[2] + s0[3] == 1

    def test_inconsistent(self):
        W = IntMatrix.from_rows([[1], [1]])
        with pytest.raises(NoSolution):
            solve_rational(W, (Fraction(1), Fraction(2)))


class TestPrimitive:
    @pytest.mark.parametrize("vec, expected", [
        ((2, 4, 6), ((1, 2, 3), 2)),
        ((-1, -1, -1), ((-1, -1, -1), 1)),
        ((0, 0, 5), ((0, 0, 1), 5)),
    ])
    def test_examples(self, vec, expected):
        assert primitive(vec) == expected

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            primitive((0, 0, 0))

    def test_scaling(self):
        rng = random.Random(7)
        for _ in range(20):
            v = [rng.randint(-9, 9) for _ in range(4)]
            if all(e == 0 for e in v):
                continue
            k = rng.randint(1, 9)
            base_vec, base_scale = primitive(v)
            scaled_vec, scaled_scale = primitive([k * e for e in v])
            assert scaled_vec == base_vec
            assert scaled_scale == k * base_scale


class TestDeterminant:
    def test_examples(self):
        assert determinant([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([[1, 2], [3, 4]]) == -2

    def test_not_square(self):
        with pytest.raises(NotSquare):
            determinant([[1, 2, 3], [4, 5, 6]])

    def test_multiplicative(self):
        rng = random.Random(99)
        for _ in range(10):
            A = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
                 for _ in range(3)]
            B = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
                 for _ in range(3)]
            AB = [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
                  for i in range(3)]
            assert determinant(AB) == determinant(A) * determinant(B)

    def test_row_scaling(self):
        rng = random.Random(5)
        for _ in range(10):
            A = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
            c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            scaled = [row[:] for row in A]
            scaled[1] = [c * e for e in scaled[1]]
            assert determinant(scaled) == c * determinant(A)


def test_results_are_reduced():
    s0 = solve_rational(BLOWUP_W, (Fraction(2), Fraction(1)))
    for q in s0:
        assert math.gcd(q.numerator, q.denominator) == 1
        assert q.denominator > 0
        assert Fraction(q.numerator, q.denominator) == q
