"""Exact integer and rational linear algebra.

Every scalar in this package is a Python int or a fractions.Fraction;
floating point is never used. Matrices are small and dense, stored
row-major.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


class NoSolution(Exception):
    """The linear system has no rational solution."""


class ZeroVector(Exception):
    """The operation is undefined for the zero vector."""


class NotSquare(Exception):
    """The operation requires a square matrix."""


Vector = tuple[Fraction, ...]


class IntMatrix:
    """Dense integer matrix; entries row-major, len(entries) == rows*cols."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative shape")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix(rows={self.rows}, cols={self.cols}, entries={self.entries})"

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[int] = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(int(e) for e in row)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols, self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        flat: list[int] = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                flat.append(sum(ri[k] * other.entry(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(flat))

    def mul_vector(self, v: Sequence) -> tuple:
        """Matrix times column vector; works for int or Fraction entries of v."""
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(self.row(i)[k] * v[k] for k in range(self.cols))
                     for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)


def primitive(v: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Divide an integer vector by the gcd of its entries.

    Returns (v/g, g) with g > 0 and gcd of the output entries equal to 1.
    Raises ZeroVector for the zero vector.
    """
    vec = tuple(int(e) for e in v)
    g = 0
    for e in vec:
        g = math.gcd(g, e)
    if g == 0:
        raise ZeroVector("cannot primitivize the zero vector")
    return tuple(e // g for e in vec), g


def determinant(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant by rational Gaussian elimination."""
    n = len(rows)
    mat = [[Fraction(e) for e in row] for row in rows]
    for row in mat:
        if len(row) != n:
            raise NotSquare("determinant requires a square matrix")
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        p = mat[col][col]
        det *= p
        for i in range(col + 1, n):
            if mat[i][col] != 0:
                f = mat[i][col] / p
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return det


def rational_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals by Gaussian elimination."""
    mat = [[Fraction(e) for e in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        p = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            if mat[i][col] != 0:
                f = mat[i][col] / p
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def solve_square(rows: Sequence[Sequence], rhs: Sequence) -> Optional[Vector]:
    """Solve a square rational system; None when the matrix is singular."""
    n = len(rows)
    aug = [[Fraction(e) for e in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for row in aug:
        if len(row) != n + 1:
            raise NotSquare("solve_square requires a square matrix")
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [e / p for e in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def solve_rational(W: IntMatrix, tau: Sequence) -> Vector:
    """One rational solution of W x = tau; raises NoSolution if inconsistent.

    Which solution is returned is unspecified: callers must not depend on
    the choice (free variables are set to zero).
    """
    if len(tau) != W.rows:
        raise ValueError("right-hand side length does not match row count")
    m = W.cols
    aug = [[Fraction(W.entry(i, j)) for j in range(m)] + [Fraction(tau[i])]
           for i in range(W.rows)]
    pivots: list[tuple[int, int]] = []
    rank = 0
    for col in range(m):
        pivot = next((i for i in range(rank, len(aug)) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        p = aug[rank][col]
        aug[rank] = [e / p for e in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        pivots.append((rank, col))
        rank += 1
    for i in range(rank, len(aug)):
        if aug[i][m] != 0:
            raise NoSolution("target vector is outside the rational column span")
    x = [Fraction(0)] * m
    for row, col in pivots:
        x[col] = aug[row][m]
    return tuple(x)


def integer_kernel(W: IntMatrix) -> IntMatrix:
    """Basis of the saturated integer kernel lattice ker(W) ∩ Z^m.

    Performs Hermite-style integer row elimination on [W^T | I]; the rows of
    the accumulated unimodular transform whose W^T-part vanishes generate
    exactly the lattice of integer kernel vectors, so the basis is saturated
    by construction (all Smith invariant factors equal 1).

    Returns an m x n matrix whose columns are the basis vectors,
    n = m - rank(W). The particular basis is unspecified.
    """
    m, r = W.cols, W.rows
    work = [list(W.column(j)) + [1 if t == j else 0 for t in range(m)]
            for j in range(m)]
    pivot_row = 0
    for col in range(r):
        if pivot_row == m:
            break
        advanced = False
        while True:
            nz = [i for i in range(pivot_row, m) if work[i][col] != 0]
            if not nz:
                break
            i_min = min(nz, key=lambda i: (abs(work[i][col]), i))
            if i_min != pivot_row:
                work[pivot_row], work[i_min] = work[i_min], work[pivot_row]
            p = work[pivot_row][col]
            others = [i for i in range(pivot_row + 1, m) if work[i][col] != 0]
            if not others:
                advanced = True
                break
            for i in others:
                q = work[i][col] // p
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[pivot_row])]
        if advanced:
            pivot_row += 1
    rank = pivot_row
    kernel_vectors = [row[r:] for row in work[rank:]]
    n = m - rank
    entries = tuple(kernel_vectors[j][i] for i in range(m) for j in range(n))
    return IntMatrix(m, n, entries)
