"""Exact integer matrix arithmetic on tuples of tuples.

Matrices are immutable row-major tuples of Python ints, so products of
transvections can grow without bound. The one elimination, behind
int_inverse, is a fraction-free echelon routine that never leaves the
integers: each elimination step is row <- p*row - f*pivot_row followed by
division by the row's gcd, in the spirit of Bareiss (Sylvester's identity and
multistep integer-preserving Gaussian elimination, Math. Comp. 22, 1968).
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError("matrix dimensions do not match")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v, strict=True)) for row in a)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x - y for x, y in zip(r, s, strict=True)) for r, s in zip(a, b, strict=True)
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def primitive(v: Sequence[int]) -> Vector:
    """Divide out the gcd; the zero vector stays zero."""
    g = reduce(gcd, v, 0)
    return tuple(x // g for x in v) if g else tuple(v)


def sign_normalized(v: Sequence[int]) -> Vector:
    """Flip signs so the first nonzero coordinate is positive."""
    for x in v:
        if x != 0:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the integers: the rows and the pivot columns.

    Row i has its pivot in column pivots[i], and every pivot column is zero
    outside its pivot row; the rows after the last pivot row are zero. Each
    pivot row is primitive with a positive pivot, so it is the rational
    reduced echelon row times the smallest positive integer that clears its
    denominators. Rows stay lists of ints throughout, and gcds are folded
    with reduce: gcd(*row) would build an argument tuple per call, and
    CPython 3.11 parks freed 20-tuples on a free list it never reuses, so
    the 20-wide rows of a genus-5 inverse would pin about 370 KB.
    """
    work = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(len(work[0]) if work else 0):
        r = len(pivots)
        if r == len(work):
            break
        k = next((i for i in range(r, len(work)) if work[i][col]), None)
        if k is None:
            continue
        top = work[k]
        g = reduce(gcd, top) if top[col] > 0 else -reduce(gcd, top)
        top = [x // g for x in top]
        work[k] = work[r]
        work[r] = top
        p = top[col]
        for i, row in enumerate(work):
            f = row[col]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(row, top)]
                g = reduce(gcd, row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return work, pivots


def int_inverse(a: Matrix) -> Matrix | None:
    """Inverse of a square matrix when it exists over the integers, else None.

    Row i of the echelon form of [A | I] is the primitive multiple
    p_i * (e_i | row i of A^-1), so A^-1 is integral exactly when every
    pivot p_i is 1.
    """
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    rows, pivots = _echelon(aug)
    if pivots != list(range(n)) or any(rows[i][i] != 1 for i in range(n)):
        return None
    return tuple(tuple(row[n:]) for row in rows)
