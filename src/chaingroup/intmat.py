"""Exact integer matrix arithmetic on tuples of tuples.

Matrices are immutable row-major tuples of Python ints, so products of
transvections can grow without bound. Nothing here eliminates: the package's
one elimination is chaingroup.finite.smith_normal_form, which also decides
invertibility over the integers where homology.lift_adjust needs it.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import mul
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple([tuple(map(int, row)) for row in rows])


def identity(n: int) -> Matrix:
    return tuple([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError("matrix dimensions do not match")
    bt = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if set(map(len, a)) - {len(v)}:
        raise ValueError("matrix and vector dimensions do not match")
    return tuple([sum(map(mul, row, v)) for row in a])


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
