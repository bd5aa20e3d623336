from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chaingroup import intmat
from reference import (
    column_space_basis, int_inverse, intersect_spans, kernel_basis, mat_sub, transpose,
)


def reference_rank(vectors) -> int:
    """Rank over Q by Fraction Gauss elimination, independent of intmat."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def is_primitive(v) -> bool:
    return any(v) and intmat.primitive(v) == tuple(v)


def columns(a):
    return [tuple(col) for col in transpose(a)]


@st.composite
def unimodular(draw, n):
    """A product of elementary integer matrices: row additions, sign flips, swaps."""
    m = [list(row) for row in intmat.identity(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("add", "neg", "swap")))
        if kind == "add" and i != j:
            c = draw(st.integers(-3, 3))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif kind == "neg":
            m[i] = [-x for x in m[i]]
        else:
            m[i], m[j] = m[j], m[i]
    return intmat.as_matrix(m)


@st.composite
def known_rank(draw, square=False):
    """(A, r, diag) with A = U D V, U and V unimodular, D with r nonzero entries."""
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(1, 6))
    r = draw(st.integers(0, min(n, m)))
    diag = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=r, max_size=r))
    d = tuple(
        tuple(diag[i] if i == j and i < r else 0 for j in range(m)) for i in range(n)
    )
    a = intmat.mat_mul(intmat.mat_mul(draw(unimodular(n)), d), draw(unimodular(m)))
    return a, r, diag


@settings(max_examples=200, deadline=None)
@given(known_rank())
def test_column_space_basis(case):
    a, r, _ = case
    basis = column_space_basis(a)
    assert len(basis) == r
    assert all(is_primitive(b) for b in basis)
    assert reference_rank(basis) == r
    for col in columns(a):
        assert reference_rank(basis + [col]) == r


@settings(max_examples=200, deadline=None)
@given(known_rank())
def test_kernel_basis(case):
    a, r, _ = case
    m = len(a[0])
    ker = kernel_basis(a)
    assert len(ker) == m - r
    assert all(is_primitive(k) for k in ker)
    assert all(not any(intmat.mat_vec(a, k)) for k in ker)
    assert reference_rank(ker) == m - r


@settings(max_examples=200, deadline=None)
@given(known_rank(square=True))
def test_int_inverse(case):
    a, r, diag = case
    inv = int_inverse(a)
    unimodular_case = r == len(a) and all(abs(x) == 1 for x in diag)
    assert (inv is not None) == unimodular_case
    if inv is not None:
        assert intmat.mat_mul(a, inv) == intmat.identity(len(a))


@settings(max_examples=200, deadline=None)
@given(known_rank(), st.data())
def test_intersect_spans_dimension(case, data):
    a, _, _ = case
    cols = columns(a)
    u_end = data.draw(st.integers(1, len(cols)))
    v_start = data.draw(st.integers(0, len(cols) - 1))
    us = column_space_basis(transpose(cols[:u_end]))
    vs = column_space_basis(transpose(cols[v_start:]))
    common = intersect_spans(us, vs)
    assert len(common) == len(us) + len(vs) - reference_rank(us + vs)
    assert all(is_primitive(w) for w in common)
    for w in common:
        assert reference_rank(us + [w]) == len(us)
        assert reference_rank(vs + [w]) == len(vs)


def test_kernel_basis_pinned():
    # The pairing rows of a 5-chain in genus 4 moved by a seeded symplectic
    # matrix, as tests/test_homology.py::_random_direction builds them; its
    # random directions are drawn from exactly this basis.
    rows = (
        (48, -6, -6, -83, -9, -12, 88, -54),
        (573, -63, -75, -992, -106, -140, 1052, -647),
        (812, -92, -111, -1410, -144, -195, 1501, -918),
        (1423, -162, -199, -2471, -247, -337, 2638, -1609),
        (1199, -134, -162, -2082, -216, -290, 2213, -1356),
    )
    assert kernel_basis(rows) == [
        (-884, -125, 2743, -1089, -309, 2919, 0, 0),
        (-293, 310, 1087, 132, 366, 0, 417, 0),
        (898, 160, -1098, -591, -811, 0, 0, 1946),
    ]


@pytest.mark.parametrize("op", [mat_sub, intmat.mat_mul])
@pytest.mark.parametrize(
    "a, b",
    [
        (((1, 2), (3, 4)), ((1, 2, 3), (4, 5, 6), (7, 8, 9))),
        (((1, 2, 3), (4, 5, 6)), ((1, 2), (3, 4))),
    ],
)
def test_shape_mismatch_raises(op, a, b):
    with pytest.raises(ValueError):
        op(a, b)


@pytest.mark.parametrize("v", [(1,), (1, 2, 3)])
def test_mat_vec_length_mismatch_raises(v):
    with pytest.raises(ValueError):
        intmat.mat_vec(((1, 2), (3, 4)), v)


@pytest.mark.parametrize("a", [((1, 2), (3,)), ((1,), (3, 4)), ((1, 2), (3, 4, 5))])
def test_mat_vec_ragged_row_raises(a):
    with pytest.raises(ValueError):
        intmat.mat_vec(a, (1, 1))
