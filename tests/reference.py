"""Reference code and fixture builders that only the tests use.

The faithful Artin action of B_n on the free group of rank n is the second
word-problem algorithm the tests check the Dynnikov oracle against: the
letter t_i sends x_i to x_i x_{i+1} x_i^{-1}, x_{i+1} to x_i, and fixes the
other generators. Images are kept freely reduced, so comparing automorphisms
is sequence comparison. Words act left-to-right: artin_action(u * v) is
artin_action(u) followed by artin_action(v). Its words can grow exponentially
with the braid word.

Commuting a word with every standard generator, one identity check per
generator, is the reference for chaingroup.oracle.is_central, which decides
centrality with one check through the centre <Delta^2>.

The dense symplectic form is the reference for chaingroup.homology's
structured arithmetic: the matrix J built entry by entry, transvections as
I + eps*outer(c, Jc), pairing preservation as M^T J M == J, and the chain
pattern with each pairing c_i^T J c_j read off J. The references below that
need a transvection, a pairing or a chain check use these dense forms and
intmat.mat_mul, never the homology routines they are compared with. The triple
recovery by inverses is the reference for homology.extract_triple, which
reads the classes off matrix differences and the first class off the
chain's intersection pattern: it inverts a pairing-preserving M as
-J M^T J, finds the line of c_1 by intersecting two column spaces, and
takes each class c_i from eps*(M_i V^-1 - I)*J = c_i c_i^T by an integer
square root. Its kernels, column spaces and span intersections come from
the fraction-free echelon routine here, as do the kernels the tests draw
random chain-fixing directions from. Each elimination step is
row <- p*row - f*pivot_row followed by division by the row's gcd, in the
spirit of Bareiss (Sylvester's identity and multistep integer-preserving
Gaussian elimination, Math. Comp. 22, 1968); the package itself eliminates
only in chaingroup.finite.smith_normal_form.

The all-pairs monodromy check is the reference for homology.monodromy_rep,
which multiplies out only the braid relations of adjacent classes: it also
multiplies out every distant pair's commutator.

The lift by inverses is the reference for homology.lift_adjust, which reads
the correction off the direct-product structure: it multiplies lifts
(matrix, twist) with a product of its own, forms each braid defect
W_i = (A_i A_{i+1} A_i)(A_{i+1} A_i A_{i+1})^{-1} with an echelon inverse,
requires its matrix part to be the identity, multiplies A_i by
W_1 ... W_{i-1}, and checks the relations of the result.

The 2r x r relation rows of the abelian quotient L(r, M, m, d, s), one row
per relation on Z^r, are the reference for chaingroup.finite.ln_group, which
reduces them by a change of basis to one 3 x 2 block.

The restarting Smith normal form is the reference for
chaingroup.finite.smith_normal_form: it pivots on the least entry of the
whole remaining block, restarts whenever a reduction leaves a remainder, and
adds a row whenever the pivot fails to divide the rest of the block.

The pair-table permutation search is the reference for
chaingroup.finite's search up to conjugacy: it tabulates, for every
permutation of k symbols, its braid partners and the permutations it
commutes with, and walks all tuples over those tables. The scanning chain
search is the reference for finite._chains_from, which scans a class once
and conjugates: it scans the whole class for the braid partners of every
image it reaches, and composes to test each commutation.

The all-rotations canonical key is the reference for
chaingroup.graphs.canonical_key, which walks twice per cycle of the edge
permutation, once for each order of the first edge's ends, and lets the
action carry that order along the walk: the reference walks from every
edge and backtracks over both orders of every edge that brings two new
vertices.

Not a test module: pytest does not collect it, the test modules import it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from functools import reduce
from math import gcd
from typing import Iterable, Iterator, Sequence

from chaingroup import braids, finite, graphs, homology, intmat
from chaingroup.braids import BraidWord
from chaingroup.homs import BraidHom
from chaingroup.intmat import Matrix, Vector
from chaingroup.oracle import is_identity


# ------------------------------------------------------- free reduction ----


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Free reduction of signed letters: cancel each letter against its inverse."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent letter/inverse pairs until none remain."""
    return BraidWord(w.n, reduce_letters(w.letters))


# ------------------------------------------------------- Artin action ----


def apply_letters(
    n: int,
    letters: Sequence[int],
    images: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    """Rewrite each image word through the given braid letters, in order.

    The braid letter i substitutes x_i -> x_i x_{i+1} x_i^{-1} and
    x_{i+1} -> x_i; the letter -i applies the inverse substitution. The first
    letter of the braid word acts first. Words stay reduced throughout.
    """
    words = [tuple(w) for w in images]
    for s in letters:
        i = abs(s)
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter {s} out of range for rank {n}")
        j = i + 1
        if s > 0:
            table = {i: (i, j, -i), -i: (i, -j, -i), j: (i,), -j: (-i,)}
        else:
            table = {i: (j,), -i: (-j,), j: (-j, i, j), -j: (-j, -i, j)}
        words = [reduce_letters(r for t in w for r in table.get(t, (t,))) for w in words]
    return tuple(words)


def identity_images(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple((i,) for i in range(1, n + 1))


@dataclasses.dataclass(frozen=True)
class FreeAutomorphism:
    """An automorphism of the rank-n free group, one reduced word per generator."""

    n: int
    images: tuple[tuple[int, ...], ...]

    def is_identity(self) -> bool:
        return self.images == identity_images(self.n)

    def apply(self, word: tuple[int, ...]) -> tuple[int, ...]:
        """Image of an arbitrary reduced word under this automorphism."""

        def image(t: int):
            img = self.images[abs(t) - 1]
            return (-x for x in reversed(img)) if t < 0 else img

        return reduce_letters(r for t in word for r in image(t))


def artin_action(w: BraidWord) -> FreeAutomorphism:
    """The free-group automorphism induced by a braid word."""
    return FreeAutomorphism(w.n, apply_letters(w.n, w.letters, identity_images(w.n)))


def compose(f: FreeAutomorphism, g: FreeAutomorphism) -> FreeAutomorphism:
    """The automorphism acting as f first, then g."""
    if f.n != g.n:
        raise ValueError("rank mismatch")
    return FreeAutomorphism(f.n, tuple(g.apply(w) for w in f.images))


# ---------------------------------------------------------- centrality ----


def is_central_by_generators(w: BraidWord) -> bool:
    """True iff the word commutes with every standard generator."""
    n = w.n
    for i in range(1, n):
        t = BraidWord(n, (i,))
        if not is_identity(w * t * w.inverse() * t.inverse()):
            return False
    return True


# ---------------------------------------------------- fixture builders ----


def gamma(n: int, i: int) -> BraidWord:
    """The six-letter product t_i t_{i+1} t_i t_{i+2} t_{i+1} t_i.

    Out-of-range indices i+1, i+2 wrap through generator(n, .), so the top
    odd index is legal. Conjugation by this word swaps t_i and t_{i+2} and
    fixes the other odd-index generators.
    """
    if n < 6 or n % 2 != 0:
        raise ValueError(f"defined for even strand counts >= 6, got {n}")
    if i % 2 != 1 or not 1 <= i <= n - 1:
        raise ValueError(f"index {i} is not an odd generator index below {n}")
    return braids.parse_letters(n, (i, i + 1, i, i + 2, i + 1, i))


def identity_hom(n: int) -> BraidHom:
    return BraidHom(n, n, tuple(BraidWord(n, (i,)) for i in range(1, n)))


def inclusion(n: int, m: int) -> BraidHom:
    """The source generators read on a larger strand count."""
    if m < n:
        raise ValueError("inclusion needs target at least as large as source")
    return BraidHom(n, m, tuple(BraidWord(m, (i,)) for i in range(1, n)))


def compose_homs(h1: BraidHom, h2: BraidHom) -> BraidHom:
    """Image-wise substitution h2(h1(.)); relations are inherited."""
    if h1.m != h2.n:
        raise ValueError(f"strand mismatch: first lands on {h1.m}, second starts on {h2.n}")
    return BraidHom(h1.n, h2.m, tuple(h2.apply(w) for w in h1.images))


def apply_transvection(
    lat: homology.SkewLattice, rep: Sequence[Matrix], v: Matrix
) -> list[Matrix]:
    """Element-wise products M_i * V for a direction V centralizing the rep."""
    if not dense_preserves(dense_pairing(lat.genus), v):
        raise ValueError("direction must preserve the pairing")
    for m in rep:
        if intmat.mat_mul(m, v) != intmat.mat_mul(v, m):
            raise ValueError("direction must commute with every matrix of the rep")
    return [intmat.mat_mul(m, v) for m in rep]


def monodromy_rep_all_pairs(
    lat: homology.SkewLattice, chain: Sequence[homology.CurveClass], eps: int
) -> list[Matrix]:
    """Transvection matrices of a chain as homology.monodromy_rep returns
    them, as dense matrices, with every adjacent braid relation and every
    distant commutation checked as a dense matrix identity."""
    J = dense_pairing(lat.genus)
    dense_require_chain(J, chain)
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    ms = [dense_transvection(J, c.v, eps) for c in chain]
    mul = intmat.mat_mul
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            a, b = ms[i], ms[j]
            if j == i + 1:
                holds = mul(mul(a, b), a) == mul(mul(b, a), b)
            else:
                holds = mul(a, b) == mul(b, a)
            if not holds:
                raise RuntimeError(f"chain transvections {i + 1},{j + 1} violated a relation")
    return ms


# ------------------------------------------------ dense symplectic form ----


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x - y for x, y in zip(r, s, strict=True)) for r, s in zip(a, b, strict=True)
    )


def dense_pairing(g: int) -> Matrix:
    """The standard form's matrix: J[2i][2i+1] = 1, J[2i+1][2i] = -1, else 0."""
    J = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        J[2 * i][2 * i + 1] = 1
        J[2 * i + 1][2 * i] = -1
    return intmat.as_matrix(J)


def dense_transvection(J: Matrix, c: Sequence[int], eps: int) -> Matrix:
    """I + eps * outer(c, Jc), the matrix of x -> x + eps*<x,c>*c."""
    jc = intmat.mat_vec(J, tuple(c))
    return tuple(
        tuple(int(i == j) + eps * ci * jcj for j, jcj in enumerate(jc)) for i, ci in enumerate(c)
    )


def dense_preserves(J: Matrix, m: Matrix) -> bool:
    """M^T J M == J."""
    return intmat.mat_mul(intmat.mat_mul(transpose(m), J), m) == J


def dense_require_chain(J: Matrix, chain: Sequence[homology.CurveClass]) -> None:
    """The chain pattern as homology's check states it, with every pairing
    c_i^T J c_j read off the dense form: nonzero classes of the rank, pairing
    to +-1 when consecutive and to 0 at distance two or more."""
    for c in chain:
        if len(c.v) != len(J):
            raise ValueError(f"class {c.v} has length {len(c.v)}, lattice rank is {len(J)}")
        if not any(c.v):
            raise ValueError("chain classes must be nonzero")
    for i, a in enumerate(chain):
        for j in range(i + 1, len(chain)):
            p = sum(x * y for x, y in zip(a.v, intmat.mat_vec(J, chain[j].v)))
            if j == i + 1 and abs(p) != 1:
                raise ValueError(f"consecutive classes {i},{j} must pair to +-1, got {p}")
            if j > i + 1 and p != 0:
                raise ValueError(f"distant classes {i},{j} must pair to 0, got {p}")


def negated(m: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in m)


# ------------------------------------------------ echelon linear algebra ----


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


def column_space_basis(a: Matrix) -> list[Vector]:
    """Primitive integer vectors spanning the column space over Q: the
    nonzero echelon rows of the transpose."""
    rows, pivots = _echelon(transpose(a))
    return [tuple(row) for row in rows[: len(pivots)]]


def intersect_spans(us: list[Vector], vs: list[Vector]) -> list[Vector]:
    """Primitive basis of span(us) ∩ span(vs) over Q.

    Each kernel vector k of the matrix with columns us, vs gives the common
    vector sum_j k_j us_j.
    """
    if not us or not vs:
        return []
    ker = kernel_basis(transpose(tuple(us) + tuple(vs)))
    u_cols = transpose(us)
    common = [intmat.mat_vec(u_cols, k[: len(us)]) for k in ker]
    return column_space_basis(transpose(common))


def kernel_basis(a: Matrix) -> list[Vector]:
    """Primitive integer basis of the rational kernel of a.

    One vector per free column, in increasing order, positive in its free
    column and zero in the other free columns.
    """
    if not a:
        return []
    rows, pivots = _echelon(a)
    scale = math.lcm(*(row[pc] for row, pc in zip(rows, pivots)))
    out = []
    for fc in range(len(a[0])):
        if fc in pivots:
            continue
        vec = [0] * len(a[0])
        vec[fc] = scale
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        out.append(intmat.primitive(vec))
    return out


# ------------------------------------------- triple recovery by inverses ----


def symplectic_inverse(J: Matrix, m: Matrix) -> Matrix | None:
    """M^{-1} = -J M^T J when M preserves the pairing, else None."""
    inv = intmat.mat_mul(intmat.mat_mul(negated(J), transpose(m)), J)
    return inv if intmat.mat_mul(m, inv) == intmat.identity(len(J)) else None


def _rank_one_square(c: Matrix) -> Vector | None:
    """Solve c = b b^T for a primitive integer b, else None."""
    j0 = next((j for j, row in enumerate(c) if row[j]), None)
    if j0 is None or c[j0][j0] < 0:
        return None
    bj = math.isqrt(c[j0][j0])
    if bj * bj != c[j0][j0] or any(row[j0] % bj for row in c):
        return None
    b = tuple(row[j0] // bj for row in c)
    if tuple(tuple(x * y for y in b) for x in b) != c or intmat.primitive(b) != b:
        return None
    return intmat.sign_normalized(b)


def extract_triple_by_inverses(lat: homology.SkewLattice, ms: Sequence[Matrix]):
    """Recover (chain, eps, direction) as homology.extract_triple does.

    M_1 M_3^{-1} and M_1 M_4^{-1} are differences of two commuting
    transvections; their images intersect in the line of the first chain
    class, which with the sign gives the direction V = T_{c_1}^{-eps} M_1 and
    then each c_i c_i^T as eps (M_i V^{-1} - I) J.
    """
    ms = [intmat.as_matrix(m) for m in ms]
    if len(ms) < 5:
        raise ValueError("need at least 5 matrices (chain length >= 5)")
    for i, m in enumerate(ms):
        if len(m) != lat.rank or any(len(row) != lat.rank for row in m):
            raise ValueError(f"matrix {i + 1} is not {lat.rank}x{lat.rank}")
    if all(m == ms[0] for m in ms):
        return homology.CYCLIC

    J, ident = dense_pairing(lat.genus), intmat.identity(lat.rank)
    inv3 = symplectic_inverse(J, ms[2])
    inv4 = symplectic_inverse(J, ms[3])
    if inv3 is None or inv4 is None:
        return homology.NOT_RECOGNIZED
    d13 = mat_sub(intmat.mat_mul(ms[0], inv3), ident)
    d14 = mat_sub(intmat.mat_mul(ms[0], inv4), ident)
    im13 = column_space_basis(d13)
    im14 = column_space_basis(d14)
    if len(im13) != 2 or len(im14) != 2:
        return homology.NOT_RECOGNIZED
    common = intersect_spans(im13, im14)
    if len(common) != 1:
        return homology.NOT_RECOGNIZED
    c1 = homology.CurveClass(intmat.sign_normalized(common[0]))

    for eps in (1, -1):
        v = intmat.mat_mul(dense_transvection(J, c1.v, -eps), ms[0])
        v_inv = symplectic_inverse(J, v)
        if v_inv is None:
            continue
        chain: list[homology.CurveClass] = []
        for m in ms:
            d = mat_sub(intmat.mat_mul(m, v_inv), ident)
            dj = intmat.mat_mul(d, J)
            b = _rank_one_square(tuple(tuple(eps * x for x in row) for row in dj))
            if b is None:
                break
            chain.append(homology.CurveClass(b))
        if len(chain) != len(ms) or chain[0] != c1:
            continue
        try:
            dense_require_chain(J, chain)
        except ValueError:
            continue
        if any(intmat.mat_vec(v, c.v) not in (c.v, tuple(-x for x in c.v)) for c in chain):
            continue
        if any(intmat.mat_mul(dense_transvection(J, c.v, eps), v) != m for c, m in zip(chain, ms)):
            continue
        return homology.TransvectionTriple(tuple(chain), eps, v)
    return homology.NOT_RECOGNIZED


# --------------------------------------------------- lift by inverses ----


def lift_mul(a: homology.Lift, b: homology.Lift) -> homology.Lift:
    """The product of two lifts (matrix, twist) in the direct product:
    matrices multiply and twist vectors add."""
    if len(a[1]) != len(b[1]):
        raise ValueError("twist vectors have different lengths")
    return intmat.mat_mul(a[0], b[0]), tuple(x + y for x, y in zip(a[1], b[1]))


def _lift_inverse(lift: homology.Lift) -> homology.Lift:
    inv = int_inverse(lift[0])
    if inv is None:
        raise ValueError("matrix part is not invertible over the integers")
    return inv, tuple(-x for x in lift[1])


def lift_adjust_by_inverses(lifts: Sequence[homology.Lift]) -> list[homology.Lift]:
    """Correct braid-relation defects as homology.lift_adjust does.

    With W_i = (A_i A_{i+1} A_i)(A_{i+1} A_i A_{i+1})^{-1} central, that is
    with identity matrix part, for every i, the sequence A_1,
    A_i W_1 ... W_{i-1} satisfies all relations exactly, which is checked
    again here. Already-exact input is returned unchanged.
    """
    lifts = [(intmat.as_matrix(m), tuple(map(int, t))) for m, t in lifts]
    for m, _ in lifts:
        if not m or any(len(row) != len(m) for row in m):
            raise ValueError("matrix part must be square with at least one row")
    if len(lifts) < 2:
        return lifts
    defects = []
    for i in range(len(lifts) - 1):
        a, b = lifts[i], lifts[i + 1]
        w = lift_mul(lift_mul(lift_mul(a, b), a), _lift_inverse(lift_mul(lift_mul(b, a), b)))
        if w[0] != intmat.identity(len(w[0])):
            raise ValueError(f"braid defect at position {i + 1} is not central")
        defects.append(w)
    for i in range(len(lifts)):
        for j in range(i + 2, len(lifts)):
            if lift_mul(lifts[i], lifts[j]) != lift_mul(lifts[j], lifts[i]):
                raise ValueError(f"distant generators {i + 1},{j + 1} do not commute")
    out = [lifts[0]]
    acc = intmat.identity(len(lifts[0][0])), (0,) * len(lifts[0][1])
    for i in range(1, len(lifts)):
        acc = lift_mul(acc, defects[i - 1])
        out.append(lift_mul(lifts[i], acc))
    for i in range(len(out) - 1):
        a, b = out[i], out[i + 1]
        if lift_mul(lift_mul(a, b), a) != lift_mul(lift_mul(b, a), b):
            raise RuntimeError(f"adjustment left a braid defect at position {i + 1}")
    return out


# ---------------------------------------------------- abelian quotient ----


def ln_params_rows(p: finite.LnParams) -> Matrix:
    """Relation lattice rows in Z^r for the three relation shapes."""
    rows: list[list[int]] = []
    for i in range(p.r):
        row = [0] * p.r
        row[i] = p.M
        rows.append(row)
    for i in range(1, p.r):
        row = [0] * p.r
        row[0], row[i] = -p.m, p.m
        rows.append(row)
    rows.append([p.d - p.s] + [p.d] * (p.r - 1))
    return intmat.as_matrix(rows)


# ------------------------------------------------- Smith normal form ----


def smith_normal_form_restarting(rows: Sequence[Sequence[int]]) -> finite.AbelianInvariants:
    """Invariant factors of Z^cols modulo the row lattice."""
    a = [list(map(int, row)) for row in rows]
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("rows must have equal length")
    factors = []
    top = 0
    while top < min(len(a), ncols):
        pivot = None
        best = None
        for i in range(top, len(a)):
            for j in range(top, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        # clear the pivot row and column; restart if a smaller entry appears
        dirty = False
        piv = a[top][top]
        for i in range(top + 1, len(a)):
            if a[i][top]:
                q = a[i][top] // piv
                a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                if a[i][top]:
                    dirty = True
        for j in range(top + 1, ncols):
            if a[top][j]:
                q = a[top][j] // piv
                for row in a:
                    row[j] -= q * row[top]
                if a[top][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry for the chain property
        offender = None
        for i in range(top + 1, len(a)):
            for j in range(top + 1, ncols):
                if a[i][j] % piv != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[top] = [x + y for x, y in zip(a[top], a[offender])]
            continue
        factors.append(abs(piv))
        top += 1
    return finite.AbelianInvariants(tuple(factors), ncols - len(factors))


# ------------------------------------------------- permutation search ----


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Apply a first, then b."""
    return tuple(b[x] for x in a)


def _cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    seen, lengths = set(), []
    for start in range(len(p)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


@functools.lru_cache(maxsize=None)
def _pair_tables(k: int):
    """Sorted S_k, and per permutation index its braid partners' indices and
    the bit mask of the indices it commutes with (images joined by a braid
    relation are conjugate, so only pairs of one cycle type are tested)."""
    perms = sorted(itertools.permutations(range(k)))
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(perms):
        classes.setdefault(_cycle_type(p), []).append(i)
    braid_next: list[list[int]] = [[] for _ in perms]
    comm_mask = [0] * len(perms)
    for members in classes.values():
        for a in members:
            for b in members:
                ab, ba = _compose(perms[a], perms[b]), _compose(perms[b], perms[a])
                if _compose(ab, perms[a]) == _compose(ba, perms[b]):
                    braid_next[a].append(b)
                if ab == ba:
                    comm_mask[a] |= 1 << b
    return perms, braid_next, comm_mask


def enum_perm_reps_by_tables(
    n: int, k: int, dedup_conjugacy: bool = False
) -> list[tuple[tuple[int, ...], ...]]:
    """Image tuples of every (n-1)-tuple of S_k obeying the braid and
    commutation relations, in lexicographic order; with dedup_conjugacy
    only the first of each simultaneous conjugacy class."""
    perms, braid_next, comm_mask = _pair_tables(k)
    size = len(perms)
    # stack[d] iterates the candidates for image d; masks[d] is the set of
    # permutations commuting with images 0..d
    results: list[tuple[int, ...]] = []
    chosen: list[int] = []
    masks: list[int] = []
    stack: list[Iterator[int]] = [iter(range(size))]
    while stack:
        b = next(stack[-1], None)
        if b is None:
            stack.pop()
            if chosen:
                chosen.pop()
                masks.pop()
            continue
        level = len(chosen)
        if level >= 2 and not (masks[level - 2] >> b) & 1:
            continue
        if level == n - 2:
            results.append((*chosen, b))
            continue
        chosen.append(b)
        masks.append((masks[-1] if masks else (1 << size) - 1) & comm_mask[b])
        stack.append(iter(braid_next[b]))

    tuples = [tuple(perms[i] for i in tup) for tup in sorted(results)]
    if not dedup_conjugacy:
        return tuples
    seen, out = set(), []
    for images in tuples:
        if images in seen:
            continue
        out.append(images)
        for c in perms:
            ci = tuple(sorted(range(k), key=c.__getitem__))
            seen.add(tuple(_compose(_compose(ci, g), c) for g in images))
    return out


def _braid(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return _compose(_compose(a, b), a) == _compose(_compose(b, a), b)


def chains_from_by_scanning(
    members: list[tuple[int, ...]], length: int
) -> list[tuple[tuple[int, ...], ...]]:
    """Every chain of `length` images of one class whose first image is
    members[0], in lexicographic order: depth-first, each image braiding
    with its predecessor and commuting with every image two or more steps
    back, braid partners found by scanning the class."""
    partners: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def braid_partners(a: tuple[int, ...]) -> list[tuple[int, ...]]:
        if a not in partners:
            partners[a] = [b for b in members if _braid(a, b)]
        return partners[a]

    found = []

    def extend(chain: list[tuple[int, ...]]) -> None:
        if len(chain) == length:
            found.append(tuple(chain))
            return
        for b in braid_partners(chain[-1]):
            if all(_compose(b, c) == _compose(c, b) for c in chain[:-1]):
                extend(chain + [b])

    extend([members[0]])
    return found


# ------------------------------------------------ graph canonical key ----


def _encodings_from(g: graphs.ActionGraph, r: int) -> Iterator[tuple]:
    """The encodings of the pair (graph, action) that walk the edges from
    edge r along eperm, naming vertices in order of first appearance, with
    both orders tried when an edge brings two new vertices."""
    m, order, j = g.num_edges, [], r
    for _ in range(m):
        order.append(g.edges[j])
        j = g.eperm[j]

    def rec(idx: int, names: dict[int, int], acc: list[tuple[int, int]]):
        if idx == m:
            if len(names) == g.num_vertices:
                vperm = [0] * g.num_vertices
                for orig, new in names.items():
                    vperm[new] = names[g.vperm[orig]]
                yield (g.num_vertices, tuple(acc), tuple(vperm))
            return
        u, w = order[idx]
        orders = [(u, w)] if (u == w or u in names or w in names) else [(u, w), (w, u)]
        for a, b in orders:
            added = [x for x in dict.fromkeys((a, b)) if x not in names]
            for x in added:
                names[x] = len(names)
            acc.append(tuple(sorted((names[u], names[w]))))
            yield from rec(idx + 1, names, acc)
            acc.pop()
            for x in added:
                del names[x]

    yield from rec(0, {}, [])


def canonical_key_all_rotations(g: graphs.ActionGraph) -> tuple:
    """The least encoding over walks from every edge."""
    return min(e for r in range(g.num_edges) for e in _encodings_from(g, r))
