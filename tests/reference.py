"""Reference code and fixture builders that only the tests use.

The faithful Artin action of B_n on the free group of rank n is the second
word-problem algorithm the tests check the Dynnikov oracle against: the
letter t_i sends x_i to x_i x_{i+1} x_i^{-1}, x_{i+1} to x_i, and fixes the
other generators. Images are kept freely reduced, so comparing automorphisms
is sequence comparison. Words act left-to-right: artin_action(u * v) is
artin_action(u) followed by artin_action(v). Its words can grow exponentially
with the braid word.

The dense symplectic form is the reference for chaingroup.homology's
structured arithmetic: the matrix J built entry by entry, transvections as
I + eps*outer(c, Jc), pairing preservation as M^T J M == J, and inverses by
integer elimination (intmat.int_inverse).

The pair-table permutation search is the reference for
chaingroup.finite's search up to conjugacy: it tabulates, for every
permutation of k symbols, its braid partners and the permutations it
commutes with, and walks all tuples over those tables.

Not a test module: pytest does not collect it, the test modules import it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Iterable, Iterator, Sequence

from chaingroup import braids, homology, intmat
from chaingroup.braids import BraidWord
from chaingroup.homs import BraidHom
from chaingroup.intmat import Matrix


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
    if not homology.is_pairing_preserving(lat, v):
        raise ValueError("direction must preserve the pairing")
    for m in rep:
        if intmat.mat_mul(m, v) != intmat.mat_mul(v, m):
            raise ValueError("direction must commute with every matrix of the rep")
    return [intmat.mat_mul(m, v) for m in rep]


# ------------------------------------------------ dense symplectic form ----


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
    return intmat.mat_mul(intmat.mat_mul(intmat.transpose(m), J), m) == J


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
