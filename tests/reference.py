"""Reference code and fixture builders that only the tests use.

The faithful Artin action of B_n on the free group of rank n is the second
word-problem algorithm the tests check the Dynnikov oracle against: the
letter t_i sends x_i to x_i x_{i+1} x_i^{-1}, x_{i+1} to x_i, and fixes the
other generators. Images are kept freely reduced, so comparing automorphisms
is sequence comparison. Words act left-to-right: artin_action(u * v) is
artin_action(u) followed by artin_action(v). Its words can grow exponentially
with the braid word.

Not a test module: pytest does not collect it, the test modules import it.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

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
