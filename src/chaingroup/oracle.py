"""Exact word-problem oracle for the braid group.

A word is the trivial braid iff its action on Dynnikov coordinates fixes
(0, 1) * n (see chaingroup.kernel.dynnikov; I. Dynnikov, Russ. Math. Surveys
57 (2002)). Equality, centrality and relation checks all reduce to that test.

The faithful Artin action on the free group of rank n is kept as the
reference the tests check the oracle against: the letter t_i sends x_i to
x_i x_{i+1} x_i^{-1}, x_{i+1} to x_i, and fixes the other generators. Images
are kept freely reduced, so comparing automorphisms is sequence comparison.
Words act left-to-right: artin_action(u * v) = artin_action(u) followed by
artin_action(v).
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from . import kernel
from .braids import BraidWord, reduce_letters


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
    return FreeAutomorphism(w.n, kernel.apply_letters(w.n, w.letters, identity_images(w.n)))


def compose(f: FreeAutomorphism, g: FreeAutomorphism) -> FreeAutomorphism:
    """The automorphism acting as f first, then g."""
    if f.n != g.n:
        raise ValueError("rank mismatch")
    return FreeAutomorphism(f.n, tuple(g.apply(w) for w in f.images))


def is_identity(w: BraidWord) -> bool:
    """True iff the word represents the trivial braid."""
    start = (0, 1) * w.n
    return kernel.dynnikov(w.letters, start) == start


def are_equal(u: BraidWord, v: BraidWord) -> bool:
    """True iff the two words represent the same braid."""
    if u.n != v.n:
        raise ValueError(f"strand counts differ: {u.n} vs {v.n}")
    return is_identity(u * v.inverse())


def is_central(w: BraidWord) -> bool:
    """True iff the word commutes with every standard generator."""
    n = w.n
    for i in range(1, n):
        t = BraidWord(n, (i,))
        if not is_identity(w * t * w.inverse() * t.inverse()):
            return False
    return True


def verify_candidate_hom(n: int, images: Mapping[int, BraidWord]) -> bool:
    """Check that generator images satisfy all braid and commutation relations.

    images maps each source generator index 1..n-1 to a word in the target
    group; all words must share a strand count.
    """
    if set(images) != set(range(1, n)):
        raise ValueError(f"images must be defined exactly for indices 1..{n - 1}")
    target_n = {w.n for w in images.values()}
    if len(target_n) != 1:
        raise ValueError("image words live in different braid groups")
    for i in range(1, n):
        for j in range(i + 1, n):
            u, v = images[i], images[j]
            if j - i == 1:
                if not are_equal(u * v * u, v * u * v):
                    return False
            else:
                if not are_equal(u * v, v * u):
                    return False
    return True
