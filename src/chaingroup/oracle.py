"""Exact word-problem oracle for the braid group.

A word is the trivial braid iff its action on Dynnikov coordinates fixes
(0, 1) * n (see chaingroup.kernel.dynnikov; I. Dynnikov, Russ. Math. Surveys
57 (2002)). Equality, centrality and relation checks all reduce to that test.
"""

from __future__ import annotations

from typing import Mapping

from . import kernel
from .braids import BraidWord


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
