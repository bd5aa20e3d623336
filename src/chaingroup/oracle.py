"""Exact word-problem oracle for the braid group.

A word is the trivial braid iff its action on Dynnikov coordinates fixes
(0, 1) * n (see chaingroup.kernel.dynnikov; I. Dynnikov, Russ. Math. Surveys
57 (2002)). Equality, centrality and relation checks all reduce to that test.
Centrality is decided through the centre <Delta^2> of B_n (n >= 3): one
identity check of O(|w|) letters, not one commutator per generator.
"""

from __future__ import annotations

from typing import Mapping

from . import braids, kernel
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
    """True iff the word commutes with every braid on its strands.

    For n >= 3 the centre of B_n is generated by Delta^2, the square of the
    half twist (W.-L. Chow, Ann. of Math. 49, 1948), and B_2 = <t_1> is
    abelian. Delta^2 has exponent sum n(n-1), and the exponent sum e is a
    homomorphism to Z, so w is central exactly when n(n-1) divides e and
    w * Delta^(-2e/(n(n-1))) is trivial. The power has |e| <= |w| letters, so
    this is one identity check of at most 2|w| letters, O(|w|), where
    commuting w with each generator takes n - 1 checks of 2|w| + 2 letters,
    O(n|w|). A word whose e is not a multiple of n(n-1) never reaches the
    kernel.
    """
    n = w.n
    if n == 2:
        return True
    q, r = divmod(braids.exponent(w), n * (n - 1))
    return r == 0 and is_identity(w * braids.garside(n) ** (-2 * q))


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
