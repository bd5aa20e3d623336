"""Pure-Python inner loop of the braid word problem.

dynnikov decides it for the oracle: B_n acts on Z^{2n} by piecewise-linear
maps, and a word is the trivial braid iff it fixes (0, 1) * n (I. Dynnikov,
Russ. Math. Surveys 57 (2002); Dehornoy, Dynnikov, Rolfsen and Wiest,
"Ordering Braids", AMS 2008). Each letter costs O(1) big-integer operations.
"""

from __future__ import annotations

from typing import Sequence


def backend() -> str:
    """Name of the kernel implementation; there is only the pure-Python one."""
    return "python"


def dynnikov(letters: Sequence[int], coords: Sequence[int]) -> tuple[int, ...]:
    """Act on Dynnikov coordinates (a_1, b_1, ..., a_n, b_n) by braid letters.

    The first letter acts first. The letter i (1 <= i <= n-1) changes only
    the pairs i and i+1: with x^+ = max(x, 0), x^- = min(x, 0) and
    t = a_i - b_i^- - a_{i+1} + b_{i+1}^+, it sets

        a_i'     = a_i + b_i^+ + (b_{i+1}^+ - t)^+,   b_i'     = b_{i+1} - t^+,
        a_{i+1}' = a_{i+1} + b_{i+1}^- + (b_i^- + t)^-,   b_{i+1}' = b_i + t^+.

    The letter -i applies the inverse map.
    """
    x = list(coords)
    n = len(x) // 2
    for s in letters:
        i = abs(s)
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter {s} out of range for rank {n}")
        k = 2 * i - 2
        a1, b1, a2, b2 = x[k:k + 4]
        p1, m1, p2, m2 = max(b1, 0), min(b1, 0), max(b2, 0), min(b2, 0)
        if s > 0:
            t = a1 - m1 - a2 + p2
            x[k:k + 4] = (a1 + p1 + max(p2 - t, 0), b2 - max(t, 0),
                          a2 + m2 + min(m1 + t, 0), b1 + max(t, 0))
        else:
            t = a1 + m1 - a2 - p2
            x[k:k + 4] = (a1 - p1 - max(p2 + t, 0), b2 + min(t, 0),
                          a2 - m2 - min(m1 - t, 0), b1 - min(t, 0))
    return tuple(x)

