"""Finite abelian quotients via Smith normal form, and permutation searches.

The quotient family takes r commuting generators and imposes three relation
shapes: a common torsion order M on each generator, a common order m on each
difference of two generators, and one aggregate relation making the d-th
power of the full product equal a power of the first generator. The group is
computed exactly as Z^r modulo the row lattice of those relations; its
cardinality comes out as (M/m) * d * m^(r-1).

The permutation side enumerates all tuples of permutations satisfying the
braid and commutation relations by a depth-first search that only pairs
permutations of one cycle type (images joined by braid relations are
conjugate).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from operator import itemgetter
from typing import Iterator, Sequence

from .intmat import Matrix, as_matrix


@dataclasses.dataclass(frozen=True)
class LnParams:
    """Parameters (r, M, m, d, s) of the abelian quotient on r generators.

    With M nonzero the divisibility constraints are: m and d nonzero, m | M,
    d | m, m | s, and M | (r - s/d) * m. The all-zero quadruple is the free
    group Z^r.
    """

    r: int
    M: int
    m: int
    d: int
    s: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("need at least 2 generators")
        if min(self.M, self.m, self.d, self.s) < 0:
            raise ValueError("parameters must be nonnegative")


def validate_params(p: LnParams) -> bool:
    """Check the divisibility constraints; the free all-zero case is valid."""
    if p.M == 0:
        return p.m == 0 and p.d == 0 and p.s == 0
    if p.m == 0 or p.d == 0:
        return False
    if p.M % p.m != 0 or p.m % p.d != 0 or p.s % p.m != 0:
        return False
    return ((p.r - p.s // p.d) * p.m) % p.M == 0


@dataclasses.dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors (each dividing the next) plus free rank."""

    factors: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        for a, b in itertools.pairwise(self.factors):
            if b % a != 0:
                raise ValueError(f"factors must form a divisibility chain: {self.factors}")

    def cardinality(self) -> int | None:
        """Group order, or None when the free rank is positive."""
        if self.free_rank > 0:
            return None
        return math.prod(self.factors)


def smith_normal_form(rows: Sequence[Sequence[int]]) -> AbelianInvariants:
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
    return AbelianInvariants(tuple(factors), ncols - len(factors))


def ln_params_rows(p: LnParams) -> Matrix:
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
    return as_matrix(rows)


def ln_group(p: LnParams) -> AbelianInvariants:
    """Invariant factors of the quotient; cardinality (M/m) * d * m^(r-1).

    Requires validate_params and positive torsion (M > 0); the cardinality
    formula is stated for m >= 2 but degrades correctly to the trivial
    quotient at m = 1.
    """
    if not validate_params(p):
        raise ValueError(f"invalid parameters {p}")
    if p.M <= 0:
        raise ValueError("group computation needs positive torsion M > 0")
    inv = smith_normal_form(ln_params_rows(p))
    if inv.free_rank != 0:
        raise RuntimeError(f"quotient for {p} has free rank {inv.free_rank}, expected finite")
    expected = (p.M // p.m) * p.d * p.m ** (p.r - 1)
    if inv.cardinality() != expected:
        raise RuntimeError(f"quotient for {p} has order {inv.cardinality()}, expected {expected}")
    return inv


@dataclasses.dataclass(frozen=True)
class PermRep:
    """Generator images in the symmetric group on {0..k-1}, relation-checked."""

    k: int
    images: tuple[tuple[int, ...], ...]

    def is_cyclic(self) -> bool:
        return all(g == self.images[0] for g in self.images[1:])


def _pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Composition: apply a first, then b."""
    if len(a) > 1:
        return itemgetter(*a)(b)
    # itemgetter with one index returns a scalar, not a tuple
    return tuple(b[x] for x in a)


def perm_rep_satisfies_relations(rep: PermRep) -> bool:
    """Each image braids with its predecessor and commutes with the distinct
    images two or more steps back: O(N * min(N, k!)) compositions, not O(N^2)."""
    gs = rep.images
    earlier: set[tuple[int, ...]] = set()
    for i in range(1, len(gs)):
        a, b = gs[i - 1], gs[i]
        if _pmul(_pmul(a, b), a) != _pmul(_pmul(b, a), b):
            return False
        if i >= 2:
            earlier.add(gs[i - 2])
        for c in earlier:
            if _pmul(c, b) != _pmul(b, c):
                return False
    return True


def enum_perm_reps(
    n: int, k: int, dedup_conjugacy: bool = False, budget: int | None = None
) -> list[PermRep]:
    """All (n-1)-tuples of permutations of k symbols obeying the relations.

    Depth-first search over generator images: each image must braid with its
    predecessor and commute with everything two or more steps back. If
    aba = bab then b = (ab) a (ab)^-1, so every image of a chain is conjugate
    to the first and only pairs inside one conjugacy class (one cycle type)
    are ever tested; commutation with earlier images is tracked as bit masks
    over the permutations. Results come in lexicographic order of image
    tuples; with dedup_conjugacy only the first tuple of each simultaneous
    conjugacy class, which is its lexicographic minimum, is kept.
    """
    if n < 3 or k < 1:
        raise ValueError("need n >= 3 strands and k >= 1 symbols")
    cap = budget if budget is not None else 6
    if k > cap:
        raise ValueError(f"symbol count {k} exceeds the search budget {cap}")

    perms = sorted(itertools.permutations(range(k)))
    size = len(perms)
    classes: dict[tuple[int, ...], list[int]] = {}  # cycle type -> permutations
    for i, p in enumerate(perms):
        classes.setdefault(tuple(sorted(map(len, cycles(p)))), []).append(i)

    braid_next: list[list[int]] = [[] for _ in range(size)]
    comm_mask = [0] * size
    for members in classes.values():
        for a in members:
            pa = perms[a]
            for b in members:
                pb = perms[b]
                ab = _pmul(pa, pb)
                ba = _pmul(pb, pa)
                if _pmul(ab, pa) == _pmul(ba, pb):
                    braid_next[a].append(b)
                if ab == ba:
                    comm_mask[a] |= 1 << b

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

    reps = [PermRep(k, tuple(perms[i] for i in tup)) for tup in sorted(results)]
    if dedup_conjugacy:
        inverses = [_inv(c) for c in perms]
        seen = set()
        out = []
        for rep in reps:
            if rep.images in seen:
                continue
            out.append(rep)
            seen.update(
                tuple(_pmul(_pmul(ci, g), c) for g in rep.images)
                for c, ci in zip(perms, inverses)
            )
        reps = out
    for rep in reps:
        if not perm_rep_satisfies_relations(rep):
            raise RuntimeError(f"enumerated tuple {rep.images} violates a braid relation")
    return reps


def cycles(p: Sequence[int]) -> list[tuple[int, ...]]:
    """The cycles of p, fixed points included, each starting at its least
    element and listed in order of that element."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        if cyc:
            out.append(tuple(cyc))
    return out


def _inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)
