"""Finite abelian quotients via Smith normal form, and permutation searches.

The quotient family takes r commuting generators e_1..e_r and imposes three
relation shapes: a common torsion order M on each generator, a common order
m on each difference of two generators, and one aggregate relation making
the d-th power of the full product equal the s-th power of the first
generator. A change of basis reduces the quotient, for every r, to one Smith
normal form of a 3 x 2 block (see ln_group): Euclid steps clear each
pivot's row and column, and (a, b) -> (gcd, lcm) turns the diagonal into the
invariant factors. Its cardinality comes out as (M/m) * d * m^(r-1).

The permutation side finds the tuples of permutations of k symbols that
satisfy the braid and commutation relations, up to simultaneous conjugacy.
Images joined by a braid relation are conjugate, so all images of a tuple
share one cycle type, and every tuple is conjugate to one whose first image
is the least permutation x of that type. A depth-first search finds only
those. It scans the class once, for the braid partners of x and the members
commuting with x, and gets those of every other image c x c^-1 it reaches
by conjugating with c, as braiding and commuting are conjugation-invariant.
Conjugation by c also maps the tuples starting at x one-to-one onto those
starting at c x c^-1, so the total is the sum over cycle types of
|class(x)| times the number found from x; the full list is built only when
it is printed.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Sequence

from . import PRINT_MAX_BITS, Record, cycles


class LnParams(Record):
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


class AbelianInvariants(Record):
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
    """Invariant factors of Z^cols modulo the row lattice.

    Step t takes the least nonzero entry of row t and column t (from (t, t)
    on) as pivot, or any nonzero entry of the remaining block when both are
    clear, and moves it to (t, t). Floor-quotient subtraction then leaves
    remainders smaller than the pivot below it and after it, so repeating
    clears row t and column t. The diagonal becomes a divisibility chain by
    (a, b) -> (gcd, lcm), as Z/a + Z/b = Z/gcd + Z/lcm.
    """
    a = [list(map(int, row)) for row in rows]
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("rows must have equal length")
    diag = []
    for t in range(min(len(a), ncols)):
        line = [(i, t) for i in range(t, len(a)) if a[i][t]]
        line += [(t, j) for j in range(t + 1, ncols) if a[t][j]]
        if not line:
            block = ((i, j) for i in range(t, len(a)) for j in range(t, ncols) if a[i][j])
            line = list(itertools.islice(block, 1))
            if not line:
                break
        while line:
            pi, pj = min(line, key=lambda p: abs(a[p[0]][p[1]]))
            a[t], a[pi] = a[pi], a[t]
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]
            top = a[t]
            piv = top[t]
            for row in a[t + 1:]:
                if row[t]:
                    q = row[t] // piv
                    row[t:] = [x - q * y for x, y in zip(row[t:], top[t:])]
            for j in range(t + 1, ncols):
                if top[j]:
                    q = top[j] // piv
                    for row in a[t:]:
                        row[j] -= q * row[t]
            line = [(i, t) for i in range(t + 1, len(a)) if a[i][t]]
            line += [(t, j) for j in range(t + 1, ncols) if top[j]]
        diag.append(abs(piv))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return AbelianInvariants(tuple(diag), ncols - len(diag))


# Bounds the length of the answer's factors= field, which lists r factors; the
# computation is one 3 x 2 Smith normal form for every r.
LN_MAX_GENERATORS = 200


def ln_group(p: LnParams) -> AbelianInvariants:
    """Invariant factors of the quotient; cardinality (M/m) * d * m^(r-1).

    Requires validate_params, positive torsion (M > 0), at most
    LN_MAX_GENERATORS generators and an order of at most PRINT_MAX_BITS
    bits, checked before any power is computed: as m <= 2^bitlen(m - 1),
    the order has at most bitlen(dM/m) + (r-1)*bitlen(m - 1) bits. In the
    basis f_1 = e_1, f_i = e_i - e_1, then g_2 = f_2 + ... + f_r, the
    relations span M f_1, m f_i and (dr - s) f_1 + d g_2; the rows M e_i
    (i >= 2) are redundant as m | M. So the quotient is
    Z^2/<(M, 0), (0, m), (dr - s, d)> + (Z/m)^(r-2), and the
    3 x 2 block's invariant factors (a, b), with a | m | b, close the chain
    (a, m, ..., m, b). The block's 2 x 2 minors Mm, Md, m(dr - s) are where
    the validity condition M | m(r - s/d) enters: it makes (a, b) = (d, M).
    """
    if not validate_params(p):
        raise ValueError(f"invalid parameters {p}")
    if p.M <= 0:
        raise ValueError("group computation needs positive torsion M > 0")
    if p.r > LN_MAX_GENERATORS:
        raise ValueError(f"quotients take at most {LN_MAX_GENERATORS} generators, got {p.r}")
    if (p.d * p.M // p.m).bit_length() + (p.r - 1) * (p.m - 1).bit_length() > PRINT_MAX_BITS:
        raise ValueError(f"quotient order would exceed {PRINT_MAX_BITS} bits")
    block = smith_normal_form([[p.M, 0], [0, p.m], [p.d * p.r - p.s, p.d]])
    if block.free_rank != 0:
        raise RuntimeError(f"quotient for {p} has free rank {block.free_rank}, expected finite")
    a, b = block.factors
    if p.r > 2 and (p.m % a or b % p.m):
        raise RuntimeError(f"quotient for {p} breaks the chain {a} | {p.m} | {b}")
    inv = AbelianInvariants((a,) + (p.m,) * (p.r - 2) + (b,), 0)
    expected = (p.M // p.m) * p.d * p.m ** (p.r - 1)
    if inv.cardinality() != expected:
        raise RuntimeError(f"quotient for {p} has order {inv.cardinality()}, expected {expected}")
    return inv


class PermRep(Record):
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


def _braids(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return _pmul(_pmul(a, b), a) == _pmul(_pmul(b, a), b)


def perm_rep_satisfies_relations(rep: PermRep) -> bool:
    """Each image braids with its predecessor and commutes with the distinct
    images two or more steps back: O(N * min(N, k!)) compositions, not O(N^2)."""
    gs = rep.images
    earlier: set[tuple[int, ...]] = set()
    for i in range(1, len(gs)):
        a, b = gs[i - 1], gs[i]
        if not _braids(a, b):
            return False
        if i >= 2:
            earlier.add(gs[i - 2])
        for c in earlier:
            if _pmul(c, b) != _pmul(b, c):
                return False
    return True


def _conjugacy_classes(k: int) -> list[list[tuple[int, ...]]]:
    """The classes of S_k, one per cycle type, each in lexicographic order and
    listed in order of their least members."""
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for p in itertools.permutations(range(k)):
        classes.setdefault(tuple(sorted(map(len, cycles(p)))), []).append(p)
    return list(classes.values())


def _chains_from(
    members: list[tuple[int, ...]], length: int
) -> list[tuple[tuple[int, ...], ...]]:
    """Every chain of `length` images whose first image is x = members[0], in
    lexicographic order.

    Depth-first search on an explicit stack: a chain grows in place, and
    each image must braid with its predecessor and commute with every image
    two or more steps back, that is, lie in the intersection of their
    commuting sets. The class is scanned once, for the braid partners of x
    and the members commuting with x. For an image a = c x c^-1 the search
    reaches, with c = _conjugator(x, a), those of a are the conjugates by c
    of those of x: b braids (commutes) with a exactly when c^-1 b c braids
    (commutes) with x. Partners are sorted, so chains come out in
    lexicographic order.
    """
    x = members[0]
    x_partners = [b for b in members if _braids(x, b)]
    x_commuting = [b for b in members if _pmul(x, b) == _pmul(b, x)]
    tables = {x: (x_partners, set(x_commuting))}

    def table(a: tuple[int, ...]) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
        """The sorted braid partners of a, and the members commuting with a."""
        if a not in tables:
            c = _conjugator(x, a)
            tables[a] = (sorted(_conjugate(x_partners, c)), set(_conjugate(x_commuting, c)))
        return tables[a]

    found = []
    chain = [x]
    stack = [iter(x_partners)]  # stack[d] yields candidates for chain[d + 1] ...
    allowed = [set(members)]  # ... which must lie in allowed[d]
    while stack:
        b = next(stack[-1], None)
        if b is None:
            stack.pop()
            allowed.pop()
            chain.pop()
            continue
        if b not in allowed[-1]:
            continue
        if len(chain) == length - 1:
            found.append((*chain, b))
            continue
        allowed.append(allowed[-1] & table(chain[-1])[1])
        chain.append(b)
        stack.append(iter(table(b)[0]))
    return found


# The permutation search's default symbol budget; CHAINGROUP_BUDGET overrides it
# on the command line.
PERM_SEARCH_BUDGET = 6


def perm_rep_classes(
    n: int, k: int, budget: int = PERM_SEARCH_BUDGET
) -> list[tuple[list[tuple[int, ...]], list[PermRep]]]:
    """The (n-1)-tuples obeying the relations, up to simultaneous conjugacy.

    One entry per conjugacy class of S_k, in order of least member x: the
    class, and every relation-checked tuple whose first image is x, in
    lexicographic order. Every tuple is conjugate to one of these; the
    tuples starting at x are exactly the conjugates of these by the
    centralizer of x.
    """
    if n < 3 or k < 1:
        raise ValueError("need n >= 3 strands and k >= 1 symbols")
    if k > budget:
        raise ValueError(f"symbol count {k} exceeds the search budget {budget}")
    out = []
    for members in _conjugacy_classes(k):
        reps = [PermRep(k, images) for images in _chains_from(members, n - 1)]
        for rep in reps:
            if not perm_rep_satisfies_relations(rep):
                raise RuntimeError(f"enumerated tuple {rep.images} violates a braid relation")
        out.append((members, reps))
    return out


def count_perm_reps(n: int, k: int, budget: int = PERM_SEARCH_BUDGET) -> tuple[int, int]:
    """(count, cyclic) of the tuples enum_perm_reps(n, k) lists, without
    listing them.

    Conjugation by c maps the tuples starting at x one-to-one onto those
    starting at c x c^-1, so each class contributes its size times the
    number of tuples starting at its least member.
    """
    count = cyclic = 0
    for members, reps in perm_rep_classes(n, k, budget):
        count += len(members) * len(reps)
        cyclic += len(members) * sum(1 for r in reps if r.is_cyclic())
    return count, cyclic


def enum_perm_reps(
    n: int, k: int, dedup_conjugacy: bool = False, budget: int = PERM_SEARCH_BUDGET
) -> list[PermRep]:
    """All (n-1)-tuples of permutations of k symbols obeying the relations.

    Each image must braid with its predecessor and commute with everything
    two or more steps back. If aba = bab then b = (ab) a (ab)^-1, so all
    images of a tuple share one cycle type. perm_rep_classes finds the
    tuples starting at each class's least member x; conjugating them by one
    c with c x c^-1 = y for each y of the class gives every tuple exactly
    once. Simultaneous conjugation preserves every relation, so only the
    tuples perm_rep_classes returns are relation-checked, not their
    conjugates. Results come in lexicographic order of image tuples. With
    dedup_conjugacy only the least tuple of each simultaneous conjugacy
    class is kept: it starts at x, and it is the least of its conjugates by
    the centralizer of x.
    """
    found = []
    for members, reps in perm_rep_classes(n, k, budget):
        x = members[0]
        if dedup_conjugacy:
            centralizer = [
                c for c in itertools.permutations(range(k)) if _conjugate((x,), c) == (x,)
            ]
            seen: set[tuple[tuple[int, ...], ...]] = set()
            for rep in reps:
                if rep.images not in seen:
                    found.append(rep.images)
                    seen.update(_conjugate(rep.images, c) for c in centralizer)
        else:
            for y in members:
                c = _conjugator(x, y)
                found.extend(_conjugate(rep.images, c) for rep in reps)
    return [PermRep(k, images) for images in sorted(found)]


def _conjugate(
    images: Sequence[tuple[int, ...]], c: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Each image g replaced by c g c^-1, which sends c[i] to c[g[i]]."""
    ci = _inv(c)
    return tuple(_pmul(_pmul(ci, g), c) for g in images)


def _conjugator(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """A permutation c with c x c^-1 = y, for x and y of one cycle type: it
    maps each cycle of x onto a cycle of y of the same length."""
    c = [0] * len(x)
    for cx, cy in zip(sorted(cycles(x), key=len), sorted(cycles(y), key=len)):
        for i, j in zip(cx, cy):
            c[i] = j
    return tuple(c)


def _inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)
