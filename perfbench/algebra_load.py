"""The algebra-queries workload: homology, transvections and Smith normal form.

Rounds of fixed slots, as in oracle_load. Transvection representations are
built by the harness's own arithmetic: a chain of classes moved by a random
symplectic change of basis, a random sign, and a random commuting direction
(identity, minus identity, or the transvection along a class that pairs to
zero with the whole chain). extract_triple must return exactly that triple;
after one entry of one matrix is perturbed, the harness checks that the
matrix no longer preserves the pairing, so no triple can explain it. Smith
normal forms are checked against the order formula (M/m) d m^(r-1) and
against a determinant the harness computes, plus the divisibility chain.

Smith normal form slots are weighted so that it takes a visible share of
the run; without that, extract_triple takes nearly all of it.
"""

from __future__ import annotations

import math
import random

from chaingroup import finite, homology

import answers as A
from answers import known
from oracle_load import Query

TABLE1 = [(3, 3, 3), (3, 4, 4), (3, 5, 5), (4, 3, 3), (4, 4, 2), (4, 4, 4), (4, 5, 5)]


def _primitive(rng, rank):
    while True:
        v = [rng.randint(-2, 2) for _ in range(rank)]
        g = math.gcd(*v)
        if g:
            return tuple(x // g for x in v)


def _symplectic(rng, J):
    s = A.identity(len(J))
    for _ in range(6):
        s = A.transvect(J, _primitive(rng, len(J)), rng.choice((1, -1)), s)
    return s


def _moved_chain(rng, g, k):
    """A chain of k classes in a random symplectic basis, plus its direction."""
    J = A.pairing(g)
    while True:
        s = _symplectic(rng, J)
        chain = [A.apply(s, c) for c in A.standard_chain(g, k)]
        norm = [A.sign_normalized(c) for c in chain]
        if len(set(norm)) == len(norm):
            break
    for a, b in zip(chain, chain[1:]):
        known(abs(A.pair(J, a, b)) == 1, "consecutive classes pair to +-1")
    kind = rng.choice(("id", "neg", "orth"))
    direction = A.identity(2 * g)
    if kind == "neg":
        direction = tuple(tuple(-x for x in row) for row in direction)
    elif kind == "orth":
        std = A.standard_chain(g, k)
        free = [e for e in (A.identity(2 * g)) if all(A.pair(J, e, c) == 0 for c in std)]
        if free:
            direction = A.transvection(J, A.apply(s, rng.choice(free)), rng.choice((1, -1)))
    return J, chain, norm, direction


def _triple_input(rng, g):
    k = rng.randint(5, 2 * g + 1)
    eps = rng.choice((1, -1))
    J, chain, norm, direction = _moved_chain(rng, g, k)
    # transvections preserve the pairing, so the products do iff the direction does
    known(A.preserves(J, direction), "the direction preserves the pairing")
    ms = tuple(A.transvect(J, c, eps, direction) for c in chain)
    return ms, (tuple(norm), eps, direction)


def extract_round_trip(rng, g):
    ms, (norm, eps, direction) = _triple_input(rng, g)
    return Query("extract_triple", f"genus{g}", "triple", (g, ms), ("triple", norm, eps, direction))


def extract_perturbed(rng, g):
    ms, _ = _triple_input(rng, g)
    j = rng.randrange(len(ms))
    while True:  # a rare perturbation keeps the pairing; that one proves nothing
        r, c = rng.randrange(2 * g), rng.randrange(2 * g)
        bad = [list(row) for row in ms[j]]
        bad[r][c] += rng.choice((1, -1))
        bad = tuple(map(tuple, bad))
        if not A.preserves(A.pairing(g), bad):
            break
    ms = ms[:j] + (bad,) + ms[j + 1:]
    return Query("extract_triple", f"genus{g}", "not_recognized", (g, ms), ("not-recognized",))


def extract_cyclic(rng, g):
    m = _symplectic(rng, A.pairing(g))
    ms = (m,) * rng.randint(5, 2 * g + 1)
    return Query("extract_triple", f"genus{g}", "cyclic", (g, ms), ("cyclic",))


def monodromy(rng, g):
    k = rng.randint(2, 2 * g + 1)
    eps = rng.choice((1, -1))
    J, chain, _, _ = _moved_chain(rng, g, k)
    truth = tuple(A.transvection(J, c, eps) for c in chain)
    return Query("monodromy_rep", f"genus{g}", "matrices", (g, tuple(chain), eps), truth)


def chain_square(rng, g):
    k = rng.randint(2, 2 * g + 1)
    J, chain, _, _ = _moved_chain(rng, g, k)
    return Query("chain_product_square", f"genus{g}", "relation", (g, tuple(chain)), (True, True))


def ln_table1(rng, _):
    r_amb, p, d = rng.choice(TABLE1)
    data = (r_amb - 1, p, p, d, 0)
    return Query("ln_group", "table1", "order", data, (A.ln_order(r_amb - 1, p, p, d), 0))


def ln_random(rng, _):
    while True:
        r, m, q = rng.choice((3, 4, 5)), rng.randint(1, 6), rng.randint(1, 3)
        d = rng.choice([x for x in range(1, m + 1) if m % x == 0])
        s = m * rng.randint(0, 4)
        if A.ln_valid(r, q * m, m, d, s):
            return Query("ln_group", "random", "order", (r, q * m, m, d, s),
                         (A.ln_order(r, q * m, m, d), 0))


def snf_square(rng, size):
    rows = tuple(tuple(rng.randint(-9, 9) for _ in range(size)) for _ in range(size))
    return Query("smith_normal_form", f"size{size}", "factors", (rows,),
                 (abs(A.determinant(rows)), True))


# (maker, argument, every)
SLOTS = [
    (extract_round_trip, 3, 1),
    (extract_round_trip, 4, 1),
    (extract_round_trip, 5, 1),
    (extract_perturbed, 4, 1),
    (extract_cyclic, 3, 2),
    (monodromy, 4, 1),
    (chain_square, 4, 1),
    (ln_table1, None, 1),
    (ln_random, None, 1),
    (snf_square, 8, 1),
    (snf_square, 16, 1),
    (snf_square, 24, 1),
    (snf_square, 32, 1),
]


def make_round(rng: random.Random, r: int) -> list[Query]:
    out = [maker(rng, arg) for maker, arg, every in SLOTS if r % every == 0]
    rng.shuffle(out)
    return out


def _lattice(g):
    return homology.standard_lattice(g)


def _chain(vectors):
    return [homology.CurveClass(v) for v in vectors]


RUN = {
    "extract_triple": lambda g, ms: homology.extract_triple(_lattice(g), [list(m) for m in ms]),
    "monodromy_rep": lambda g, chain, eps: homology.monodromy_rep(_lattice(g), _chain(chain), eps),
    "chain_product_square": lambda g, chain: homology.chain_product_square(
        _lattice(g), _chain(chain)
    ),
    "ln_group": lambda *p: finite.ln_group(finite.LnParams(*p)),
    "smith_normal_form": lambda rows: finite.smith_normal_form([list(r) for r in rows]),
}


def _divides_in_chain(factors) -> bool:
    return all(b % a == 0 for a, b in zip(factors, factors[1:]))


def verdict(q: Query, result) -> object:
    """The comparable verdict, computed by the harness outside the timed call."""
    if q.kind == "extract_triple":
        if isinstance(result, homology.TransvectionTriple):
            return ("triple", tuple(c.v for c in result.chain), result.epsilon,
                    tuple(map(tuple, result.direction)))
        return ("cyclic",) if isinstance(result, homology.CyclicVerdict) else ("not-recognized",)
    if q.kind == "monodromy_rep":
        return tuple(tuple(map(tuple, m)) for m in result)
    if q.kind == "chain_product_square":
        g, chain = q.data
        J = A.pairing(g)
        sign = -1 if len(chain) % 2 == 0 else 1
        fixes = all(A.apply(result, c) == tuple(sign * x for x in c) for c in chain)
        return (fixes, A.preserves(J, result))
    order = math.prod(result.factors) if result.free_rank == 0 else 0
    if q.kind == "ln_group":
        return (order, result.free_rank)
    return (order, _divides_in_chain(result.factors))
