"""The oracle-queries workload: braid word problems with known answers.

Queries come in rounds. Every round holds the same slots (kind, bucket), each
filled with fresh random words from the seed, so every run sees the same mix
however far it gets. About half the verdicts are known trivial by
construction (conjugated relators, relation-rewritten copies, full-twist
powers, the four word sets of benchmarks/bench_kernel.py) and about half
known non-trivial (a different exponent sum, a non-identity permutation
image, or a conjugate of the commutator [s_i^2, s_{i+1}^2], which is
non-trivial because s_i^2 and s_{i+1}^2 generate a free group).

Conjugator lengths come in three buckets. The Artin-action oracle rewrites
free-group words whose length grows exponentially with the conjugator, so
the long bucket shows that growth; trivial words collapse on the way back,
so their lengths are about twice those of the non-trivial ones for a
comparable cost. Long conjugators act on 5 to 8 strands: fewer strands
stretch faster per letter, and on 3 or 4 strands a long word now and then
takes a second, so a run's throughput depended on which few words the seed
drew (per-query cost variance 10-30x that on 5 or more strands).
"""

from __future__ import annotations

import dataclasses
import random

from chaingroup import homs, oracle
from chaingroup.braids import BraidWord

import answers as A
from answers import known

NONTRIVIAL_LEN = {"short": 4, "mid": 8, "long": 13}
TRIVIAL_LEN = {"short": 8, "mid": 16, "long": 30}
MIN_STRANDS = {"short": 3, "mid": 3, "long": 5}
# Queries built from generator images (homomorphisms, full twists) conjugate
# by a short fixed-length word and go in the "fixed" bucket: their cost comes
# from the images, not from the conjugator.
IMAGE_CONJ_LEN = 2


@dataclasses.dataclass
class Query:
    """One call into the library: plain input data and the known verdict."""

    kind: str
    bucket: str
    answer: str  # "trivial" when every relation check in it holds
    data: tuple
    truth: object


def _q(kind, bucket, truth, *data) -> Query:
    trivial = truth is True or not isinstance(truth, bool)
    return Query(kind, bucket, "trivial" if trivial else "nontrivial", data, truth)


# ----------------------------------------------------------------- makers --


def _strands(rng, bucket) -> int:
    return rng.randint(MIN_STRANDS[bucket], 8)


def conjugated_relator(rng, bucket):
    n = _strands(rng, bucket)
    g = A.reduced_word(rng, n, TRIVIAL_LEN[bucket])
    w = g + A.random_relator(rng, n) + A.inverse(g)
    return _q("is_identity", bucket, True, n, w)


def commutator_conjugate(rng, bucket):
    n = _strands(rng, bucket)
    i = rng.randint(1, n - 2)
    c = (i, i, i + 1, i + 1, -i, -i, -(i + 1), -(i + 1))
    g = A.reduced_word(rng, n, NONTRIVIAL_LEN[bucket])
    w = g + c + A.inverse(g)
    known(A.exponent(w) == 0 and A.is_pure(n, w), "commutator conjugate is pure")
    return _q("is_identity", bucket, False, n, w)


def permuting_conjugate(rng, bucket):
    n = _strands(rng, bucket)
    i, j = rng.sample(range(1, n), 2) if n > 3 else (1, 2)
    g = A.reduced_word(rng, n, NONTRIVIAL_LEN[bucket])
    w = g + (i, -j) + A.inverse(g)
    known(not A.is_pure(n, w), "permutation image is not the identity")
    return _q("is_identity", bucket, False, n, w)


def rewritten_copy(rng, bucket):
    n = _strands(rng, bucket)
    u = A.reduced_word(rng, n, TRIVIAL_LEN[bucket])
    return _q("are_equal", bucket, True, n, u, A.rewrite(rng, n, u, 3))


def shifted_exponent(rng, bucket):
    n = _strands(rng, bucket)
    u = A.reduced_word(rng, n, NONTRIVIAL_LEN[bucket])
    v = list(A.rewrite(rng, n, u, 2))
    v.insert(rng.randint(0, len(v)), rng.choice((1, -1)) * rng.randint(1, n - 1))
    known(A.exponent(u) != A.exponent(v), "exponent sums differ")
    return _q("are_equal", bucket, False, n, u, tuple(v))


def central_conjugate(rng, bucket):
    n = rng.randint(3, 6)
    twist = A.garside(n) * 2 if rng.random() < 0.5 else A.flip(n) * n
    g = A.reduced_word(rng, n, IMAGE_CONJ_LEN)
    return _q("is_central", bucket, True, n, g + twist + A.inverse(g))


def noncentral(rng, bucket):
    n = _strands(rng, bucket)
    g = A.reduced_word(rng, n, NONTRIVIAL_LEN[bucket])
    w = g + (rng.randint(1, n - 1),) + A.inverse(g)
    # the centre of S_n is trivial for n >= 3, so a non-identity image is not central
    known(not A.is_pure(n, w), "permutation image is not the identity")
    return _q("is_central", bucket, False, n, w)


def _conjugated_images(rng, n, m):
    g = A.reduced_word(rng, m, IMAGE_CONJ_LEN)
    return tuple(g + (i,) + A.inverse(g) for i in range(1, n))


def hom_candidate(rng, bucket):
    n = rng.randint(3, 5)
    m = rng.randint(n, 7)
    return _q("verify_candidate_hom", bucket, True, n, m, _conjugated_images(rng, n, m))


def broken_hom_candidate(rng, bucket):
    n = rng.randint(3, 5)
    m = rng.randint(n, 7)
    images = list(_conjugated_images(rng, n, m))
    j = rng.randrange(2)
    images[j] = images[j] * 2
    u, v = images[0], images[1]
    known(A.exponent(u + v + u) != A.exponent(v + u + v), "first braid relation fails")
    return _q("verify_candidate_hom", bucket, False, n, m, tuple(images))


def theorem4(rng, bucket):
    n = rng.randint(6, 7)
    g = A.reduced_word(rng, n, IMAGE_CONJ_LEN)
    eps, k = rng.choice((1, -1)), rng.randint(0, 1)
    central = A.garside(n) * (2 * k)
    truth = tuple(g + (i * eps,) + A.inverse(g) + central for i in range(1, n))
    return _q("theorem4_endo", bucket, truth, n, g, eps, k)


def cable_query(k):
    # every image crosses two width-k cables (k^2 letters) and adds one
    # internal half twist; the half twist of B_3 goes to that of B_3k
    truth = ((k * k + k * (k - 1) // 2,) * 2, A.permutation(3 * k, A.garside(3 * k)))
    return _q("cabling_b3", "fixed", truth, k)


def cabling(rng, bucket):
    return cable_query(rng.randint(1, 4))


def cyclic_hom(rng, bucket):
    n = rng.randint(3, 5)
    m = rng.randint(3, 6)
    w = A.reduced_word(rng, m, IMAGE_CONJ_LEN)
    images = tuple(A.rewrite(rng, m, w, 1) for _ in range(n - 1))
    return _q("cyclic_test", bucket, True, n, m, images)


def noncyclic_hom(rng, bucket):
    n = rng.randint(3, 5)
    m = rng.randint(n, 7)
    images = _conjugated_images(rng, n, m)
    known(A.permutation(m, images[0]) != A.permutation(m, images[1]), "images permute differently")
    return _q("cyclic_test", bucket, False, n, m, images)


# The four word sets of benchmarks/bench_kernel.py, as trivial is_identity
# queries.


def index_shift(rng, bucket):
    n = rng.randint(3, 8)
    i = rng.randrange(n)
    d = A.flip(n)
    w = d + A.generator(n, i) + A.inverse(d) + A.inverse(A.generator(n, i + 1))
    return _q("is_identity", "fixed", True, n, w)


def half_twist_centrality(rng, bucket):
    n, i = 8, rng.randint(1, 7)
    h2 = A.garside(n) * 2
    return _q("is_identity", "fixed", True, n, h2 + (i,) + A.inverse(h2) + (-i,))


def cable_half_twist(rng, bucket):
    return cable_query(3)


def endomorphism_relation(rng, bucket):
    n = 6
    letters = [i for i in range(-(n - 1), n) if i]
    g = tuple(rng.choice(letters) for _ in range(10))
    h2 = A.garside(n) * 2
    i = rng.randint(1, n - 2)
    u = g + (i,) + A.inverse(g) + h2
    v = g + (i + 1,) + A.inverse(g) + h2
    return _q("is_identity", "fixed", True, n, u + v + u + A.inverse(v + u + v))


def pseudo_anosov_power(rng, bucket):
    """w = (s_1 s_2^-1)^14, whose Artin images reach about 2 M letters on any
    number of strands; non-trivial, as its permutation image is a 3-cycle.
    It runs once per run (round 0), so the run's peak memory shows the
    blow-up rather than whichever random word happened to be worst. The pair
    is s_1, s_2 on 4 to 8 strands because the last pair, s_{n-2} s_{n-1}^-1,
    peaks about 3 MiB higher, which made the peak depend on the seed."""
    n = rng.randint(4, 8)
    w = (1, -2) * 14
    known(not A.is_pure(n, w), "permutation image is not the identity")
    return _q("is_identity", "fixed", False, n, w)


# (maker, bucket, every): the slot is filled in rounds r with r % every == 0.
SLOTS = [
    (conjugated_relator, "short", 1),
    (conjugated_relator, "mid", 1),
    (conjugated_relator, "long", 1),
    (commutator_conjugate, "short", 1),
    (commutator_conjugate, "mid", 1),
    (commutator_conjugate, "long", 1),
    (permuting_conjugate, "short", 1),
    (permuting_conjugate, "mid", 1),
    (rewritten_copy, "short", 1),
    (rewritten_copy, "mid", 1),
    (rewritten_copy, "long", 1),
    (shifted_exponent, "short", 1),
    (shifted_exponent, "mid", 1),
    (central_conjugate, "fixed", 1),
    (noncentral, "short", 1),
    (hom_candidate, "fixed", 1),
    (broken_hom_candidate, "fixed", 1),
    (theorem4, "fixed", 2),
    (cabling, "fixed", 2),
    (cyclic_hom, "fixed", 1),
    (noncyclic_hom, "fixed", 1),
    (index_shift, "fixed", 1),
    (half_twist_centrality, "fixed", 2),
    (cable_half_twist, "fixed", 4),
    (endomorphism_relation, "fixed", 2),
    (pseudo_anosov_power, "fixed", 10**9),
]


def make_round(rng: random.Random, r: int) -> list[Query]:
    out = [maker(rng, bucket) for maker, bucket, every in SLOTS if r % every == 0]
    rng.shuffle(out)
    return out


# --------------------------------------------------------------- execution --


def _word(n, letters):
    return BraidWord(n, letters)


def _hom(n, m, images):
    return homs.BraidHom(n, m, tuple(BraidWord(m, w) for w in images))


RUN = {
    "is_identity": lambda n, w: oracle.is_identity(_word(n, w)),
    "are_equal": lambda n, u, v: oracle.are_equal(_word(n, u), _word(n, v)),
    "is_central": lambda n, w: oracle.is_central(_word(n, w)),
    "verify_candidate_hom": lambda n, m, images: oracle.verify_candidate_hom(
        n, {i + 1: BraidWord(m, w) for i, w in enumerate(images)}
    ),
    "theorem4_endo": lambda n, g, eps, k: homs.theorem4_endo(n, _word(n, g), eps, k),
    "cabling_b3": lambda k: homs.cabling_b3(k),
    "cyclic_test": lambda n, m, images: homs.cyclic_test(_hom(n, m, images)),
}


def verdict(q: Query, result) -> object:
    """The comparable verdict, computed by the harness outside the timed call."""
    if q.kind == "theorem4_endo":
        return tuple(w.letters for w in result.images)
    if q.kind == "cabling_b3":
        return cable_invariants(result.m, tuple(w.letters for w in result.images))
    return result


def cable_invariants(m: int, images) -> tuple:
    """Exponent sums of the images, and the permutation image of the half twist's image."""
    return (tuple(A.exponent(w) for w in images),
            A.permutation(m, A.substitute(images, A.garside(3))))
