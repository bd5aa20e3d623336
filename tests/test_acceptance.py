"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria 1, 4, 5, 6 and 8 run the same suites as `chaingroup suite`.
All checks are exact (integer or rational arithmetic, oracle-verified braid
identities); no tolerances are involved anywhere.
"""

import random
import time

from chaingroup import braids, homology, homs, intmat, oracle, suites
from chaingroup.braids import BraidWord
from reference import apply_transvection, kernel_basis, negated


def _report(tag, started):
    print(f"ACCEPTANCE {tag}: PASS ({time.perf_counter() - started:.2f}s)")


def _assert_suite_passes(name):
    """Run a named suite at budget 8, where no item is skipped."""
    items = suites.SUITES[name](8)
    assert [label for label, ok in items if ok is not True] == []


def test_01_braid_identity_suite():
    started = time.perf_counter()
    _assert_suite_passes("identities")
    _report("1 braid-identity-suite", started)


def test_02_cabling():
    started = time.perf_counter()
    for k in (1, 2, 3):
        h = homs.cabling_b3(k)
        assert oracle.verify_candidate_hom(3, {1: h.images[0], 2: h.images[1]})
        assert oracle.are_equal(h.apply(braids.garside(3)), braids.garside(3 * k)), k
    _report("2 cabling", started)


def test_03_conjugated_power_endomorphisms():
    started = time.perf_counter()
    n = 6
    rng = random.Random(1234)
    nonzero = [i for i in range(-(n - 1), n) if i != 0]
    for _ in range(20):
        gamma = BraidWord(n, tuple(rng.choice(nonzero) for _ in range(rng.randint(0, 10))))
        eps = rng.choice([1, -1])
        k = rng.choice([-1, 0, 1])
        h = homs.theorem4_endo(n, gamma, eps, k)  # constructor verifies relations
        assert not homs.cyclic_test(h)
    _report("3 endomorphism-family", started)


def test_04_quotient_cardinalities():
    started = time.perf_counter()
    _assert_suite_passes("table1")
    assert suites.random_quotients_ok(777)
    _report("4 quotient-cardinalities", started)


def test_05_permutation_suite():
    started = time.perf_counter()
    _assert_suite_passes("perm")
    _report("5 permutation-suite", started)


def test_06_graph_suite():
    started = time.perf_counter()
    _assert_suite_passes("graphs")
    _report("6 graph-suite", started)


def test_07_homology_suite():
    started = time.perf_counter()
    for g in (2, 3, 4):
        lat = homology.standard_lattice(g)
        for k in range(2, 2 * g + 2):
            chain = homology.build_chain(lat, k)
            ms = homology.monodromy_rep(lat, chain, 1)  # verifies relations
            for m in ms:
                assert homology.is_pairing_preserving(lat, m)
            sq = homology.chain_product_square(lat, chain)
            if k % 2 == 0:
                for c in chain:
                    assert intmat.mat_vec(sq, c.v) == tuple(-x for x in c.v), (g, k)
            else:
                for c in chain:
                    assert intmat.mat_vec(sq, c.v) == c.v, (g, k)

    rng = random.Random(4096)
    done = 0
    while done < 100:
        g = rng.choice([3, 4])
        lat = homology.standard_lattice(g)
        k = rng.randint(5, 2 * g + 1)
        s = intmat.identity(lat.rank)
        for _ in range(6):
            v = [rng.randint(-2, 2) for _ in range(lat.rank)]
            if not any(v):
                continue
            c = homology.CurveClass(intmat.primitive(v))
            s = intmat.mat_mul(s, homology.transvection_matrix(lat, c, rng.choice([1, -1])))
        chain = [
            homology.CurveClass(intmat.primitive(intmat.mat_vec(s, c.v)))
            for c in homology.build_chain(lat, k)
        ]
        norm = [intmat.sign_normalized(c.v) for c in chain]
        if len(set(norm)) != len(norm):
            continue
        eps = rng.choice([1, -1])
        rep = homology.monodromy_rep(lat, chain, eps)
        kind = rng.choice(["id", "neg", "orth"])
        if kind == "id":
            direction = intmat.identity(lat.rank)
        elif kind == "neg":
            direction = negated(intmat.identity(lat.rank))
        else:
            rows = tuple(lat.dual(c.v) for c in chain)
            basis = kernel_basis(rows)
            if basis:
                u = homology.CurveClass(intmat.primitive(basis[rng.randrange(len(basis))]))
                direction = homology.transvection_matrix(lat, u, rng.choice([1, -1]))
            else:
                direction = intmat.identity(lat.rank)
        ms = apply_transvection(lat, rep, direction)
        res = homology.extract_triple(lat, ms)
        assert isinstance(res, homology.TransvectionTriple)
        assert res.epsilon == eps
        assert [c.v for c in res.chain] == norm
        assert res.direction == direction
        done += 1
    _report("7 homology-suite", started)


def test_08_covering_suite():
    started = time.perf_counter()
    _assert_suite_passes("rh")
    # the closed forms the inequality items rest on
    for r in range(3, 11):
        assert 3**r > 6 + 4 * r
        assert 2 * 4 ** (r - 2) > 2 + r
    for g in range(0, 31):
        assert g < 1 + 2**g
    _report("8 covering-suite", started)
