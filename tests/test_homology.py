import random

import pytest
from hypothesis import given, settings, strategies as st

from chaingroup import intmat
from chaingroup.commands import homology as homology_cmd
from chaingroup.homology import (
    _require_chain,
    CYCLIC,
    NOT_RECOGNIZED,
    CurveClass,
    CyclicVerdict,
    TransvectionTriple,
    build_chain,
    chain_product_square,
    extract_triple,
    format_chain,
    format_matrix,
    is_pairing_preserving,
    lift_adjust,
    monodromy_rep,
    parse_matrix,
    standard_lattice,
    transvection_matrix,
    twist_product,
)
from reference import (
    apply_transvection,
    dense_pairing,
    dense_preserves,
    dense_require_chain,
    dense_transvection,
    extract_triple_by_inverses,
    kernel_basis,
    lift_adjust_by_inverses,
    lift_mul,
    monodromy_rep_all_pairs,
    negated,
)


def pair(lat, x, y):
    """<x, y> as the package forms it: x . Jy, with Jy from the lattice's dual."""
    return sum(a * b for a, b in zip(x, lat.dual(y), strict=True))


def random_primitive(rng, rank):
    while True:
        v = [rng.randint(-2, 2) for _ in range(rank)]
        if any(v):
            return CurveClass(intmat.primitive(v))


def random_symplectic(lat, rng, steps=6):
    s = intmat.identity(lat.rank)
    for _ in range(steps):
        c = random_primitive(rng, lat.rank)
        s = intmat.mat_mul(s, transvection_matrix(lat, c, rng.choice([1, -1])))
    return s


class TestStandardLattice:
    def test_genus_one(self):
        lat = standard_lattice(1)
        assert (lat.dual((1, 0)), lat.dual((0, 1))) == ((0, -1), (1, 0))
        assert pair(lat, (1, 0), (0, 1)) == 1 and pair(lat, (0, 1), (1, 0)) == -1

    def test_genus_two_blocks(self):
        lat = standard_lattice(2)
        basis = intmat.identity(4)
        J = tuple(tuple(pair(lat, x, y) for y in basis) for x in basis)
        assert J == dense_pairing(2)
        assert J[0][1] == 1 and J[1][0] == -1
        assert J[2][3] == 1 and J[3][2] == -1
        assert J[0][2] == J[0][3] == J[1][2] == J[1][3] == 0

    def test_bilinearity(self):
        lat = standard_lattice(2)
        assert pair(lat, (1, 0, 1, 0), (0, 1, 0, 0)) == 1

    def test_wrong_length_rejected(self):
        lat = standard_lattice(2)
        for v in [(1, 0), (0, 1, 0), (0, 1, 0, 0, 0)]:
            with pytest.raises(ValueError, match=f"length {len(v)}, lattice rank is 4"):
                lat.dual(v)

    @pytest.mark.parametrize("n", [3, 5])
    def test_either_side_of_the_wrong_length_rejected(self, n):
        """A chain check pairs every two classes; a class of the wrong length
        is refused whether it comes first or second."""
        lat, v, w = standard_lattice(2), CurveClass((1, 0, 0, 0)), CurveClass((1,) * n)
        for chain in ([v, w], [w, v]):
            with pytest.raises(ValueError, match=f"length {n}, lattice rank is 4"):
                _require_chain(lat, chain)

    def test_genus_zero_unsupported(self):
        with pytest.raises(ValueError):
            standard_lattice(0)


class TestCurveClass:
    def test_zero_allowed(self):
        assert CurveClass((0, 0)).is_zero()

    def test_primitive_required(self):
        with pytest.raises(ValueError):
            CurveClass((2, 4))


class TestBuildChain:
    def test_boundary_case_exists(self):
        lat = standard_lattice(1)
        assert len(build_chain(lat, 3)) == 3

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            build_chain(standard_lattice(1), 4)

    def test_two_classes(self):
        lat = standard_lattice(2)
        c = build_chain(lat, 2)
        assert abs(pair(lat, c[0].v, c[1].v)) == 1

    def test_pattern_for_all_lengths(self):
        for g in (1, 2, 3, 4):
            lat = standard_lattice(g)
            for k in range(1, 2 * g + 2):
                chain = build_chain(lat, k)
                for i in range(len(chain)):
                    for j in range(i + 1, len(chain)):
                        p = pair(lat, chain[i].v, chain[j].v)
                        assert abs(p) == 1 if j == i + 1 else p == 0


class TestTransvection:
    def test_fixes_its_class(self):
        lat = standard_lattice(2)
        c = CurveClass((1, 0, -1, 1))
        m = transvection_matrix(lat, c, 1)
        assert intmat.mat_vec(m, c.v) == c.v

    def test_zero_class_gives_identity(self):
        lat = standard_lattice(2)
        assert transvection_matrix(lat, CurveClass((0,) * 4), 1) == intmat.identity(4)

    def test_explicit_genus_one(self):
        lat = standard_lattice(1)
        assert transvection_matrix(lat, CurveClass((1, 0)), 1) == ((1, -1), (0, 1))

    def test_preserves_pairing_and_inverts(self):
        rng = random.Random(5)
        lat = standard_lattice(3)
        for _ in range(25):
            c = random_primitive(rng, 6)
            m_pos = transvection_matrix(lat, c, 1)
            m_neg = transvection_matrix(lat, c, -1)
            assert is_pairing_preserving(lat, m_pos)
            assert intmat.mat_mul(m_pos, m_neg) == intmat.identity(6)

    def test_pairing_criterion(self):
        lat = standard_lattice(2)
        rng = random.Random(9)
        for _ in range(40):
            a, b = random_primitive(rng, 4), random_primitive(rng, 4)
            p = pair(lat, a.v, b.v)
            ta = transvection_matrix(lat, a, 1)
            tb = transvection_matrix(lat, b, 1)
            if p == 0:
                assert intmat.mat_mul(ta, tb) == intmat.mat_mul(tb, ta)
            elif abs(p) == 1:
                lhs = intmat.mat_mul(intmat.mat_mul(ta, tb), ta)
                rhs = intmat.mat_mul(intmat.mat_mul(tb, ta), tb)
                assert lhs == rhs


GENERA = st.integers(1, 5)
SIGNS = st.sampled_from((1, -1))


def vectors(g):
    return st.tuples(*[st.integers(-3, 3)] * (2 * g))


def matrices(g):
    return st.tuples(*[vectors(g)] * (2 * g))


@st.composite
def dense_symplectic(draw, g, along=None):
    """A product of up to six dense transvections, along any integer vectors
    or only along the given ones."""
    J = dense_pairing(g)
    m = intmat.identity(2 * g)
    for c in draw(st.lists(vectors(g) if along is None else st.sampled_from(along), max_size=6)):
        m = intmat.mat_mul(m, dense_transvection(J, c, draw(SIGNS)))
    return m


class TestStructuredAgainstDense:
    """The structured routines of the standard form against dense J products."""

    @settings(deadline=None)
    @given(GENERA.flatmap(lambda g: st.tuples(vectors(g), vectors(g))))
    def test_pair_is_x_transpose_j_y(self, xy):
        x, y = xy
        lat, J = standard_lattice(len(x) // 2), dense_pairing(len(x) // 2)
        assert lat.dual(y) == intmat.mat_vec(J, y)
        assert pair(lat, x, y) == sum(a * b for a, b in zip(x, intmat.mat_vec(J, y)))

    @settings(deadline=None)
    @given(st.data())
    def test_twist_product_is_the_dense_product(self, data):
        g = data.draw(GENERA)
        lat, J = standard_lattice(g), dense_pairing(g)
        c, eps = intmat.primitive(data.draw(vectors(g))), data.draw(SIGNS)
        m = data.draw(st.one_of(dense_symplectic(g), matrices(g)))
        t = dense_transvection(J, c, eps)
        assert transvection_matrix(lat, CurveClass(c), eps) == t
        assert twist_product(lat, CurveClass(c), eps, m) == intmat.mat_mul(t, m)

    @settings(deadline=None)
    @given(st.data())
    def test_preservation_is_the_dense_test(self, data):
        g = data.draw(GENERA)
        lat, J = standard_lattice(g), dense_pairing(g)
        m = [list(row) for row in data.draw(st.one_of(dense_symplectic(g), matrices(g)))]
        if data.draw(st.booleans()):
            i, j = data.draw(st.integers(0, 2 * g - 1)), data.draw(st.integers(0, 2 * g - 1))
            m[i][j] += data.draw(st.sampled_from((-2, -1, 1, 2)))
        m = intmat.as_matrix(m)
        assert is_pairing_preserving(lat, m) == dense_preserves(J, m)

    @pytest.mark.parametrize("m", [intmat.identity(2), intmat.identity(6), ((1, 0, 0, 0),) * 3,
                                   ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1), (0, 0, 0, 1))])
    def test_preservation_needs_a_square_matrix_of_the_rank(self, m):
        with pytest.raises(ValueError, match="not 4x4"):
            is_pairing_preserving(standard_lattice(2), m)

    @pytest.mark.parametrize("m", [((1, 0, 0, 0), (0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                                   ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
                                   ((1, 0, 0, 0, 0),) * 4])
    def test_twist_product_needs_a_square_matrix_of_the_rank(self, m):
        """A short row is refused, not cut to the length of the others."""
        with pytest.raises(ValueError, match="matrix is not 4x4"):
            twist_product(standard_lattice(2), CurveClass((1, 0, 0, 0)), 1, m)

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_chain_check_is_the_dense_check(self, data):
        """Chains moved by a product of dense transvections are accepted, and
        the chain check refuses, with the same message, exactly what the
        dense check refuses once a class is shifted, swapped or negated."""
        g = data.draw(GENERA)
        lat, J = standard_lattice(g), dense_pairing(g)
        k = data.draw(st.integers(1, 2 * g + 1))
        s = data.draw(dense_symplectic(g))
        chain = [list(intmat.mat_vec(s, c.v)) for c in build_chain(lat, k)]
        kind = data.draw(st.sampled_from(("chain", "shifted", "swapped", "negated")))
        i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
        if kind == "shifted":
            t = data.draw(st.integers(0, 2 * g - 1))
            chain[i][t] += data.draw(st.sampled_from((-2, -1, 1, 2)))
        elif kind == "swapped":
            chain[i], chain[j] = chain[j], chain[i]
        elif kind == "negated":
            chain[i] = [-x for x in chain[i]]
        classes = [CurveClass(intmat.primitive(v)) for v in chain]
        outcome = _outcome(_require_chain, lat, classes)
        assert outcome == _outcome(dense_require_chain, J, classes)
        if kind == "chain":
            assert outcome is None

    def test_chain_product_square_is_the_dense_product(self):
        for g in (1, 2, 3):
            lat, J = standard_lattice(g), dense_pairing(g)
            for k in range(2, 2 * g + 2):
                chain = build_chain(lat, k)
                prod = intmat.identity(2 * g)
                for j in range(k):
                    for c in chain[j::-1]:
                        prod = intmat.mat_mul(prod, dense_transvection(J, c.v, 1))
                assert chain_product_square(lat, chain) == intmat.mat_mul(prod, prod)

    @settings(deadline=None)
    @given(st.data())
    def test_class_fixed_up_to_sign_iff_twist_commutes(self, data):
        g = data.draw(GENERA)
        J = dense_pairing(g)
        c = intmat.primitive(data.draw(vectors(g).filter(any)))
        # the classes pairing to zero with c, whose transvections fix it
        fixers = kernel_basis((intmat.mat_vec(J, c),))
        v = data.draw(st.one_of(dense_symplectic(g), dense_symplectic(g, fixers + [c])))
        if data.draw(SIGNS) == -1:
            v = negated(v)
        t = dense_transvection(J, c, 1)
        fixed = intmat.mat_vec(v, c) in (c, tuple(-x for x in c))
        assert fixed == (intmat.mat_mul(t, v) == intmat.mat_mul(v, t))


class TestMonodromyRep:
    def test_single_class(self):
        lat = standard_lattice(2)
        ms = monodromy_rep(lat, build_chain(lat, 1), 1)
        assert len(ms) == 1

    def test_relations_hold(self):
        lat = standard_lattice(2)
        monodromy_rep(lat, build_chain(lat, 3), 1)

    def test_negative_sign_gives_inverses(self):
        lat = standard_lattice(2)
        chain = build_chain(lat, 3)
        pos = monodromy_rep(lat, chain, 1)
        neg = monodromy_rep(lat, chain, -1)
        for p, q in zip(pos, neg):
            assert intmat.mat_mul(p, q) == intmat.identity(4)

    def test_invalid_chain(self):
        lat = standard_lattice(2)
        bad = [CurveClass((1, 0, 0, 0)), CurveClass((0, 0, 1, 0))]
        with pytest.raises(ValueError):
            monodromy_rep(lat, bad, 1)

    def test_wrong_length_class_rejected(self):
        lat = standard_lattice(2)
        bad = [CurveClass((1, 0)), CurveClass((0, 1))]
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            monodromy_rep(lat, bad, 1)


class TestMonodromyRepAgainstAllPairs:
    KINDS = (
        "moved", "perturbed", "swapped", "replaced", "dropped", "doubled", "negated", "zero",
        "short", "sign",
    )

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(1, 5), st.integers(1, 11), st.sampled_from(KINDS), st.integers(0, 2**32 - 1)
    )
    def test_same_outcome_as_the_all_pairs_check(self, g, k, kind, seed):
        """Chains moved by a random symplectic matrix, and ones with a class
        perturbed, swapped, replaced, dropped, repeated, negated, zeroed or
        cut short, or with a sign other than +-1."""
        rng = random.Random(seed)
        lat = standard_lattice(g)
        k = min(k, 2 * g + 1)
        s = random_symplectic(lat, rng, steps=rng.randint(0, 6))
        chain = [intmat.primitive(intmat.mat_vec(s, c.v)) for c in build_chain(lat, k)]
        eps = rng.choice([1, -1])
        i, j = rng.randrange(k), rng.randrange(k)
        if kind == "perturbed":
            v = list(chain[i])
            v[rng.randrange(2 * g)] += rng.choice((-2, -1, 1, 2))
            chain[i] = intmat.primitive(v)
        elif kind == "swapped":
            chain[i], chain[j] = chain[j], chain[i]
        elif kind == "replaced":
            chain[i] = random_primitive(rng, 2 * g).v
        elif kind == "dropped":
            del chain[i]
        elif kind == "doubled":
            chain.insert(i, chain[j])
        elif kind == "negated":
            chain[i] = tuple(-x for x in chain[i])
        elif kind == "zero":
            chain[i] = (0,) * (2 * g)
        elif kind == "short":
            chain[i] = intmat.primitive(chain[i][1:])
        elif kind == "sign":
            eps = rng.choice((0, 2, -2))
        classes = [CurveClass(v) for v in chain]
        assert _outcome(monodromy_rep, lat, classes, eps) == _outcome(
            monodromy_rep_all_pairs, lat, classes, eps
        )


class TestChainProductSquare:
    def test_even_is_minus_identity_on_span(self):
        for g, k in ((2, 2), (2, 4), (3, 6)):
            lat = standard_lattice(g)
            chain = build_chain(lat, k)
            sq = chain_product_square(lat, chain)
            for c in chain:
                assert intmat.mat_vec(sq, c.v) == tuple(-x for x in c.v)

    def test_even_k2_fourth_power_is_identity(self):
        lat = standard_lattice(2)
        sq = chain_product_square(lat, build_chain(lat, 2))
        fourth = intmat.mat_mul(sq, sq)
        assert fourth == intmat.identity(4)

    def test_odd_fixes_chain_classes(self):
        for g, k in ((2, 3), (2, 5), (3, 7)):
            lat = standard_lattice(g)
            chain = build_chain(lat, k)
            sq = chain_product_square(lat, chain)
            for c in chain:
                assert intmat.mat_vec(sq, c.v) == c.v

    def test_commutes_with_chain_transvections(self):
        lat = standard_lattice(3)
        chain = build_chain(lat, 5)
        sq = chain_product_square(lat, chain)
        for c in chain:
            for eps in (1, -1):
                t = transvection_matrix(lat, c, eps)
                assert intmat.mat_mul(sq, t) == intmat.mat_mul(t, sq)


class TestApplyTransvection:
    def test_identity_direction(self):
        lat = standard_lattice(2)
        rep = monodromy_rep(lat, build_chain(lat, 3), 1)
        assert apply_transvection(lat, rep, intmat.identity(4)) == rep

    def test_minus_identity_direction(self):
        lat = standard_lattice(2)
        rep = monodromy_rep(lat, build_chain(lat, 3), 1)
        out = apply_transvection(lat, rep, negated(intmat.identity(4)))
        lhs = intmat.mat_mul(intmat.mat_mul(out[0], out[1]), out[0])
        rhs = intmat.mat_mul(intmat.mat_mul(out[1], out[0]), out[1])
        assert lhs == rhs

    def test_orthogonal_transvection_accepted(self):
        lat = standard_lattice(3)
        chain = build_chain(lat, 3)
        rep = monodromy_rep(lat, chain, 1)
        rows = tuple(lat.dual(c.v) for c in chain)
        u = CurveClass(intmat.primitive(kernel_basis(rows)[0]))
        v = transvection_matrix(lat, u, 1)
        apply_transvection(lat, rep, v)

    def test_non_commuting_rejected(self):
        lat = standard_lattice(2)
        chain = build_chain(lat, 3)
        rep = monodromy_rep(lat, chain, 1)
        bad = transvection_matrix(lat, CurveClass((0, 1, 0, 0)), 1)
        with pytest.raises(ValueError):
            apply_transvection(lat, rep, bad)


class TestExtractTriple:
    @pytest.mark.parametrize("g", [3, 4])
    def test_round_trip_randomized(self, g):
        rng = random.Random(2024 + g)
        done = 0
        while done < 100:
            lat = standard_lattice(g)
            k = rng.randint(5, 2 * g + 1)
            s = random_symplectic(lat, rng)
            chain = [
                CurveClass(intmat.primitive(intmat.mat_vec(s, c.v)))
                for c in build_chain(lat, k)
            ]
            norm = [intmat.sign_normalized(c.v) for c in chain]
            if len(set(norm)) != len(norm):
                continue
            eps = rng.choice([1, -1])
            rep = monodromy_rep(lat, chain, eps)
            direction = _random_direction(lat, chain, rng)
            ms = apply_transvection(lat, rep, direction)
            res = extract_triple(lat, ms)
            assert isinstance(res, TransvectionTriple)
            assert res.epsilon == eps
            assert [c.v for c in res.chain] == norm
            assert res.direction == direction
            done += 1

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_standard_chain_with_identity_direction(self, g, eps):
        """The first nonzero column of M_1 - M_4 is +-(1, 0, ..., 0), on the
        line of c_1: it pairs to 0 with every column of M_1 - M_3, so the
        first class comes from a later column."""
        lat = standard_lattice(g)
        chain = build_chain(lat, 5)
        res = extract_triple(lat, monodromy_rep(lat, chain, eps))
        assert res == TransvectionTriple(tuple(chain), eps, intmat.identity(2 * g))

    def test_all_equal_is_cyclic(self):
        lat = standard_lattice(3)
        res = extract_triple(lat, [intmat.identity(6)] * 5)
        assert isinstance(res, CyclicVerdict)

    def test_non_commuting_direction_not_recognized(self):
        lat = standard_lattice(3)
        rep = monodromy_rep(lat, build_chain(lat, 5), 1)
        bad = transvection_matrix(lat, CurveClass((0, 0, 0, 0, 0, 1)), 1)
        ms = [intmat.mat_mul(m, bad) for m in rep]
        res = extract_triple(lat, ms)
        assert isinstance(res, type(NOT_RECOGNIZED))

    def test_twist_along_a_multiple_not_recognized(self):
        """T_{2c} - I = 4 c (Jc)^T has its columns along c, but T_c is not T_{2c}."""
        lat = standard_lattice(3)
        chain = build_chain(lat, 5)
        ms = monodromy_rep(lat, chain, 1)
        doubled = tuple(2 * x for x in chain[4].v)
        ms[4] = dense_transvection(dense_pairing(3), doubled, 1)
        assert extract_triple(lat, ms) is NOT_RECOGNIZED

    def test_direction_not_preserving_the_pairing_not_recognized(self):
        """diag(1, 1, 1, 1, 1, 2, 1, 1) fixes every class of the chain, but
        it does not preserve the pairing."""
        lat = standard_lattice(4)
        v = tuple(tuple(1 + (i == 5) if i == j else 0 for j in range(8)) for i in range(8))
        ms = [intmat.mat_mul(m, v) for m in monodromy_rep(lat, build_chain(lat, 5), 1)]
        assert extract_triple(lat, ms) is NOT_RECOGNIZED

    def test_needs_five_matrices(self):
        lat = standard_lattice(3)
        with pytest.raises(ValueError):
            extract_triple(lat, [intmat.identity(6)] * 4)

    @pytest.mark.parametrize("shape", [(4, 4), (8, 8), (6, 5)])
    def test_wrong_shape_rejected(self, shape):
        lat = standard_lattice(3)
        rows, cols = shape
        wrong = tuple(tuple(int(i == j) for j in range(cols)) for i in range(rows))
        ms = monodromy_rep(lat, build_chain(lat, 5), 1)
        with pytest.raises(ValueError, match="not 6x6"):
            extract_triple(lat, ms[:4] + [wrong])
        with pytest.raises(ValueError, match="not 6x6"):
            extract_triple(lat, [wrong] * 5)


def _outcome(f, *args):
    """What f returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestExtractTripleAgainstInverses:
    KINDS = (
        "round-trip", "perturbed", "swapped", "doubled", "random", "short", "misshapen",
        "unpreserved",
    )

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 6), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
    def test_same_outcome_as_the_recovery_by_inverses(self, g, kind, seed):
        """Transvected chain representations, and ones with a matrix
        perturbed, swapped, twisted along twice its class, replaced, dropped
        or cut short by a row, or with a direction that fixes every class
        but does not preserve the pairing."""
        rng = random.Random(seed)
        lat = standard_lattice(g)
        k = rng.randint(5, max(5, 2 * g - 1) if kind == "unpreserved" else 2 * g + 1)
        s = random_symplectic(lat, rng)
        chain = [
            CurveClass(intmat.primitive(intmat.mat_vec(s, c.v))) for c in build_chain(lat, k)
        ]
        eps = rng.choice([1, -1])
        direction = _random_direction(lat, chain, rng)
        fixers = kernel_basis(tuple(c.v for c in chain)) if kind == "unpreserved" else []
        if fixers:
            # I + u w^T with w . c = 0 fixes each class c
            u, w = [rng.randint(-2, 2) for _ in range(2 * g)], rng.choice(fixers)
            direction = tuple(
                tuple(int(a == b) + x * y for b, y in enumerate(w)) for a, x in enumerate(u)
            )
        rep = monodromy_rep(lat, chain, eps)
        ms = [list(map(list, intmat.mat_mul(m, direction))) for m in rep]
        i, j = rng.sample(range(k), 2)
        if kind == "perturbed":
            ms[i][rng.randrange(2 * g)][rng.randrange(2 * g)] += rng.choice((-2, -1, 1, 2))
        elif kind == "swapped":
            ms[i], ms[j] = ms[j], ms[i]
        elif kind == "doubled":
            doubled = dense_transvection(dense_pairing(g), [2 * x for x in chain[i].v], eps)
            ms[i] = intmat.mat_mul(doubled, direction)
        elif kind == "random":
            ms[i] = [[rng.randint(-3, 3) for _ in range(2 * g)] for _ in range(2 * g)]
        elif kind == "short":
            ms = ms[:4]
        elif kind == "misshapen":
            ms[i] = ms[i][1:]
        assert _outcome(extract_triple, lat, ms) == _outcome(extract_triple_by_inverses, lat, ms)


def _random_direction(lat, chain, rng):
    kind = rng.choice(["id", "neg", "orth"])
    if kind == "id":
        return intmat.identity(lat.rank)
    if kind == "neg":
        return negated(intmat.identity(lat.rank))
    rows = tuple(lat.dual(c.v) for c in chain)
    basis = kernel_basis(rows)
    if not basis:
        return intmat.identity(lat.rank)
    u = CurveClass(intmat.primitive(basis[rng.randrange(len(basis))]))
    return transvection_matrix(lat, u, rng.choice([1, -1]))


class TestCentralExtension:
    @pytest.mark.parametrize("mat", [((1, 2),), ((1,), (0,)), (), ((1, 0), (0,))])
    def test_square_matrix_required(self, mat):
        with pytest.raises(ValueError, match="square"):
            lift_adjust([(mat, ())])

    def test_multiplication_adds_twists(self):
        """The reference's product of lifts, which the lift by inverses uses."""
        lat = standard_lattice(1)
        m = transvection_matrix(lat, CurveClass((1, 0)), 1)
        a = (m, (1, 0))
        b = (intmat.identity(2), (0, 2))
        assert lift_mul(a, b) == (m, (1, 2))


class TestLiftAdjust:
    def _exact_lifts(self, g=2, k=3):
        lat = standard_lattice(g)
        rep = monodromy_rep(lat, build_chain(lat, k), 1)
        return [(m, (0, 0)) for m in rep]

    def test_exact_input_unchanged(self):
        lifts = self._exact_lifts()
        assert lift_adjust(lifts) == lifts

    def test_idempotent(self):
        lifts = self._exact_lifts()
        once = lift_adjust(lifts)
        assert lift_adjust(once) == once

    def test_single_perturbed_twist_corrected(self):
        lifts = self._exact_lifts(g=3, k=4)
        z = (intmat.identity(6), (5, 0))
        perturbed = [lifts[0], lift_mul(lifts[1], z), lifts[2], lifts[3]]
        fixed = lift_adjust(perturbed)
        for i in range(len(fixed) - 1):
            a, b = fixed[i], fixed[i + 1]
            assert lift_mul(lift_mul(a, b), a) == lift_mul(lift_mul(b, a), b)
        for i in range(len(fixed)):
            for j in range(i + 2, len(fixed)):
                assert lift_mul(fixed[i], fixed[j]) == lift_mul(fixed[j], fixed[i])

    def test_matrix_level_defect_rejected(self):
        lat = standard_lattice(2)
        m = transvection_matrix(lat, CurveClass((1, 0, 0, 0)), 1)
        lifts = [(m, (0,)), (intmat.identity(4), (0,))]
        with pytest.raises(ValueError):
            lift_adjust(lifts)


class TestLiftAdjustAgainstInverses:
    KINDS = (
        "exact", "twist-perturbed", "swapped", "entry-perturbed", "singular", "mixed-rank",
        "mixed-twist-length", "scaled", "negated", "random",
    )

    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(1, 4), st.integers(1, 6), st.integers(0, 3), st.sampled_from(KINDS),
        st.integers(0, 2**32 - 1),
    )
    def test_same_outcome_as_the_lift_by_inverses(self, g, k, t, kind, seed):
        """Lifts of a chain's transvections under a random symplectic
        conjugation, with equal twists or with one lift's twist, matrix,
        size or twist length changed, two lifts swapped, or a matrix scaled,
        negated, made singular or replaced."""
        rng = random.Random(seed)
        lat = standard_lattice(g)
        k = min(k, 2 * g + 1)
        s = random_symplectic(lat, rng, steps=rng.randint(0, 4))
        chain = [
            CurveClass(intmat.primitive(intmat.mat_vec(s, c.v))) for c in build_chain(lat, k)
        ]
        mats = [list(map(list, m)) for m in monodromy_rep(lat, chain, rng.choice([1, -1]))]
        twist = [rng.randint(-3, 3) for _ in range(t)]
        twists = [list(twist) for _ in range(k)]
        i, j = rng.randrange(k), rng.randrange(k)
        r = 2 * g
        if kind == "twist-perturbed":
            twists = [[rng.randint(-3, 3) for _ in range(t)] for _ in range(k)]
        elif kind == "swapped":
            mats[i], mats[j] = mats[j], mats[i]
        elif kind == "entry-perturbed":
            mats[i][rng.randrange(r)][rng.randrange(r)] += rng.choice((-2, -1, 1, 2))
        elif kind == "singular":
            mats[i][rng.randrange(r)] = [0] * r
        elif kind == "mixed-rank":
            mats[i] = intmat.identity(2 * rng.choice([h for h in range(1, 6) if h != g]))
        elif kind == "mixed-twist-length":
            twists[i] = twists[i] + [rng.randint(-3, 3)]
        elif kind == "scaled":
            mats[i] = [[rng.choice((2, -2, 3)) * x for x in row] for row in mats[i]]
        elif kind == "negated":
            mats[i] = [[-x for x in row] for row in mats[i]]
        elif kind == "random":
            mats[i] = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
        lifts = list(zip(mats, twists))
        assert _outcome(lift_adjust, lifts) == _outcome(lift_adjust_by_inverses, lifts)


class TestTextFormats:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda r: st.lists(
            st.lists(st.integers(-(2**200), 2**200), min_size=r, max_size=r),
            min_size=r, max_size=r,
        )
    ))
    def test_matrix_round_trip(self, rows):
        m = intmat.as_matrix(rows)
        assert parse_matrix(format_matrix(m)) == m

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(1, 4).flatmap(
                lambda r: st.lists(
                    st.lists(st.integers(-(2**100), 2**100), min_size=r, max_size=r),
                    min_size=r, max_size=r,
                )
            ),
            st.lists(st.integers(-(2**100), 2**100), max_size=3),
        ),
        min_size=1, max_size=4,
    ))
    def test_elements_round_trip(self, blocks):
        """Lifts, the empty twist vector among them, survive
        formatting and parsing."""
        lifts = [(intmat.as_matrix(m), tuple(tw)) for m, tw in blocks]
        text = "\n\n".join(homology_cmd._format_element(e) for e in lifts)
        assert homology_cmd._parse_elements(text) == lifts

    def test_chain_round_trip(self):
        """The printed vectors are the chain's classes, in order."""
        chain = build_chain(standard_lattice(2), 4)
        header, *lines = format_chain(chain).splitlines()
        assert header == "k=4"
        assert [CurveClass(tuple(map(int, ln.split()))) for ln in lines] == chain

    def test_bad_headers(self):
        with pytest.raises(ValueError):
            parse_matrix("1 0\n0 1")
