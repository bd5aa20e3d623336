import itertools
import math

import pytest
from hypothesis import given, strategies as st

from chaingroup import cycles, finite
from chaingroup.finite import (
    AbelianInvariants,
    LnParams,
    PermRep,
    count_perm_reps,
    enum_perm_reps,
    ln_group,
    perm_rep_classes,
    perm_rep_satisfies_relations,
    smith_normal_form,
    validate_params,
)
from chaingroup.suites import (
    TABLE1,
    all_cyclic,
    first_equals_third,
    noncyclic_exists,
    random_quotients_ok,
)
from reference import (
    chains_from_by_scanning,
    enum_perm_reps_by_tables,
    ln_params_rows,
    smith_normal_form_restarting,
)


class TestSmithNormalForm:
    def test_identity(self):
        inv = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert inv.factors == (1, 1, 1) and inv.free_rank == 0

    def test_already_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 4]]).factors == (2, 4)

    def test_coprime_diagonal_regroups(self):
        assert smith_normal_form([[2, 0], [0, 3]]).factors == (1, 6)

    def test_free_rank(self):
        inv = smith_normal_form([[2, 0, 0]])
        assert inv.factors == (2,) and inv.free_rank == 2
        assert inv.cardinality() is None

    small_matrices = st.lists(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=1, max_size=4
    )

    @given(small_matrices, st.randoms(use_true_random=False))
    def test_invariant_under_row_operations(self, rows, rng):
        base = smith_normal_form(rows)
        mixed = [row[:] for row in rows]
        for _ in range(4):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            if i != j:
                c = rng.choice([-2, -1, 1, 2])
                mixed[i] = [x + c * y for x, y in zip(mixed[i], mixed[j])]
        rng.shuffle(mixed)
        cols = list(range(3))
        rng.shuffle(cols)
        mixed = [[row[c] for c in cols] for row in mixed]
        assert smith_normal_form(mixed) == base

    @given(st.data())
    def test_same_invariants_as_the_restarting_form(self, data):
        """Rectangular matrices up to 8 x 8, with up to two rows and two
        columns zeroed."""
        nrows, ncols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        flat = data.draw(st.lists(st.integers(-12, 12), min_size=nrows * ncols,
                                  max_size=nrows * ncols))
        rows = [flat[i:i + ncols] for i in range(0, len(flat), ncols)]
        for i in data.draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
            rows[i] = [0] * ncols
        for j in data.draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
            for row in rows:
                row[j] = 0
        assert smith_normal_form(rows) == smith_normal_form_restarting(rows)

    def test_divisibility_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianInvariants((2, 3), 0)


class TestValidateParams:
    def test_free_case(self):
        assert validate_params(LnParams(3, 0, 0, 0, 0))

    def test_m_must_divide_M(self):
        assert not validate_params(LnParams(3, 4, 3, 3, 3))

    def test_all_clauses(self):
        assert validate_params(LnParams(3, 4, 2, 2, 2))

    def test_torsion_needs_all_parameters(self):
        assert not validate_params(LnParams(3, 4, 0, 2, 2))
        assert not validate_params(LnParams(3, 0, 2, 2, 2))


class TestLnGroup:
    def test_lemma_cardinality_formula(self):
        inv = ln_group(LnParams(3, 3, 3, 3, 9))
        assert inv.cardinality() == 27

    def test_trivial_group(self):
        assert ln_group(LnParams(3, 1, 1, 1, 3)).cardinality() == 1

    def test_structure_matches_parameter_multiset(self):
        p = LnParams(4, 4, 2, 2, 4)
        assert validate_params(p)
        inv = ln_group(p)
        regrouped = sorted([p.M] + [p.m] * (p.r - 2) + [p.d])
        factors = [f for f in inv.factors if f > 1] or [1]
        assert sorted(factors) == [f for f in regrouped if f > 1]
        assert inv.cardinality() == (p.M // p.m) * p.d * p.m ** (p.r - 1)

    @pytest.mark.parametrize("r_amb,p,d,expected", TABLE1)
    def test_table_rows(self, r_amb, p, d, expected):
        params = LnParams(r_amb - 1, p, p, d, 0)
        assert validate_params(params)
        inv = ln_group(params)
        assert inv.cardinality() == expected == d * p ** (r_amb - 2)

    def test_cardinality_independent_of_s(self):
        cards = set()
        for s in (0, 4, 8, 12):
            params = LnParams(3, 4, 4, 2, s)
            if validate_params(params):
                cards.add(ln_group(params).cardinality())
        assert cards == {32}

    def test_random_tuples_match_formula(self):
        assert random_quotients_ok(6)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match=r"^invalid parameters LnParams\(r=3, M=4, "):
            ln_group(LnParams(3, 4, 3, 3, 3))

    def test_zero_torsion_rejected(self):
        with pytest.raises(ValueError, match="^group computation needs positive torsion M > 0$"):
            ln_group(LnParams(3, 0, 0, 0, 0))

    @given(st.data())
    def test_same_factors_as_the_relation_rows(self, data):
        """Valid parameters on 2-40 generators: m = d*q, s = m*t and M = m*u
        with u | r - q*t, which is M | (r - s/d)*m."""
        r, d = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 6))
        q, t = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 12))
        n = abs(r - q * t)
        u = data.draw(st.sampled_from([u for u in range(1, 7) if n % u == 0]))
        p = LnParams(r, d * q * u, d * q, d, d * q * t)
        assert validate_params(p)
        assert ln_group(p).factors == smith_normal_form(ln_params_rows(p)).factors

    @pytest.mark.parametrize("p", [LnParams(2, 6, 3, 1, 0), LnParams(3, 3, 3, 3, 9),
                                   LnParams(200, 12, 6, 3, 0)], ids=["r2", "r3", "r200"])
    def test_one_smith_normal_form_of_a_3_by_2_block(self, monkeypatch, p):
        shapes = []

        def counted(rows):
            shapes.append((len(rows), len(rows[0])))
            return smith_normal_form(rows)

        monkeypatch.setattr(finite, "smith_normal_form", counted)
        ln_group(p)
        assert shapes == [(3, 2)]


class TestEnumPermReps:
    def test_n5_small_symbol_counts_all_cyclic(self):
        for k in range(1, 5):
            reps = enum_perm_reps(5, k)
            assert len(reps) == math.factorial(k)
            assert all(r.is_cyclic() for r in reps)

    def test_n4_k3_first_equals_third(self):
        reps = enum_perm_reps(4, 3)
        assert reps
        assert all(r.images[0] == r.images[2] for r in reps)
        assert any(not r.is_cyclic() for r in reps)

    def test_n6_k6_contains_adjacent_transpositions(self):
        reps = enum_perm_reps(6, 6)

        def transposition(i):
            p = list(range(6))
            p[i], p[i + 1] = p[i + 1], p[i]
            return tuple(p)

        standard = tuple(transposition(i) for i in range(5))
        assert any(r.images == standard for r in reps)
        assert any(not r.is_cyclic() for r in reps)

    def test_results_reverified_independently(self):
        for rep in enum_perm_reps(5, 3):
            assert perm_rep_satisfies_relations(rep)

    def test_dedup_collapses_conjugates(self):
        full = enum_perm_reps(4, 3)
        slim = enum_perm_reps(4, 3, dedup_conjugacy=True)
        assert len(slim) < len(full)

    def test_budget_cap(self):
        with pytest.raises(ValueError):
            enum_perm_reps(4, 7)
        with pytest.raises(ValueError):
            enum_perm_reps(4, 4, budget=3)


def _compose(a, b):
    return tuple(b[x] for x in a)


def _conjugate(images, c):
    inv = [0] * len(c)
    for i, x in enumerate(c):
        inv[x] = i
    return tuple(_compose(_compose(tuple(inv), g), c) for g in images)


def _satisfies_relations_pairwise(images):
    """Reference relation check over every pair of images, O(N^2)."""

    def holds(i, a, j, b):
        ab, ba = _compose(a, b), _compose(b, a)
        return _compose(ab, a) == _compose(ba, b) if j - i == 1 else ab == ba

    return all(holds(*x, *y) for x, y in itertools.combinations(enumerate(images), 2))


def _brute_force(n, k):
    """Every tuple in S_k^(n-1), filtered by the pairwise relation check."""
    perms = sorted(itertools.permutations(range(k)))
    return [
        images
        for images in itertools.product(perms, repeat=n - 1)
        if _satisfies_relations_pairwise(images)
    ]


def _transposition(k, i, j):
    p = list(range(k))
    p[i], p[j] = j, i
    return tuple(p)


def _image_lists(k):
    """2..6 permutations of k symbols, transpositions often: they braid or commute."""
    swaps = [_transposition(k, i, j) for i, j in itertools.combinations(range(k), 2)]
    image = st.one_of(st.permutations(range(k)).map(tuple), st.sampled_from(swaps))
    return st.lists(image, min_size=2, max_size=6)


class TestRelationCheck:
    @given(st.integers(2, 4).flatmap(_image_lists))
    def test_matches_pairwise_reference(self, images):
        rep = PermRep(len(images[0]), tuple(images))
        assert perm_rep_satisfies_relations(rep) == _satisfies_relations_pairwise(rep.images)

    def test_first_image_must_commute_with_third(self):
        a, b, c = _transposition(4, 0, 1), _transposition(4, 1, 2), _transposition(4, 0, 2)
        assert perm_rep_satisfies_relations(PermRep(4, (a, b, a)))
        assert not perm_rep_satisfies_relations(PermRep(4, (a, b, c)))

    def test_long_cyclic_chain(self):
        swap = (1, 0, 2)
        assert perm_rep_satisfies_relations(PermRep(3, (swap,) * 2000))
        broken = (swap,) * 1000 + ((0, 2, 1),) + (swap,) * 999
        assert not perm_rep_satisfies_relations(PermRep(3, broken))


class TestCycles:
    def test_examples(self):
        assert cycles((0,)) == [(0,)]
        assert cycles((1, 2, 0, 3)) == [(0, 1, 2), (3,)]
        assert cycles((2, 3, 0, 1)) == [(0, 2), (1, 3)]
        assert cycles(()) == []

    @given(st.integers(1, 7).flatmap(lambda k: st.permutations(range(k))))
    def test_partition_in_order_of_least_element(self, p):
        cs = cycles(p)
        assert sorted(x for c in cs for x in c) == list(range(len(p)))
        assert [c[0] for c in cs] == sorted(min(c) for c in cs)
        for c in cs:
            assert [p[x] for x in c] == list(c[1:] + c[:1])


def _dedup_by_min_conjugate(reps):
    """Reference dedup: keep a rep unless the least of its conjugates was seen."""
    perms = list(itertools.permutations(range(reps[0].k)))
    seen = set()
    out = []
    for rep in reps:
        canon = min(_conjugate(rep.images, c) for c in perms)
        if canon not in seen:
            seen.add(canon)
            out.append(rep)
    return out


class TestEnumPermRepsReference:
    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in range(3, 7) for k in range(1, 4)] + [(4, 4)]
    )
    def test_matches_brute_force(self, n, k):
        assert [r.images for r in enum_perm_reps(n, k)] == _brute_force(n, k)

    @pytest.mark.parametrize(
        "n, k, count",
        [
            (3, 5, 600),
            (4, 5, 840),
            (5, 5, 240),
            (6, 5, 120),
            (7, 5, 120),
            (3, 6, 6480),
            (4, 6, 9360),
            (5, 6, 2160),
            (6, 6, 2160),
            (7, 6, 720),
        ],
    )
    def test_pinned_counts(self, n, k, count):
        reps = enum_perm_reps(n, k)
        assert len(reps) == count
        keys = [r.images for r in reps]
        assert keys == sorted(set(keys))

    def test_one_symbol(self):
        for n in (3, 4, 9):
            reps = enum_perm_reps(n, 1)
            assert [r.images for r in reps] == [((0,),) * (n - 1)]
            assert reps[0].is_cyclic()

    def test_two_symbols(self):
        for n in (3, 4, 9):
            reps = enum_perm_reps(n, 2)
            assert [r.images for r in reps] == [((0, 1),) * (n - 1), ((1, 0),) * (n - 1)]
            assert len(enum_perm_reps(n, 2, dedup_conjugacy=True)) == 2

    @pytest.mark.parametrize("n, k", [(3, 3), (4, 4), (5, 4), (4, 5), (6, 5)])
    def test_closed_under_simultaneous_conjugation(self, n, k):
        found = {r.images for r in enum_perm_reps(n, k)}
        for c in itertools.permutations(range(k)):
            assert {_conjugate(images, c) for images in found} == found

    @pytest.mark.parametrize(
        "n, k", [(3, 3), (4, 3), (4, 4), (5, 4), (4, 5), (5, 5), (3, 5), (6, 5)]
    )
    def test_dedup_matches_min_conjugate_reference(self, n, k):
        full = enum_perm_reps(n, k)
        slim = enum_perm_reps(n, k, dedup_conjugacy=True)
        assert slim == _dedup_by_min_conjugate(full)



class TestSearchAgainstPairTables:
    """The search up to conjugacy against the pair-table reference search."""

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(3, 8) for k in range(1, 7)])
    def test_listing_counts_and_suite_verdicts(self, n, k):
        full = enum_perm_reps_by_tables(n, k)
        assert [r.images for r in enum_perm_reps(n, k)] == full
        assert [r.images for r in enum_perm_reps(n, k, dedup_conjugacy=True)] == (
            enum_perm_reps_by_tables(n, k, dedup_conjugacy=True)
        )
        cyclic = sum(1 for images in full if len(set(images)) == 1)
        assert count_perm_reps(n, k) == (len(full), cyclic)

        reps = [rep for _, reps in perm_rep_classes(n, k) for rep in reps]
        full_reps = [PermRep(k, images) for images in full]
        preds = (all_cyclic, noncyclic_exists) + ((first_equals_third,) if n >= 4 else ())
        for pred in preds:
            assert pred(reps) == pred(full_reps)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_chains_match_the_scanning_search(self, n):
        """Conjugating the first image's partners and commuting members finds
        the chains that scanning the class for every image finds, in order."""
        for k in range(1, 8):
            for members, reps in perm_rep_classes(n, k, budget=7):
                assert [rep.images for rep in reps] == chains_from_by_scanning(members, n - 1)

    def test_classes_start_at_their_least_member(self):
        classes = perm_rep_classes(5, 4)
        assert sum(len(members) for members, _ in classes) == math.factorial(4)
        for members, reps in classes:
            types = {tuple(sorted(map(len, cycles(p)))) for p in members}
            assert members == sorted(members) and len(types) == 1
            assert all(rep.images[0] == members[0] for rep in reps)

    def test_counting_has_the_budget_cap(self):
        with pytest.raises(ValueError):
            count_perm_reps(4, 7)
        with pytest.raises(ValueError):
            count_perm_reps(4, 4, budget=3)
        with pytest.raises(ValueError):
            count_perm_reps(2, 3)
