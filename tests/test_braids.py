import pytest
from hypothesis import given, strategies as st

from chaingroup import braids, oracle
from chaingroup.braids import BraidWord
from reference import free_reduce, gamma, reduce_letters


def letters_for(n):
    return st.lists(
        st.integers(-(n - 1), n - 1).filter(lambda x: x != 0), max_size=12
    ).map(tuple)


class TestBraidWord:
    def test_letter_range_enforced(self):
        with pytest.raises(ValueError):
            BraidWord(3, (3,))
        with pytest.raises(ValueError):
            BraidWord(3, (0,))
        with pytest.raises(ValueError):
            BraidWord(1, ())

    def test_concatenation_and_identity(self):
        u = BraidWord(4, (1, 2))
        v = BraidWord(4, (3,))
        assert (u * v).letters == (1, 2, 3)
        assert (braids.identity(4) * u).letters == u.letters
        assert (u * braids.identity(4)).letters == u.letters

    def test_inverse_reverses_and_flips(self):
        w = BraidWord(4, (1, -2, 3))
        assert w.inverse().letters == (-3, 2, -1)

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), letters_for(n), letters_for(n), letters_for(n))))
    def test_concatenation_associative(self, data):
        n, a, b, c = data
        u, v, w = BraidWord(n, a), BraidWord(n, b), BraidWord(n, c)
        assert ((u * v) * w).letters == (u * (v * w)).letters

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            BraidWord(3, (1,)) * BraidWord(4, (1,))


class TestGarside:
    def test_small_cases(self):
        assert braids.garside(3).letters == (1, 2, 1)
        assert braids.garside(2).letters == (1,)

    def test_length_and_exponent(self):
        for n in range(2, 13):
            w = braids.garside(n)
            assert len(w) == n * (n - 1) // 2
            assert braids.exponent(w) == n * (n - 1) // 2

    def test_too_few_strands(self):
        with pytest.raises(ValueError):
            braids.garside(1)


class TestFlipDelta:
    def test_small_cases(self):
        assert braids.flip_delta(3).letters == (1, 2)
        assert braids.flip_delta(2).letters == (1,)

    def test_exponent_is_n_minus_1(self):
        assert braids.exponent(braids.flip_delta(5)) == 4


class TestGenerator:
    def test_in_range_index(self):
        assert braids.generator(6, 3).letters == (3,)
        assert braids.generator(6, 7).letters == (1,)

    def test_wrap_index_expansion(self):
        assert braids.generator(6, 0).letters == (1, 2, 3, 4, 5, 5, -5, -4, -3, -2, -1)

    def test_periodicity_mod_n(self):
        for n in range(3, 9):
            for k in range(-3 * n, 3 * n + 1):
                assert oracle.are_equal(braids.generator(n, k), braids.generator(n, k + n))

    def test_needs_three_strands(self):
        with pytest.raises(ValueError):
            braids.generator(2, 0)


class TestExponent:
    def test_examples(self):
        assert braids.exponent(braids.garside(3)) == 3
        assert braids.exponent(BraidWord(5, (3, -1))) == 0
        assert braids.exponent(braids.identity(4)) == 0

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), letters_for(n), letters_for(n))))
    def test_additive(self, data):
        n, a, b = data
        u, v = BraidWord(n, a), BraidWord(n, b)
        assert braids.exponent(u * v) == braids.exponent(u) + braids.exponent(v)

    def test_commutator_subgroup_words(self):
        w = BraidWord(5, (3, -1))
        assert braids.exponent(w) == 0


class TestGamma:
    def test_interior_index(self):
        assert gamma(6, 1).letters == (1, 2, 1, 3, 2, 1)
        assert braids.exponent(gamma(6, 1)) == 6

    def test_top_index_uses_wrap_expansion(self):
        w = gamma(6, 5)
        expected = (
            braids.generator(6, 5)
            * braids.generator(6, 6)
            * braids.generator(6, 5)
            * braids.generator(6, 7)
            * braids.generator(6, 6)
            * braids.generator(6, 5)
        )
        assert w.letters == expected.letters

    def test_swaps_odd_generators_by_conjugation(self):
        n = 6
        for i in (1, 3):
            g = gamma(n, i)
            assert oracle.are_equal(
                g * BraidWord(n, (i,)) * g.inverse(), BraidWord(n, (i + 2,))
            )
            assert oracle.are_equal(
                g * BraidWord(n, (i + 2,)) * g.inverse(), BraidWord(n, (i,))
            )
        g = gamma(n, 1)
        assert oracle.are_equal(g * BraidWord(n, (5,)) * g.inverse(), BraidWord(n, (5,)))

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            gamma(6, 2)
        with pytest.raises(ValueError):
            gamma(6, 7)
        with pytest.raises(ValueError):
            gamma(5, 1)


class TestFreeReduce:
    @pytest.mark.parametrize(
        "before,after",
        [
            ((1, -1), ()),
            ((1, 2, -2, -1), ()),
            ((1, 2, 1), (1, 2, 1)),
            ((1, -1, 2), (2,)),
            ((), ()),
        ],
    )
    def test_examples(self, before, after):
        assert free_reduce(BraidWord(3, before)).letters == after

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), letters_for(n))))
    def test_preserves_braid(self, data):
        n, ls = data
        w = BraidWord(n, ls)
        assert oracle.are_equal(free_reduce(w), w)
        out = reduce_letters(iter(ls))
        assert out == free_reduce(w).letters and all(a != -b for a, b in zip(out, out[1:]))


class TestTextFormat:
    def test_round_trip(self):
        """The printed word reads back through the letters the CLI parses."""
        w = BraidWord(6, (1, -3, 5))
        header, *tokens = braids.format_braid(w).split()
        assert header == "n=6"
        assert braids.parse_letters(6, map(int, tokens)) == w

    def test_wrap_index_on_input(self):
        w = braids.parse_letters(6, (0, 2))
        assert w.letters == braids.generator(6, 0).letters + (2,)
        assert braids.parse_letters(6, (7,)).letters == (1,)


class TestParseLetters:
    @given(
        st.integers(3, 7).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.integers(-3 * n, 3 * n), max_size=20))
        )
    )
    def test_matches_generator_fold(self, data):
        """Tokens 0, negative and |t| >= n parse like one generator per token."""
        n, tokens = data
        w = braids.identity(n)
        for t in tokens:
            g = braids.generator(n, abs(t))
            w = w * (g if t >= 0 else g.inverse())
        assert braids.parse_letters(n, tokens) == w

    def test_rejects_too_few_strands(self):
        with pytest.raises(ValueError):
            braids.parse_letters(0, [1])
        with pytest.raises(ValueError):
            braids.parse_letters(2, [2])
