import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from chaingroup import braids, kernel
from chaingroup.braids import BraidWord
from chaingroup.oracle import are_equal, is_central, is_identity, verify_candidate_hom
from reference import artin_action, compose, free_reduce, is_central_by_generators


def words(n, max_size=10):
    return st.lists(
        st.integers(-(n - 1), n - 1).filter(lambda x: x != 0), max_size=max_size
    ).map(lambda ls: BraidWord(n, tuple(ls)))


class TestArtinAction:
    def test_generator_rule(self):
        a = artin_action(BraidWord(3, (1,)))
        assert a.images == ((1, 2, -1), (1,), (3,))

    def test_empty_word_is_identity(self):
        assert artin_action(braids.identity(3)).is_identity()

    def test_braid_relation_as_automorphisms(self):
        assert artin_action(BraidWord(3, (1, 2, 1))) == artin_action(BraidWord(3, (2, 1, 2)))

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), words(n), words(n))))
    def test_composition_order(self, data):
        n, u, v = data
        assert artin_action(u * v) == compose(artin_action(u), artin_action(v))

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), words(n))))
    def test_fixes_product_of_generators(self, data):
        n, w = data
        auto = artin_action(w)
        assert auto.apply(tuple(range(1, n + 1))) == tuple(range(1, n + 1))

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), words(n))))
    def test_permutes_generator_conjugacy_classes(self, data):
        n, w = data
        for img in artin_action(w).images:
            core = _cyclic_reduce(img)
            assert len(core) == 1 and core[0] > 0

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), words(n))))
    def test_sound_under_free_reduction(self, data):
        n, w = data
        assert artin_action(free_reduce(w)) == artin_action(w)


def _cyclic_reduce(word):
    w = list(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


class TestIsIdentity:
    def test_braid_relation(self):
        assert is_identity(BraidWord(3, (1, 2, 1, -2, -1, -2)))

    def test_distant_commutation(self):
        assert is_identity(BraidWord(5, (1, 3, -1, -3)))

    def test_single_generator(self):
        assert not is_identity(BraidWord(3, (1,)))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_two_generator_spot_suite(self, n):
        # Exact small-word oracle: words on two generators of length <= 4 are
        # trivial iff the abelianized exponents vanish and, when the
        # generators braid, the word freely reduces to nothing.
        for i, j in itertools.combinations_with_replacement(range(1, n), 2):
            alphabet = sorted({i, -i, j, -j})
            for length in range(5):
                for combo in itertools.product(alphabet, repeat=length):
                    w = BraidWord(n, combo)
                    if i == j:
                        expected = braids.exponent(w) == 0
                    elif abs(i - j) >= 2:
                        expected = (
                            sum(1 if x == i else -1 if x == -i else 0 for x in combo) == 0
                            and sum(1 if x == j else -1 if x == -j else 0 for x in combo) == 0
                        )
                    else:
                        expected = _reduces_to_empty_with_commutes(combo)
                    assert is_identity(w) == expected, combo

    def test_index_shift_identities_with_wrap(self):
        for n in range(3, 9):
            delta = braids.flip_delta(n)
            for i in range(n):
                lhs = delta * braids.generator(n, i) * delta.inverse()
                assert are_equal(lhs, braids.generator(n, i + 1))
            wrap = (delta**2) * BraidWord(n, (n - 1,)) * (delta**-2)
            assert are_equal(wrap, BraidWord(n, (1,)))


def _reduces_to_empty_with_commutes(combo):
    # adjacent generators: only free cancellation can kill words this short
    stack = []
    for x in combo:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return not stack


class TestAreEqual:
    def test_index_shift(self):
        d = braids.flip_delta(6)
        assert are_equal(d * BraidWord(6, (1,)) * d.inverse(), BraidWord(6, (2,)))

    def test_half_twist_reversal(self):
        g = braids.garside(6)
        assert are_equal(g * BraidWord(6, (2,)) * g.inverse(), BraidWord(6, (4,)))

    def test_center_generator(self):
        assert are_equal(braids.flip_delta(6) ** 6, braids.garside(6) ** 2)

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            are_equal(BraidWord(3, (1,)), BraidWord(4, (1,)))


def _centrality_cases(n):
    """Central words, odd half-twist powers, non-central words whose exponent
    sum is a multiple of n(n-1), and free random words, on n strands."""
    half, flip = braids.garside(n), braids.flip_delta(n)
    pairs = [(i, j) for i in range(1, n) for j in range(1, n) if i != j] or [(1, 1)]
    conj = words(n)
    powers = st.integers(-3, 3)
    central = st.tuples(conj, powers, st.booleans()).map(
        lambda t: t[0] * (half ** (2 * t[1]) if t[2] else flip ** (n * t[1])) * t[0].inverse()
    )
    odd = st.tuples(conj, powers).map(lambda t: t[0] * half ** (2 * t[1] + 1) * t[0].inverse())
    shifted = st.tuples(conj, powers, st.sampled_from(pairs)).map(
        lambda t: t[0] * half ** (2 * t[1]) * BraidWord(n, (t[2][0], -t[2][1])) * t[0].inverse()
    )
    return st.one_of(central, odd, shifted, words(n, max_size=30))


class TestIsCentral:
    def test_half_twist_square_is_central(self):
        assert is_central(braids.garside(6) ** 2)

    def test_half_twist_is_not(self):
        assert not is_central(braids.garside(6))

    def test_empty_word(self):
        assert is_central(braids.identity(6))

    def test_exponent_multiple_but_not_central(self):
        w = braids.garside(4) ** 2 * BraidWord(4, (1, -2))
        assert braids.exponent(w) == 12 and not is_central(w)

    @given(st.integers(2, 8).flatmap(_centrality_cases))
    def test_agrees_with_the_generator_by_generator_check(self, w):
        assert is_central(w) == is_central_by_generators(w)

    @given(st.integers(2, 8).flatmap(_centrality_cases))
    def test_calls_the_kernel_at_most_once(self, w):
        n = w.n
        calls = []

        def counting(letters, coords):
            calls.append(len(letters))
            return dynnikov(letters, coords)

        dynnikov = kernel.dynnikov
        with mock.patch.object(kernel, "dynnikov", counting):
            is_central(w)
        if n == 2 or braids.exponent(w) % (n * (n - 1)):
            assert calls == []
        else:
            assert len(calls) == 1 and calls[0] <= 2 * len(w)


class TestVerifyCandidateHom:
    def test_inclusion(self):
        images = {i: BraidWord(6, (i,)) for i in range(1, 5)}
        assert verify_candidate_hom(5, images)

    def test_constant_map(self):
        images = {i: BraidWord(6, (1,)) for i in range(1, 6)}
        assert verify_candidate_hom(6, images)

    def test_conjugated_inverse_with_center(self):
        n = 6
        g = BraidWord(n, (1,))
        central = braids.garside(n) ** 2
        images = {
            i: g * BraidWord(n, (i,)).inverse() * g.inverse() * central for i in range(1, n)
        }
        assert verify_candidate_hom(n, images)

    def test_detects_broken_images(self):
        images = {1: BraidWord(4, (1,)), 2: BraidWord(4, (1, 1)), 3: BraidWord(4, (3,))}
        assert not verify_candidate_hom(4, images)

    def test_requires_full_index_set(self):
        with pytest.raises(ValueError):
            verify_candidate_hom(4, {1: BraidWord(4, (1,))})


class TestLongWords:
    """A freely reduced 400-letter word on 8 strands. Through the Artin action
    w * w^-1 builds free-group words of millions of letters; Dynnikov
    coordinates stay under 70 bits."""

    @staticmethod
    def _word():
        rng = random.Random(2011)
        letters = []
        while len(letters) < 400:
            x = rng.choice((1, -1)) * rng.randint(1, 7)
            if not letters or letters[-1] != -x:
                letters.append(x)
        return BraidWord(8, tuple(letters))

    def test_word_times_inverse_is_trivial(self):
        w = self._word()
        assert is_identity(w * w.inverse())

    def test_conjugate_of_generator_is_not(self):
        w = self._word()
        assert not is_identity(w * BraidWord(8, (1,)) * w.inverse())

    def test_coordinate_bits_grow_at_most_linearly(self):
        # One letter rewrites two pairs; |t| is at most the sum of the four
        # old values and each new value at most |t| plus three old ones, so
        # the largest |coordinate| grows by at most 7 < 2^3 per letter.
        w = self._word()
        coords = (0, 1) * 8
        for k, s in enumerate((w * w.inverse()).letters, 1):
            coords = kernel.dynnikov((s,), coords)
            assert max(abs(x).bit_length() for x in coords) <= 1 + 3 * k
        assert coords == (0, 1) * 8
