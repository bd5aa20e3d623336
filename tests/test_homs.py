import random

import pytest
from hypothesis import given, settings, strategies as st

from chaingroup import braids, homs, oracle
from chaingroup.braids import BraidWord
from chaingroup.homs import BraidHom, cabling_b3, cyclic_test, theorem4_endo
from reference import compose_homs, identity_hom, inclusion


class TestBraidHom:
    def test_checked_rejects_bad_images(self):
        images = (BraidWord(4, (1,)), BraidWord(4, (1, 1)), BraidWord(4, (3,)))
        with pytest.raises(ValueError):
            BraidHom.checked(4, 4, images)

    def test_apply_substitutes_letterwise(self):
        h = identity_hom(4)
        w = BraidWord(4, (1, -2, 3))
        assert h.apply(w).letters == w.letters

    @given(st.lists(st.sampled_from((1, 2, -1, -2)), max_size=30))
    def test_apply_matches_concatenation(self, ls):
        h = homs.cabling_b3(2)
        expected = braids.identity(6)
        for x in ls:
            img = h.images[abs(x) - 1]
            expected = expected * (img if x > 0 else img.inverse())
        assert h.apply(BraidWord(3, tuple(ls))) == expected

    def test_image_count_enforced(self):
        with pytest.raises(ValueError):
            BraidHom(4, 4, (BraidWord(4, (1,)),))


class TestCyclicTest:
    def test_constant_map(self):
        h = BraidHom(6, 6, tuple(BraidWord(6, (1,)) for _ in range(5)))
        assert cyclic_test(h)

    def test_inclusion_not_cyclic(self):
        assert not cyclic_test(inclusion(5, 6))

    def test_central_offset_still_distinct(self):
        n = 6
        central = braids.garside(n) ** 2
        images = []
        for i in range(1, n):
            base = BraidWord(n, (1,))
            images.append(base if i % 2 else base * central)
        h = BraidHom(n, n, tuple(images))
        assert not cyclic_test(h)


class TestTheorem4Endo:
    def test_identity_endomorphism(self):
        h = theorem4_endo(6, braids.identity(6), 1, 0)
        assert all(w.letters == (i,) for i, w in enumerate(h.images, start=1))

    def test_inverting_involution(self):
        h = theorem4_endo(6, braids.identity(6), -1, 0)
        assert all(w.letters == (-i,) for i, w in enumerate(h.images, start=1))

    def test_conjugated_twisted_family_verifies(self):
        theorem4_endo(6, BraidWord(6, (1,)), 1, 1)

    def test_exponent_law_and_noncyclicity(self):
        n = 6
        rng = random.Random(42)
        for _ in range(6):
            gamma = BraidWord(
                n,
                tuple(
                    rng.choice([i for i in range(-(n - 1), n) if i != 0])
                    for _ in range(rng.randint(0, 10))
                ),
            )
            eps = rng.choice([1, -1])
            k = rng.choice([-1, 0, 1])
            h = theorem4_endo(n, gamma, eps, k)
            for w in h.images:
                assert braids.exponent(w) == eps + k * n * (n - 1)
            assert not cyclic_test(h)

    def test_half_twist_exponent_image(self):
        n, k = 6, 1
        h = theorem4_endo(n, braids.identity(n), 1, k)
        image = h.apply(braids.garside(n))
        expected = n * (n - 1) // 2 + k * n * (n - 1) * (n * (n - 1) // 2)
        assert braids.exponent(image) == expected

    def test_untwisted_family_conjugates_half_twist(self):
        n = 6
        half = braids.garside(n)
        for gamma, eps in ((BraidWord(n, (2, -4)), 1), (BraidWord(n, (1, 1)), -1)):
            h = theorem4_endo(n, gamma, eps, 0)
            conjugate = gamma * (half**eps) * gamma.inverse()
            assert oracle.are_equal(h.apply(half), conjugate)
            assert braids.exponent(h.apply(half)) == eps * n * (n - 1) // 2

    def test_needs_six_strands(self):
        with pytest.raises(ValueError):
            theorem4_endo(5, braids.identity(5), 1, 0)


class TestCabling:
    def test_width_one_is_identity(self):
        h = cabling_b3(1)
        assert [w.letters for w in h.images] == [(1,), (2,)]

    @pytest.mark.parametrize("k", [2, 3])
    def test_half_twist_identity(self, k):
        h = cabling_b3(k)
        assert oracle.are_equal(h.apply(braids.garside(3)), braids.garside(3 * k))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exponents(self, k):
        h = cabling_b3(k)
        exps = {braids.exponent(w) for w in h.images}
        assert len(exps) == 1
        assert braids.exponent(h.apply(braids.garside(3))) == 3 * k * (3 * k - 1) // 2

    def test_not_cyclic(self):
        assert not cyclic_test(cabling_b3(2))


class TestCompose:
    def test_identity_neutral(self):
        h = theorem4_endo(6, BraidWord(6, (2,)), -1, 0)
        assert compose_homs(identity_hom(6), h).images == h.images

    def test_cable_then_inclusion(self):
        h = compose_homs(cabling_b3(2), inclusion(6, 7))
        assert h.n == 3 and h.m == 7
        assert oracle.verify_candidate_hom(3, {1: h.images[0], 2: h.images[1]})

    def test_exponent_multiplicative_through_substitution(self):
        h1 = cabling_b3(2)
        h2 = inclusion(6, 7)
        w = BraidWord(3, (1,))
        assert braids.exponent(compose_homs(h1, h2).apply(w)) == braids.exponent(
            h2.apply(h1.apply(w))
        )

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            compose_homs(cabling_b3(2), identity_hom(7))


@st.composite
def braid_homs(draw):
    """Any map B_n -> B_m given by generator images, relations unchecked."""
    n, m = draw(st.integers(2, 7)), draw(st.integers(2, 9))
    letter = st.integers(1, m - 1) | st.integers(1 - m, -1)
    words = st.lists(letter, max_size=12).map(lambda ls: BraidWord(m, ls))
    return BraidHom(n, m, tuple(draw(st.lists(words, min_size=n - 1, max_size=n - 1))))


class TestHomTextFormat:
    @settings(deadline=None)
    @given(braid_homs())
    def test_format_then_parse_is_the_identity(self, h):
        assert homs.parse_hom(homs.format_hom(h)) == h

    def test_round_trip(self):
        h = cabling_b3(2)
        parsed = homs.parse_hom(homs.format_hom(h))
        assert parsed.images == h.images and (parsed.n, parsed.m) == (3, 6)

    def test_missing_generator_line(self):
        with pytest.raises(ValueError):
            homs.parse_hom("n=3 m=6\n1 : 1 2")
