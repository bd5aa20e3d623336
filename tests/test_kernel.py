"""The word-problem kernel: Dynnikov coordinates against the Artin action."""

import pytest
from hypothesis import given, settings, strategies as st

from chaingroup import kernel
from chaingroup.braids import BraidWord
from reference import apply_letters, artin_action, identity_images

# The kernel and the Artin reference as functions of (n, letters), each
# started at its identity.
ACTIONS = {
    "apply_letters": lambda n, letters: apply_letters(n, letters, identity_images(n)),
    "dynnikov": lambda n, letters: kernel.dynnikov(letters, (0, 1) * n),
}


def test_backend_is_python():
    assert kernel.backend() == "python"


@pytest.mark.parametrize("act", ACTIONS.values(), ids=list(ACTIONS))
def test_letter_inverse_cancels(act):
    n = 5
    start = act(n, [])
    for i in range(1, n):
        assert act(n, [i, -i]) == start
        assert act(n, [-i, i]) == start


@pytest.mark.parametrize("act", ACTIONS.values(), ids=list(ACTIONS))
def test_out_of_range_letter_rejected(act):
    for letter in (3, -3, 0):
        with pytest.raises(ValueError):
            act(3, [letter])


def _letters(n, max_size):
    return st.lists(
        st.integers(-(n - 1), n - 1).filter(lambda x: x != 0), max_size=max_size
    )


def _inverse(letters):
    return [-x for x in reversed(letters)]


@st.composite
def relator(draw, n):
    """A word that is trivial in B_n: an inverse pair, a braid relation or a
    far commutation."""
    kinds = ["inverse"] + ["braid"] * (n >= 3) + ["far"] * (n >= 4)
    kind = draw(st.sampled_from(kinds))
    if kind == "inverse":
        i = draw(st.integers(1, n - 1))
        return [i, -i] if draw(st.booleans()) else [-i, i]
    if kind == "braid":
        i = draw(st.integers(1, n - 2))
        return [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    i = draw(st.integers(1, n - 3))
    j = draw(st.integers(i + 2, n - 1))
    return [i, j, -i, -j]


@st.composite
def word_case(draw):
    """(n, letters, known_trivial): a random word, or one built trivial by
    inserting relators into x x^-1 and conjugating the result."""
    n = draw(st.integers(2, 8))
    if not draw(st.booleans()):
        return n, draw(_letters(n, 14)), False
    x = draw(_letters(n, 8))
    w = x + _inverse(x)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(w)))
        w = w[:at] + draw(relator(n)) + w[at:]
    c = draw(_letters(n, 5))
    return n, c + w + _inverse(c), True


@settings(max_examples=300, deadline=None)
@given(word_case())
def test_dynnikov_agrees_with_artin_action(case):
    n, letters, known_trivial = case
    start = (0, 1) * n
    verdict = kernel.dynnikov(letters, start) == start
    assert verdict == artin_action(BraidWord(n, tuple(letters))).is_identity()
    if known_trivial:
        assert verdict


@st.composite
def vector_case(draw):
    n = draw(st.integers(2, 8))
    coords = draw(st.lists(st.integers(-10**6, 10**6), min_size=2 * n, max_size=2 * n))
    i = draw(st.integers(1, n - 1))
    j = draw(st.integers(1, n - 1))
    return n, tuple(coords), i, j


@settings(max_examples=500)
@given(vector_case())
def test_dynnikov_maps_satisfy_the_relations(case):
    n, coords, i, j = case
    act = kernel.dynnikov
    assert act([i, -i], coords) == coords
    assert act([-i, i], coords) == coords
    if i + 1 < n:
        assert act([i, i + 1, i], coords) == act([i + 1, i, i + 1], coords)
    if abs(i - j) >= 2:
        assert act([i, j], coords) == act([j, i], coords)
