"""Explicit braid-to-braid homomorphisms, oracle-verified on construction.

A homomorphism is stored by its generator images; BraidHom.checked verifies
all braid and commutation relations through the word-problem oracle, and
every builder returns a checked one. Builders cover the conjugated
power-times-central-twist endomorphism family, the strand-tripling cabling
map sending the half twist of the 3-strand group to the half twist of the
3k-strand group.
"""

from __future__ import annotations

from . import Record, braids, oracle, parse_int, parse_ints
from .braids import BraidWord


class BraidHom(Record):
    """Generator images of a homomorphism between braid groups.

    images[i-1] is the image of the i-th source generator, a word on m
    strands. The constructor checks only the shapes; BraidHom.checked also
    checks every relation through the oracle.
    """

    n: int
    m: int
    images: tuple[BraidWord, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if self.n < 2:
            raise ValueError(f"strand count must be at least 2, got {self.n}")
        if len(self.images) != self.n - 1:
            raise ValueError(f"need {self.n - 1} generator images, got {len(self.images)}")
        for w in self.images:
            if w.n != self.m:
                raise ValueError("image words must live on the target strand count")

    @staticmethod
    def checked(n: int, m: int, images: tuple[BraidWord, ...]) -> BraidHom:
        h = BraidHom(n, m, images)
        if not oracle.verify_candidate_hom(n, {i + 1: w for i, w in enumerate(images)}):
            raise ValueError("generator images violate a braid or commutation relation")
        return h

    def apply(self, w: BraidWord) -> BraidWord:
        """Image of a source word, by letter-wise substitution."""
        if w.n != self.n:
            raise ValueError(f"word lives on {w.n} strands, homomorphism source has {self.n}")
        out: list[int] = []
        for x in w.letters:
            img = self.images[abs(x) - 1].letters
            out.extend(img if x > 0 else (-y for y in reversed(img)))
        return BraidWord(self.m, tuple(out))


def cyclic_test(h: BraidHom) -> bool:
    """True iff all generator images are equal as braids."""
    first = h.images[0]
    return all(oracle.are_equal(first, w) for w in h.images[1:])


def theorem4_endo(n: int, gamma: BraidWord, eps: int, k: int) -> BraidHom:
    """The endomorphism t_i -> gamma t_i^eps gamma^{-1} Delta^{2k}.

    Delta is the half-twist word, whose square is central, so the images
    satisfy the relations whenever the conjugated powers do; the constructor
    verifies this through the oracle anyway.
    """
    if n < 6:
        raise ValueError("endomorphism family defined for at least 6 strands")
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if gamma.n != n:
        raise ValueError("conjugator must live on n strands")
    central = braids.garside(n) ** (2 * k)
    images = tuple(
        gamma * (BraidWord(n, (i,)) ** eps) * gamma.inverse() * central for i in range(1, n)
    )
    return BraidHom.checked(n, n, images)


def _block_swap(k: int, pos: int, total: int) -> BraidWord:
    """Positive crossing of the width-k cables at positions pos, pos+1.

    Every strand of the left cable crosses every strand of the right cable
    exactly once.
    """
    a = (pos - 1) * k
    out: list[int] = []
    for t in range(1, k + 1):
        out.extend(range(a + k + t - 1, a + t - 1, -1))
    return BraidWord(total, tuple(out))


def _internal_twist(k: int, pos: int, total: int) -> BraidWord:
    """Half twist inside the width-k cable at position pos."""
    if k == 1:
        return braids.identity(total)
    return BraidWord(total, tuple(x + (pos - 1) * k for x in braids.garside(k).letters))


def cabling_b3(k: int) -> BraidHom:
    """A strand-tripling homomorphism B_3 -> B_{3k} carrying the half twist
    of the source to the half twist of the target.

    Each generator image is a positive block crossing of two adjacent
    width-k cables together with one internal cable half twist; the internal
    twist placement is searched, and the first family passing both the
    relation check and the half-twist identity is returned. A bare block
    crossing never passes the half-twist check, since strands inside one
    cable would then never cross.
    """
    if k < 1:
        raise ValueError("cable width must be positive")
    total = 3 * k
    delta3k = braids.garside(total)

    def candidates(i: int) -> list[BraidWord]:
        swap = _block_swap(k, i, total)
        words = []
        for pos in (1, 2, 3):
            tw = _internal_twist(k, pos, total)
            words.append(tw * swap)
            words.append(swap * tw)
        return words

    for img1 in candidates(1):
        for img2 in candidates(2):
            try:
                h = BraidHom.checked(3, total, (img1, img2))
            except ValueError:
                continue
            if oracle.are_equal(h.apply(braids.garside(3)), delta3k):
                return h
    raise ValueError("no cable family passed both the relation and half-twist checks")


def parse_hom(text: str) -> BraidHom:
    """Parse the text format: 'n=<int> m=<int>' then '<i> : <letters>' lines."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty homomorphism text")
    header = lines[0].split()
    if len(header) != 2 or not header[0].startswith("n=") or not header[1].startswith("m="):
        raise ValueError("homomorphism text must start with 'n=<int> m=<int>'")
    n, m = parse_int(header[0][2:], "n"), parse_int(header[1][2:], "m")
    images: dict[int, BraidWord] = {}
    for ln in lines[1:]:
        left, _, right = ln.partition(":")
        i = parse_int(left.strip(), "generator")
        if i in images:
            raise ValueError(f"repeated image line for generator {i}")
        images[i] = braids.parse_letters(m, parse_ints(right.split(), f"image {i}"))
    if set(images) != set(range(1, n)):
        raise ValueError(f"need one image line per generator 1..{n - 1}")
    return BraidHom(n, m, tuple(images[i] for i in range(1, n)))


def format_hom(h: BraidHom) -> str:
    lines = [f"n={h.n} m={h.m}"]
    for i, w in enumerate(h.images, start=1):
        lines.append(f"{i} : {' '.join(map(str, w.letters))}")
    return "\n".join(lines)
