"""Braid words in the standard generators, with the extended index convention.

A braid on n strands is stored as a flat sequence of nonzero signed generator
indices: the letter i stands for the standard generator t_i, and -i for its
inverse. No normal form is maintained; equality of braids is decided by the
word-problem oracle (see chaingroup.oracle). Generator indices outside
[1, n-1] are normalized modulo n on construction helpers: index 0 names the
extra generator delta * t_{n-1} * delta^{-1} and is expanded into classic
letters, so the classic presentation remains the storage invariant.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from . import Record


class BraidWord(Record):
    """A word in the standard generators of the braid group on n strands.

    Concatenation is associative with the empty word as identity; inversion
    reverses the letter sequence and flips every sign. Words are frozen
    records: equal when n and the letters are, and hashed accordingly. The
    constructor is written out, as the hottest one in the package.
    """

    __slots__ = ("n", "letters")
    # the fields that Record compares, hashes and freezes
    n: int
    letters: tuple[int, ...]

    def __init__(self, n: int, letters: Iterable[int] = ()):
        if n < 2:
            raise ValueError(f"strand count must be at least 2, got {n}")
        letters = tuple(letters)
        for x in letters:
            if not 1 <= abs(x) <= n - 1:
                raise ValueError(f"letter {x} out of range for {n} strands")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"strand counts differ: {self.n} vs {other.n}")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.n, tuple(-x for x in reversed(self.letters)))

    def __pow__(self, k: int) -> BraidWord:
        base = self if k >= 0 else self.inverse()
        return BraidWord(self.n, base.letters * abs(k))

    def __repr__(self):
        return f"BraidWord(n={self.n}, {' '.join(map(str, self.letters)) or 'e'})"


def identity(n: int) -> BraidWord:
    """The empty word on n strands."""
    return BraidWord(n, ())


def garside(n: int) -> BraidWord:
    """The positive half-twist word t_1 (t_2 t_1) ... (t_{n-1} ... t_1).

    Its length is n(n-1)/2 and its square generates the center.
    """
    out: list[int] = []
    for j in range(1, n):
        out.extend(range(j, 0, -1))
    return BraidWord(n, tuple(out))


def flip_delta(n: int) -> BraidWord:
    """The 1/n-flip t_1 t_2 ... t_{n-1}; conjugation by it shifts indices."""
    return BraidWord(n, tuple(range(1, n)))


def generator(n: int, k: int) -> BraidWord:
    """The standard generator of index k, indices read modulo n.

    For k = 0 mod n the word is the expansion delta t_{n-1} delta^{-1}, so the
    result always uses classic letters only.
    """
    if n < 3:
        raise ValueError(f"extended indexing needs at least 3 strands, got {n}")
    j = k % n
    if j != 0:
        return BraidWord(n, (j,))
    d = flip_delta(n)
    return d * BraidWord(n, (n - 1,)) * d.inverse()


def exponent(w: BraidWord) -> int:
    """Sum of letter signs: the homomorphism to Z sending every t_i to 1."""
    return sum(1 if x > 0 else -1 for x in w.letters)


def parse_letters(n: int, tokens: Iterable[int]) -> BraidWord:
    """Assemble a word from raw signed indices, normalizing each modulo n.

    A token k > 0 contributes generator(n, k); k < 0 contributes its inverse.
    Index 0 (mod n) is accepted for n >= 3 and expanded on parse.
    """
    if n < 2:
        raise ValueError(f"strand count must be at least 2, got {n}")
    out: list[int] = []
    for t in tokens:
        j = abs(t) % n
        g = (j,) if j else generator(n, 0).letters
        out.extend(g if t >= 0 else (-x for x in reversed(g)))
    return BraidWord(n, tuple(out))


def format_braid(w: BraidWord) -> str:
    return " ".join([f"n={w.n}", *map(str, w.letters)])
