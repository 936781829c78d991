"""Alphabet-aware string primitives shared by every index in the package.

Everything here operates on ``bytes``.  A corpus is a byte string with a
distinguished terminator symbol (byte value 0) appended exactly once at the
end; the terminator compares smaller than every other symbol, which is what
the suffix-sorting machinery relies on.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

TERMINATOR = 0

# Relative letter frequencies of English text, in percent, most common first.
# Used for sketch defaults, synthetic corpora and frequency-weighted sampling.
ENGLISH_LETTER_FREQUENCIES = {
    "e": 12.702, "t": 9.056, "a": 8.167, "o": 7.507, "i": 6.966,
    "n": 6.749, "s": 6.327, "h": 6.094, "r": 5.987, "d": 4.253,
    "l": 4.025, "c": 2.782, "u": 2.758, "m": 2.406, "w": 2.361,
    "f": 2.228, "g": 2.015, "y": 1.974, "p": 1.929, "b": 1.492,
    "v": 0.978, "k": 0.772, "j": 0.153, "x": 0.150, "q": 0.095,
    "z": 0.074,
}


@dataclass(frozen=True)
class Corpus:
    """Immutable text with the terminator appended as the final symbol.

    ``data`` holds the full byte sequence including the terminator; ``text``
    is the original input.  Symbol value 0 is reserved for the terminator and
    rejected in input.
    """

    data: bytes

    def __post_init__(self):
        if len(self.data) < 1 or self.data[-1] != TERMINATOR:
            raise ValueError("corpus must end with the terminator symbol")
        if TERMINATOR in self.data[:-1]:
            raise ValueError("symbol value 0 is reserved for the terminator")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Corpus":
        if TERMINATOR in raw:
            raise ValueError("symbol value 0 is reserved for the terminator")
        return cls(bytes(raw) + bytes([TERMINATOR]))

    @property
    def n(self) -> int:
        return len(self.data)

    @property
    def text(self) -> bytes:
        return self.data[:-1]


def printable(data: bytes) -> str:
    """Render a byte string for display, showing the terminator as `$`."""
    return "".join("$" if b == TERMINATOR else chr(b) for b in data)


def packed_words(data: bytes) -> np.ndarray:
    """For each position i, data[i:i+8] as a big-endian uint64, zero-padded
    past the end.  Comparing two words compares the 8-byte strings."""
    # An unaligned view with a stride of one byte reads the eight bytes at
    # every position; `astype` copies them out in native order.
    return np.ndarray((len(data),), dtype=">u8", buffer=bytes(data) + bytes(7),
                      strides=(1,)).astype(np.uint64)


def byte_windows(data, q: int) -> np.ndarray:
    """For each position i with q bytes from i on, data[i:i+q] as one q-byte
    numpy void item, in a view with a stride of one byte: no copy.  `tolist`
    makes each item a bytes object with every byte kept, where numpy's
    `S{q}` strings would drop trailing 0 bytes."""
    data = np.frombuffer(data, dtype=np.uint8)
    return np.ndarray((max(len(data) - q + 1, 0),), dtype=f"V{q}", buffer=data,
                      strides=(1,))


def _window_keys(text: bytes, q: int) -> np.ndarray:
    """One integer per q-gram start, ordered as the q-grams compare.

    Up to 8 symbols the key is the gram's q bytes read as one big-endian
    integer, shifted down in place in the packed words.
    Longer grams are ranked by doubling, as in suffix sorting: 8-symbol
    words are ranked, pairs of ranks `span` apart give the ranks of
    2 * span symbols, and once two spans cover q symbols a gram compares as
    its pair (rank at i, rank at i + q - span).  Time is O(n log q) and
    memory O(n) for any q.
    """
    n = len(text)
    count = n - q + 1
    words = packed_words(text)
    if q <= 8:
        keys = words[:count]
        keys >>= np.uint64(8 * (8 - q))
        return keys
    # Ranks at positions whose span runs past the text are padded; no
    # gram that fits the text reads them.
    ranks = np.unique(words, return_inverse=True)[1]
    span = 8
    while 2 * span < q:
        ranks = np.unique(ranks[:-span] * (n + 1) + ranks[span:], return_inverse=True)[1]
        span *= 2
    return ranks[:count] * (n + 1) + ranks[q - span:q - span + count]


def minimizers(text: bytes, alpha: int, q: int) -> np.ndarray:
    """The (alpha, q)-minimizer positions of `text`, strictly increasing, as
    int64.

    A window of alpha consecutive q-grams (q + alpha - 1 symbols) slides over
    the text one symbol at a time; each window contributes its
    lexicographically smallest q-gram, the leftmost one on ties.  Winning
    positions are recorded once each.

    Vectorised, in O(n) memory whatever alpha is: grams are compared as
    integer keys (`_window_keys`), and each window's winner comes from
    ceil(log2 alpha) in-place passes over them.  A pass joins the windows
    of `span` grams at i and i + step (step <= span) into one of span +
    step grams at i, keeping the right one's winning position only if its
    key is smaller, so that the leftmost of equal grams wins.  Winners
    never move left, so a winner shared by neighbouring windows is a
    repeat next to itself and is dropped.  Only the build selects
    minimizers: a query steps on whichever grams the directory lists.
    """
    n = len(text)
    if alpha < 1 or q < 1:
        raise ValueError("alpha and q must be positive")
    if n < q + alpha - 1:
        raise ValueError(
            f"text of length {n} is shorter than one window ({q + alpha - 1})")
    keys = _window_keys(text, q)
    count = len(keys)
    positions = np.arange(count, dtype=np.min_scalar_type(count - 1))
    size, span = count, 1
    while span < alpha:
        step = min(span, alpha - span)
        size -= step
        later = keys[step:step + size] < keys[:size]
        # The right winner's position where its key is smaller, without a
        # branch: unsigned differences wrap, and wrap back when added.
        moved = positions[step:step + size] - positions[:size]
        moved *= later
        positions[:size] += moved
        del later, moved
        # In place: element i reads i + step before the pass writes it.
        np.minimum(keys[:size], keys[step:step + size], out=keys[:size])
        span += step
    winners = positions[:size]
    del keys
    fresh = np.empty(size, dtype=bool)
    fresh[0] = True
    np.not_equal(winners[1:], winners[:-1], out=fresh[1:])
    return winners[fresh].astype(np.int64, copy=False)


def phrases(text: bytes, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phrases of `text` between consecutive minimizer positions `starts`
    (`minimizers`), as their offsets and lengths: phrase i is
    text[offsets[i]:offsets[i] + lengths[i]], so there is one phrase fewer
    than there are positions.  Refuses with `ValueError` empty `starts` and
    a last position outside `text`."""
    if not len(starts):
        raise ValueError("minimizer positions are empty")
    if not 0 <= starts[-1] < len(text):
        raise ValueError("minimizer positions run past the text")
    lengths = np.diff(starts)
    # Narrowed, since the directory build holds it through every pass of
    # `fmgram._phrase_grams`: held as int64, it raised the traced build peak
    # on 1 MiB of DNA-like text at alpha 3, q 4 from 29.3 to 33.0 MiB.
    return starts[:-1], lengths.astype(np.min_scalar_type(lengths.max(initial=0)))


def entropy(counts: Mapping[int, int]) -> float:
    """Zero-order entropy in bits per symbol of the per-symbol occurrence
    counts `counts`: -sum(p * log2 p), 0 log 0 = 0."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty frequency table")
    result = 0.0
    for count in counts.values():
        if count:
            p = count / total
            result -= p * math.log2(p)
    return result
