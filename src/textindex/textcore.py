"""Alphabet-aware string primitives shared by every index in the package.

Everything here operates on ``bytes``.  A corpus is a byte string with a
distinguished terminator symbol (byte value 0) appended exactly once at the
end; the terminator compares smaller than every other symbol, which is what
the suffix-sorting machinery relies on.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass, field

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


def most_common_letters(count: int) -> bytes:
    """The `count` most frequent English letters, most frequent first."""
    letters = list(ENGLISH_LETTER_FREQUENCIES)
    if count > len(letters):
        raise ValueError(f"only {len(letters)} letters available")
    return "".join(letters[:count]).encode()


def least_common_letters(count: int) -> bytes:
    letters = list(ENGLISH_LETTER_FREQUENCIES)
    if count > len(letters):
        raise ValueError(f"only {len(letters)} letters available")
    return "".join(letters[-count:]).encode()


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


def dense_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts `keys`, and for each key the number of distinct
    keys smaller than it.  Equal keys get equal ranks, so the sort need not
    be stable."""
    order = np.argsort(keys)
    ordered = keys[order]
    changed = np.empty(len(keys), dtype=bool)
    changed[:1] = False
    np.not_equal(ordered[1:], ordered[:-1], out=changed[1:])
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.cumsum(changed)
    return order, ranks


def _window_keys(text: bytes, q: int) -> np.ndarray:
    """One integer per q-gram start, ordered as the q-grams compare.

    Up to 8 symbols the key is the gram's packed word with the symbols
    after the gram masked off.  Longer grams are ranked by doubling, as in
    suffix sorting: 8-symbol words are ranked, pairs of ranks `span` apart
    give the ranks of 2 * span symbols, and once two spans cover q symbols
    a gram compares as its pair (rank at i, rank at i + q - span).  Time is
    O(n log q) and memory O(n) for any q.
    """
    n = len(text)
    count = n - q + 1
    words = packed_words(text)
    if q <= 8:
        shift = np.uint64(8 * (8 - q))
        return words[:count] >> shift << shift
    # Ranks at positions whose span runs past the text are padded; no
    # gram that fits the text reads them.
    ranks = dense_ranks(words)[1]
    span = 8
    while 2 * span < q:
        ranks = dense_ranks(ranks[:-span] * (n + 1) + ranks[span:])[1]
        span *= 2
    return ranks[:count] * (n + 1) + ranks[q - span:q - span + count]


@dataclass(frozen=True, eq=False)
class MinimizerSet:
    """Selected (alpha, q)-minimizers of a text.

    `starts` holds the winning gram positions, strictly increasing.
    `positions`, `grams` and `entries` ((position, gram) pairs) are derived
    from it on request.
    """

    alpha: int
    q: int
    text: bytes
    starts: np.ndarray

    @property
    def n(self) -> int:
        return len(self.text)

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(self.starts.tolist())

    @property
    def grams(self) -> tuple[bytes, ...]:
        q, text = self.q, self.text
        return tuple(text[p:p + q] for p in self.starts.tolist())

    @property
    def entries(self) -> tuple[tuple[int, bytes], ...]:
        return tuple(zip(self.positions, self.grams))


def minimizers(text: bytes, alpha: int, q: int) -> MinimizerSet:
    """Select (alpha, q)-minimizers of `text`.

    A window of alpha consecutive q-grams (q + alpha - 1 symbols) slides over
    the text one symbol at a time; each window contributes its
    lexicographically smallest q-gram, the leftmost one on ties.  Winning
    positions are recorded once each.

    Vectorised: grams are compared as integer keys (`_window_keys`), every
    window's winner is an `argmin` over a sliding view (which returns the
    first, so leftmost, minimum), and repeated winners of neighbouring
    windows are dropped.  This is the build's path; a query, which reads
    only the rightmost few positions, takes `minimizers_from_right`.
    """
    n = len(text)
    if alpha < 1 or q < 1:
        raise ValueError("alpha and q must be positive")
    if n < q + alpha - 1:
        raise ValueError(
            f"text of length {n} is shorter than one window ({q + alpha - 1})")
    keys = _window_keys(text, q)
    windows = np.lib.stride_tricks.sliding_window_view(keys, alpha)
    winners = windows.argmin(axis=1) + np.arange(len(windows))
    # Winners never move left, so repeats are adjacent.
    fresh = np.empty(len(winners), dtype=bool)
    fresh[0] = True
    np.not_equal(winners[1:], winners[:-1], out=fresh[1:])
    return MinimizerSet(alpha=alpha, q=q, text=text, starts=winners[fresh])


def minimizers_from_right(text: bytes, alpha: int, q: int) -> Iterator[int]:
    """The positions of `minimizers(text, alpha, q)`, largest first, found
    lazily: each one costs only the grams up to it, so a caller that stops
    early never scans the rest of the text.

    Windows are taken right to left.  Grams compare as byte slices, which
    order as `_window_keys` does for any q.  `candidates` holds (position,
    gram) pairs, leftmost first, whose grams strictly decrease: a gram
    added on the left evicts every candidate it ties or beats, so the
    leftmost of equal grams wins, and the rightmost candidate drops off
    once the window has moved past it.  The rightmost candidate left is
    the window's winner, and a winner shared by neighbouring windows is
    yielded once.
    """
    if alpha < 1 or q < 1:
        raise ValueError("alpha and q must be positive")
    if len(text) < q + alpha - 1:
        raise ValueError(
            f"text of length {len(text)} is shorter than one window ({q + alpha - 1})")
    candidates = deque()
    last = None
    last_window = len(text) - q - alpha + 1
    for p in range(len(text) - q, -1, -1):
        gram = text[p:p + q]
        while candidates and candidates[0][1] >= gram:
            candidates.popleft()
        candidates.appendleft((p, gram))
        if p <= last_window:
            # Window p holds the grams at p .. p + alpha - 1.
            if candidates[-1][0] == p + alpha:
                candidates.pop()
            winner = candidates[-1][0]
            if winner != last:
                last = winner
                yield winner


@dataclass(frozen=True, eq=False)
class PhraseDecomposition:
    """Phrases of a text: the substrings between consecutive minimizers.

    Phrase i covers positions [starts[i], starts[i+1] - 1], inclusive, so
    there is one phrase fewer than there are minimizer positions.
    """

    starts: np.ndarray

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(self.starts.tolist())

    @property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        pos = self.starts.tolist()
        return tuple(zip(pos[:-1], (p - 1 for p in pos[1:])))

    def extract(self, text: bytes) -> list[bytes]:
        return [text[a:b + 1] for a, b in self.ranges]


def phrases(text: bytes, minimizer_set: MinimizerSet) -> PhraseDecomposition:
    """Decompose `text` into phrases between consecutive minimizer positions."""
    if minimizer_set.n != len(text):
        raise ValueError("minimizer set was computed over a different text")
    if not len(minimizer_set.starts):
        raise ValueError("minimizer set is empty")
    return PhraseDecomposition(starts=minimizer_set.starts)


@dataclass(frozen=True)
class FrequencyTable:
    """Per-symbol occurrence counts with derived probabilities."""

    counts: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FrequencyTable":
        return cls(dict(Counter(data)))

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def probabilities(self) -> dict[int, float]:
        total = self.total
        if total == 0:
            raise ValueError("empty frequency table")
        return {sym: c / total for sym, c in self.counts.items()}


def entropy(freq: FrequencyTable) -> float:
    """Zero-order entropy in bits per symbol: -sum(p * log2 p), 0 log 0 = 0."""
    if not freq.counts or freq.total == 0:
        raise ValueError("empty frequency table")
    total = freq.total
    result = 0.0
    for count in freq.counts.values():
        if count:
            p = count / total
            result -= p * math.log2(p)
    return result
