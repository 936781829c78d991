"""Suffix array, Burrows-Wheeler transform, count table and rank support.

The suffix array orders the suffixes of a corpus lexicographically; the BWT
string is read off it one symbol to the left of each suffix.  Counting needs
only the BWT, the count table and a sampled rank structure over the BWT
(backward search, Ferragina and Manzini 2000); the suffix array is build
state, kept by a built `FmIndex` for the gram directories built from it and
absent from a loaded one.
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedInputError
from .textcore import TERMINATOR, Corpus, dense_ranks, packed_words

# Suffix-array rows and positions are stored as u32, and a doubling round's
# sort key rank * (n + 1) + second + 1 must stay below 2**63.
SA_LIMIT = 1 << 31


def build_suffix_array(corpus: Corpus) -> np.ndarray:
    """Indexes of the corpus suffixes in lexicographic order.

    Vectorised prefix doubling, one path for every n.  Suffixes are first
    ranked by their next 8 symbols, packed big-endian into one integer
    (`packed_words`).  Each round then sorts one int64 key,
    rank * (n + 1) + (rank of the suffix `span` further on) + 1, with 0 for
    a suffix that runs out, and re-ranks by it (`dense_ranks`): the ranks
    then order the first 2 * span symbols.  The terminator is the unique
    smallest symbol, so no suffix is a prefix of another, the final ranks
    are distinct and the order is unique.  Raises `ValueError` for
    n >= SA_LIMIT.
    """
    n = corpus.n
    if n >= SA_LIMIT:
        raise ValueError(
            f"corpus of {n} symbols exceeds the suffix-array limit of "
            f"{SA_LIMIT - 1} symbols")
    keys = packed_words(corpus.data)
    span = 8
    while True:
        order, rank = dense_ranks(keys)
        if rank[order[-1]] == n - 1:
            return order.astype(np.int64, copy=False)
        # Ranks still tie, so some prefixes of `span` symbols are equal and
        # span < n.
        keys = rank * (n + 1)
        keys[:n - span] += rank[span:] + 1
        span *= 2


def inverse_permutation(sa: np.ndarray) -> np.ndarray:
    inv = np.empty(len(sa), dtype=np.int64)
    inv[sa] = np.arange(len(sa), dtype=np.int64)
    return inv


def bwt_forward(corpus: Corpus, sa: np.ndarray | None = None) -> bytes:
    """The BWT string: for each row, the symbol preceding the row's suffix."""
    if sa is None:
        sa = build_suffix_array(corpus)
    if len(sa) != corpus.n:
        raise ValueError("suffix array length does not match the corpus")
    arr = np.frombuffer(corpus.data, dtype=np.uint8)
    return arr[(np.asarray(sa) - 1) % corpus.n].tobytes()


def bwt_inverse(l: bytes) -> Corpus:
    """Reconstruct the corpus whose BWT is `l`.

    Walks the last-to-first mapping backwards from row 0, which is the row of
    the rotation starting with the terminator.
    """
    n = len(l)
    if l.count(TERMINATOR) != 1:
        raise MalformedInputError("BWT string must contain exactly one terminator")
    arr = np.frombuffer(l, dtype=np.uint8).astype(np.int64)
    counts = np.bincount(arr, minlength=256)
    smaller = np.concatenate(([0], np.cumsum(counts)[:-1]))
    # occ[i] = occurrences of l[i] in l[:i]; computed by stably grouping
    # positions per symbol and numbering within each group.
    order = np.argsort(arr, kind="stable")
    occ = np.empty(n, dtype=np.int64)
    occ[order] = np.arange(n, dtype=np.int64) - np.repeat(smaller, counts)
    lf = smaller[arr] + occ
    out = bytearray(n)
    out[n - 1] = TERMINATOR
    row = 0
    for pos in range(n - 2, -1, -1):
        out[pos] = l[row]
        row = lf[row]
    return Corpus(bytes(out))


def build_count_table(corpus: Corpus) -> dict[int, int]:
    """For each symbol present, the number of strictly smaller corpus symbols."""
    counts = np.bincount(np.frombuffer(corpus.data, dtype=np.uint8), minlength=256)
    table: dict[int, int] = {}
    running = 0
    for sym in range(256):
        if counts[sym]:
            table[sym] = running
            running += int(counts[sym])
    return table


class RankIndex:
    """Sampled symbol ranks over a BWT string.

    Cumulative counts are stored every `stride` positions; a query adds the
    residual count inside the block, scanned at C speed by bytes.count.
    rank(c, i) is inclusive of position i, and rank(c, -1) = 0.
    """

    STRIDE = 64

    def __init__(self, l: bytes):
        self.l = l
        self.n = len(l)
        arr = np.frombuffer(l, dtype=np.uint8)
        present = np.flatnonzero(np.bincount(arr, minlength=256))
        # Occurrences per (block, symbol) from one bincount over
        # block * sigma + dense symbol id; sample b counts blocks 0..b-1.
        sigma = len(present)
        dense = np.zeros(256, dtype=np.uint8)
        dense[present] = np.arange(sigma)
        blocks = (self.n + self.STRIDE - 1) // self.STRIDE
        cells = np.arange(self.n, dtype=np.int64) // self.STRIDE * sigma
        cells += dense[arr]
        counts = np.bincount(cells, minlength=blocks * sigma).reshape(blocks, sigma)
        samples = np.zeros((sigma, blocks), dtype=np.int64)
        np.cumsum(counts[:-1].T, axis=1, out=samples[:, 1:])
        self._samples: dict[int, np.ndarray] = dict(zip(present.tolist(), samples))

    def rank(self, symbol: int, i: int) -> int:
        """Occurrences of `symbol` in the BWT prefix ending at position i, inclusive."""
        if i == -1:
            return 0
        if i < -1 or i >= self.n:
            raise IndexError(f"rank position {i} outside [-1, {self.n})")
        sampled = self._samples.get(symbol)
        if sampled is None:
            return 0
        block = i // self.STRIDE
        return int(sampled[block]) + self.l.count(symbol, block * self.STRIDE, i + 1)


class FmIndex:
    """Count-only FM index: BWT string, count table and sampled ranks.

    `sa` is the suffix array of a built index, which gram-directory builds
    read; a loaded index has none, as counting never reads it.
    """

    def __init__(self, corpus: Corpus, l: bytes, count_table: dict[int, int],
                 ranks: RankIndex, sa: np.ndarray | None = None):
        self.corpus = corpus
        self.l = l
        self.count_table = count_table
        self.ranks = ranks
        self.sa = sa

    @classmethod
    def build(cls, corpus: Corpus, sa: np.ndarray | None = None) -> "FmIndex":
        if sa is None:
            sa = build_suffix_array(corpus)
        l = bwt_forward(corpus, sa)
        return cls(corpus, l, build_count_table(corpus), RankIndex(l), sa)

    def step(self, s: int, e: int, symbol: int) -> tuple[int, int]:
        """One backward-search step: narrow [s, e] to suffixes preceded by `symbol`."""
        base = self.count_table[symbol]
        return (base + self.ranks.rank(symbol, s - 1),
                base + self.ranks.rank(symbol, e) - 1)

    def count(self, pattern: bytes) -> int:
        """Occurrences of `pattern` in the corpus text, overlaps included."""
        if not pattern:
            raise ValueError("pattern must be nonempty")
        if TERMINATOR in pattern:
            raise ValueError("pattern must not contain the terminator symbol")
        n = self.corpus.n
        if len(pattern) > n - 1:
            return 0
        s, e = 0, n - 1
        for symbol in reversed(pattern):
            if symbol not in self.count_table:
                return 0
            s, e = self.step(s, e, symbol)
            if s > e:
                return 0
        return e - s + 1
