"""Suffix array, Burrows-Wheeler transform, count table and rank support.

The suffix array orders the suffixes of a corpus lexicographically; the BWT
string is read off it one symbol to the left of each suffix.  Counting needs
only the BWT, the count table and a sampled rank structure over the BWT
(backward search, Ferragina and Manzini 2000).  The suffix array is build
state: each index build makes its own, reads it and drops it, and no index
keeps one.
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


def _count_table(totals: np.ndarray) -> dict[int, int]:
    """From the occurrences of each of the 256 symbols, the count table:
    for each symbol present, the number of strictly smaller symbols."""
    present = np.flatnonzero(totals)
    smaller = np.cumsum(totals) - totals
    return dict(zip(present.tolist(), smaller[present].tolist()))


def build_count_table(corpus: Corpus) -> dict[int, int]:
    """For each symbol present, the number of strictly smaller corpus symbols."""
    return _count_table(np.bincount(np.frombuffer(corpus.data, dtype=np.uint8),
                                    minlength=256))


class RankIndex:
    """Sampled symbol ranks over a BWT string.

    Cumulative counts are stored every `STRIDE` positions; a query adds the
    residual count inside the block, scanned at C speed by bytes.count.
    rank(c, i) is inclusive of position i, and rank(c, -1) = 0.  `totals`
    holds the occurrences of each of the 256 symbols in the whole string.
    """

    STRIDE = 64

    def __init__(self, l: bytes):
        self.l = l
        self.n = len(l)
        arr = np.frombuffer(l, dtype=np.uint8)
        self.totals = np.bincount(arr, minlength=256)
        present = np.flatnonzero(self.totals)
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
        # A memoryview yields its items as Python ints, several times
        # faster to read and add than numpy scalars.
        self._samples: dict[int, memoryview] = {
            sym: memoryview(row) for sym, row in zip(present.tolist(), samples)}

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
        return sampled[block] + self.l.count(symbol, block * self.STRIDE, i + 1)


def countable(pattern: bytes, n: int) -> bool:
    """Whether `pattern` can occur in a text of n - 1 symbols (a corpus of
    n with its terminator); raises `ValueError` for an empty pattern or one
    holding the terminator, which no count accepts."""
    if not pattern:
        raise ValueError("pattern must be nonempty")
    if TERMINATOR in pattern:
        raise ValueError("pattern must not contain the terminator symbol")
    return len(pattern) < n


class FmIndex:
    """Count-only FM index over the BWT string `l` of `corpus`: the rank
    samples and the count table both come from one pass over `l`."""

    def __init__(self, corpus: Corpus, l: bytes):
        self.corpus = corpus
        self.l = l
        self.ranks = RankIndex(l)
        self.count_table = _count_table(self.ranks.totals)
        # Indexed by symbol byte: (count-table base, rank samples) for a
        # symbol present in `l`, None for an absent one.
        self._lf: list[tuple[int, memoryview] | None] = [None] * 256
        for symbol, base in self.count_table.items():
            self._lf[symbol] = base, self.ranks._samples[symbol]

    @classmethod
    def build(cls, corpus: Corpus, sa: np.ndarray | None = None) -> "FmIndex":
        """`sa`, if given, is the corpus's suffix array, already built by a
        caller that also reads it; the index does not keep it."""
        return cls(corpus, bwt_forward(corpus, sa))

    def size_in_bytes(self) -> int:
        """BWT string + count table + rank samples, in bytes."""
        blocks = (len(self.l) + RankIndex.STRIDE - 1) // RankIndex.STRIDE
        return len(self.l) + 8 * len(self.count_table) * (1 + blocks)

    def step(self, s: int, e: int, symbol: int) -> tuple[int, int]:
        """One backward-search step: narrow [s, e] (0 <= s <= e < n) to the
        suffixes preceded by `symbol`.  The result is empty (s > e) if none
        is, and (0, -1) for a symbol absent from the corpus.

        The occurrences of `symbol` before row s are one rank sample plus a
        count inside its block.  Those up to row e add a count over l[s:e+1]
        when the interval is narrower than a block, and are read off their
        own sample otherwise, so no count scans more than STRIDE bytes.
        """
        entry = self._lf[symbol]
        if entry is None:
            return 0, -1
        base, sampled = entry
        l = self.l
        block = s // RankIndex.STRIDE
        below = sampled[block] + l.count(symbol, block * RankIndex.STRIDE, s)
        if e - s < RankIndex.STRIDE:
            upto = below + l.count(symbol, s, e + 1)
        else:
            block = e // RankIndex.STRIDE
            upto = sampled[block] + l.count(symbol, block * RankIndex.STRIDE, e + 1)
        return base + below, base + upto - 1

    def extend(self, segment: bytes, s: int, e: int) -> tuple[int, int]:
        """Narrow [s, e] by `segment`, one symbol at a time from its end;
        stops at the first empty interval (s > e) and returns it.

        While the interval holds several rows, each symbol takes a `step`.
        Once it holds one row s, the rest of the segment only follows that
        row's suffix: symbol c extends it only if c == l[s], and then its
        new row is the LF mapping of s, one rank sample plus a count inside
        its block.  Those symbols take no call each, and one rank instead
        of two.  A mismatch returns (0, -1).
        """
        step = self.step
        i = len(segment)
        while s < e:
            if not i:
                return s, e
            i -= 1
            s, e = step(s, e, segment[i])
        if s > e or not i:
            return s, e
        l, lf, stride = self.l, self._lf, RankIndex.STRIDE
        for c in segment[i - 1::-1]:
            if l[s] != c:
                return 0, -1
            base, sampled = lf[c]
            block = s // stride
            s = base + sampled[block] + l.count(c, block * stride, s)
        return s, s

    def count(self, pattern: bytes) -> int:
        """Occurrences of `pattern` in the corpus text, overlaps included."""
        n = self.corpus.n
        if not countable(pattern, n):
            return 0
        s, e = self.extend(pattern, 0, n - 1)
        return max(e - s + 1, 0)
