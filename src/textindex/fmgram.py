"""FM indexes augmented with q-gram occurrence lists.

Two variants trade space for fewer backward-search steps:

* `SuperlinearIndex` stores, for every text position, the grams of each
  power-of-two length ending just before that position (up to `q_max`).
  A pattern is consumed in greedy power-of-two suffix chunks, so a count
  query takes as many steps as there are ones in the binary representation
  of the pattern length.  The index keeps only the corpus and directory.

* `LinearIndex` stores lists only for the corpus phrases, the substrings
  between consecutive (alpha, q)-minimizer positions, of two or more
  symbols.  A query runs plain per-character steps on the pattern tail and
  head and on one-symbol phrases, and phrase-sized steps on the others;
  minimizers guarantee that a pattern long enough to contain one full
  window chooses the same interior phrases as the text.  Its character
  steps read the BWT, count table and rank samples of an `FmIndex`, which
  keeps no suffix array once the lists are built.

Both keep a columnar `GramDirectory`: per gram, the first row of the
suffix range starting with it and its occurrence rows in sorted-suffix
order, so one backward step costs two predecessor queries on those rows.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from . import suffixbwt
from .errors import UnsupportedPatternError
from .hashes import DEFAULT_HASH
from .hashmap import ChainedHashMap
from .textcore import (TERMINATOR, Corpus, _gram_keys, dense_ranks, minimizers,
                       packed_words, phrases)
from .suffixbwt import FmIndex, RankIndex

DEFAULT_Q_MAX = 128
DEFAULT_DIRECTORY_LOAD_FACTOR = 2.81


def list_rank(rows, lo: int, hi: int, row: int) -> int:
    """Number of entries <= row in rows[lo:hi], a strictly increasing run."""
    return bisect_right(rows, row, lo, hi) - lo


class GramDirectory(ChainedHashMap):
    """Map from gram content to (first, lo, hi), built from u32 columns.

    Gram g is buffer[offsets[g]:offsets[g] + lengths[g]], firsts[g] is the
    first row of the suffix range starting with it, and its rows, in
    sorted-suffix order, are rows[lo:hi] with lo, hi = starts[g], starts[g+1].
    """

    def __init__(self, buffer: bytes, offsets, lengths, firsts, starts, rows,
                 hash_name: str = DEFAULT_HASH,
                 max_load_factor: float = DEFAULT_DIRECTORY_LOAD_FACTOR,
                 initial_buckets: int = 64):
        super().__init__(hash_name, max_load_factor, initial_buckets)
        self.buffer = buffer
        # Copies, so that no view keeps a loaded file's payload alive.
        self.offsets, self.lengths, self.firsts, self.starts = (
            np.array(column, dtype=np.uint32) for column in (offsets, lengths, firsts, starts))
        # A memoryview yields its items as Python ints, which `bisect`
        # compares several times faster than numpy scalars.
        self.rows = memoryview(np.require(rows, np.uint32, "CA"))
        starts = self.starts.tolist()
        for offset, length, entry in zip(
                self.offsets.tolist(), self.lengths.tolist(),
                zip(self.firsts.tolist(), starts[:-1], starts[1:])):
            self.entry_for(offset, length, entry)

    def entry_for(self, offset: int, length: int, entry: tuple[int, int, int]) -> None:
        """Key the gram at buffer[offset:offset+length] to `entry`; a
        repeated gram keeps its first entry and leaves the map shorter."""
        self._entries.setdefault(self.buffer[offset:offset + length], entry)

    def get(self, content: bytes) -> tuple[int, int, int] | None:
        # Defined here rather than inherited, so that traced benchmark runs
        # time gram lookups apart from split-table lookups.
        return self._entries.get(content)


def _greedy_chunks(m: int, q_max: int) -> list[int]:
    """Chunk lengths consumed right to left: the largest power of two that
    fits in the remaining prefix, capped at q_max."""
    chunks = []
    remaining = m
    while remaining > 0:
        size = 1
        while size * 2 <= remaining and size * 2 <= q_max:
            size *= 2
        chunks.append(size)
        remaining -= size
    return chunks


def _validate_pattern(pattern: bytes) -> None:
    if not pattern:
        raise ValueError("pattern must be nonempty")
    if TERMINATOR in pattern:
        raise ValueError("pattern must not contain the terminator symbol")


class SuperlinearIndex:
    """FM index with occurrence lists for every power-of-two gram length."""

    def __init__(self, corpus: Corpus, q_max: int, directory: GramDirectory):
        self.corpus = corpus
        self.q_max = q_max
        self.directory = directory

    @classmethod
    def build(cls, corpus: Corpus, q_max: int = DEFAULT_Q_MAX,
              hash_name: str = DEFAULT_HASH,
              max_load_factor: float = DEFAULT_DIRECTORY_LOAD_FACTOR,
              fm: FmIndex | None = None) -> "SuperlinearIndex":
        """`fm`, if given, supplies the suffix array."""
        if q_max < 1 or q_max & (q_max - 1):
            raise ValueError("q_max must be a power of two")
        # Called through the module, where traced runs wrap it.
        sa = suffixbwt.build_suffix_array(corpus) if fm is None else _prebuilt_sa(fm, corpus)
        inv = suffixbwt.inverse_permutation(sa)
        text, n = corpus.text, corpus.n
        empty = np.empty(0, dtype=np.int64)
        offsets, lengths, firsts, counts, rows = ([empty] for _ in range(5))
        # The q-gram at p ends just before suffix p + q and is listed in that
        # suffix's row.  Grams lie inside the text, so none wraps past its
        # start or contains the terminator.
        q = 1
        while q <= q_max and q <= n - 1:
            # Gram ids are dense and ordered as the grams compare.
            gids = dense_ranks(_gram_keys(text, q))[1]
            order = np.lexsort((inv[q:], gids))
            gram_counts = np.bincount(gids)
            gram_firsts = np.minimum.reduceat(inv[:n - q][order],
                                              np.cumsum(gram_counts) - gram_counts)
            offsets.append(sa[gram_firsts])
            lengths.append(np.full(len(gram_counts), q))
            firsts.append(gram_firsts)
            counts.append(gram_counts)
            rows.append(inv[q:][order])
            q <<= 1
        directory = GramDirectory(
            corpus.data, np.concatenate(offsets), np.concatenate(lengths),
            np.concatenate(firsts), np.cumsum(np.concatenate([[0], *counts])),
            np.concatenate(rows), hash_name, max_load_factor,
            initial_buckets=max(64, 1 << (max(n, 2) - 1).bit_length()))
        return cls(corpus, q_max, directory)

    def _search(self, pattern: bytes) -> tuple[int, int]:
        """Return (count, LF steps)."""
        _validate_pattern(pattern)
        m = len(pattern)
        if m > self.corpus.n - 1:
            return 0, 0
        chunks = _greedy_chunks(m, self.q_max)
        pos = m - chunks[0]
        entry = self.directory.get(pattern[pos:m])
        if entry is None:
            return 0, 1
        first, lo, hi = entry
        s = first
        e = first + hi - lo - 1
        steps = 1
        rows = self.directory.rows
        for size in chunks[1:]:
            gram = pattern[pos - size:pos]
            pos -= size
            entry = self.directory.get(gram)
            steps += 1
            if entry is None:
                return 0, steps
            first, lo, hi = entry
            s = first + list_rank(rows, lo, hi, s - 1)
            e = first + list_rank(rows, lo, hi, e) - 1
            if s > e:
                return 0, steps
        return e - s + 1, steps

    def count(self, pattern: bytes) -> int:
        return self._search(pattern)[0]

    def count_with_steps(self, pattern: bytes) -> tuple[int, int]:
        """Count plus the number of LF steps the query performed."""
        return self._search(pattern)

    def size_in_bytes(self) -> int:
        """Deterministic size accounting: the gram directory plus the
        corpus, n bytes."""
        return _directory_bytes(self.directory) + self.corpus.n


class LinearIndex:
    """FM index with occurrence lists for the corpus phrases only."""

    def __init__(self, fm: FmIndex, alpha: int, q: int, directory: GramDirectory):
        self.fm = fm
        self.corpus = fm.corpus
        self.alpha = alpha
        self.q = q
        self.directory = directory

    @classmethod
    def build(cls, corpus: Corpus, alpha: int, q: int,
              hash_name: str = DEFAULT_HASH,
              max_load_factor: float = DEFAULT_DIRECTORY_LOAD_FACTOR,
              fm: FmIndex | None = None) -> "LinearIndex":
        """`fm`, if given, supplies the suffix array and the character-level
        substrate; it is not changed."""
        text = corpus.text
        if len(text) < q + alpha - 1:
            raise ValueError("corpus shorter than one minimizer window")
        if fm is None:
            fm = FmIndex.build(corpus)
        sa = _prebuilt_sa(fm, corpus)
        offsets, lengths, firsts, rows = [], [], [], []
        mset = minimizers(text, alpha, q)
        if len(mset.starts) > 1:
            inv = suffixbwt.inverse_permutation(sa)
            # Single-symbol phrases are counted with a character step, so
            # they get no list.
            for offset, length in _distinct_phrases(text, phrases(text, mset).starts, alpha):
                if length == 1:
                    continue
                # The rows of every occurrence, found through the
                # suffix-array range of the phrase.
                lo, hi = _sa_range(corpus.data, sa, text[offset:offset + length])
                offsets.append(offset)
                lengths.append(length)
                firsts.append(lo)
                rows.append(inv[sa[lo:hi + 1] + length].astype(np.uint32))
        directory = GramDirectory(
            corpus.data, offsets, lengths, firsts, np.cumsum([0, *map(len, rows)]),
            np.concatenate(rows) if rows else [], hash_name, max_load_factor)
        # Queries read no suffix array: keep the count-only substrate.
        return cls(FmIndex(corpus, fm.l, fm.count_table, fm.ranks), alpha, q, directory)

    def count(self, pattern: bytes) -> int:
        _validate_pattern(pattern)
        m = len(pattern)
        window = self.q + self.alpha - 1
        if m < window:
            raise UnsupportedPatternError(
                f"pattern of length {m} is below the minimizer window {window}; "
                "use a plain character-level count instead")
        if m > self.corpus.n - 1:
            return 0
        marks = minimizers(pattern, self.alpha, self.q).positions
        n = self.corpus.n
        count_table = self.fm.count_table
        rows = self.directory.rows

        def char_steps(segment: bytes, s: int, e: int) -> tuple[int, int] | None:
            for symbol in reversed(segment):
                if symbol not in count_table:
                    return None
                s, e = self.fm.step(s, e, symbol)
                if s > e:
                    return None
            return s, e

        narrowed = char_steps(pattern[marks[-1]:], 0, n - 1)
        if narrowed is None:
            return 0
        s, e = narrowed
        for i in range(len(marks) - 1, 0, -1):
            phrase = pattern[marks[i - 1]:marks[i]]
            if len(phrase) == 1:
                # Single-symbol phrase: the character-level step is cheaper.
                if phrase[0] not in count_table:
                    return 0
                s, e = self.fm.step(s, e, phrase[0])
            else:
                entry = self.directory.get(phrase)
                if entry is None:
                    return 0
                first, lo, hi = entry
                s = first + list_rank(rows, lo, hi, s - 1)
                e = first + list_rank(rows, lo, hi, e) - 1
            if s > e:
                return 0
        narrowed = char_steps(pattern[:marks[0]], s, e)
        if narrowed is None:
            return 0
        s, e = narrowed
        return e - s + 1

    def size_in_bytes(self) -> int:
        """Deterministic size accounting: the gram directory plus the
        character-level substrate."""
        return _directory_bytes(self.directory) + _substrate_bytes(self.fm)


def _directory_bytes(directory: GramDirectory) -> int:
    """4-byte rows, 4-byte range starts and row-list starts, 8-byte
    (offset, length) key refs and 4-byte bucket slots."""
    return 16 * len(directory) + 4 * len(directory.rows) + 4 * directory.bucket_count


def _substrate_bytes(fm: FmIndex) -> int:
    """BWT string + count table + rank samples, in bytes."""
    n = fm.corpus.n
    sample_blocks = (n + RankIndex.STRIDE - 1) // RankIndex.STRIDE
    return n + 8 * len(fm.count_table) + 8 * sample_blocks * len(fm.count_table)


def _prebuilt_sa(fm: FmIndex, corpus: Corpus) -> np.ndarray:
    """The suffix array of an FM index given to a build, which only reads it."""
    if fm.corpus.data != corpus.data:
        raise ValueError("prebuilt substrate belongs to a different corpus")
    if fm.sa is None:
        raise ValueError("prebuilt substrate has no suffix array")
    return fm.sa


def _distinct_phrases(text: bytes, starts: np.ndarray, alpha: int) -> list[tuple[int, int]]:
    """(offset, length) of the first occurrence of each distinct phrase,
    in first-seen order; phrase i is text[starts[i]:starts[i + 1]]."""
    lengths = np.diff(starts)
    if alpha <= 8:
        # A phrase is at most alpha symbols, so its packed word with the
        # symbols after it masked off is a key of its own: the text holds
        # no 0 byte, so phrases of different lengths never share one.
        shift = (8 * (8 - lengths)).astype(np.uint64)
        keys = packed_words(text)[starts[:-1]] >> shift << shift
        first = np.sort(np.unique(keys, return_index=True)[1])
        return list(zip(starts[first].tolist(), lengths[first].tolist()))
    bounds = starts.tolist()
    contents = [text[a:b] for a, b in zip(bounds, bounds[1:])]
    # Built backwards, each phrase keeps the offset of its first
    # occurrence; sorting by that offset restores first-seen order.
    seen = dict(zip(reversed(contents), reversed(bounds[:-1])))
    return sorted((offset, len(content)) for content, offset in seen.items())


def _sa_range(data: bytes, sa: np.ndarray, content: bytes) -> tuple[int, int]:
    """Rows [lo, hi] of the suffixes of `data` starting with `content`
    (hi < lo if none)."""
    n = len(sa)
    length = len(content)
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        p = int(sa[mid])
        if data[p:p + length] < content:
            lo = mid + 1
        else:
            hi = mid
    first = lo
    hi = n
    while lo < hi:
        mid = (lo + hi) // 2
        p = int(sa[mid])
        if data[p:p + length] <= content:
            lo = mid + 1
        else:
            hi = mid
    return first, lo - 1
