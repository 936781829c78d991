"""FM indexes augmented with q-gram occurrence lists.

Two variants trade space for fewer backward-search steps:

* `SuperlinearIndex` stores, for every text position, the grams of each
  power-of-two length ending just before that position (up to `q_max`).
  A pattern is consumed in greedy power-of-two suffix chunks, so a count
  query takes as many steps as there are ones in the binary representation
  of the pattern length.

* `LinearIndex` stores lists only for the corpus phrases, the substrings
  between consecutive (alpha, q)-minimizer positions.  A query runs plain
  per-character steps on the pattern tail and head and phrase-sized steps
  in between; minimizers guarantee that a pattern long enough to contain
  one full window chooses the same interior phrases as the text.

Each directory entry keeps the occurrence rows of the gram in sorted-suffix
order plus the first row of the suffix range starting with the gram, so one
backward step costs two predecessor queries on the entry's list.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

from .errors import UnsupportedPatternError
from .hashes import DEFAULT_HASH
from .hashmap import ChainedHashMap
from .textcore import TERMINATOR, Corpus, minimizers, phrases
from .suffixbwt import FmIndex, RankIndex

# Below this length a linear scan beats binary search on the short lists.
_BINARY_SEARCH_MIN = 16

DEFAULT_Q_MAX = 128
DEFAULT_DIRECTORY_LOAD_FACTOR = 2.81


def list_rank(lst, row: int) -> int:
    """Number of list entries <= row, for a strictly increasing list."""
    if len(lst) >= _BINARY_SEARCH_MIN:
        return bisect_right(lst, row)
    count = 0
    for value in lst:
        if value > row:
            break
        count += 1
    return count


class GramEntry:
    """Directory payload: occurrence rows in suffix order plus range start.

    `offset` locates one occurrence of the gram in the corpus buffer, so
    files store the key as an (offset, length) reference."""

    __slots__ = ("offset", "first", "rows")

    def __init__(self, offset: int):
        self.offset = offset
        self.first = -1
        self.rows = array("I")

    @property
    def count(self) -> int:
        return len(self.rows)


class GramDirectory(ChainedHashMap):
    """Map from gram content to a GramEntry, over one corpus buffer."""

    def __init__(self, buffer: bytes, hash_name: str = DEFAULT_HASH,
                 max_load_factor: float = DEFAULT_DIRECTORY_LOAD_FACTOR,
                 initial_buckets: int = 64):
        super().__init__(hash_name, max_load_factor, initial_buckets)
        self.buffer = buffer

    def entry_for(self, offset: int, length: int) -> GramEntry:
        """The entry for the gram at buffer[offset:offset+length], created if new."""
        content = self.buffer[offset:offset + length]
        entry = self._entries.get(content)
        if entry is None:
            entry = self._entries[content] = GramEntry(offset)
        return entry

    def get(self, content: bytes) -> GramEntry | None:
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

    def __init__(self, fm: FmIndex, q_max: int, directory: GramDirectory):
        self.fm = fm
        self.q_max = q_max
        self.directory = directory

    @classmethod
    def build(cls, corpus: Corpus, q_max: int = DEFAULT_Q_MAX,
              hash_name: str = DEFAULT_HASH,
              max_load_factor: float = DEFAULT_DIRECTORY_LOAD_FACTOR,
              fm: FmIndex | None = None) -> "SuperlinearIndex":
        if q_max < 1 or q_max & (q_max - 1):
            raise ValueError("q_max must be a power of two")
        if fm is None:
            fm = FmIndex.build(corpus)
        elif fm.corpus.data != corpus.data:
            raise ValueError("prebuilt substrate belongs to a different corpus")
        sa = fm.sa
        inv = fm.inverse_sa
        n = corpus.n
        directory = GramDirectory(
            corpus.data, hash_name, max_load_factor,
            initial_buckets=max(64, 1 << (max(n, 2) - 1).bit_length()))
        # Walking rows in order appends occurrence rows already sorted.  A
        # gram of length q ending before suffix position i exists when q <= i;
        # grams that would wrap past the text start are discarded, and no gram
        # can contain the terminator because it is the final symbol.
        for row in range(n):
            i = int(sa[row])
            q = 1
            while q <= q_max and q <= i:
                entry = directory.entry_for(i - q, q)
                entry.rows.append(row)
                start_row = int(inv[i - q])
                if entry.first < 0 or start_row < entry.first:
                    entry.first = start_row
                q <<= 1
        return cls(fm, q_max, directory)

    def _search(self, pattern: bytes) -> tuple[int, int]:
        """Return (count, LF steps)."""
        _validate_pattern(pattern)
        m = len(pattern)
        if m > self.fm.corpus.n - 1:
            return 0, 0
        chunks = _greedy_chunks(m, self.q_max)
        pos = m - chunks[0]
        entry = self.directory.get(pattern[pos:m])
        if entry is None:
            return 0, 1
        s = entry.first
        e = entry.first + entry.count - 1
        steps = 1
        for size in chunks[1:]:
            gram = pattern[pos - size:pos]
            pos -= size
            entry = self.directory.get(gram)
            steps += 1
            if entry is None:
                return 0, steps
            rows = entry.rows
            s = entry.first + list_rank(rows, s - 1)
            e = entry.first + list_rank(rows, e) - 1
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
        character-level substrate."""
        return _directory_bytes(self.directory) + _substrate_bytes(self.fm)


class LinearIndex:
    """FM index with occurrence lists for the corpus phrases only."""

    def __init__(self, fm: FmIndex, alpha: int, q: int, directory: GramDirectory):
        self.fm = fm
        self.alpha = alpha
        self.q = q
        self.directory = directory

    @classmethod
    def build(cls, corpus: Corpus, alpha: int, q: int,
              hash_name: str = DEFAULT_HASH,
              max_load_factor: float = DEFAULT_DIRECTORY_LOAD_FACTOR,
              fm: FmIndex | None = None) -> "LinearIndex":
        text = corpus.text
        if len(text) < q + alpha - 1:
            raise ValueError("corpus shorter than one minimizer window")
        if fm is None:
            fm = FmIndex.build(corpus)
        elif fm.corpus.data != corpus.data:
            raise ValueError("prebuilt substrate belongs to a different corpus")
        directory = GramDirectory(corpus.data, hash_name, max_load_factor)
        mset = minimizers(text, alpha, q)
        if len(mset.entries) > 1:
            decomposition = phrases(text, mset)
            seen: set[bytes] = set()
            for start, end in decomposition.ranges:
                content = text[start:end + 1]
                if content in seen:
                    continue
                seen.add(content)
                cls._fill_entry(fm, directory, start, end - start + 1)
        return cls(fm, alpha, q, directory)

    @staticmethod
    def _fill_entry(fm: FmIndex, directory: GramDirectory, offset: int, length: int) -> None:
        """Create the directory entry for one phrase with the rows of every
        occurrence of its content, found through the suffix-array range."""
        lo, hi = _sa_range(fm, fm.corpus.data[offset:offset + length])
        entry = directory.entry_for(offset, length)
        entry.first = lo
        inv = fm.inverse_sa
        sa = fm.sa
        for row in range(lo, hi + 1):
            entry.rows.append(int(inv[int(sa[row]) + length]))

    def count(self, pattern: bytes) -> int:
        _validate_pattern(pattern)
        m = len(pattern)
        window = self.q + self.alpha - 1
        if m < window:
            raise UnsupportedPatternError(
                f"pattern of length {m} is below the minimizer window {window}; "
                "use a plain character-level count instead")
        if m > self.fm.corpus.n - 1:
            return 0
        marks = minimizers(pattern, self.alpha, self.q).positions
        n = self.fm.corpus.n
        count_table = self.fm.count_table

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
                rows = entry.rows
                s = entry.first + list_rank(rows, s - 1)
                e = entry.first + list_rank(rows, e) - 1
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
    """4-byte rows, 4-byte range starts, 8-byte (offset, length) key refs and
    4-byte bucket slots."""
    return (sum(8 + 4 + 4 + 4 * entry.count for _, entry in directory.items())
            + 4 * directory.bucket_count)


def _substrate_bytes(fm: FmIndex) -> int:
    """BWT string + count table + rank samples, in bytes."""
    n = fm.corpus.n
    sample_blocks = (n + RankIndex.STRIDE - 1) // RankIndex.STRIDE
    return n + 8 * len(fm.count_table) + 8 * sample_blocks * len(fm.count_table)


def _sa_range(fm: FmIndex, content: bytes) -> tuple[int, int]:
    """Rows [lo, hi] of the suffixes starting with `content` (hi < lo if none)."""
    data = fm.corpus.data
    sa = fm.sa
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

