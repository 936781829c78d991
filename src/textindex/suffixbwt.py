"""Suffix array, Burrows-Wheeler transform, count table and rank support.

The suffix array orders the suffixes of a corpus lexicographically; the BWT
string is read off it one symbol to the left of each suffix.  Counting needs
only the BWT, the count table and the BWT's LF mapping (Burrows and Wheeler
1994; backward search, Ferragina and Manzini 2000).  A count reads only the
width of its final interval, so every empty interval is (0, -1) and no
backward step scans outside the interval it narrows.  The suffix array is
build state that no index keeps: the superlinear q-gram index sorts its
corpus's suffixes again on load to derive its gram directory.
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedInputError
from .textcore import TERMINATOR, Corpus

# Suffix-array rows and positions are stored as u32, and both sort keys
# must fit int64: a first key is below 2**63 by the choice of its digit
# count (`_first_sort`), and a refinement key, group head * n + (head of
# the suffix `span` on), is below n * n.
SA_LIMIT = 1 << 31
# Symbols counted, or rows scattered, per pass of the loops that would
# otherwise make a temporary as long as the text.
BLOCK = 1 << 16


def _first_sort(data: bytes) -> tuple[np.ndarray, np.ndarray, int]:
    """The suffixes of `data` ordered by their first `span` symbols, as
    int64, the keys of those symbols in that order, and `span`.

    The symbols that occur get dense codes in their own order, so the
    terminator is code 0.  A suffix's key is its next `span` codes as
    base-σ digits, zero-padded past the end, and it sorts above the
    suffix's position, held in the low `width` bits: `span` is the most
    digits for which σ**span << width still fits int64, so one in-place
    sort orders the suffixes and carries each one's position along.  The
    padding never decides an order, since the unique terminator differs
    first.  Keys of m codes give those of 2m codes (and of 2m + 1 with one
    more code), reading the bits of `span` from the top, in two buffers
    that swap.
    """
    n = len(data)
    table = np.cumsum(_symbol_counts(data) > 0) - 1
    # At least 2, so that a lone terminator still bounds `span`.
    sigma = max(int(table[-1]) + 1, 2)
    width = (n - 1).bit_length()
    span = 1
    while sigma ** (span + 1) << width <= 1 << 63:
        span += 1
    # bytes() copies only a buffer that is not already bytes, such as the
    # memoryview that a file load may hand over.
    codes = np.frombuffer(bytes(data).translate(table.astype(np.uint8).tobytes())
                          + bytes(span - 1), dtype=np.uint8)
    keys = codes.astype(np.int64)
    spare = np.empty_like(keys)
    m, size = 1, len(keys)
    for bit in bin(span)[3:]:
        size -= m
        np.multiply(keys[:size], sigma ** m, out=spare[:size])
        spare[:size] += keys[m:m + size]
        keys, spare = spare, keys
        m *= 2
        if bit == "1":
            size -= 1
            keys[:size] *= sigma
            keys[:size] += codes[m:m + size]
            m += 1
    del spare
    keys = keys[:n]
    keys <<= width
    keys += np.arange(n)
    keys.sort()
    sa = keys & ((1 << width) - 1)
    keys >>= width
    return sa, keys, span


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted `keys`, whether each starts a run of equal keys, and
    whether its run holds more than one."""
    size = len(keys)
    first = np.empty(size + 1, dtype=bool)
    first[0] = first[size] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:size])
    return first[:size], ~(first[:size] & first[1:])


def _heads(first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For rising `rows`, the last row at or before each that starts a run."""
    heads = np.where(first, rows, 0)
    np.maximum.accumulate(heads, out=heads)
    return heads


def build_suffix_array(corpus: Corpus) -> np.ndarray:
    """Indexes of the corpus suffixes in lexicographic order, as int64.

    Prefix doubling (Manber and Myers) that re-sorts only the rows still
    tied (Larsson and Sadakane, "Faster suffix sorting", 2007), one path
    for every n and σ.  One in-place sort (`_first_sort`) orders the
    suffixes by their first `span` symbols.  Rows with equal first symbols
    form a group, and each suffix's head is its group's first row: its
    own row once it is alone.  Each round then sorts only
    the rows of groups that still tie, by group head * n + (head of the
    suffix `span` on), splits their groups by it and doubles `span`.  A
    tied suffix holds no terminator among its first `span` symbols, so
    the suffix `span` on exists.  The terminator is the unique smallest
    symbol, so no suffix is a prefix of another and every group ends
    alone.  Raises `ValueError` for n >= SA_LIMIT.
    """
    n = corpus.n
    if n >= SA_LIMIT:
        raise ValueError(
            f"corpus of {n} symbols exceeds the suffix-array limit of "
            f"{SA_LIMIT - 1} symbols")
    sa, keys, span = _first_sort(corpus.data)
    first, tied = _runs(keys)
    del keys
    if not tied.any():
        return sa
    head = np.empty(n, dtype=np.uint32)
    head[sa] = np.arange(n, dtype=np.uint32)
    unsettled = tied
    rows = np.flatnonzero(tied).astype(np.uint32)
    suffixes = sa[rows]
    group = _heads(first[rows], rows)
    head[suffixes] = group
    while True:
        keys = np.multiply(group, n, dtype=np.int64)
        del group
        keys += head[suffixes + span]
        # Stable: a group's rows often arrive with their keys in order, as
        # on periodic text, and then the sort takes linear time.
        order = np.argsort(keys, kind="stable")
        suffixes, keys = suffixes[order], keys[order]
        del order
        span *= 2
        first, tied = _runs(keys)
        del keys
        if not tied.any():
            break
        group = _heads(first, rows)
        head[suffixes] = group
        rows, suffixes, group = rows[tied], suffixes[tied], group[tied]
    head[suffixes] = rows
    # Rows that were tied after the first sort take their suffixes' final rows.
    suffixes = sa[unsettled]
    sa[head[suffixes]] = suffixes
    return sa


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """The inverse of a permutation of range(n), n <= 2**32, as u32:
    inv[perm[i]] = i; for a suffix array, each suffix's row.  The scatter
    takes BLOCK rows at a time, so no n-sized temporary is made."""
    n = len(perm)
    inv = np.empty(n, dtype=np.uint32)
    for at in range(0, n, BLOCK):
        inv[perm[at:at + BLOCK]] = np.arange(at, min(at + BLOCK, n), dtype=np.uint32)
    return inv


def bwt_forward(corpus: Corpus, sa: np.ndarray | None = None) -> bytes:
    """The BWT string: for each row, the symbol preceding the row's suffix."""
    if sa is None:
        sa = build_suffix_array(corpus)
    if len(sa) != corpus.n:
        raise ValueError("suffix array length does not match the corpus")
    # Suffix 0 reads index -1, the terminator at the end.  sa is int64; on
    # an unsigned array, 0 - 1 would wrap to an index past the end.
    arr = np.frombuffer(corpus.data, dtype=np.uint8)
    return arr[np.asarray(sa) - 1].tobytes()


def psi_mapping(l: bytes) -> np.ndarray:
    """Ψ of the BWT string `l`: one stable argsort of its bytes.  Ψ[r] is the
    row of the suffix one symbol to the right of row r's, so l[Ψ[r]] is the
    first symbol of row r's suffix (the F column), and Ψ inverts the LF
    mapping."""
    return np.argsort(np.frombuffer(l, dtype=np.uint8), kind="stable")


def row_prefixes(l: bytes, psi: np.ndarray, rows, lengths) -> tuple[np.ndarray, np.ndarray]:
    """The first lengths[i] symbols of the BWT `l`'s row rows[i], for each
    i in turn, as u8s, and the row lengths[i] symbols further on; rows[i]
    may also be several rows, each read into its own column.  Row r starts
    with l[psi[r]] and psi[r] is the row one symbol on (Ψ, `psi_mapping`),
    so pass k reads symbol k of every row longer than k: with the rows
    taken longest first, those are a prefix of them.  A length above len(l)
    raises `ValueError` before any pass."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if (lengths > len(l)).any():
        raise ValueError(f"a row prefix longer than the {len(l)} rows")
    order = np.argsort(-lengths)
    at, size = (np.cumsum(lengths) - lengths)[order], lengths[order]
    walk = np.asarray(rows, dtype=np.int64)[order]
    symbols = np.frombuffer(l, dtype=np.uint8)
    prefixes = np.empty((lengths.sum(), *walk.shape[1:]), dtype=np.uint8)
    for k in range(int(lengths.max(initial=0))):
        live = np.count_nonzero(size > k)
        walk[:live] = psi[walk[:live]]
        prefixes[at[:live] + k] = symbols[walk[:live]]
    ends = np.empty_like(walk)
    ends[order] = walk
    return prefixes, ends


def bwt_inverse(l: bytes) -> Corpus:
    """Reconstruct the corpus whose BWT is `l`.

    Walks Ψ (`psi_mapping`) forward from row 0, the row of the rotation
    starting with the terminator: Ψ[0] is the row of the whole text, and
    each further step reads the next text symbol off `l`.  `l` is a BWT
    only if that walk is one cycle through all n rows: it must write no
    terminator before the end, and its last row must be the one whose byte
    is the terminator.  Any other string of one terminator is refused with
    `MalformedInputError`, since it is no text's BWT.
    """
    n = len(l)
    if l.count(TERMINATOR) != 1:
        raise MalformedInputError("BWT string must contain exactly one terminator")
    psi = memoryview(psi_mapping(l))
    out = bytearray(n)
    row = psi[0]
    for pos in range(n):
        row = psi[row]
        out[pos] = l[row]
    if out.find(TERMINATOR) != n - 1:
        raise MalformedInputError("BWT string's LF mapping is not one cycle through its rows")
    return Corpus(bytes(out))


def _symbol_counts(data) -> np.ndarray:
    """Occurrences of each byte value in `data`, as 256 int64s.  `bincount`
    widens what it counts to int64, so it takes BLOCK symbols at a time
    rather than make a copy eight times the size of `data`."""
    symbols = np.frombuffer(data, dtype=np.uint8)
    counts = np.zeros(256, dtype=np.int64)
    for at in range(0, len(symbols), BLOCK):
        counts += np.bincount(symbols[at:at + BLOCK], minlength=256)
    return counts


def _count_table(data: bytes) -> list[int]:
    """The count table C of `data` as 257 entries: C[c] is the number of
    symbols smaller than c and C[256] = len(data), so symbol c occurs
    exactly when C[c] < C[c + 1], and then rows C[c] to C[c + 1] - 1 are
    the suffixes that start with it."""
    table = np.zeros(257, dtype=np.int64)
    np.cumsum(_symbol_counts(data), out=table[1:])
    return table.tolist()


def build_count_table(corpus: Corpus) -> list[int]:
    """The count table C of the corpus symbols (`_count_table`)."""
    return _count_table(corpus.data)


class RankIndex:
    """Symbol ranks over a BWT string `l`, read off its LF mapping.

    `lf` is the LF mapping as n u32 entries, served as a memoryview whose
    items read as Python ints: LF[i] is the row of the suffix one symbol to
    the left of row i's, that is C[l[i]] + (occurrences of l[i] in l[:i]).
    That is i's place in a stable sort of `l`, so LF is the inverse
    permutation of Ψ (`psi_mapping`, `inverse_permutation`).  `psi`, if
    given, is Ψ of `l`, already computed by a caller that also reads it;
    the index does not keep it.  `count_table` is the 257-entry count table
    C of `l` (`_count_table`).  rank(c, i) is inclusive of position i, and
    rank(c, -1) = 0.
    """

    def __init__(self, l: bytes, psi: np.ndarray | None = None):
        self.l = l
        self.lf = memoryview(inverse_permutation(psi_mapping(l) if psi is None else psi))
        self.count_table = _count_table(l)

    def rank(self, symbol: int, i: int) -> int:
        """Occurrences of `symbol` in the BWT prefix ending at position i, inclusive."""
        if i == -1:
            return 0
        if not 0 <= i < len(self.l):
            raise IndexError(f"rank position {i} outside [-1, {len(self.l)})")
        # The last occurrence j <= i is the rank-th of its symbol, so
        # LF[j] = C[symbol] + rank - 1.
        j = self.l.rfind(symbol, 0, i + 1)
        if j == -1:
            return 0
        return self.lf[j] + 1 - self.count_table[symbol]


def countable(pattern: bytes, n: int) -> bool:
    """Whether `pattern` can occur in a text of n - 1 symbols (a corpus of
    n with its terminator); raises `ValueError` for an empty pattern or one
    holding the terminator, which no count accepts."""
    if not pattern:
        raise ValueError("pattern must be nonempty")
    if TERMINATOR in pattern:
        raise ValueError("pattern must not contain the terminator symbol")
    return len(pattern) < n


class FmIndex(RankIndex):
    """Count-only FM index over a BWT string `l`: the BWT, its LF mapping
    and its count table, which `RankIndex(l)` builds.  It holds no corpus;
    n is len(l)."""

    @classmethod
    def build(cls, corpus: Corpus) -> "FmIndex":
        return cls(bwt_forward(corpus))

    def size_in_bytes(self) -> int:
        """BWT string (n bytes) + count table (257 entries of 8 bytes) + LF
        mapping (4n bytes)."""
        return 5 * len(self.l) + 8 * len(self.count_table)

    def step(self, s: int, e: int, symbol: int) -> tuple[int, int]:
        """One backward-search step: narrow [s, e] (0 <= s <= e < n) to the
        suffixes preceded by `symbol`, or (0, -1) if none is.

        Over all n rows the result is the symbol's count-table range, with
        no scan.  Otherwise it is the LF values of the first and last
        `symbol` in l[s:e+1], found with `bytes.find` and `bytes.rfind`, so
        no step scans outside [s, e].
        """
        if e - s == len(self.l) - 1:
            table = self.count_table
            first, last = table[symbol], table[symbol + 1] - 1
            return (first, last) if first <= last else (0, -1)
        l = self.l
        first = l.find(symbol, s, e + 1)
        if first == -1:
            return 0, -1
        lf = self.lf
        return lf[first], lf[l.rfind(symbol, first, e + 1)]

    def extend(self, segment: bytes, s: int, e: int) -> tuple[int, int]:
        """Narrow a nonempty [s, e] by `segment`, one symbol at a time from
        its end; the first symbol that empties it ends the walk with (0, -1).

        While the interval holds several rows, each symbol takes a `step`.
        Once it holds one row s, the rest of the segment only follows that
        row's suffix: symbol c extends it only if c == l[s], and then its
        new row is LF[s], one memoryview read with no call.
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
        l, lf = self.l, self.lf
        for c in segment[i - 1::-1]:
            if l[s] != c:
                return 0, -1
            s = lf[s]
        return s, s

    def count(self, pattern: bytes) -> int:
        """Occurrences of `pattern` in the corpus text, overlaps included."""
        n = len(self.l)
        if not countable(pattern, n):
            return 0
        s, e = self.extend(pattern, 0, n - 1)
        return e - s + 1
