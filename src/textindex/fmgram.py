"""FM indexes augmented with q-gram occurrence lists.

Two variants trade space for fewer backward-search steps:

* `SuperlinearIndex` stores, for every text position, the grams of each
  power-of-two length ending just before that position (up to `q_max`
  and the text length).
  A pattern is consumed in greedy power-of-two suffix chunks, so a count
  query takes as many steps as there are ones in the binary representation
  of the pattern length m, while m is below 2 q_max, and
  m // q_max + popcount(m % q_max) in general.  Build and load alike
  derive the directory from the corpus's suffix array.

* `LinearIndex` stores lists only for the corpus phrases, the substrings
  between consecutive (alpha, q)-minimizer positions, of two or more
  symbols, each with the rows of every occurrence.  A query reads the
  pattern right to left: while the backward-search interval holds several
  rows, it takes a step on the longest listed gram that ends where the
  unread prefix ends, or else a character step.  Once the interval holds
  one row, the rest of the pattern goes to `FmIndex.extend`, which follows
  that row with one LF read per symbol.  Only the build selects
  minimizers; a pattern shorter than one minimizer window is counted by
  character steps alone.  Character steps and that walk read the BWT,
  count table and LF mapping of an `FmIndex`.

Both directories are read off runs of suffix-array rows whose suffixes share
their first symbols (`directory_from_suffix_array`, `_phrase_directory`);
neither index keeps the suffix array, and queries never read it.  Build and
load alike make a linear index through one checked constructor,
`LinearIndex.from_bwt`: it reads the gram keys off the BWT and checks each
gram's rows against it in the same walk (`_gram_keys`).

Both keep a columnar `GramDirectory`: per gram, the first row of the
suffix range starting with it and its occurrence rows in sorted-suffix
order, so one backward step costs two predecessor queries on those rows
(in `LinearIndex`, the second is bounded by the width of the interval).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from . import suffixbwt
from .errors import MalformedInputError
from .hashmap import ChainedHashMap
from .textcore import TERMINATOR, Corpus, byte_windows, minimizers, phrases
from .suffixbwt import FmIndex, countable

DEFAULT_Q_MAX = 128


def list_rank(rows, lo: int, hi: int, row: int) -> int:
    """Number of entries <= row in rows[lo:hi], a strictly increasing run."""
    return bisect_right(rows, row, lo, hi) - lo


class GramDirectory(ChainedHashMap):
    """Map from gram content to its int id g, over u32 columns.

    Gram g is buffer[offsets[g]:offsets[g] + lengths[g]]: a superlinear
    directory slices its keys out of the corpus, a linear one out of its
    keys read off the BWT in id order (`LinearIndex.from_bwt`).  The map is
    filled from the columns in bulk (`entry_for`).  firsts[g] is the first
    row of the suffix range starting with it, and its rows, in sorted-suffix
    order, are rows[lo:hi] with lo, hi = starts[g], starts[g+1].
    `firsts`, `starts` and `rows` are memoryviews, whose items read as
    Python ints, which `bisect` compares several times faster than numpy
    scalars.
    """

    MAX_LOAD_FACTOR = 2.81
    INITIAL_BUCKETS = 64

    # Named here rather than inherited, so that traced benchmark runs time
    # gram lookups apart from split-table lookups.
    get = dict.get

    def __init__(self, buffer: bytes, offsets, lengths, firsts, starts, rows):
        self.buffer = buffer
        # Copies, so that no view keeps a loaded file's payload alive; the
        # rows a build makes are already an aligned u32 array of their own.
        self.offsets, self.lengths = (
            np.array(column, dtype=np.uint32) for column in (offsets, lengths))
        self.firsts, self.starts = (
            memoryview(np.array(column, dtype=np.uint32)) for column in (firsts, starts))
        self.rows = memoryview(np.require(rows, np.uint32, "CAO"))
        self.entry_for()

    def entry_for(self) -> None:
        """Fill the map afresh with every gram of the directory keyed to its
        id, in one bulk call (traced runs wrap this name, so each call is
        one directory, not one gram).  For each gram length q, the buffer's
        q-byte windows (`byte_windows`, a view) taken at that length's
        offsets make their keys at C level, and an object array puts the
        keys back in id order, so the map iterates in id order.  Keys may
        hold any byte, 0 included.  A repeated gram keeps its later id and
        leaves the map shorter."""
        keys = np.empty(len(self.offsets), dtype=object)
        for q in np.unique(self.lengths).tolist():
            ids = np.flatnonzero(self.lengths == q)
            keys[ids] = byte_windows(self.buffer, q)[self.offsets[ids]]
        self.clear()
        self.update(zip(keys.tolist(), range(len(keys))))


def directory_from_suffix_array(corpus: Corpus, sa, q_max: int) -> GramDirectory:
    """The superlinear gram directory, read off the suffix array.  For q = 1,
    2, 4, ... up to q_max and n - 1, a gram is a maximal run of rows whose
    suffixes share q symbols without the terminator; its key starts at
    sa[first] and its rows, isa[sa[run] + q], already rise.  Rows r and
    r + 1 share 2q symbols when they share q and so do their suffixes q on
    (prefix doubling, Manber and Myers 1993)."""
    n = corpus.n
    sa = np.asarray(sa, dtype=np.int64)
    isa = suffixbwt.inverse_permutation(sa)
    lengths = [1 << i for i in range(min(q_max, n - 1).bit_length())]
    # new[r]: row r starts a run of rows whose suffixes share q symbols.
    new = np.ones(n, dtype=bool)
    new[1:] = np.diff(np.frombuffer(corpus.data, dtype=np.uint8)[sa]) != 0
    follow = np.zeros(n, dtype=np.int64)
    rows = np.empty(sum(n - q for q in lengths), dtype=np.uint32)
    firsts, starts, at = [np.empty(0, dtype=np.int64)], [], 0
    for q in lengths:
        # Suffixes that hold the terminator are runs of one row, and no gram.
        room = sa <= n - 1 - q
        grams = np.flatnonzero(new & room)
        firsts.append(grams)
        starts.append(at - 1 + np.cumsum(room)[grams])
        after = isa[q:][sa[room]]
        rows[at:at + n - q] = after
        at += n - q
        # Rows left out keep stale labels, but are runs of one row already.
        follow[room] = np.cumsum(new)[after]
        new[1:] |= follow[1:] != follow[:-1]
    firsts = np.concatenate(firsts)
    return GramDirectory(corpus.data, sa[firsts], np.repeat(lengths, list(map(len, starts))),
                         firsts, np.concatenate([*starts, [at]]), rows)


def _phrase_directory(corpus: Corpus, sa, offsets, lengths):
    """The linear gram directory's columns `lengths`, `firsts`, `counts` and
    `rows`, read off the suffix array: each distinct phrase
    data[offsets[i]:offsets[i] + lengths[i]] (`textcore.phrases`) of two or
    more symbols, by length and then by first row (`_phrase_grams`).  A gram
    of L symbols whose rows start at row r has rows isa[sa[r:r + count] + L],
    which already rise.  `isa` (u32) is made once the grams are chosen, and
    the rows are gathered for about suffixbwt.BLOCK of them at a time, whole
    grams in order, so that each block fills one slice of `rows` and no
    temporary spans every row."""
    lengths, first, size = _phrase_grams(corpus.data, sa, offsets, lengths)
    isa = suffixbwt.inverse_permutation(sa)
    ends = np.cumsum(size)
    rows = np.empty(int(ends[-1]) if len(ends) else 0, dtype=np.uint32)
    # Each block starts at the gram that holds row k * BLOCK.
    cuts = np.unique(np.searchsorted(ends, np.arange(0, len(rows), suffixbwt.BLOCK),
                                     side="right")).tolist()
    for lo, hi in zip(cuts, [*cuts[1:], len(ends)]):
        after = sa[_ranges(first[lo:hi], size[lo:hi])]
        after += np.repeat(lengths[lo:hi], size[lo:hi])
        rows[ends[lo] - size[lo]:ends[hi - 1]] = isa[after]
    return lengths, first, size, rows


def _phrase_grams(data: bytes, sa, offsets, lengths):
    """For each distinct phrase data[offsets[i]:offsets[i] + lengths[i]] of
    two or more symbols, its length, the first of the rows whose suffixes
    start with it and their count: three int64 rows, by length and then by
    first row.  Rows whose suffixes share L symbols form runs, which
    data[sa] splits for L = 1 and data[sa + L - 1] for each larger L; a gram
    is an L-run holding a row whose suffix starts an L-symbol phrase.  Its
    own function, so that its n-sized arrays are freed before the gather."""
    n = len(data)
    longest = int(lengths.max(initial=0))
    # starting[r]: the length of the phrase that row r's suffix starts, or 0.
    starting = np.zeros(n, dtype=lengths.dtype)
    starting[offsets] = lengths
    starting = starting[sa]
    # Zero-padded, so that data[L - 1:] holds a symbol for every sa.
    data = np.frombuffer(data + bytes(longest), dtype=np.uint8)
    new = np.ones(n, dtype=bool)
    new[1:] = np.diff(data[:n][sa]) != 0
    found = [np.empty((3, 0), dtype=np.int64)]
    for length in range(2, longest + 1):
        symbols = data[length - 1:][sa]
        new[1:] |= symbols[1:] != symbols[:-1]
        bounds = np.flatnonzero(new)
        held = np.flatnonzero(np.logical_or.reduceat(starting == length, bounds))
        found.append([np.full(len(held), length), bounds[held], np.diff(bounds, append=n)[held]])
    return np.concatenate(found, axis=1)


def _ranges(begins: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """begins[i], begins[i] + 1, ..., begins[i] + sizes[i] - 1 for each i in turn."""
    return np.repeat(begins - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


def _gram_keys(l: bytes, psi, lengths, offsets, firsts, starts, rows) -> bytes:
    """The keys, gram g's the first lengths[g] symbols of row firsts[g] of
    the BWT `l`, at offsets[g], read through Ψ `psi` (`row_prefixes`) in the
    one walk that checks each gram: its last row must start with the key
    too, the rows before its first and after its last must not (rows wrap:
    row 0, after row n - 1, starts no gram, and a first row 0 reads a key
    holding the terminator), and its first and last rows must lead on to
    rows[starts[g]] and rows[starts[g+1] - 1].  Refuses with
    `MalformedInputError` a key holding the terminator, and rows that differ."""
    n = len(l)
    last = firsts + np.diff(starts) - 1
    walk = np.stack([firsts, last, (firsts - 1) % n, (last + 1) % n], axis=1)
    prefixes, ends = suffixbwt.row_prefixes(l, psi, walk, lengths)
    keys = prefixes[:, 0].tobytes()
    if TERMINATOR in keys:
        raise MalformedInputError("a gram key holds the terminator")
    differ = np.logical_or.reduceat(prefixes[:, 1:] != prefixes[:, :1], offsets)
    wanted = rows[np.stack([starts[:-1], starts[1:] - 1], axis=1)]
    if differ[:, 0].any() or not differ[:, 1:].all() or (ends[:, :2] != wanted).any():
        raise MalformedInputError("gram rows differ from the BWT's")
    return keys


class SuperlinearIndex:
    """FM index with occurrence lists for every power-of-two gram length,
    read off the corpus's suffix array, which it does not keep.  `q_max`,
    the longest chunk a query looks up, is the longest gram listed (0 for
    an empty text)."""

    def __init__(self, corpus: Corpus, q_max: int):
        self.corpus = corpus
        # Called through the module, where traced runs wrap it.
        sa = suffixbwt.build_suffix_array(corpus)
        self.directory = directory_from_suffix_array(corpus, sa, q_max)
        self.q_max = int(self.directory.lengths.max(initial=0))

    @classmethod
    def build(cls, corpus: Corpus, q_max: int = DEFAULT_Q_MAX) -> "SuperlinearIndex":
        if q_max < 1 or q_max & (q_max - 1):
            raise ValueError("q_max must be a power of two")
        return cls(corpus, q_max)

    def count(self, pattern: bytes) -> int:
        return self.count_with_steps(pattern)[0]

    def count_with_steps(self, pattern: bytes) -> tuple[int, int]:
        """Count plus the number of LF steps the query performed.  Chunks
        are consumed right to left, each the largest power of two that fits
        in the unread prefix, capped at q_max: q_max for each whole q_max in
        m, then the set bits of the rest from the highest down, so a query
        that finds every chunk takes m // q_max + popcount(m % q_max) steps."""
        if not countable(pattern, self.corpus.n):
            return 0, 0
        q_max = self.q_max
        directory = self.directory
        lookup = directory.get
        firsts, starts, rows = directory.firsts, directory.starts, directory.rows
        pos = len(pattern)
        pos -= q_max if pos >= q_max else 1 << (pos.bit_length() - 1)
        g = lookup(pattern[pos:])
        if g is None:
            return 0, 1
        s = firsts[g]
        e = s + starts[g + 1] - starts[g] - 1
        steps = 1
        while pos:
            end = pos
            pos -= q_max if pos >= q_max else 1 << (pos.bit_length() - 1)
            g = lookup(pattern[pos:end])
            steps += 1
            if g is None:
                return 0, steps
            first, lo, hi = firsts[g], starts[g], starts[g + 1]
            s = first + bisect_right(rows, s - 1, lo, hi) - lo
            e = first + bisect_right(rows, e, lo, hi) - lo - 1
            if s > e:
                return 0, steps
        return e - s + 1, steps

    def size_in_bytes(self) -> int:
        """Deterministic size accounting: the gram directory, whose keys are
        8-byte (offset, length) refs into the corpus, and the corpus (n
        bytes)."""
        return _directory_bytes(self.directory, 8 * len(self.directory)) + self.corpus.n


class LinearIndex:
    """FM index with occurrence lists for the corpus phrases only.

    It holds the FM index, alpha, q and the gram directory, whose keys are
    one buffer of the phrases read off the BWT, and no corpus: queries read
    only n, which is len(fm.l), and the gram keys.  The text stays
    recoverable from the BWT (`suffixbwt.bwt_inverse`), since an FM index
    is a self-index.  `longest`, the longest gram a query looks up, is the
    longest gram listed (0 if none is), read once: per query, the numpy max
    would add about 1 µs."""

    def __init__(self, fm: FmIndex, alpha: int, q: int, directory: GramDirectory):
        self.fm = fm
        self.alpha = alpha
        self.q = q
        self.directory = directory
        self.longest = int(directory.lengths.max(initial=0))

    @classmethod
    def build(cls, corpus: Corpus, alpha: int, q: int) -> "LinearIndex":
        if alpha < 1 or q < 1:
            raise ValueError("alpha and q must be positive")
        text = corpus.text
        if len(text) < q + alpha - 1:
            raise ValueError("corpus shorter than one minimizer window")
        # Called through the module, where traced runs wrap them.
        sa = suffixbwt.build_suffix_array(corpus)
        l = suffixbwt.bwt_forward(corpus, sa)
        # `starts` is held to the end of the build: freed once the directory
        # is made, it shifted where later allocations land, and on 1 MiB of
        # DNA-like text each load after a build then faulted about 2,500
        # pages (`load_s` 10.6 to 12.6 ms).
        starts = minimizers(text, alpha, q)
        columns = _phrase_directory(corpus, sa, *phrases(text, starts))
        # Freed before Ψ and the LF mapping are made: held past them, it
        # raised the peak RSS of repeated 1 MiB builds by 6-12 MiB.
        del sa
        return cls.from_bwt(l, alpha, q, *columns)

    @classmethod
    def from_bwt(cls, l: bytes, alpha: int, q: int, lengths, firsts, counts, rows) -> LinearIndex:
        """The index over the BWT `l` whose gram g is the first lengths[g]
        symbols of row firsts[g], with the next counts[g] of the u32 `rows`.
        Build and load alike make it here, with Ψ, the FM index and every
        check that the `envelope` docstring lists (`MalformedInputError`)."""
        if alpha < 1 or q < 1:
            raise MalformedInputError("minimizer alpha and q must be positive")
        psi = suffixbwt.psi_mapping(l)
        fm = FmIndex(l, psi)
        # The BWT's own count table keeps backward steps inside the n rows
        # whatever its bytes are; with one terminator, row 0 is its suffix.
        if fm.count_table[TERMINATOR + 1] != 1:
            raise MalformedInputError("BWT must hold exactly one terminator")
        # A gram, a phrase between neighbouring minimizers, holds 1 to
        # min(alpha, n - 1) symbols and occurs at least once, at rising rows
        # below n.  As distinct phrases of one split of the text, the grams
        # hold at most n - 1 symbols, which bounds the passes of the key read.
        n = len(l)
        lengths, firsts, counts = (np.asarray(c, np.int64) for c in (lengths, firsts, counts))
        if ((lengths == 0) | (lengths > min(alpha, n - 1)) | (counts < 1)
                | (firsts + counts > n)).any() or lengths.sum() > n - 1:
            raise MalformedInputError("gram directory entry out of range")
        if len(rows) and rows.max() >= n:
            raise MalformedInputError("gram row out of range")
        starts = np.append(0, np.cumsum(counts))
        # Rows must rise inside each gram, not from one gram to the next.
        falls = rows[1:] <= rows[:-1]
        falls[starts[1:-1] - 1] = False
        if falls.any():
            raise MalformedInputError("gram rows not strictly increasing")
        offsets = np.cumsum(lengths) - lengths
        keys = _gram_keys(l, psi, lengths, offsets, firsts, starts, rows)
        # Freed before the directory copies the rows that a load hands over
        # as a view of its file, so that the copy can reuse Ψ's memory.
        del psi
        directory = GramDirectory(keys, offsets, lengths, firsts, starts, rows)
        if len(directory) != len(lengths):
            raise MalformedInputError("repeated gram in directory")
        return cls(fm, alpha, q, directory)

    def count(self, pattern: bytes) -> int:
        """Occurrences of `pattern` in the corpus text, overlaps included.

        Backward search from the right: while the interval holds several
        rows, each pass takes the longest gram of 2 to `longest` symbols
        that ends where the unread prefix ends and that the directory
        lists, or else one character step.  A gram lists the rows of every
        occurrence, so its step is exact whatever the text's phrases are,
        and answers do not depend on alpha and q being the build's.  Once
        the interval holds one row, the unread prefix goes to
        `FmIndex.extend`, whose single-row walk checks that one occurrence
        for less than a gram lookup costs.  A pattern shorter than one
        minimizer window (q + alpha - 1 symbols) goes to `FmIndex.count`
        whole: on short DNA-like patterns the lookups cost more than the
        character steps they save."""
        fm = self.fm
        if len(pattern) < self.q + self.alpha - 1:
            return fm.count(pattern)
        n = len(fm.l)
        if not countable(pattern, n):
            return 0
        step = fm.step
        directory = self.directory
        lookup = directory.get
        firsts, starts, rows = directory.firsts, directory.starts, directory.rows
        longest = self.longest
        s, e, pos = 0, n - 1, len(pattern)
        while s < e and pos:
            for left in range(max(pos - longest, 0), pos - 1):
                if (g := lookup(pattern[left:pos])) is not None:
                    break
            else:
                pos -= 1
                s, e = step(s, e, pattern[pos])
                continue
            first, lo, hi = firsts[g], starts[g], starts[g + 1]
            # At most e - s + 1 of the gram's rows lie in [s, e], so the
            # second search only looks that far past the first.
            r = bisect_right(rows, s - 1, lo, hi)
            upto = bisect_right(rows, e, r, min(hi, r + e - s + 1))
            s, e, pos = first + r - lo, first + upto - lo - 1, left
        if s > e:
            return 0
        s, e = fm.extend(pattern[:pos], s, e)
        return e - s + 1

    def size_in_bytes(self) -> int:
        """Deterministic size accounting: the gram directory, whose keys are
        the key buffer and a 4-byte length each, and the character-level
        substrate; no corpus."""
        directory = self.directory
        return (_directory_bytes(directory, len(directory.buffer) + 4 * len(directory))
                + self.fm.size_in_bytes())


def _directory_bytes(directory: GramDirectory, key_bytes: int) -> int:
    """`key_bytes` for the keys, 4-byte rows, 4-byte range starts and
    row-list starts, and 4-byte bucket slots."""
    return key_bytes + 8 * len(directory) + 4 * len(directory.rows) + 4 * directory.bucket_count
