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
  symbols.  A query runs plain per-character steps on the pattern tail and
  head and on one-symbol phrases, and phrase-sized steps on the others;
  minimizers guarantee that a pattern long enough to contain one full
  window chooses the same interior phrases as the text.  A shorter pattern
  is counted by character steps alone, and so is a phrase the directory
  does not list.  Phrase steps run only while the backward-search
  interval holds several rows: once it holds one, the rest of the pattern
  goes to `FmIndex.extend`, which follows that row with one LF read per
  symbol.  So a query finds the pattern's minimizers from the right, one
  phrase at a time, and stops with the phrase steps; only the build
  selects a whole text's minimizers at once.  Character steps and that
  walk read the BWT, count table and LF mapping of an `FmIndex`.

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
from .textcore import TERMINATOR, Corpus, byte_windows, minimizers, minimizers_from_right, phrases
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
        # Copies, so that no view keeps a loaded file's payload alive.
        self.offsets, self.lengths = (
            np.array(column, dtype=np.uint32) for column in (offsets, lengths))
        self.firsts, self.starts = (
            memoryview(np.array(column, dtype=np.uint32)) for column in (firsts, starts))
        self.rows = memoryview(np.require(rows, np.uint32, "CA"))
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


def _phrase_directory(corpus: Corpus, sa, starts):
    """The linear gram directory's columns `lengths`, `firsts`, `counts` and
    `rows`, read off the suffix array: each distinct phrase
    data[starts[i]:starts[i + 1]] of two or more symbols, in first-seen
    order.  Rows whose suffixes share L symbols form runs, which
    data[sa] splits for L = 1 and data[sa + L - 1] for each larger L.  A
    gram of L symbols is an L-run holding row isa[p] of an L-symbol phrase
    at p, and its rows, isa[sa[run] + L], already rise."""
    n, offsets, lengths = corpus.n, starts[:-1], np.diff(starts)
    isa = suffixbwt.inverse_permutation(sa)
    longest = int(lengths.max(initial=0))
    # Zero-padded, so that data[L - 1:] holds a symbol for every sa.
    data = np.frombuffer(corpus.data + bytes(longest), dtype=np.uint8)
    new = np.ones(n, dtype=bool)
    new[1:] = np.diff(data[:n][sa]) != 0
    # Per gram: its first phrase, first row and row count.
    found = [np.empty((3, 0), dtype=np.int64)]
    for length in range(2, longest + 1):
        symbols = data[length - 1:][sa]
        new[1:] |= symbols[1:] != symbols[:-1]
        mine = np.flatnonzero(lengths == length)
        bounds = np.flatnonzero(new)
        # Per run, its first phrase of this length, or len(offsets) if none.
        earliest = np.full(n, len(offsets), dtype=np.uint32)
        earliest[isa[offsets[mine]]] = mine
        earliest = np.minimum.reduceat(earliest, bounds)
        held = np.flatnonzero(earliest < len(offsets))
        found.append([earliest[held], bounds[held], np.diff(bounds, append=n)[held]])
    found = np.concatenate(found, axis=1)
    phrase, first, size = found[:, np.argsort(found[0])]
    lengths, ends = lengths[phrase], np.cumsum(size)
    rows = np.empty(size.sum(), dtype=np.uint32)
    # One length at a time, so that no temporary spans every row.
    for length in range(2, longest + 1):
        g = lengths == length
        rows[_ranges(ends[g] - size[g], size[g])] = isa[sa[_ranges(first[g], size[g])] + length]
    return lengths, first, size, rows


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
    is a self-index."""

    def __init__(self, fm: FmIndex, alpha: int, q: int, directory: GramDirectory):
        self.fm = fm
        self.alpha = alpha
        self.q = q
        self.directory = directory

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
        starts = phrases(text, minimizers(text, alpha, q)).starts
        columns = _phrase_directory(corpus, sa, starts)
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
        directory = GramDirectory(_gram_keys(l, psi, lengths, offsets, firsts, starts, rows),
                                  offsets, lengths, firsts, starts, rows)
        if len(directory) != len(lengths):
            raise MalformedInputError("repeated gram in directory")
        return cls(fm, alpha, q, directory)

    def count(self, pattern: bytes) -> int:
        """Occurrences of `pattern` in the corpus text, overlaps included.
        A pattern shorter than one minimizer window holds no full window, so
        its phrases need not be the text's: it takes character steps alone.

        Minimizer positions come from the right, one per phrase step, and
        phrase steps run only while the interval holds several rows.  Once
        it holds one, the untouched prefix goes to `FmIndex.extend`, whose
        single-row walk checks that one occurrence symbol by symbol, each
        for less than a gram lookup costs, and no further minimizer is
        found.  Backward search reaches the same rows whatever the step
        sizes, so the answer does not change.  A phrase the directory does
        not list takes character steps, so the count does not depend on
        alpha and q being the build's."""
        if len(pattern) < self.q + self.alpha - 1:
            return self.fm.count(pattern)
        fm = self.fm
        n = len(fm.l)
        if not countable(pattern, n):
            return 0
        marks = minimizers_from_right(pattern, self.alpha, self.q)
        step = fm.step
        directory = self.directory
        lookup = directory.get
        firsts, starts, rows = directory.firsts, directory.starts, directory.rows
        right = next(marks)
        s, e = fm.extend(pattern[right:], 0, n - 1)
        # Each pass consumes phrase pattern[left:right].
        while s < e:
            left = next(marks, None)
            if left is None:
                break
            if right - left == 1:
                # Single-symbol phrase: the character-level step is cheaper.
                s, e = step(s, e, pattern[left])
            elif (g := lookup(pattern[left:right])) is None:
                # Unlisted, yet in the text if alpha or q are not the build's.
                s, e = fm.extend(pattern[left:right], s, e)
            else:
                first, lo, hi = firsts[g], starts[g], starts[g + 1]
                # At most e - s + 1 of the gram's rows lie in [s, e], so the
                # second search only looks that far past the first.
                r = bisect_right(rows, s - 1, lo, hi)
                upto = bisect_right(rows, e, r, min(hi, r + e - s + 1))
                s, e = first + r - lo, first + upto - lo - 1
            right = left
        if s > e:
            return 0
        s, e = fm.extend(pattern[:right], s, e)
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
