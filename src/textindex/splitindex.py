"""Piece-keyed dictionary index for matching with up to k mismatches.

Every word is cut into k+1 disjoint pieces.  A query with at most k
mismatches must leave at least one piece untouched, so each piece acts as a
key and the rest of the word (the "missing" part) is stored next to it.
Verification recombines the key with a stored missing part and checks the
Hamming distance to the pattern.

Lists are keyed by (m, role, piece): m is the word length and the role is
the index of the piece among the word's k+1 pieces.  m and the role fix
where the piece sits and its length, so every missing part of one list has
the same width w = m - len(piece), and a list is one run: its words'
missing parts concatenated in dictionary order, with no counter, separator
or sort order to read.  The index reads its (m, role) groups into one
list indexed by m, so a query of length m takes its roles' groups from
entry m with no lookup, looks up its piece in each group, and verifies
the whole run.

The run is verified with one big-integer Hamming check.  Read as one
little-endian integer, it is XORed with the rest of the pattern repeated
once per entry.  The pattern's bytes 128..255 are first mapped to 0, which
still differs from every word byte (1..127), so no byte of the difference
exceeds 127: adding 0x7F to every byte sets bit 7 of exactly the nonzero
ones and carries nothing into the next byte, and bit 7 shifted down is the
byte's mismatch flag.  A multiplication by the integer of w one-bytes then
sums each entry's flags into the byte under its last missing byte: byte
e * w + w - 1 of the product sums exactly the w flags of entry e.  No byte
of the product exceeds w <= 254, so the multiplication carries nothing.

The build works in bulk.  The words of one length m form a (count, m)
byte block.  For each role, `np.unique` numbers the block's piece columns
by distinct piece in byte order, and the rows sorted stably by that
number list each run's words in dictionary order, so the missing columns
of the sorted block are the group's runs back to back, keyed by pieces
in byte order.

Lists can be compressed by substituting frequent word q-grams with byte
codes 128..255.  A coded run is its entries' coded missing parts
concatenated; codes map one byte to one gram, so decoding the whole run
once gives the plain run, which is verified in the same way.  Encoding is
decoding run the other way: one compiled `re` split keeps the longest
gram at each position, left to right (decoding: each code byte), and one
`map` swaps each kept part for its code (its gram).  A coded build groups
the words as a plain one does, joins each group's missing parts with byte
0, which no gram holds, codes them with one call and cuts the result at
the 0 bytes; `select_qgrams` sizes each candidate table with one call over
all the words, joined the same way.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import MalformedInputError
from .hashmap import ChainedHashMap
from .textcore import packed_words

MAX_WORD_LENGTH = 255
# An index file stores k in one byte.
MAX_K = 255
CODE_FLOOR = 128
# _ONES[w]: the integer whose w little-endian bytes are all 1, for every
# missing width w.
_ONES = [int.from_bytes(b"\1" * w, "little") for w in range(MAX_WORD_LENGTH + 1)]
# Finds a byte that no word may hold: 0, or a code byte.
_foreign_byte = re.compile(rb"[^\x01-\x7f]").search
# Maps the bytes 128..255, which no word holds, to 0, which no word holds
# either, and keeps the rest.
_CLAMP = bytes(range(CODE_FLOOR)) + bytes(256 - CODE_FLOOR)


class Dictionary:
    """Deduplicated word list, first-occurrence order preserved."""

    def __init__(self, words):
        kept = dict.fromkeys(map(bytes, words))
        for word in kept:
            if not 1 <= len(word) <= MAX_WORD_LENGTH:
                raise ValueError(f"word length {len(word)} outside 1..{MAX_WORD_LENGTH}")
            if _foreign_byte(word):
                raise ValueError("words must use byte values 1..127")
        self.words: tuple[bytes, ...] = tuple(kept)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def alphabet(self) -> bytes:
        return bytes(sorted({b for w in self.words for b in w}))


def piece_sizes(length: int, k: int) -> list[int]:
    """Sizes of the k+1 pieces of a word of the given length.

    The first k pieces take round-half-up(length / (k+1)) symbols and the
    last piece takes the remainder, clamped so every piece keeps at least
    one symbol (e.g. length 6 with k = 3 becomes 2,2,1,1).
    """
    if k < 0:
        raise ValueError(f"k must be at least 0, not {k}")
    if length < k + 1:
        raise ValueError(f"length {length} cannot host {k + 1} nonempty pieces")
    base = (2 * length + k + 1) // (2 * k + 2)
    sizes = []
    consumed = 0
    for i in range(k):
        size = min(base, length - consumed - (k - i))
        sizes.append(size)
        consumed += size
    sizes.append(length - consumed)
    return sizes


def split_word(word: bytes, k: int) -> list[bytes]:
    """Cut `word` into k+1 disjoint pieces that concatenate back to it."""
    sizes = piece_sizes(len(word), k)
    pieces = []
    at = 0
    for size in sizes:
        pieces.append(word[at:at + size])
        at += size
    return pieces


@functools.cache
def piece_bounds(k: int) -> tuple[tuple[tuple[int, int, bytes], ...] | None, ...]:
    """For each word length m in 0..MAX_WORD_LENGTH, the start and end
    offsets of its k+1 pieces and the key of their (m, role) group, or None
    where the pieces do not fit.  One table per k, which every index of
    that k shares."""
    table: list[tuple[tuple[int, int, bytes], ...] | None] = []
    for length in range(MAX_WORD_LENGTH + 1):
        if length <= k:
            table.append(None)
            continue
        bounds = []
        at = 0
        for role, size in enumerate(piece_sizes(length, k)):
            bounds.append((at, at + size, bytes((length, role))))
            at += size
        table.append(tuple(bounds))
    return tuple(table)


# ---------------------------------------------------------------------------
# q-gram substitution coding
# ---------------------------------------------------------------------------

def encode_word(word: bytes, pairs) -> bytes:
    """Greedy left-to-right substitution; longer grams are tried first at
    each position.  `pairs` is an ordered sequence of (gram, code) items;
    of a gram listed twice, the later code wins."""
    codes = {gram: bytes((code,)) for gram, code in pairs}
    if b"" in codes:
        raise ValueError("substitution grams must be nonempty")
    return _substitute(word, codes, _split_around(codes))


def decode_word(coded: bytes, pairs) -> bytes:
    """Inverse of `encode_word`; raises on code bytes absent from `pairs`."""
    grams = {bytes((code,)): gram for gram, code in pairs}
    if b"" in grams.values():
        raise ValueError("substitution grams must be nonempty")
    return _substitute(coded, grams, _split_around(grams, rb"[\x80-\xff]"))


def _split_around(keys, other: bytes = b""):
    """A `split` that cuts bytes around the longest of the nonempty `keys`
    that starts at each position, left to right, and around each match of
    the pattern `other`, and keeps the parts it cuts out; with neither, it
    cuts nothing.  `re` takes the first alternative that matches, so the
    keys are grouped by first byte, longest first in each group: one
    alternative per first byte, which `re` rejects with one byte compare."""
    tails: dict[bytes, list[bytes]] = {}
    for key in sorted(keys, key=len, reverse=True):
        tails.setdefault(re.escape(key[:1]), []).append(re.escape(key[1:]))
    branches = [first + (rest[0] if len(rest) == 1 else b"(?:" + b"|".join(rest) + b")")
                for first, rest in tails.items()]
    branches += [other] if other else []
    return re.compile(b"(" + (b"|".join(branches) or b"(?!)") + b")").split


def _substitute(data: bytes, table: dict[bytes, bytes], split) -> bytes:
    """`data` with each part that `split` keeps replaced by its value in
    `table`.  Decoding tables map code bytes to grams, and a code byte
    absent from the table is refused."""
    parts = split(data)
    try:
        parts[1::2] = map(table.__getitem__, parts[1::2])
    except KeyError as exc:
        raise MalformedInputError(f"unknown substitution code {exc.args[0][0]}") from None
    return b"".join(parts)


class SubstitutionTable:
    """Ordered (gram, code) pairs; codes are the reserved bytes 128..255.

    `decoded_width[b]` is the number of bytes that byte b of a coded run
    decodes to: 1 below 128, its gram's length for a code, and 0 for a
    byte that is no code of the table."""

    def __init__(self, pairs):
        pairs = [(bytes(g), int(c)) for g, c in pairs]
        if len(pairs) > 128:
            raise ValueError("at most 128 codes are available")
        grams = [g for g, _ in pairs]
        codes = [c for _, c in pairs]
        if len(set(grams)) != len(grams):
            raise ValueError("grams must be unique")
        if len(set(codes)) != len(codes):
            raise ValueError("codes must be unique")
        for gram, code in pairs:
            if not 2 <= len(gram) <= 4:
                raise ValueError("grams must be 2 to 4 symbols long")
            if not CODE_FLOOR <= code <= 255:
                raise ValueError("codes must lie in 128..255")
            # Coded builds join entries with byte 0, which no gram may span.
            if _foreign_byte(gram):
                raise ValueError("grams must use byte values 1..127")
        # Longer grams first, then table order: the order files store.
        self.pairs: tuple[tuple[bytes, int], ...] = tuple(
            sorted(pairs, key=lambda item: -len(item[0])))
        self._codes = {gram: bytes((code,)) for gram, code in self.pairs}
        self._encode_split = _split_around(self._codes)
        self._grams = {bytes((code,)): gram for gram, code in self.pairs}
        self._decode_split = _split_around(self._grams, rb"[\x80-\xff]")
        self.decoded_width = np.array([1] * CODE_FLOOR + [0] * (256 - CODE_FLOOR))
        self.decoded_width[codes] = list(map(len, grams))

    def __len__(self) -> int:
        return len(self.pairs)

    def encode(self, word: bytes) -> bytes:
        return _substitute(word, self._codes, self._encode_split)

    def decode(self, coded: bytes) -> bytes:
        return _substitute(coded, self._grams, self._decode_split)


def _candidate_table(grams, savings, budget: int) -> list[tuple[bytes, int]]:
    """Top grams by estimated saving, ties broken by the gram itself.  A
    gram is its bytes as a big-endian u32, padded on the right with byte 0,
    which no gram holds, so keys order as the bytes do, across lengths too."""
    chosen = grams[np.lexsort((grams, -savings))[:budget]].tolist()
    return [(key.to_bytes(4, "big").rstrip(b"\0"), CODE_FLOOR + i) for i, key in enumerate(chosen)]


def select_qgrams(dictionary: Dictionary, budget: int = 100,
                  lengths=(2, 3, 4)) -> SubstitutionTable:
    """Choose a substitution table minimizing the total encoded size.

    Candidate tables are built per gram length and for the mixed pool, each
    holding the grams with the largest estimated saving (occurrences times
    bytes saved); the candidate with the smallest measured encoded total
    wins.  The result is therefore never worse than any single-length table
    built by the same procedure.
    """
    if budget < 1 or budget > 128:
        raise ValueError("budget must lie in 1..128 (code space)")
    lengths = tuple(sorted(set(lengths)))
    if not lengths or any(ln not in (2, 3, 4) for ln in lengths):
        raise ValueError("gram lengths must be drawn from {2, 3, 4}")
    words = list(dictionary)
    # Byte 0 separates the words, so no window or gram spans two of them.
    if _foreign_byte(b"\1".join(words)):
        raise ValueError("words must use byte values 1..127")
    joined = b"\0".join(words)

    # ends[i]: the end of the word that holds byte i of `joined`, so the
    # window of ln bytes at i stays inside its word when i + ln <= ends[i].
    sizes = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    ends = np.repeat(np.cumsum(sizes + 1) - 1, sizes + 1)[:len(joined)]
    # A window's key: its first four bytes (see `_candidate_table`), cut to ln.
    heads = (packed_words(joined) >> 32).astype(np.uint32)
    pools = []
    for ln in lengths:
        inside = np.arange(len(joined)) + ln <= ends
        grams, counts = np.unique(heads[inside] >> 32 - 8 * ln << 32 - 8 * ln, return_counts=True)
        pools.append((grams, (ln - 1) * counts))

    # Grams of different lengths differ, so the pools do not overlap.
    mixed = tuple(map(np.concatenate, zip(*pools)))
    candidates = [_candidate_table(*pool, budget) for pool in (mixed, *pools)]

    # Every candidate codes the same separators, so coding the joined words
    # ranks the candidates as coding each word would.  Each distinct table is
    # coded once, in order, so ties still go to the first.
    return min(map(SubstitutionTable, dict.fromkeys(map(tuple, candidates))),
               key=lambda table: len(table.encode(joined)))


# ---------------------------------------------------------------------------
# the index
# ---------------------------------------------------------------------------

@dataclass
class QueryStats:
    entries_inspected: int = 0
    length_matches: int = 0
    verifications: int = 0


class PieceRuns:
    """The lists of one (m, role) group: `ids` maps each piece to its id,
    and run `id` is runs[starts[id]:starts[id + 1]].  `starts` is u32, read
    through a memoryview, whose items are Python ints."""

    __slots__ = ("ids", "starts", "runs")

    def __init__(self, keys: np.ndarray, lengths, runs: bytes):
        """The columns of a group in a file: `keys`, a (count, size) u8
        array with one piece per row in id order, the byte `lengths` of
        their runs and the runs.  A repeated piece keeps one id and leaves
        `ids` shorter.

        Pieces must hold no zero byte, as words do not: numpy's fixed-width
        strings drop trailing zero bytes, and with none in a piece they read
        back every piece whole."""
        starts = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        if starts[-1] >> 32:
            raise ValueError("one group's runs pass 4 GiB")
        pieces = keys.view(f"S{keys.shape[1]}").ravel()
        self.ids = dict(zip(pieces.tolist(), range(len(lengths))))
        self.starts = memoryview(starts.astype(np.uint32))
        self.runs = runs

    def items(self):
        """(piece, run) pairs in id order."""
        starts, runs = self.starts, self.runs
        return ((piece, runs[starts[i]:starts[i + 1]]) for piece, i in self.ids.items())


def _group(block: np.ndarray, split_at: int, end_at: int,
           substitution: SubstitutionTable | None) -> PieceRuns:
    """The (m, role) group of `block`, the (count, m) u8 array of the words
    of one length m in dictionary order, whose role's pieces are columns
    split_at:end_at.  `np.unique` numbers the distinct pieces in byte
    order, and sorting the rows stably by that number lists each run's
    words in dictionary order."""
    pieces, ids = np.unique(block[:, split_at:end_at].view(f"S{end_at - split_at}").ravel(),
                            return_inverse=True)
    keys = pieces.view(np.uint8).reshape(len(pieces), -1)
    counts = np.bincount(ids)
    # Stable sorts of u8 and u16 keys are radix sorts.
    rows = block[np.argsort(ids.astype(np.min_scalar_type(len(pieces))), kind="stable")]
    missing = np.concatenate((rows[:, :split_at], rows[:, end_at:]), axis=1)
    w = missing.shape[1]
    if substitution is None:
        return PieceRuns(keys, counts * w, missing.tobytes())
    # The missing parts, each ended by byte 0, which no gram holds, coded as
    # one block: entry e ends where the block's e-th 0 byte does, less the
    # e separators before it.
    coded = substitution.encode(np.pad(missing, ((0, 0), (0, 1))).tobytes())
    ends = np.flatnonzero(np.frombuffer(coded, dtype=np.uint8) == 0) - np.arange(len(missing))
    return PieceRuns(keys, np.diff(ends[np.cumsum(counts) - 1], prepend=0),
                     coded.replace(b"\0", b""))


class SplitIndex:
    """The piece-keyed k-mismatch index over a dictionary.

    `table` maps the 2-byte key (m, role) of each group to its `PieceRuns`;
    a key whose m or role does not fit k raises `ValueError`.  The index
    reads the table once, at construction: `_groups[m]` holds, for each
    role of an m-symbol word, its piece's offsets and its group, or None
    for a group that the table lacks, and is empty where no group has m.
    `substitution`, if set, is the table the runs are coded with.
    """

    def __init__(self, k: int, table: ChainedHashMap,
                 substitution: SubstitutionTable | None = None):
        self.k = k
        self.table = table
        self.substitution = substitution
        self._bounds = bounds = piece_bounds(k)
        by_length: dict[int, list[PieceRuns | None]] = {}
        for (m, role), group in table.items():
            if m <= k or role > k:
                raise ValueError(f"split group m={m}, role={role} does not fit k={k}")
            by_length.setdefault(m, [None] * (k + 1))[role] = group
        self._groups: list[tuple[tuple[int, int, PieceRuns | None], ...]] = (
            [()] * (MAX_WORD_LENGTH + 1))
        for m, groups in by_length.items():
            self._groups[m] = tuple((split_at, end_at, group) for (split_at, end_at, _), group
                                    in zip(bounds[m], groups))
        # 1 at every mismatch count within k, for `bytes.translate`.
        self._within = bytes(count <= k for count in range(256))
        # For each run width met so far, the integers of that many 0x7F and
        # 0x80 bytes.
        self._masks: dict[int, tuple[int, int]] = {}

    @classmethod
    def build(cls, dictionary: Dictionary, k: int,
              substitution: SubstitutionTable | None = None) -> "SplitIndex":
        """Deterministic build: groups enter the table by (m, role), pieces
        enter a group in byte order, and each run lists its words in
        dictionary order.  Words of k symbols or fewer have no k+1 pieces
        and are left out.  The words of each length m > k are one
        (count, m) byte block, and each role of the block is grouped in bulk
        (`_group`), with no Python step per word or piece.  The grouping
        compares pieces as numpy fixed-width strings, which ignore trailing
        zero bytes, so it relies on `Dictionary` words holding none."""
        if not 1 <= k <= MAX_K:
            raise ValueError(f"k must lie in 1..{MAX_K}")
        words = sorted(dictionary, key=len)
        lengths, counts = np.unique(np.fromiter(map(len, words), dtype=np.int64,
                                                count=len(words)), return_counts=True)
        joined = np.frombuffer(b"".join(words), dtype=np.uint8)
        table = ChainedHashMap()
        bounds_of = piece_bounds(k)
        at = 0
        for m, count in zip(lengths.tolist(), counts.tolist()):
            block = joined[at:at + m * count].reshape(count, m)
            at += m * count
            for split_at, end_at, key in bounds_of[m] or ():
                table.put(key, _group(block, split_at, end_at, substitution))
        return cls(k, table, substitution)

    # -- queries ------------------------------------------------------------

    def query(self, pattern: bytes) -> set[bytes]:
        """All dictionary words of the pattern's length within k mismatches."""
        return self._query(pattern, None)

    def query_verbose(self, pattern: bytes) -> tuple[set[bytes], QueryStats]:
        """`query` plus the counts of the list entries the lookups verified."""
        stats = QueryStats()
        return self._query(pattern, stats), stats

    def _query(self, pattern: bytes, stats: QueryStats | None) -> set[bytes]:
        """For each piece of the pattern that keys a run, verify the whole
        run with one big-integer check (module docstring), and add to
        `stats`, if given, the entries the run holds."""
        k = self.k
        m = len(pattern)
        if m < k + 1:
            raise ValueError(f"pattern must have at least {k + 1} symbols")
        results: set[bytes] = set()
        if m > MAX_WORD_LENGTH:
            return results
        clamped = pattern.translate(_CLAMP)
        masks = self._masks
        sub = self.substitution
        for split_at, end_at, group in self._groups[m]:
            if group is None:
                continue
            piece = pattern[split_at:end_at]
            i = group.ids.get(piece)
            if i is None:
                continue
            starts = group.starts
            run = group.runs[starts[i]:starts[i + 1]]
            if sub is not None:
                run = sub.decode(run)
            rest = clamped[:split_at] + clamped[end_at:]
            width = len(run)
            w = len(rest)
            count = width // w
            pair = masks.get(width)
            if pair is None:
                pair = masks[width] = (int.from_bytes(b"\x7f" * width, "little"),
                                       int.from_bytes(b"\x80" * width, "little"))
            low, high = pair
            x = int.from_bytes(run, "little") ^ int.from_bytes(rest * count, "little")
            x = ((x + low) & high) >> 7
            product = (x * _ONES[w]).to_bytes(width + w, "little")
            close = product[w - 1:width:w].translate(self._within)
            e = close.find(1)
            while e >= 0:
                at = e * w
                cut = at + split_at
                results.add(run[at:cut] + piece + run[cut:at + w])
                e = close.find(1, e + 1)
            if stats is not None:
                stats.entries_inspected += count
                stats.length_matches += count
                stats.verifications += count
        return results

    # -- reconstruction and accounting ---------------------------------------

    def reconstruct_words(self) -> list[bytes]:
        """Recombine every (key, missing part) pair back into its word.

        The multiset holds each indexed word exactly k+1 times, once per
        piece that serves as a key.  Role groups that do not hold the same
        words are refused with `MalformedInputError`.
        """
        sub = self.substitution
        by_role: list[list[bytes]] = [[] for _ in range(self.k + 1)]
        for (m, role), group in self.table.items():
            split_at, end_at, _ = self._bounds[m][role]
            w = m - (end_at - split_at)
            words = by_role[role]
            for piece, run in group.items():
                if sub is not None:
                    run = sub.decode(run)
                for at in range(0, len(run), w):
                    cut = at + split_at
                    words.append(run[at:cut] + piece + run[cut:at + w])
        first = Counter(by_role[0])
        if any(Counter(words) != first for words in by_role[1:]):
            raise MalformedInputError("the role groups do not hold the same words")
        return [word for words in by_role for word in words]

    def piece_layout(self) -> dict:
        """The piece-key count, and the buckets and load factor a chained
        map of that many keys would have (`ChainedHashMap`'s doubling rule)."""
        keys = sum(len(group.ids) for _, group in self.table.items())
        buckets = ChainedHashMap.buckets_for(keys)
        return {"entries": keys, "buckets": buckets, "load_factor": keys / buckets}

    def size_in_bytes(self) -> int:
        """The bucket slots (4 bytes each) of a chained map over the piece
        keys, 6 bytes per (m, role) group (the group key and its key count),
        and per piece key: the key bytes, a 4-byte run length and the run."""
        total = 4 * self.piece_layout()["buckets"]
        for _, group in self.table.items():
            total += 6 + 4 * len(group.ids) + len(group.runs)
            total += sum(map(len, group.ids))
        return total

    def list_bytes(self) -> int:
        return sum(len(group.runs) for _, group in self.table.items())
