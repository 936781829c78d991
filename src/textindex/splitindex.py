"""Piece-keyed dictionary index for matching with up to k mismatches.

Every word is cut into k+1 disjoint pieces.  A query with at most k
mismatches must leave at least one piece untouched, so each piece acts as a
key in a map and the rest of the word (the "missing" piece) is stored in a
packed byte list next to the key.  Verification recombines the key with a
stored missing piece and runs a plain Hamming check against the pattern.

List layout, the same for every k: ``group_0 0x00 group_1 0x00 ... group_k``.
Group i holds the entries whose key is piece i of their word, by decoded
missing length, dictionary order within a length.  An entry is an 8-bit
counter (the payload length), then the payload: the missing bytes.  There
is no header and no final terminator.  A lookup for piece i skips i
separators with ``bytes.index`` and reads group i only.  In a plain list a
run of equal counters is a block of fixed-width entries, so the walk hops
from run to run and verifies only the run whose length matches.

A matched run of more than one entry is verified with one big-integer
Hamming check.  The run, read as one little-endian integer, is XORed with
the pattern's entry (counter, then the rest of the pattern) repeated once
per entry; an OR cascade folds each byte of the difference into its low
bit; and a multiplication by the integer of `counter + 1` one-bytes sums
each entry's mismatch flags into the byte under its last payload byte.
The multiplication carries nothing: any `counter + 1` consecutive bytes
hold exactly one counter byte, whose flag is 0, so no byte of the product
exceeds `counter`, which is at most 255.  A run of one entry is checked
with the early-exit loop.

Separator invariant: a 0 byte in a list is always a separator, because
counters, decoded lengths, word bytes (1..127) and substitution codes
(128..255) are all nonzero.  A list therefore holds exactly k zero bytes.

Lists can be compressed by substituting frequent word q-grams with byte
codes 128..255; in that case each entry stores its decoded length between
the counter and the payload, so the length pre-filter can run before any
decoding.
"""

from __future__ import annotations

import functools
import heapq
from collections import Counter
from dataclasses import dataclass

from .errors import MalformedInputError
from .hashmap import ChainedHashMap

MAX_WORD_LENGTH = 255
# An index file stores k in one byte.
MAX_K = 255
CODE_FLOOR = 128
# _ONES[w]: the integer whose w little-endian bytes are all 1, for every
# plain entry width w = counter + 1.
_ONES = [int.from_bytes(b"\1" * w, "little") for w in range(MAX_WORD_LENGTH + 2)]


class Dictionary:
    """Deduplicated word list, first-occurrence order preserved."""

    def __init__(self, words):
        seen = set()
        kept: list[bytes] = []
        for word in words:
            word = bytes(word)
            if word in seen:
                continue
            if not 1 <= len(word) <= MAX_WORD_LENGTH:
                raise ValueError(f"word length {len(word)} outside 1..{MAX_WORD_LENGTH}")
            if any(b == 0 or b >= CODE_FLOOR for b in word):
                raise ValueError("words must use byte values 1..127")
            seen.add(word)
            kept.append(word)
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
def _piece_bounds(k: int) -> tuple[tuple[tuple[int, int], ...] | None, ...]:
    """For each word length 0..MAX_WORD_LENGTH, the (start, end) offsets of
    its k+1 pieces, or None where they do not fit.  One table per k, which
    every index of that k shares."""
    table: list[tuple[tuple[int, int], ...] | None] = []
    for length in range(MAX_WORD_LENGTH + 1):
        if length <= k:
            table.append(None)
            continue
        bounds = []
        at = 0
        for size in piece_sizes(length, k):
            bounds.append((at, at + size))
            at += size
        table.append(tuple(bounds))
    return tuple(table)


# ---------------------------------------------------------------------------
# q-gram substitution coding
# ---------------------------------------------------------------------------

def encode_word(word: bytes, pairs) -> bytes:
    """Greedy left-to-right substitution; longer grams are tried first at
    each position.  `pairs` is an ordered sequence of (gram, code) items."""
    return _encode(word, _codes_by_length(pairs))


def _codes_by_length(pairs) -> list[tuple[int, dict[bytes, int]]]:
    """(length, {gram: code}) for each gram length in `pairs`, longest first."""
    by_length: dict[int, dict[bytes, int]] = {}
    for gram, code in pairs:
        by_length.setdefault(len(gram), {})[gram] = code
    return sorted(by_length.items(), key=lambda item: -item[0])


def _encode(word: bytes, by_length: list[tuple[int, dict[bytes, int]]]) -> bytes:
    """`word` with the grams of `by_length` greedily replaced by their codes."""
    out = bytearray()
    at = 0
    n = len(word)
    while at < n:
        for ln, codes in by_length:
            code = codes.get(word[at:at + ln])
            if code is not None:
                out.append(code)
                at += ln
                break
        else:
            out.append(word[at])
            at += 1
    return bytes(out)


def decode_word(coded: bytes, pairs) -> bytes:
    """Inverse of `encode_word`; raises on code bytes absent from `pairs`."""
    return _decode(coded, {code: gram for gram, code in pairs})


def _decode(coded: bytes, grams: dict[int, bytes]) -> bytes:
    """`coded` with each code byte replaced by its gram from `grams`."""
    out = bytearray()
    for b in coded:
        gram = grams.get(b)
        if gram is not None:
            out.extend(gram)
        elif b >= CODE_FLOOR:
            raise MalformedInputError(f"unknown substitution code {b}")
        else:
            out.append(b)
    return bytes(out)


class SubstitutionTable:
    """Ordered (gram, code) pairs; codes are the reserved bytes 128..255."""

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
            if any(b >= CODE_FLOOR for b in gram):
                raise ValueError("grams must not contain code bytes")
        # Encode order: longer grams first, then table order.
        self.pairs: tuple[tuple[bytes, int], ...] = tuple(
            sorted(pairs, key=lambda item: -len(item[0])))
        self._grams = {code: gram for gram, code in self.pairs}
        self._codes = _codes_by_length(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def encode(self, word: bytes) -> bytes:
        return _encode(word, self._codes)

    def decode(self, coded: bytes) -> bytes:
        return _decode(coded, self._grams)


def _candidate_table(counts: Counter, budget: int) -> list[tuple[bytes, int]]:
    """Top grams by estimated saving, ties broken by the gram itself.
    Grams are distinct, so the order is total and equals a full sort's."""
    chosen = heapq.nsmallest(
        budget, counts, key=lambda gram: (-(len(gram) - 1) * counts[gram], gram))
    return [(gram, CODE_FLOOR + i) for i, gram in enumerate(chosen)]


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
    for word in dictionary:
        if any(b >= CODE_FLOOR for b in word):
            raise ValueError("alphabet already uses the reserved code bytes")

    per_length: dict[int, Counter] = {ln: Counter() for ln in lengths}
    for word in dictionary:
        for ln in lengths:
            counter = per_length[ln]
            for i in range(len(word) - ln + 1):
                counter[word[i:i + ln]] += 1

    mixed = Counter()
    for counter in per_length.values():
        mixed.update(counter)
    candidates = [_candidate_table(mixed, budget)]
    candidates.extend(_candidate_table(per_length[ln], budget) for ln in lengths)

    best_pairs = None
    best_size = None
    for pairs in candidates:
        table = SubstitutionTable(pairs)
        size = sum(len(table.encode(word)) for word in dictionary)
        if best_size is None or size < best_size:
            best_size = size
            best_pairs = pairs
    return SubstitutionTable(best_pairs)


# ---------------------------------------------------------------------------
# the index
# ---------------------------------------------------------------------------

@dataclass
class BuildStats:
    words_indexed: int = 0
    words_skipped: int = 0
    entries: int = 0


@dataclass
class QueryStats:
    entries_inspected: int = 0
    length_matches: int = 0
    verifications: int = 0


def _hamming_within(a: bytes, b: bytes, k: int) -> bool:
    budget = k
    for x, y in zip(a, b):
        if x != y:
            budget -= 1
            if budget < 0:
                return False
    return True


class SplitIndex:
    """The piece-keyed k-mismatch index over a dictionary.

    `substitution`, if set, is the table the stored pieces are coded with.
    `stats` describes the build; an index loaded from a file has none.
    """

    def __init__(self, k: int, table: ChainedHashMap,
                 substitution: SubstitutionTable | None = None,
                 stats: BuildStats | None = None):
        self.k = k
        self.table = table
        self.substitution = substitution
        self.stats = stats
        self._bounds = _piece_bounds(k)
        # 1 at every mismatch count within k, for `bytes.translate`.
        self._within = bytes(count <= k for count in range(256))

    @classmethod
    def build(cls, dictionary: Dictionary, k: int,
              substitution: SubstitutionTable | None = None) -> "SplitIndex":
        """Deterministic build: words are taken shortest first, dictionary
        order within a length, so every role group lists its entries by
        missing length (a key's missing length is the word's length minus
        the key's), and keys enter the table in first-seen order."""
        if not 1 <= k <= MAX_K:
            raise ValueError(f"k must lie in 1..{MAX_K}")
        stats = BuildStats()
        # The k+1 role groups of each key, in key-first-seen order.
        lists: dict[bytes, list[bytearray]] = {}
        bounds_of = _piece_bounds(k)
        for word in sorted(dictionary, key=len):
            if len(word) <= k:
                stats.words_skipped += 1
                continue
            stats.words_indexed += 1
            for role, (split_at, end_at) in enumerate(bounds_of[len(word)]):
                piece = word[split_at:end_at]
                missing = word[:split_at] + word[end_at:]
                groups = lists.get(piece)
                if groups is None:
                    groups = lists[piece] = [bytearray() for _ in range(k + 1)]
                group = groups[role]
                payload = missing if substitution is None else substitution.encode(missing)
                group.append(len(payload))
                if substitution is not None:
                    group.append(len(missing))
                group += payload
        stats.entries = (k + 1) * stats.words_indexed

        table = ChainedHashMap()
        for key, groups in lists.items():
            table.put(key, b"\0".join(groups))
        return cls(k, table, substitution, stats)

    # -- queries ------------------------------------------------------------

    def query(self, pattern: bytes) -> set[bytes]:
        """All dictionary words of the pattern's length within k mismatches."""
        return self._query(pattern, None)

    def query_verbose(self, pattern: bytes) -> tuple[set[bytes], QueryStats]:
        """`query` plus the counts of the list entries the walk inspected."""
        stats = QueryStats()
        return self._query(pattern, stats), stats

    def _query(self, pattern: bytes, stats: QueryStats | None) -> set[bytes]:
        """For each piece of the pattern that keys a list, verify the
        entries of the list's group for the piece's role, and add to
        `stats`, if given, the entries inspected and matched.  The walk
        reaches the end of the group, so it refuses a group that overruns
        its separator or whose missing lengths decrease.

        A plain group is walked here, one run of equal counters at a time
        (module docstring); a coded one by `_walk_entries`."""
        k = self.k
        if len(pattern) < k + 1:
            raise ValueError(f"pattern must have at least {k + 1} symbols")
        results: set[bytes] = set()
        if len(pattern) > MAX_WORD_LENGTH:
            return results
        get = self.table.get
        coded = self.substitution is not None
        for role, (split_at, end_at) in enumerate(self._bounds[len(pattern)]):
            piece = pattern[split_at:end_at]
            blob = get(piece)
            if blob is None:
                continue
            at = 0
            for _ in range(role):
                at = blob.index(0, at) + 1
            end = blob.find(0, at)
            if end < 0:
                end = len(blob)
            rest = pattern[:split_at] + pattern[end_at:]
            if coded:
                inspected, matches = self._walk_entries(
                    blob, at, end, rest, piece, split_at, results)
            else:
                want = len(rest)
                inspected = matches = last = 0
                while at < end:
                    counter = blob[at]
                    if counter <= last:
                        raise MalformedInputError("a role group is not sorted by missing length")
                    last = counter
                    step = counter + 1
                    run_end = at + step
                    if run_end < end and blob[run_end] == counter:
                        # The counters of a run sit `step` bytes apart; the
                        # first byte at that stride that differs is the next
                        # run's counter.
                        strided = blob[at:end:step]
                        size = len(strided) - len(strided.lstrip(strided[:1]))
                        run_end = at + size * step
                    else:
                        size = 1
                    if run_end > end:
                        raise MalformedInputError("a list entry overruns its role group")
                    inspected += size
                    if counter == want:
                        matches += size
                        if size == 1:
                            missing = blob[at + 1:run_end]
                            if _hamming_within(missing, rest, k):
                                results.add(missing[:split_at] + piece + missing[split_at:])
                        else:
                            width = run_end - at
                            x = (int.from_bytes(blob[at:run_end], "little")
                                 ^ int.from_bytes((bytes((counter,)) + rest) * size, "little"))
                            x |= x >> 4
                            x |= x >> 2
                            x |= x >> 1
                            x &= int.from_bytes(b"\1" * width, "little")
                            # Byte e * step + counter of the product counts
                            # the mismatches of entry e (module docstring).
                            product = (x * _ONES[step]).to_bytes(width + step, "little")
                            close = product[counter:width:step].translate(self._within)
                            e = close.find(1)
                            while e >= 0:
                                p = at + e * step + 1
                                m = p + split_at
                                results.add(blob[p:m] + piece + blob[m:p + counter])
                                e = close.find(1, e + 1)
                    at = run_end
            if stats is not None:
                stats.entries_inspected += inspected
                stats.length_matches += matches
                stats.verifications += matches
        return results

    def _walk_entries(self, blob: bytes, at: int, end: int, rest: bytes, piece: bytes,
                      split_at: int, results: set) -> tuple[int, int]:
        """Walk the substitution-coded group `blob[at:end]` one entry at a
        time, since its payload widths vary, add the words within k
        mismatches of the pattern to `results`, and return the entries
        inspected and length-matched."""
        k = self.k
        decode = self.substitution.decode
        want = len(rest)
        inspected = matches = last = 0
        try:
            while at < end:
                counter = blob[at]
                decoded_len = blob[at + 1]
                if decoded_len < last:
                    raise MalformedInputError("a role group is not sorted by missing length")
                last = decoded_len
                payload_at = at + 2
                at = payload_at + counter
                inspected += 1
                if decoded_len != want:
                    continue
                matches += 1
                missing = decode(blob[payload_at:at])
                if len(missing) != want:
                    raise MalformedInputError("a payload does not decode to its stored length")
                if _hamming_within(missing, rest, k):
                    results.add(missing[:split_at] + piece + missing[split_at:])
        except IndexError:  # a decoded length past the end of the list
            at = end + 1
        if at != end:
            raise MalformedInputError("a list entry overruns its role group")
        return inspected, matches

    # -- reconstruction and accounting ---------------------------------------

    def reconstruct_words(self) -> list[bytes]:
        """Recombine every (key, missing piece) pair back into its word.

        The multiset holds each indexed word exactly k+1 times, once per
        piece that serves as a key.  Lists that break what the walk relies
        on are refused with `MalformedInputError`: an entry that overruns
        its group, decreasing decoded lengths within a group, a payload
        that does not decode to its stored length, a key that is not piece
        `role` of its word (no word longer than `MAX_WORD_LENGTH` has
        pieces), and role groups that do not hold the same words.
        """
        sub = self.substitution
        header = 1 if sub is None else 2
        bounds_of = self._bounds
        by_role: list[list[bytes]] = [[] for _ in range(self.k + 1)]
        for key, blob in self.table.items():
            for role, group in enumerate(blob.split(b"\0")):
                words = by_role[role]
                at = last = 0
                while at < len(group):
                    payload_at = at + header
                    at = payload_at + group[at]
                    if at > len(group):
                        raise MalformedInputError("a list entry overruns its role group")
                    decoded_len = group[payload_at - 1]
                    missing = group[payload_at:at]
                    if sub is not None:
                        missing = sub.decode(missing)
                        if len(missing) != decoded_len:
                            raise MalformedInputError(
                                "a payload does not decode to its stored length")
                    if decoded_len < last:
                        raise MalformedInputError(
                            "a role group is not sorted by missing length")
                    last = decoded_len
                    length = len(key) + decoded_len
                    bounds = bounds_of[length] if length <= MAX_WORD_LENGTH else None
                    if bounds is None or bounds[role][1] - bounds[role][0] != len(key):
                        raise MalformedInputError(f"a key is not piece {role} of its word")
                    split_at = bounds[role][0]
                    words.append(missing[:split_at] + key + missing[split_at:])
        first = Counter(by_role[0])
        if any(Counter(words) != first for words in by_role[1:]):
            raise MalformedInputError("the role groups do not hold the same words")
        return [word for words in by_role for word in words]

    def size_in_bytes(self) -> int:
        """Bucket slots (4 bytes each) plus per key: one length byte, the key
        bytes, a 4-byte list pointer and the packed list itself."""
        total = 4 * self.table.bucket_count
        for key, blob in self.table.items():
            total += 1 + len(key) + 4 + len(blob)
        return total

    def list_bytes(self) -> int:
        return sum(len(blob) for _, blob in self.table.items())
