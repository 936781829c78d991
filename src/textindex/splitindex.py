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

Separator invariant: a 0 byte in a list is always a separator, because
counters, decoded lengths, word bytes (1..127) and substitution codes
(128..255) are all nonzero.  A list therefore holds exactly k zero bytes.

Lists can be compressed by substituting frequent word q-grams with byte
codes 128..255; in that case each entry stores its decoded length between
the counter and the payload, so the length pre-filter can run before any
decoding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import MalformedInputError
from .hashes import DEFAULT_HASH
from .hashmap import ChainedHashMap

MAX_WORD_LENGTH = 255
CODE_FLOOR = 128
# Length-matched runs of at least this many entries are verified with one
# numpy comparison; shorter ones with the early-exit loop, which costs less
# than numpy's fixed overhead on a few entries.
MIN_VECTOR_RUN = 64


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


# ---------------------------------------------------------------------------
# q-gram substitution coding
# ---------------------------------------------------------------------------

def encode_word(word: bytes, pairs) -> bytes:
    """Greedy left-to-right substitution; longer grams are tried first at
    each position.  `pairs` is an ordered sequence of (gram, code) items."""
    by_length: dict[int, dict[bytes, int]] = {}
    for gram, code in pairs:
        by_length.setdefault(len(gram), {})[gram] = code
    lengths = sorted(by_length, reverse=True)
    out = bytearray()
    at = 0
    n = len(word)
    while at < n:
        for ln in lengths:
            code = by_length[ln].get(word[at:at + ln])
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

    def __len__(self) -> int:
        return len(self.pairs)

    def encode(self, word: bytes) -> bytes:
        return encode_word(word, self.pairs)

    def decode(self, coded: bytes) -> bytes:
        return _decode(coded, self._grams)


def _candidate_table(counts: Counter, budget: int) -> list[tuple[bytes, int]]:
    """Top grams by estimated saving, deterministically tie-broken."""
    scored = sorted(
        ((-(len(gram) - 1) * occ, gram) for gram, occ in counts.items()),
        key=lambda item: (item[0], item[1]))
    chosen = [gram for _, gram in scored[:budget]]
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
class SplitIndexConfig:
    hash_name: str = DEFAULT_HASH
    max_load_factor: float = 2.0
    substitution: SubstitutionTable | None = None


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
    """The piece-keyed k-mismatch index over a dictionary."""

    def __init__(self, k: int, table: ChainedHashMap, config: SplitIndexConfig,
                 stats: BuildStats):
        self.k = k
        self.table = table
        self.config = config
        self.stats = stats

    @classmethod
    def build(cls, dictionary: Dictionary, k: int,
              config: SplitIndexConfig | None = None) -> "SplitIndex":
        """Deterministic build: words are taken shortest first, dictionary
        order within a length, so every role group lists its entries by
        missing length (a key's missing length is the word's length minus
        the key's), and keys enter the table in first-seen order."""
        if k < 1:
            raise ValueError("k must be at least 1")
        config = config or SplitIndexConfig()
        sub = config.substitution
        stats = BuildStats()
        # The k+1 role groups of each key, in key-first-seen order.
        lists: dict[bytes, list[bytearray]] = {}
        for word in sorted(dictionary, key=len):
            if len(word) <= k:
                stats.words_skipped += 1
                continue
            stats.words_indexed += 1
            offset = 0
            for role, piece in enumerate(split_word(word, k)):
                end = offset + len(piece)
                missing = word[:offset] + word[end:]
                offset = end
                groups = lists.get(piece)
                if groups is None:
                    groups = lists[piece] = [bytearray() for _ in range(k + 1)]
                group = groups[role]
                payload = missing if sub is None else sub.encode(missing)
                group.append(len(payload))
                if sub is not None:
                    group.append(len(missing))
                group += payload
        stats.entries = (k + 1) * stats.words_indexed

        table = ChainedHashMap(config.hash_name, config.max_load_factor)
        for key, groups in lists.items():
            table.put(key, b"\0".join(groups))
        return cls(k, table, config, stats)

    # -- queries ------------------------------------------------------------

    def query(self, pattern: bytes, k: int | None = None) -> set[bytes]:
        """All dictionary words of the pattern's length within k mismatches."""
        return self._query(pattern, k, None)

    def query_verbose(self, pattern: bytes, k: int | None = None) -> tuple[set[bytes], QueryStats]:
        """`query` plus the counts of the list entries the walk inspected."""
        stats = QueryStats()
        return self._query(pattern, k, stats), stats

    def _query(self, pattern: bytes, k: int | None, stats: QueryStats | None) -> set[bytes]:
        if k is not None and k != self.k:
            raise ValueError(f"index was built for k={self.k}, queried with k={k}")
        k = self.k
        if len(pattern) < k + 1:
            raise ValueError(f"pattern must have at least {k + 1} symbols")
        results: set[bytes] = set()
        split_at = 0
        for role, piece in enumerate(split_word(pattern, k)):
            blob = self.table.get(piece)
            if blob is not None:
                self._walk(pattern, piece, split_at, role, blob, results, stats)
            split_at += len(piece)
        return results

    def _walk(self, pattern: bytes, piece: bytes, split_at: int, role: int,
              blob: bytes, results: set, stats: QueryStats | None) -> None:
        """Verify the entries of group `role` of `blob`, the list keyed by
        `piece`, which sits at `split_at` in the pattern; add to `stats`, if
        given, the entries inspected and matched.  The walk reaches the end
        of the group, so it refuses a group that overruns its separator or
        whose missing lengths decrease."""
        at = 0
        for _ in range(role):
            at = blob.index(0, at) + 1
        end = blob.find(0, at)
        if end < 0:
            end = len(blob)
        rest = pattern[:split_at] + pattern[split_at + len(piece):]
        walk = self._walk_runs if self.config.substitution is None else self._walk_entries
        inspected, matches = walk(blob, at, end, rest, piece, split_at, results)
        if stats is not None:
            stats.entries_inspected += inspected
            stats.length_matches += matches
            stats.verifications += matches

    def _walk_runs(self, blob: bytes, at: int, end: int, rest: bytes, piece: bytes,
                   split_at: int, results: set) -> tuple[int, int]:
        """Walk the plain group `blob[at:end]` one run of equal counters at
        a time, add the words within k mismatches of the pattern to
        `results`, and return the entries inspected and length-matched."""
        k = self.k
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
                # The counters of a run sit `step` bytes apart; the first
                # byte at that stride that differs is the next run's counter.
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
                if size >= MIN_VECTOR_RUN:
                    block = np.frombuffer(blob, np.uint8, run_end - at, at).reshape(size, step)
                    close = np.count_nonzero(
                        block[:, 1:] != np.frombuffer(rest, np.uint8), axis=1) <= k
                    for i in np.flatnonzero(close).tolist():
                        payload_at = at + i * step + 1
                        missing = blob[payload_at:payload_at + counter]
                        results.add(missing[:split_at] + piece + missing[split_at:])
                else:
                    for payload_at in range(at + 1, run_end, step):
                        missing = blob[payload_at:payload_at + counter]
                        if _hamming_within(missing, rest, k):
                            results.add(missing[:split_at] + piece + missing[split_at:])
            at = run_end
        return inspected, matches

    def _walk_entries(self, blob: bytes, at: int, end: int, rest: bytes, piece: bytes,
                      split_at: int, results: set) -> tuple[int, int]:
        """`_walk_runs` for a substitution-coded group, whose payload widths
        vary, so it is walked one entry at a time."""
        k = self.k
        decode = self.config.substitution.decode
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
        `role` of its word, and role groups that do not hold the same words.
        """
        k = self.k
        sub = self.config.substitution
        header = 1 if sub is None else 2
        # Piece sizes of every length a key (255) plus a missing piece (255)
        # can give, None where the k+1 pieces do not fit.
        sizes_of = [piece_sizes(length, k) if length > k else None
                    for length in range(2 * MAX_WORD_LENGTH + 1)]
        by_role: list[list[bytes]] = [[] for _ in range(k + 1)]
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
                    sizes = sizes_of[len(key) + decoded_len]
                    if sizes is None or sizes[role] != len(key):
                        raise MalformedInputError(f"a key is not piece {role} of its word")
                    split_at = sum(sizes[:role])
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
