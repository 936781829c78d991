"""Piece-keyed dictionary index for matching with up to k mismatches.

Every word is cut into k+1 disjoint pieces.  A query with at most k
mismatches must leave at least one piece untouched, so each piece acts as a
key in a map and the rest of the word (the "missing" piece) is stored in a
packed byte list next to the key.  Verification recombines the key with a
stored missing piece and runs a plain Hamming check against the pattern.

List layout: each entry is an 8-bit length counter followed by the missing
bytes; a zero counter terminates the list.  For k = 1 a 16-bit boundary in
front of the list gives the ordinal of the first entry keyed by the trailing
piece; the boundary counts entries, not bytes, so a trailing-piece lookup
still parses every leading entry before it.  For k > 1 every entry carries
a tag byte naming the piece that serves as its key, and a lookup parses
every entry of the list, skipping those with another tag.

Lists can be compressed by substituting frequent word q-grams with byte
codes 128..255; in that case each entry also stores its decoded length so
the length pre-filter can run before any decoding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import MalformedInputError
from .hashes import DEFAULT_HASH
from .hashmap import ChainedHashMap

MAX_WORD_LENGTH = 255
CODE_FLOOR = 128
_BOUNDARY_LIMIT = 0xFFFF


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
    grams = {code: gram for gram, code in pairs}
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

    def __len__(self) -> int:
        return len(self.pairs)

    def encode(self, word: bytes) -> bytes:
        return encode_word(word, self.pairs)

    def decode(self, coded: bytes) -> bytes:
        return decode_word(coded, self.pairs)


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
    lists_probed: int = 0
    entries_inspected: int = 0
    length_matches: int = 0
    verifications: int = 0
    group_sizes: list[int] = field(default_factory=list)


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
        """Deterministic build: lists grow in dictionary order; for k = 1 the
        leading-piece group is populated before the trailing-piece group."""
        if k < 1:
            raise ValueError("k must be at least 1")
        config = config or SplitIndexConfig()
        sub = config.substitution
        stats = BuildStats()
        # Assemble packed lists per key first, then feed the table in
        # key-first-seen order, which is also the order files store.  Each
        # value is [leading-group blob, trailing-group blob, leading entry
        # count].
        lists: dict[bytes, list] = {}
        usable = []
        for word in dictionary:
            if len(word) <= k:
                stats.words_skipped += 1
            else:
                usable.append(word)
        stats.words_indexed = len(usable)

        def emit(key: bytes, missing: bytes, group: int, tag: int | None) -> None:
            slot = lists.setdefault(key, [bytearray(), bytearray(), 0])
            blob = slot[group]
            payload = sub.encode(missing) if sub is not None else missing
            blob.append(len(payload))
            if tag is not None:
                blob.append(tag)
            if sub is not None:
                blob.append(len(missing))
            blob.extend(payload)
            if group == 0:
                slot[2] += 1
            stats.entries += 1

        if k == 1:
            for word in usable:
                lead, trail = split_word(word, 1)
                emit(lead, trail, 0, None)
            for word in usable:
                lead, trail = split_word(word, 1)
                emit(trail, lead, 1, None)
        else:
            for word in usable:
                pieces = split_word(word, k)
                offset = 0
                for i, piece in enumerate(pieces):
                    missing = word[:offset] + word[offset + len(piece):]
                    emit(piece, missing, 0, i)
                    offset += len(piece)

        table = ChainedHashMap(config.hash_name, config.max_load_factor)
        for key, (group0, group1, lead_entries) in lists.items():
            table.put(key, cls._pack(k, group0, group1, lead_entries))
        return cls(k, table, config, stats)

    @staticmethod
    def _pack(k: int, group0: bytearray, group1: bytearray, lead_entries: int) -> bytes:
        blob = bytearray()
        if k == 1:
            boundary = (lead_entries + 1) if group1 else 0
            if boundary > _BOUNDARY_LIMIT:
                raise ValueError("list exceeds the 16-bit boundary range")
            blob += boundary.to_bytes(2, "little")
        blob += group0
        blob += group1
        blob.append(0)
        return bytes(blob)

    # -- queries ------------------------------------------------------------

    def query(self, pattern: bytes, k: int | None = None) -> set[bytes]:
        """All dictionary words of the pattern's length within k mismatches."""
        results, _ = self._query(pattern, k)
        return results

    def query_verbose(self, pattern: bytes, k: int | None = None) -> tuple[set[bytes], QueryStats]:
        return self._query(pattern, k)

    def _query(self, pattern: bytes, k: int | None) -> tuple[set[bytes], QueryStats]:
        if k is not None and k != self.k:
            raise ValueError(f"index was built for k={self.k}, queried with k={k}")
        k = self.k
        if len(pattern) < k + 1:
            raise ValueError(f"pattern must have at least {k + 1} symbols")
        stats = QueryStats()
        results: set[bytes] = set()
        pieces = split_word(pattern, k)
        offsets = []
        at = 0
        for piece in pieces:
            offsets.append(at)
            at += len(piece)
        for i, piece in enumerate(pieces):
            blob = self.table.get(piece)
            if blob is None:
                continue
            stats.lists_probed += 1
            if k == 1:
                self._walk_k1(pattern, piece, i, blob, results, stats)
            else:
                self._walk_tagged(pattern, pieces, offsets, i, blob, results, stats)
        return results, stats

    def _walk_k1(self, pattern: bytes, piece: bytes, role: int, blob: bytes,
                 results: set, stats: QueryStats) -> None:
        sub = self.config.substitution
        boundary = int.from_bytes(blob[:2], "little")
        at = 2
        rest = pattern[len(piece):] if role == 0 else pattern[:len(pattern) - len(piece)]
        want = len(pattern) - len(piece)
        ordinal = 0
        group_size = 0
        while True:
            counter = blob[at]
            if counter == 0:
                break
            at += 1
            ordinal += 1
            decoded_len = counter
            if sub is not None:
                decoded_len = blob[at]
                at += 1
            payload_at = at
            at += counter
            if role == 0:
                # Leading-piece group: entries before the boundary.
                if boundary and ordinal >= boundary:
                    break
            else:
                # Trailing-piece group: starts at the boundary ordinal.
                if boundary == 0:
                    break
                if ordinal < boundary:
                    continue
            group_size += 1
            stats.entries_inspected += 1
            if decoded_len != want:
                continue
            stats.length_matches += 1
            missing = blob[payload_at:payload_at + counter]
            if sub is not None:
                missing = sub.decode(missing)
            stats.verifications += 1
            if _hamming_within(missing, rest, self.k):
                word = piece + missing if role == 0 else missing + piece
                results.add(word)
        stats.group_sizes.append(group_size)

    def _walk_tagged(self, pattern: bytes, pieces: list[bytes], offsets: list[int],
                     role: int, blob: bytes, results: set, stats: QueryStats) -> None:
        sub = self.config.substitution
        piece = pieces[role]
        rest = pattern[:offsets[role]] + pattern[offsets[role] + len(piece):]
        want = len(pattern) - len(piece)
        at = 0
        group_size = 0
        while True:
            counter = blob[at]
            if counter == 0:
                break
            at += 1
            tag = blob[at]
            at += 1
            decoded_len = counter
            if sub is not None:
                decoded_len = blob[at]
                at += 1
            payload_at = at
            at += counter
            if tag != role:
                continue
            group_size += 1
            stats.entries_inspected += 1
            if decoded_len != want:
                continue
            stats.length_matches += 1
            missing = blob[payload_at:payload_at + counter]
            if sub is not None:
                missing = sub.decode(missing)
            stats.verifications += 1
            if _hamming_within(missing, rest, self.k):
                split_at = offsets[role]
                results.add(missing[:split_at] + piece + missing[split_at:])
        stats.group_sizes.append(group_size)

    # -- reconstruction and accounting ---------------------------------------

    def reconstruct_words(self) -> list[bytes]:
        """Recombine every (key, missing piece) pair back into its word.

        The multiset holds each indexed word exactly k+1 times, once per
        piece that serves as a key.
        """
        sub = self.config.substitution
        out: list[bytes] = []
        for key, blob in self.table.items():
            at = 0
            boundary = 0
            if self.k == 1:
                boundary = int.from_bytes(blob[:2], "little")
                at = 2
            ordinal = 0
            while True:
                counter = blob[at]
                if counter == 0:
                    break
                at += 1
                tag = None
                if self.k > 1:
                    tag = blob[at]
                    at += 1
                if sub is not None:
                    at += 1  # decoded length, not needed here
                missing = blob[at:at + counter]
                at += counter
                ordinal += 1
                if sub is not None:
                    missing = sub.decode(missing)
                if self.k == 1:
                    trailing_group = boundary != 0 and ordinal >= boundary
                    out.append(missing + key if trailing_group else key + missing)
                else:
                    sizes = piece_sizes(len(key) + len(missing), self.k)
                    split_at = sum(sizes[:tag])
                    out.append(missing[:split_at] + key + missing[split_at:])
        return out

    def size_in_bytes(self) -> int:
        """Bucket slots (4 bytes each) plus per key: one length byte, the key
        bytes, a 4-byte list pointer and the packed list itself."""
        total = 4 * self.table.bucket_count
        for key, blob in self.table.items():
            total += 1 + len(key) + 4 + len(blob)
        return total

    def list_bytes(self) -> int:
        return sum(len(blob) for _, blob in self.table.items())
