import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from textindex.errors import MalformedInputError
from textindex.harness import NaiveHammingSearcher, random_word_dictionary
from textindex.envelope import deserialize_index, serialize_index
from textindex.hashmap import ChainedHashMap
from textindex.splitindex import (MAX_WORD_LENGTH, Dictionary, PieceRuns,
                                  SplitIndex, SubstitutionTable, _candidate_table,
                                  decode_word, encode_word, piece_bounds, piece_sizes,
                                  select_qgrams, split_word)


def naive_search(words, pattern, k):
    out = set()
    for w in words:
        if len(w) == len(pattern):
            if sum(1 for a, b in zip(w, pattern) if a != b) <= k:
                out.add(w)
    return out


def layout(idx):
    """Each group key of `idx` with its (piece, run) pairs, in table order."""
    return [(key, list(group.items())) for key, group in idx.table.items()]


def lists(idx):
    """The missing parts of every run of `idx`, decoded, in run order,
    keyed by (m, role, piece)."""
    out = {}
    for (m, role), group in idx.table.items():
        for piece, run in group.items():
            if idx.substitution is not None:
                run = idx.substitution.decode(run)
            w = m - len(piece)
            out[m, role, piece] = [run[at:at + w] for at in range(0, len(run), w)]
    return out


def with_run(idx, key, piece, run):
    """Give `piece` the run `run` in group `key` of `idx`, in place."""
    runs = dict(idx.table.get(key).items())
    runs[piece] = run
    keys = np.frombuffer(b"".join(runs), np.uint8).reshape(len(runs), -1)
    idx.table.put(key, PieceRuns(keys, list(map(len, runs.values())), b"".join(runs.values())))


def reference_build(dictionary, k, substitution=None):
    """The per-word build that the bulk `SplitIndex.build` replaced: one
    dict step per word and piece, runs grown entry by entry, and each
    group's pieces sorted bytewise."""
    groups = {}
    bounds_of = piece_bounds(k)
    for word in sorted(dictionary, key=len):
        if len(word) <= k:
            continue
        for split_at, end_at, key in bounds_of[len(word)]:
            run = groups.setdefault(key, {}).setdefault(word[split_at:end_at], bytearray())
            missing = word[:split_at] + word[end_at:]
            run += missing if substitution is None else substitution.encode(missing)
    table = ChainedHashMap()
    for key, runs in groups.items():
        runs = dict(sorted(runs.items()))
        keys = np.frombuffer(b"".join(runs), np.uint8).reshape(len(runs), -1)
        table.put(key, PieceRuns(keys, list(map(len, runs.values())), b"".join(runs.values())))
    return SplitIndex(k, table, substitution)


def assert_pieces_sorted(idx):
    """Each group of `idx` keys its runs by pieces in strictly increasing
    byte order."""
    for key, group in idx.table.items():
        pieces = list(group.ids)
        assert all(a < b for a, b in zip(pieces, pieces[1:])), key


def assert_same_build(d, k, substitution=None):
    built = SplitIndex.build(d, k, substitution)
    reference = reference_build(d, k, substitution)
    assert layout(built) == layout(reference)
    assert lists(built) == lists(reference)
    assert serialize_index(built) == serialize_index(reference)
    assert_pieces_sorted(built)
    assert_pieces_sorted(deserialize_index(serialize_index(built)))


def greedy_encode(word, pairs):
    """The per-position loop that coded words before the regex split: at
    each position the longest gram of `pairs` that starts there becomes its
    code (of a gram listed twice, the later code), else the byte stays."""
    by_length = {}
    for gram, code in pairs:
        by_length.setdefault(len(gram), {})[gram] = code
    out = bytearray()
    at = 0
    while at < len(word):
        for ln in sorted(by_length, reverse=True):
            code = by_length[ln].get(word[at:at + ln])
            if code is not None:
                out.append(code)
                at += ln
                break
        else:
            out.append(word[at])
            at += 1
    return bytes(out)


def mixed_words(seed):
    """Words of every length 1..12, some of 13..40 symbols, and 255-symbol
    words that share their leading or trailing pieces, in a shuffled order."""
    rng = random.Random(seed)
    words = {bytes(rng.choice(b"abc") for _ in range(length))
             for length in range(1, 13) for _ in range(30)}
    words |= {bytes(rng.choice(b"abcdefgh") for _ in range(rng.randint(13, 40)))
              for _ in range(60)}
    head = bytes(rng.choice(b"ab") for _ in range(128))
    tail = bytes(rng.choice(b"ab") for _ in range(127))
    for _ in range(4):
        words.add(head + bytes(rng.choice(b"ab") for _ in range(127)))
        words.add(bytes(rng.choice(b"ab") for _ in range(128)) + tail)
    words = sorted(words)
    rng.shuffle(words)
    return Dictionary(words)


class TestDictionary:
    def test_dedup_preserves_order(self):
        d = Dictionary([b"b", b"a", b"b", b"c", b"a"])
        assert d.words == (b"b", b"a", b"c")

    def test_rejects_code_bytes(self):
        with pytest.raises(ValueError):
            Dictionary([b"a\x80b"])

    def test_rejects_overlong(self):
        with pytest.raises(ValueError):
            Dictionary([b"x" * 256])

    def test_accepts_every_byte_from_1_to_127(self):
        word = bytes(range(1, 128))
        assert Dictionary([word, word[::-1]]).words == (word, word[::-1])

    @pytest.mark.parametrize("words, message", [
        ([b"ok", b"a\x00b", b"x" * 256, b""], "byte values 1..127"),
        ([b"ok", b"ok", b"\x80a", b"\xff", b"\x00"], "byte values 1..127"),
        ([b"ok", b"ab\xff", b"", b"c\x80"], "byte values 1..127"),
        ([b"ok", b"", b"a\x80", b"x" * 256], "word length 0 outside 1..255"),
        ([b"ok", b"x" * 256, b"\x00", b""], "word length 256 outside 1..255"),
        # one word both too long and of foreign bytes: its length is named
        ([b"ok", b"\xff" * 256, b"\x00"], "word length 256 outside 1..255"),
    ], ids=["zero", "0x80-after-duplicate", "0xff", "empty", "overlong", "overlong-foreign"])
    def test_first_bad_word_names_the_fault(self, words, message):
        with pytest.raises(ValueError, match=message):
            Dictionary(words)


class TestSplitWord:
    def test_table(self):
        assert split_word(b"table", 1) == [b"tab", b"le"]

    def test_even(self):
        assert split_word(b"abcdef", 2) == [b"ab", b"cd", b"ef"]

    def test_pieces_concatenate(self):
        rng = random.Random(1)
        for _ in range(300):
            k = rng.randint(1, 4)
            length = rng.randint(k + 1, 30)
            word = bytes(rng.choice(b"xyz") for _ in range(length))
            pieces = split_word(word, k)
            assert b"".join(pieces) == word
            assert len(pieces) == k + 1
            assert all(pieces)

    def test_round_half_up(self):
        assert piece_sizes(5, 1) == [3, 2]
        assert piece_sizes(7, 2) == [2, 2, 3]

    def test_clamped_when_rounding_would_starve_the_tail(self):
        assert piece_sizes(6, 3) == [2, 2, 1, 1]
        assert piece_sizes(8, 4) == [2, 2, 2, 1, 1]

    def test_too_short(self):
        with pytest.raises(ValueError):
            split_word(b"ab", 2)

    @pytest.mark.parametrize("k", [-1, -2, -7])
    def test_negative_k_refused(self, k):
        # k = -1 divided by zero, and k <= -2 gave the whole word as one piece
        with pytest.raises(ValueError, match=f"k must be at least 0, not {k}"):
            split_word(b"table", k)
        with pytest.raises(ValueError, match="k must be at least 0"):
            piece_sizes(5, k)

    def test_zero_k_keeps_the_word_whole(self):
        assert split_word(b"table", 0) == [b"table"]
        assert piece_sizes(5, 0) == [5]


class TestBuild:
    def test_worked_example_lists(self):
        d = Dictionary([b"table", b"cable", b"left", b"tablet"])
        idx = SplitIndex.build(d, 1)
        # One group per (m, role), shortest words first, its pieces in
        # byte order.  A run is the missing parts of its piece's words, of
        # width m - len(piece), in dictionary order: "le" is piece 1 of
        # table (tab|le) and cable (cab|le), and piece 0 of left (le|ft),
        # in another group.
        assert layout(idx) == [
            (b"\x04\x00", [(b"le", b"ft")]),
            (b"\x04\x01", [(b"ft", b"le")]),
            (b"\x05\x00", [(b"cab", b"le"), (b"tab", b"le")]),
            (b"\x05\x01", [(b"le", b"tabcab")]),
            (b"\x06\x00", [(b"tab", b"let")]),
            (b"\x06\x01", [(b"let", b"tab")]),
        ]
        # k = 2: "e" is piece 1 of left (l|e|ft) and piece 2 of table
        # (ta|bl|e) and cable (ca|bl|e).
        idx = SplitIndex.build(d, 2)
        assert dict(idx.table.get(b"\x04\x01").items())[b"e"] == b"lft"
        assert dict(idx.table.get(b"\x05\x02").items())[b"e"] == b"tablcabl"
        # ten piece keys: l, e, ft; ta, ca, bl, e; ta, bl, et
        assert idx.piece_layout() == {"entries": 10, "buckets": 8, "load_factor": 1.25}

    def test_role_group_beyond_16_bits(self):
        # 65,537 words share the leading piece "abcd"; one more has it as
        # its trailing piece, so that entry follows 65,537 others.
        letters = b"efghijklmnopqrstuvwxyz"
        trails = (bytes([a, b, c, e]) for a in letters for b in letters
                  for c in letters for e in letters)
        words = [b"abcd" + next(trails) for _ in range(65537)] + [b"ABCDabcd"]
        idx = SplitIndex.build(Dictionary(words), 1)
        assert idx.query(b"ABCXabcd") == {b"ABCDabcd"}
        assert idx.query(b"abcdeeeX") == {b"abcdeee" + bytes([c]) for c in letters}
        assert_same_build(Dictionary(words), 1)

    def test_empty_dictionary(self):
        idx = SplitIndex.build(Dictionary([]), 1)
        assert idx.query(b"ab") == set()
        assert_same_build(Dictionary([]), 1)

    def test_entry_count_law(self):
        rng = random.Random(2)
        words = {bytes(rng.choice(b"ab") for _ in range(rng.randint(1, 10)))
                 for _ in range(500)}
        d = Dictionary(sorted(words))
        for k in (1, 2, 3):
            idx = SplitIndex.build(d, k)
            indexable = sum(1 for w in d if len(w) > k)
            entries = sum(len(run) // (m - len(piece)) for (m, _), group in idx.table.items()
                          for piece, run in group.items())
            assert entries == (k + 1) * indexable

    def test_reconstruction_multiset(self):
        rng = random.Random(3)
        words = {bytes(rng.choice(b"abcdef") for _ in range(rng.randint(2, 12)))
                 for _ in range(800)}
        d = Dictionary(sorted(words))
        for k in (1, 2, 3):
            idx = SplitIndex.build(d, k)
            expected = Counter({w: k + 1 for w in d if len(w) > k})
            assert Counter(idx.reconstruct_words()) == expected

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            SplitIndex.build(Dictionary([b"ab"]), 0)

    def test_k_past_one_byte_rejected(self):
        # a file stores k in one byte, so 255 is the largest k a build takes
        d = Dictionary([b"ab"])
        with pytest.raises(ValueError, match="k must lie in 1..255"):
            SplitIndex.build(d, 256)
        idx = SplitIndex.build(d, 255)
        assert deserialize_index(serialize_index(idx)).k == 255

    def test_built_and_loaded_share_piece_bounds(self):
        # one piece-bound table per k, made once
        d = random_word_dictionary(50, seed=4)
        built = SplitIndex.build(d, 2)
        loaded = deserialize_index(serialize_index(built))
        assert loaded._bounds is built._bounds
        assert SplitIndex.build(d, 3)._bounds is not built._bounds

    def test_deterministic(self):
        d = Dictionary([b"table", b"left", b"tablet", b"stable"])
        a = SplitIndex.build(d, 1)
        b = SplitIndex.build(d, 1)
        assert layout(a) == layout(b)

    @pytest.mark.parametrize("coded", [False, True])
    def test_groups_sorted_by_missing_length(self, coded):
        # every run holds entries of one missing length, m - len(piece),
        # with piece `role` of m-symbol words as its key, and lists its
        # words in dictionary order
        rng = random.Random(4)
        words = sorted({bytes(rng.choice(b"abcd") for _ in range(rng.randint(2, 12)))
                        for _ in range(800)})
        rng.shuffle(words)
        d = Dictionary(words)
        position = {w: i for i, w in enumerate(d.words)}
        table = select_qgrams(d, budget=20, lengths=(2,)) if coded else None
        for k in (1, 2, 3):
            idx = SplitIndex.build(d, k, table)
            for (m, role, piece), entries in lists(idx).items():
                sizes = piece_sizes(m, k)
                assert len(piece) == sizes[role]
                assert {len(missing) for missing in entries} == {m - len(piece)}
                split_at = sum(sizes[:role])
                order = [position[missing[:split_at] + piece + missing[split_at:]]
                         for missing in entries]
                assert order == sorted(order)


class TestBulkBuild:
    """The bulk build makes the table and file bytes of the per-word
    reference build, with each group's pieces in byte order."""

    @pytest.mark.parametrize("coded", [False, True], ids=["plain", "coded"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_as_per_word_build(self, seed, k, coded):
        d = mixed_words(seed)
        assert {len(w) for w in d} >= set(range(1, 13)) | {MAX_WORD_LENGTH}
        assert_same_build(d, k, select_qgrams(d) if coded else None)

    @pytest.mark.parametrize("coded", [False, True], ids=["plain", "coded"])
    def test_piece_shared_across_roles(self, coded):
        # "ab" is both pieces of abab, piece 0 of abcd and piece 1 of cdab
        d = Dictionary([b"cdab", b"abab", b"abcd", b"a", b"ab"])
        substitution = SubstitutionTable([(b"cd", 128)]) if coded else None
        assert_same_build(d, 1, substitution)
        idx = SplitIndex.build(d, 1, substitution)
        assert dict(idx.table.get(b"\x04\x00").items())[b"ab"] == (
            b"ab\x80" if coded else b"abcd")
        # four words of two pieces each; "a" has no two pieces
        assert Counter(idx.reconstruct_words()) == Counter(
            {b"cdab": 2, b"abab": 2, b"abcd": 2, b"ab": 2})

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_only_skipped_words(self, k):
        d = Dictionary([b"a", b"bc", b"def"][:k])
        assert_same_build(d, k)
        assert len(SplitIndex.build(d, k).table) == 0


class TestQuery:
    def test_one_mismatch_in_prefix(self):
        idx = SplitIndex.build(Dictionary([b"table", b"left", b"tablet"]), 1)
        assert idx.query(b"tacle") == {b"table"}

    def test_exact_match(self):
        idx = SplitIndex.build(Dictionary([b"table", b"left", b"tablet"]), 1)
        assert idx.query(b"left") == {b"left"}

    def test_two_errors_excluded_at_k1(self):
        idx = SplitIndex.build(Dictionary([b"table", b"left", b"tablet"]), 1)
        assert idx.query(b"taXleX") == set()

    def test_short_pattern_rejected(self):
        idx = SplitIndex.build(Dictionary([b"table"]), 2)
        with pytest.raises(ValueError):
            idx.query(b"ab")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exactness_random(self, k):
        rng = random.Random(100 + k)
        words = {bytes(rng.choice(b"abcdefgh") for _ in range(rng.randint(2, 12)))
                 for _ in range(1500)}
        d = Dictionary(sorted(words))
        idx = SplitIndex.build(d, k)
        for _ in range(400):
            w = rng.choice(d.words)
            q = bytearray(w)
            for _ in range(rng.randint(0, k + 1)):
                q[rng.randrange(len(q))] = rng.choice(b"abcdefgh")
            q = bytes(q)
            if len(q) < k + 1:
                continue
            assert idx.query(q) == naive_search(d.words, q, k)

    @pytest.mark.parametrize("coded", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    # The ids are the run sizes' offsets from 64, as the suite has long
    # reported them.
    @pytest.mark.parametrize("size", [63, 64, 65], ids=["-1", "0", "1"])
    def test_exactness_around_vector_run(self, size, k, coded):
        # The leading piece `head` keys a run of `size` entries of one word
        # length, and runs of 3 at other lengths; a query verifies the run
        # of its length with one big-integer check over the whole run.
        rng = random.Random(200 + 10 * k + size - 64)
        length = 10
        head = b"a" * piece_sizes(length, k)[0]
        words = set()
        for n in range(len(head) + 1, 16):
            if piece_sizes(n, k)[0] != len(head):
                continue
            same_head = set()
            while len(same_head) < (size if n == length else 3):
                same_head.add(head + bytes(rng.choice(b"bcde") for _ in range(n - len(head))))
            words |= same_head
        while len(words) < 192:
            words.add(bytes(rng.choice(b"bcde") for _ in range(rng.randint(k + 1, 15))))
        d = Dictionary(sorted(words))
        table = select_qgrams(d, budget=20, lengths=(2,)) if coded else None
        idx = SplitIndex.build(d, k, table)
        runs = {m: len(entries) for (m, role, piece), entries in lists(idx).items()
                if role == 0 and piece == head}
        assert runs[length] == size
        assert len(runs) > 1
        oracle = NaiveHammingSearcher(d)
        for w in d.words:
            # keep the head of a run word in half of its queries, so the
            # walk reaches the run
            for lo in {0, len(head) if w.startswith(head) else 0}:
                q = bytearray(w)
                for _ in range(rng.randint(0, k + 1)):
                    q[rng.randrange(lo, len(q))] = rng.choice(b"abcde")
                q = bytes(q)
                assert idx.query(q) == oracle.search(q, k)

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("coded", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_high_and_zero_byte_patterns(self, k, coded, loaded):
        # Patterns may hold any byte (the CLI reads them as latin-1), words
        # only 1..127.  Bytes 0, 128, 200 and 255 in a pattern differ from
        # every stored byte; the run check must count each as one mismatch
        # whatever the bytes around it, over runs of 1, 2, 63, 64, 65 and
        # 240 entries, each keyed by its own leading piece.
        rng = random.Random(300 + k)
        length = 12
        h = piece_sizes(length, k)[0]
        assert piece_sizes(length - 1, k)[0] == h
        runs = (1, 2, 63, 64, 65, 240)
        words = set()
        for i, size in enumerate(runs):
            # Leading piece `head`: a run of 3 shorter words, and the run.
            head = bytes([ord("d") + i]) * h
            for n, count in ((length - 1, 3), (length, size)):
                same_head = set()
                while len(same_head) < count:
                    same_head.add(head + bytes(rng.choice(b"bc\x01\x7f") for _ in range(n - h)))
                words |= same_head
        d = Dictionary(sorted(words))
        table = select_qgrams(d, budget=20, lengths=(2,)) if coded else None
        idx = SplitIndex.build(d, k, table)
        if loaded:
            idx = deserialize_index(serialize_index(idx))
        entries = lists(idx)
        for i, size in enumerate(runs):
            head = bytes([ord("d") + i]) * h
            assert (len(entries[length - 1, 0, head]), len(entries[length, 0, head])) == (3, size)
        oracle = NaiveHammingSearcher(d)
        odd = b"\x00\x80\xc8\xff"
        for w in d.words:
            for _ in range(2):
                q = bytearray(w)
                for _ in range(rng.randint(0, k + 1)):
                    q[rng.randrange(h, len(q))] = rng.choice(odd + b"bc")
                q = bytes(q)
                assert idx.query(q) == oracle.search(q, k)
            q = w[:h] + bytes(rng.choice(odd) for _ in range(len(w) - h))
            assert idx.query(q) == oracle.search(q, k)

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("coded", [False, True])
    @pytest.mark.parametrize("k", [1, 2])
    def test_high_difference_byte_carries_into_no_neighbour(self, k, coded, loaded):
        # 0xFF differs from "a" by 0x9E.  The run check adds 0x7F to every
        # byte of the difference, so a difference byte of 0x81 or more
        # would lose its own flag and carry one into the byte after it: a
        # match there, or the first byte of the next entry, would count as
        # a mismatch.  The pattern's bytes 128..255 are mapped to 0 first,
        # so no difference byte passes 127.
        m = 3 * (k + 1)
        head = b"h" * piece_sizes(m, k)[0]
        w = m - len(head)
        inside = head + b"a" + b"c" * (w - 1)
        # adjacent in their run: the last byte of `last`, then the first
        # byte of `after`
        last = head + b"c" * (w - 1) + b"a"
        after = head + b"c" * (w - k) + b"d" * (k - 1) + b"\x7f"
        d = Dictionary([inside, last, after, b"g" * m])
        table = SubstitutionTable([(b"cc", 128)]) if coded else None
        idx = SplitIndex.build(d, k, table)
        if loaded:
            idx = deserialize_index(serialize_index(idx))
        assert lists(idx)[m, 0, head] == [word[len(head):] for word in d.words[:3]]
        assert (b"\x80" in idx.table.get(bytes((m, 0))).runs) == coded
        oracle = NaiveHammingSearcher(d)
        for pattern, within, beyond in (
                # before a match in the same entry
                (head + b"\xff" + b"c" * (w - 1), {inside}, set()),
                # before a mismatch in the same entry: k + 1 mismatches
                (head + b"\xff" + b"d" * k + b"c" * (w - 1 - k), set(), {inside}),
                # the last byte of an entry, before a match that begins an
                # entry of k mismatches
                (head + b"c" * (w - 1) + b"\xff", {last, after}, set())):
            answer = oracle.search(pattern, k)
            assert within <= answer and not beyond & answer
            assert idx.query(pattern) == answer
        # Every word with one or two of its bytes set to 0xFF.
        for word in d.words:
            for at in range(m):
                for second in range(at, m):
                    q = bytearray(word)
                    q[at] = q[second] = 0xFF
                    assert idx.query(bytes(q)) == oracle.search(bytes(q), k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_patterns_longer_than_any_word(self, k):
        # Words hold at most 255 symbols, so a longer pattern matches none,
        # even where its pieces key lists.
        rng = random.Random(400 + k)
        words = {bytes(rng.choice(b"ab") for _ in range(n)) for n in (250, 254, 255)
                 for _ in range(20)}
        d = Dictionary(sorted(words))
        idx = SplitIndex.build(d, k)
        oracle = NaiveHammingSearcher(d)
        for w in d.words:
            for pattern in (w, w + w[:1], w + w[-1:], (w * 2)[:400]):
                assert idx.query(pattern) == oracle.search(pattern, k)
        for m in (256, 400):
            pattern = bytes(rng.choice(b"ab") for _ in range(m))
            assert idx.query(pattern) == oracle.search(pattern, k) == set()
            assert idx.query_verbose(pattern)[1].entries_inspected == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_traversal_economy(self, k):
        # a lookup inspects exactly the run of its piece, role and length
        rng = random.Random(7)
        words = {bytes(rng.choice(b"abc") for _ in range(rng.randint(k + 1, 9)))
                 for _ in range(300)}
        idx = SplitIndex.build(Dictionary(sorted(words)), k)
        run_sizes = {key: len(entries) for key, entries in lists(idx).items()}
        for _ in range(200):
            q = bytes(rng.choice(b"abc") for _ in range(rng.randint(k + 1, 9)))
            _, stats = idx.query_verbose(q)
            expected = sum(run_sizes.get((len(q), role, piece), 0)
                           for role, piece in enumerate(split_word(q, k)))
            assert stats.entries_inspected == stats.length_matches == expected

    def test_counters_are_opt_in(self, monkeypatch):
        # a plain query allocates no counters; query_verbose returns the
        # same words with them
        from textindex import splitindex
        rng = random.Random(9)
        words = sorted({bytes(rng.choice(b"abc") for _ in range(rng.randint(3, 8)))
                        for _ in range(300)})
        idx = SplitIndex.build(Dictionary(words), 2)
        queries = [bytes(rng.choice(b"abc") for _ in range(rng.randint(3, 8)))
                   for _ in range(100)]
        verbose = [idx.query_verbose(q) for q in queries]
        assert sum(stats.entries_inspected for _, stats in verbose) > 0

        def refuse():
            raise AssertionError("QueryStats allocated by a plain query")
        monkeypatch.setattr(splitindex, "QueryStats", refuse)
        assert [idx.query(q) for q in queries] == [results for results, _ in verbose]


class TestListChecks:
    """Runs that break what the query and the reconstruction rely on are
    refused: at load, a run that is not whole entries of its width or a
    group that no word has; when read, role groups with different words."""

    @staticmethod
    def _refused_at_load(idx, match):
        with pytest.raises(MalformedInputError, match=match):
            deserialize_index(serialize_index(idx))

    @pytest.mark.parametrize("coded", [False, True])
    def test_descending_group_refused(self, coded):
        # "ab" is the trailing piece of xyz|ab and xy|ab, in the groups of
        # m = 5 and m = 4; entries of both widths in one run are refused
        table = SubstitutionTable([(b"xy", 128)]) if coded else None
        idx = SplitIndex.build(Dictionary([b"xyzab", b"xyab"]), 1, table)
        short, long = (b"\x80", b"\x80z") if coded else (b"xy", b"xyz")
        assert [dict(idx.table.get(key).items()) for key in (b"\x04\x01", b"\x05\x01")] == [
            {b"ab": short}, {b"ab": long}]
        with_run(idx, b"\x04\x01", b"ab", long + short)
        self._refused_at_load(idx, "multiple")

    def test_descending_after_a_run_refused(self):
        # a run of width-2 entries, then one of width 3 and one of width 2
        idx = SplitIndex.build(Dictionary([b"aaab", b"bbab", b"cccab"]), 1)
        assert dict(idx.table.get(b"\x04\x01").items()) == {b"ab": b"aabb"}
        with_run(idx, b"\x04\x01", b"ab", b"aabbcccdd")
        self._refused_at_load(idx, "multiple")

    def test_key_that_is_not_its_piece_refused(self):
        # a group key (m, role) names piece `role` of an m-symbol word: a
        # role above k or an m of at most k symbols has no such piece
        for key in (b"\x04\x02", b"\x01\x00"):
            idx = SplitIndex.build(Dictionary([b"abcd"]), 1)
            idx.table.put(key, idx.table.get(b"\x04\x00"))
            self._refused_at_load(idx, "does not fit k=1")

    @pytest.mark.parametrize("k", [1, 2])
    def test_key_that_does_not_fit_k_refused_at_construction(self, k):
        # the index reads its groups per word length when it is made, so a
        # table that a load would refuse is refused there too, as a
        # ValueError, not an IndexError or a TypeError
        idx = SplitIndex.build(Dictionary([b"abcdef"]), k)
        group = idx.table.get(b"\x06\x00")
        for key in (bytes((6, k + 1)), bytes((6, 255)), bytes((k, 0)), b"\x00\x00"):
            table = ChainedHashMap(idx.table)
            table.put(key, group)
            with pytest.raises(ValueError, match=f"does not fit k={k}"):
                SplitIndex(k, table)

    def test_role_groups_with_different_words_refused(self):
        idx = SplitIndex.build(Dictionary([b"abcd", b"efgh"]), 1)
        assert layout(idx)[0] == (b"\x04\x00", [(b"ab", b"cd"), (b"ef", b"gh")])
        with_run(idx, b"\x04\x00", b"ab", b"cx")
        idx = deserialize_index(serialize_index(idx))
        with pytest.raises(MalformedInputError, match="same words"):
            idx.reconstruct_words()

    def test_payload_longer_than_its_decoded_length_refused(self):
        # a coded run must decode to whole entries of its width
        table = SubstitutionTable([(b"cd", 128)])
        idx = SplitIndex.build(Dictionary([b"abcd"]), 1, table)
        assert dict(idx.table.get(b"\x04\x00").items()) == {b"ab": b"\x80"}
        with_run(idx, b"\x04\x00", b"ab", b"\x80x")
        self._refused_at_load(idx, "multiple")

    @pytest.mark.parametrize("coded, run", [(False, b"c\x80"), (False, b"c\xff"),
                                            (False, b"\x00d"), (True, b"c\x00")])
    def test_run_byte_that_no_word_holds_refused(self, coded, run):
        # the query's mismatch test needs every run byte in 1..127 once
        # decoded; each run here is whole entries of its width
        table = SubstitutionTable([(b"cd", 128)]) if coded else None
        idx = SplitIndex.build(Dictionary([b"abcd"]), 1, table)
        with_run(idx, b"\x04\x00", b"ab", run)
        self._refused_at_load(idx, "byte that no word holds")

    def test_unknown_code_in_a_run_refused(self):
        table = SubstitutionTable([(b"cd", 128)])
        idx = SplitIndex.build(Dictionary([b"abcd"]), 1, table)
        with_run(idx, b"\x04\x00", b"ab", b"\x81")
        self._refused_at_load(idx, "unknown substitution code")


class TestSubstitutionCoding:
    DEMO_PAIRS = [(b"com", ord("#")), (b"re", ord("*")), (b"co", ord("$")),
                   (b"om", ord("&")), (b"sion", ord("\\"))]

    def test_compression_example(self):
        assert encode_word(b"compression", self.DEMO_PAIRS) == b"#p*s\\"
        assert decode_word(b"#p*s\\", self.DEMO_PAIRS) == b"compression"

    def test_empty_gram_refused(self):
        # an empty gram consumes no symbol, so greedy encoding would never
        # move past it
        for pairs in ([(b"", 128)], [(b"ab", ord("#")), (b"", 128)]):
            with pytest.raises(ValueError, match="nonempty"):
                encode_word(b"ab", pairs)
            with pytest.raises(ValueError, match="nonempty"):
                decode_word(b"#", pairs)

    def test_word_without_table_grams(self):
        table = SubstitutionTable([(b"zz", 200)])
        assert table.encode(b"banana") == b"banana"

    def test_unknown_code_rejected(self):
        table = SubstitutionTable([(b"an", 128)])
        with pytest.raises(MalformedInputError):
            table.decode(bytes([129]))

    @given(st.lists(st.integers(ord("a"), ord("d")), min_size=0, max_size=40).map(bytes))
    @settings(max_examples=500)
    def test_round_trip(self, word):
        table = SubstitutionTable([(b"ab", 128), (b"abc", 129), (b"cd", 130),
                                   (b"dd", 131), (b"abca", 132)])
        assert table.decode(table.encode(word)) == word

    def test_code_space_validation(self):
        with pytest.raises(ValueError):
            SubstitutionTable([(b"ab", 60)])
        with pytest.raises(ValueError):
            SubstitutionTable([(b"abcde", 128)])
        with pytest.raises(ValueError):
            SubstitutionTable([(b"ab", 128), (b"ab", 129)])

    @pytest.mark.parametrize("gram", [b"a\0", b"\0ab", b"a\x80", b"\xffb"])
    def test_gram_outside_word_bytes_refused(self, gram):
        # coded builds join entries with byte 0, which a gram could span
        with pytest.raises(ValueError, match="byte values 1..127"):
            SubstitutionTable([(b"cd", 128), (gram, 129)])

    def test_file_with_a_zero_byte_gram_refused(self):
        idx = SplitIndex.build(Dictionary([b"abcd"]), 1, SubstitutionTable([(b"cd", 128)]))
        idx.substitution.pairs = ((b"c\0", 128),)
        with pytest.raises(MalformedInputError,
                           match="bad substitution table: grams must use byte values 1..127"):
            deserialize_index(serialize_index(idx))


SYMBOLS = st.sampled_from(b"a.|\\")


class TestGreedyOracle:
    """Regex coding against the per-position greedy loop it replaced."""

    @given(word=st.lists(SYMBOLS, max_size=60).map(bytes),
           pairs=st.lists(st.tuples(st.lists(SYMBOLS, min_size=1, max_size=8).map(bytes),
                                    st.integers(0, 255)), max_size=12))
    @example(word=b"a.a.", pairs=[(b"a.", 1), (b".a", 2), (b"a.", 3)])
    @example(word=b"a.|", pairs=[])
    @example(word=b"a" * 2500, pairs=[(b"a" * 1000, 200), (b"a", ord("#"))])
    @settings(max_examples=400)
    def test_encode_word(self, word, pairs):
        assert encode_word(word, pairs) == greedy_encode(word, pairs)

    @given(words=st.lists(st.lists(SYMBOLS, max_size=20).map(bytes), max_size=8),
           grams=st.lists(st.lists(SYMBOLS, min_size=2, max_size=4).map(bytes),
                          max_size=30))
    @example(words=[b"a.|"], grams=[])
    @settings(max_examples=400)
    def test_table_encode(self, words, grams):
        table = SubstitutionTable((gram, 128 + i) for i, gram in enumerate(dict.fromkeys(grams)))
        coded = [greedy_encode(word, table.pairs) for word in words]
        assert list(map(table.encode, words)) == coded
        # byte 0 holds no gram, so words joined with it code one by one
        assert table.encode(b"\0".join(words)) == b"\0".join(coded)


class TestSelectQgrams:
    def test_forced_optimum(self):
        table = select_qgrams(Dictionary([b"aaaa"]), budget=1, lengths=(2,))
        assert table.pairs == ((b"aa", 128),)
        assert len(table.encode(b"aaaa")) == 2

    def test_beats_or_ties_single_length_baselines(self):
        rng = random.Random(12)
        words = {bytes(rng.choice(b"ACGT") for _ in range(20)) for _ in range(400)}
        d = Dictionary(sorted(words))
        mixed = select_qgrams(d, budget=50, lengths=(2, 3, 4))
        total_mixed = sum(len(mixed.encode(w)) for w in d)
        for ln in (2, 3, 4):
            single = select_qgrams(d, budget=50, lengths=(ln,))
            total_single = sum(len(single.encode(w)) for w in d)
            assert total_mixed <= total_single

    def test_dna_compresses(self):
        rng = random.Random(13)
        words = {bytes(rng.choice(b"ACGT") for _ in range(20)) for _ in range(300)}
        d = Dictionary(sorted(words))
        table = select_qgrams(d, budget=100, lengths=(2, 3, 4))
        raw = sum(len(w) for w in d)
        encoded = sum(len(table.encode(w)) for w in d)
        assert encoded < raw

    @pytest.mark.parametrize("seed", [14, 15])
    def test_candidate_tables_equal_a_full_sort(self, seed):
        # the grams kept by the top-`budget` selection are the head of a
        # full sort by (-saving, gram), for the mixed table and for each
        # per-length one; equal savings are common, so ties are broken too
        d = random_word_dictionary(500, seed=seed)
        per_length = [Counter(w[i:i + ln] for w in d for i in range(len(w) - ln + 1))
                      for ln in (2, 3, 4)]
        mixed = sum(per_length, Counter())
        for counts in (mixed, *per_length):
            ranked = sorted(counts, key=lambda g: (-(len(g) - 1) * counts[g], g))
            savings = [(len(g) - 1) * counts[g] for g in ranked[:129]]
            assert len(set(savings)) < len(savings)
            for budget in (1, 50, 128):
                assert _candidate_table(*self.pool(counts), budget) == [
                    (gram, 128 + i) for i, gram in enumerate(ranked[:budget])]

    @staticmethod
    def pool(counts):
        """`counts` as `_candidate_table`'s arrays: each gram as a big-endian
        u32 padded on the right with byte 0, and its saving."""
        grams = np.array([int.from_bytes(g.ljust(4, b"\0"), "big") for g in counts],
                         dtype=np.uint32)
        savings = np.array([(len(g) - 1) * c for g, c in counts.items()], dtype=np.int64)
        return grams, savings

    def test_mixed_ties_break_by_bytes_not_right_aligned_value(self):
        # b"aaa" sorts before b"zz" as bytes, but after it as right-aligned
        # integers (0x616161 > 0x7a7a), so only left-aligned keys rank the
        # tie between lengths as a full sort by (-saving, gram) does
        counts = {b"zz": 2, b"aaa": 1, b"ab": 1, b"abcd": 1}
        assert int.from_bytes(b"aaa", "big") > int.from_bytes(b"zz", "big")
        assert _candidate_table(*self.pool(counts), 4) == [
            (b"abcd", 128), (b"aaa", 129), (b"zz", 130), (b"ab", 131)]
        # b"abc" and b"zz" both save 2 and head the mixed pool; the 2-gram
        # pool's b"zz" codes as small, and ties go to the mixed table
        words = [b"abc", b"qzz", b"zzq"]
        assert select_qgrams(Dictionary(words), 1, (2, 3)).pairs == ((b"abc", 128),)
        assert self.reference_pairs(words, 1, (2, 3)) == ((b"abc", 128),)

    def test_deterministic(self):
        d = Dictionary([b"banana", b"bandana", b"cabana"])
        t1 = select_qgrams(d, budget=10, lengths=(2, 3))
        t2 = select_qgrams(d, budget=10, lengths=(2, 3))
        assert t1.pairs == t2.pairs

    def test_budget_beyond_code_space_rejected(self):
        with pytest.raises(ValueError):
            select_qgrams(Dictionary([b"ab"]), budget=200)

    def test_reserved_alphabet_rejected(self):
        # bypass Dictionary validation to reach the alphabet guard
        with pytest.raises(ValueError, match="byte values 1..127"):
            select_qgrams([b"a\x80b"], budget=10)
        with pytest.raises(ValueError, match="byte values 1..127"):
            select_qgrams([b"abc", b"de", b"fgh\xff"], budget=10)

    def test_zero_byte_rejected(self):
        # byte 0 separates the words while they are counted and coded
        with pytest.raises(ValueError, match="byte values 1..127"):
            select_qgrams([b"abc", b"a\0b"], budget=10)

    def test_each_distinct_candidate_coded_once(self, monkeypatch):
        # on these words the mixed table is the 2-gram one, so three of the
        # four candidates are distinct
        calls = []
        encode = SubstitutionTable.encode

        def counted(table, data):
            calls.append(table.pairs)
            return encode(table, data)
        monkeypatch.setattr(SubstitutionTable, "encode", counted)
        words = random_word_dictionary(2000, seed=7)
        table = select_qgrams(words)
        assert len(calls) == len(set(calls)) == 3
        monkeypatch.undo()
        assert table.pairs == select_qgrams(words, lengths=(2,)).pairs

    @staticmethod
    def reference_pairs(words, budget, lengths):
        """select_qgrams by Counter loops over every word's windows, a full
        sort per candidate table, and encoding every word."""
        per_length = [Counter(w[i:i + ln] for w in words for i in range(len(w) - ln + 1))
                      for ln in sorted(set(lengths))]
        best = None
        for counts in (sum(per_length, Counter()), *per_length):
            ranked = sorted(counts, key=lambda g: (-(len(g) - 1) * counts[g], g))
            pairs = [(gram, 128 + i) for i, gram in enumerate(ranked[:budget])]
            table = SubstitutionTable(pairs)
            size = sum(len(table.encode(w)) for w in words)
            if best is None or size < best[0]:
                best = size, pairs
        return SubstitutionTable(best[1]).pairs

    @pytest.mark.parametrize("seed", range(16, 24))
    def test_pairs_equal_a_counter_loop_reference(self, seed):
        # words shorter than some gram lengths, and some of length 1, so
        # many windows would cross into the next word
        rng = random.Random(seed)
        alphabet = bytes(rng.sample(range(1, 128), rng.randint(2, 6)))
        words = Dictionary(bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
                           for _ in range(rng.randint(1, 120)))
        lengths = rng.choice([(2,), (3,), (4,), (2, 3), (2, 3, 4)])
        budget = rng.choice([1, 5, 40, 128])
        assert select_qgrams(words, budget, lengths).pairs == \
            self.reference_pairs(list(words), budget, lengths)

    def test_words_shorter_than_every_gram(self):
        assert select_qgrams(Dictionary([b"a", b"b", b"c"]), lengths=(2, 3, 4)).pairs == ()
        assert select_qgrams(Dictionary([])).pairs == ()


class TestCompressedIndex:
    @pytest.mark.parametrize("k", [1, 2])
    def test_same_answers_as_uncompressed(self, k):
        rng = random.Random(50 + k)
        words = {bytes(rng.choice(b"acgt") for _ in range(rng.randint(4, 14)))
                 for _ in range(800)}
        d = Dictionary(sorted(words))
        table = select_qgrams(d, budget=40, lengths=(2, 3))
        plain = SplitIndex.build(d, k)
        packed = SplitIndex.build(d, k, table)
        assert packed.list_bytes() < plain.list_bytes()
        for _ in range(300):
            w = rng.choice(d.words)
            q = bytearray(w)
            for _ in range(rng.randint(0, k)):
                q[rng.randrange(len(q))] = rng.choice(b"acgt")
            q = bytes(q)
            if len(q) < k + 1:
                continue
            assert packed.query(q) == plain.query(q)

    def test_reconstruction_decodes(self):
        d = Dictionary([b"banana", b"bandana"])
        table = select_qgrams(d, budget=10, lengths=(2,))
        idx = SplitIndex.build(d, 1, table)
        assert Counter(idx.reconstruct_words()) == Counter(
            {b"banana": 2, b"bandana": 2})


class TestSpaceTrend:
    def test_size_monotone_in_k(self):
        rng = random.Random(77)
        words = {bytes(rng.choice(b"abcdefghij") for _ in range(rng.randint(5, 12)))
                 for _ in range(2000)}
        d = Dictionary(sorted(words))
        sizes = [SplitIndex.build(d, k).size_in_bytes() for k in (1, 2, 3)]
        assert sizes[0] < sizes[1] < sizes[2]
        assert sizes[1] / sizes[0] < 2
        assert sizes[2] / sizes[1] < 2
