import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from textindex.errors import MalformedInputError
from textindex.harness import NaiveHammingSearcher
from textindex.splitindex import (MIN_VECTOR_RUN, Dictionary, SplitIndex, SplitIndexConfig,
                                  SubstitutionTable, decode_word, encode_word,
                                  piece_sizes, select_qgrams, split_word)


def naive_search(words, pattern, k):
    out = set()
    for w in words:
        if len(w) == len(pattern):
            if sum(1 for a, b in zip(w, pattern) if a != b) <= k:
                out.add(w)
    return out


def group_entries(group, table=None):
    """The missing pieces of a role group, decoded, in list order."""
    header = 1 if table is None else 2
    out = []
    at = 0
    while at < len(group):
        payload_at = at + header
        at = payload_at + group[at]
        payload = group[payload_at:at]
        out.append(payload if table is None else table.decode(payload))
    return out


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


class TestBuild:
    def test_worked_example_lists(self):
        d = Dictionary([b"table", b"left", b"tablet"])
        idx = SplitIndex.build(d, 1)
        # key "le": the leading-piece group holds "ft" (from left), the
        # trailing-piece group holds "tab" (from table), one 0 between them.
        assert idx.table.get(b"le") == b"\x02ft\x00\x03tab"
        # key "tab": only leading-piece entries, then an empty trailing group
        assert idx.table.get(b"tab") == b"\x02le\x03let\x00"
        # k = 2: "e" is piece 1 of left (l|e|ft) and piece 2 of table
        # (ta|bl|e); its group 0 is empty.
        idx = SplitIndex.build(d, 2)
        assert idx.table.get(b"e") == b"\x00\x03lft\x00\x04tabl"

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

    def test_empty_dictionary(self):
        idx = SplitIndex.build(Dictionary([]), 1)
        assert idx.query(b"ab") == set()

    def test_entry_count_law(self):
        rng = random.Random(2)
        words = {bytes(rng.choice(b"ab") for _ in range(rng.randint(1, 10)))
                 for _ in range(500)}
        d = Dictionary(sorted(words))
        for k in (1, 2, 3):
            idx = SplitIndex.build(d, k)
            indexable = sum(1 for w in d if len(w) > k)
            assert idx.stats.entries == (k + 1) * indexable
            assert idx.stats.words_skipped == len(d) - indexable

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

    def test_deterministic(self):
        d = Dictionary([b"table", b"left", b"tablet", b"stable"])
        a = SplitIndex.build(d, 1)
        b = SplitIndex.build(d, 1)
        assert list(a.table.items()) == list(b.table.items())

    @pytest.mark.parametrize("coded", [False, True])
    def test_groups_sorted_by_missing_length(self, coded):
        # every role group lists its entries by decoded missing length, and
        # in dictionary order within a length
        rng = random.Random(4)
        words = sorted({bytes(rng.choice(b"abcd") for _ in range(rng.randint(2, 12)))
                        for _ in range(800)})
        rng.shuffle(words)
        d = Dictionary(words)
        position = {w: i for i, w in enumerate(d.words)}
        table = select_qgrams(d, budget=20, lengths=(2,)) if coded else None
        for k in (1, 2, 3):
            idx = SplitIndex.build(d, k, SplitIndexConfig(substitution=table))
            for key, blob in idx.table.items():
                for role, group in enumerate(blob.split(b"\0")):
                    order = []
                    for missing in group_entries(group, table):
                        split_at = sum(piece_sizes(len(key) + len(missing), k)[:role])
                        word = missing[:split_at] + key + missing[split_at:]
                        order.append((len(missing), position[word]))
                    assert order == sorted(order)


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

    def test_k_mismatch_rejected(self):
        idx = SplitIndex.build(Dictionary([b"table"]), 1)
        with pytest.raises(ValueError):
            idx.query(b"table", k=2)

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
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_exactness_around_vector_run(self, extra, k, coded):
        # One role-0 group holds a run of MIN_VECTOR_RUN + extra entries of
        # one missing length between shorter runs of other lengths, so a
        # plain walk verifies it with numpy from MIN_VECTOR_RUN entries on
        # and with the loop below that.
        rng = random.Random(200 + 10 * k + extra)
        length = 10
        head = b"a" * piece_sizes(length, k)[0]
        words = set()
        for n in range(len(head) + 1, 16):
            if piece_sizes(n, k)[0] != len(head):
                continue
            same_head = set()
            while len(same_head) < (MIN_VECTOR_RUN + extra if n == length else 3):
                same_head.add(head + bytes(rng.choice(b"bcde") for _ in range(n - len(head))))
            words |= same_head
        while len(words) < 3 * MIN_VECTOR_RUN:
            words.add(bytes(rng.choice(b"bcde") for _ in range(rng.randint(k + 1, 15))))
        d = Dictionary(sorted(words))
        table = select_qgrams(d, budget=20, lengths=(2,)) if coded else None
        idx = SplitIndex.build(d, k, SplitIndexConfig(substitution=table))
        run = Counter(len(m) for m in group_entries(idx.table.get(head).split(b"\0")[0], table))
        assert run[length - len(head)] == MIN_VECTOR_RUN + extra
        assert len(run) > 1
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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_traversal_economy(self, k):
        # a lookup inspects exactly the role group of its piece
        rng = random.Random(7)
        words = {bytes(rng.choice(b"abc") for _ in range(rng.randint(k + 1, 9)))
                 for _ in range(300)}
        idx = SplitIndex.build(Dictionary(sorted(words)), k)
        group_sizes = {}
        for key, blob in idx.table.items():
            sizes = []
            for group in blob.split(b"\0"):
                entries = at = 0
                while at < len(group):
                    entries += 1
                    at += 1 + group[at]
                sizes.append(entries)
            group_sizes[key] = sizes
        for _ in range(200):
            q = bytes(rng.choice(b"abc") for _ in range(rng.randint(k + 1, 9)))
            _, stats = idx.query_verbose(q)
            expected = sum(group_sizes[piece][role]
                           for role, piece in enumerate(split_word(q, k))
                           if piece in group_sizes)
            assert stats.entries_inspected == expected

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
    """Lists that load but break what the walk and the reconstruction rely
    on are refused when they are read."""

    @pytest.mark.parametrize("coded", [False, True])
    def test_descending_group_refused(self, coded):
        table = SubstitutionTable([(b"xy", 128)]) if coded else None
        idx = SplitIndex.build(Dictionary([b"xyzab", b"xyab"]), 1,
                               SplitIndexConfig(substitution=table))
        # key "ab" is the trailing piece of both words: "xy" comes first
        ascending, descending = (
            (b"\x00\x01\x02\x80\x02\x03\x80z", b"\x00\x02\x03\x80z\x01\x02\x80") if coded
            else (b"\x00\x02xy\x03xyz", b"\x00\x03xyz\x02xy"))
        assert idx.table.get(b"ab") == ascending
        idx.table.put(b"ab", descending)
        for pattern in (b"xyab", b"xyzab"):
            with pytest.raises(MalformedInputError, match="sorted"):
                idx.query(pattern)
        with pytest.raises(MalformedInputError, match="sorted"):
            idx.reconstruct_words()

    def test_descending_after_a_run_refused(self):
        # runs of missing length 2, 3, then 2 again
        idx = SplitIndex.build(Dictionary([b"aaab", b"bbab", b"cccab"]), 1)
        assert idx.table.get(b"ab") == b"\x00\x02aa\x02bb\x03ccc"
        idx.table.put(b"ab", b"\x00\x02aa\x02bb\x03ccc\x02dd")
        with pytest.raises(MalformedInputError, match="sorted"):
            idx.query(b"aaab")

    def test_key_that_is_not_its_piece_refused(self):
        idx = SplitIndex.build(Dictionary([b"abcd"]), 1)
        # "a" + "cd" is a 3-symbol word, whose leading piece has 2 symbols
        idx.table.put(b"a", idx.table.get(b"ab"))
        with pytest.raises(MalformedInputError, match="not piece 0"):
            idx.reconstruct_words()

    def test_role_groups_with_different_words_refused(self):
        idx = SplitIndex.build(Dictionary([b"abcd", b"efgh"]), 1)
        assert idx.table.get(b"ab") == b"\x02cd\x00"
        idx.table.put(b"ab", b"\x02cx\x00")
        with pytest.raises(MalformedInputError, match="same words"):
            idx.reconstruct_words()

    def test_payload_longer_than_its_decoded_length_refused(self):
        table = SubstitutionTable([(b"cd", 128)])
        idx = SplitIndex.build(Dictionary([b"abcd"]), 1, SplitIndexConfig(substitution=table))
        assert idx.table.get(b"ab") == b"\x01\x02\x80\x00"
        idx.table.put(b"ab", b"\x02\x02\x80x\x00")
        with pytest.raises(MalformedInputError, match="decode"):
            idx.query(b"abcd")
        with pytest.raises(MalformedInputError, match="decode"):
            idx.reconstruct_words()


class TestSubstitutionCoding:
    DEMO_PAIRS = [(b"com", ord("#")), (b"re", ord("*")), (b"co", ord("$")),
                   (b"om", ord("&")), (b"sion", ord("\\"))]

    def test_compression_example(self):
        assert encode_word(b"compression", self.DEMO_PAIRS) == b"#p*s\\"
        assert decode_word(b"#p*s\\", self.DEMO_PAIRS) == b"compression"

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
        with pytest.raises(ValueError):
            select_qgrams([b"a\x80b"], budget=10)


class TestCompressedIndex:
    @pytest.mark.parametrize("k", [1, 2])
    def test_same_answers_as_uncompressed(self, k):
        rng = random.Random(50 + k)
        words = {bytes(rng.choice(b"acgt") for _ in range(rng.randint(4, 14)))
                 for _ in range(800)}
        d = Dictionary(sorted(words))
        table = select_qgrams(d, budget=40, lengths=(2, 3))
        plain = SplitIndex.build(d, k)
        packed = SplitIndex.build(d, k, SplitIndexConfig(substitution=table))
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
        idx = SplitIndex.build(d, 1, SplitIndexConfig(substitution=table))
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
