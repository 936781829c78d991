import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from textindex import envelope, fmgram, suffixbwt, textcore
from textindex.envelope import deserialize_index, serialize_index
from textindex.harness import dna_like_text, english_like_text
from textindex.harness import naive_count as harness_naive_count
from textindex.suffixbwt import FmIndex, build_suffix_array
from textindex.textcore import Corpus, minimizers, phrases
from textindex.fmgram import GramDirectory, LinearIndex, SuperlinearIndex, list_rank


def naive_count(text, pattern):
    return sum(1 for s in range(len(text) - len(pattern) + 1)
               if text[s:s + len(pattern)] == pattern)


def gram_entry(directory, g):
    """(first, lo, hi) of gram id g, read off the directory's columns."""
    return directory.firsts[g], directory.starts[g], directory.starts[g + 1]


def directory_entries(directory):
    """{gram: (rows, first)} read off the directory's columns."""
    entries = {}
    for gram, g in directory.items():
        first, lo, hi = gram_entry(directory, g)
        entries[gram] = (list(directory.rows[lo:hi]), first)
    return entries


def phrase_bytes(text, alpha, q):
    """The phrases of `text` between its (alpha, q)-minimizers, as bytes."""
    offsets, lengths = phrases(text, minimizers(text, alpha, q))
    return [text[a:a + m] for a, m in zip(offsets.tolist(), lengths.tolist())]


def gram_rows(directory, gram):
    _, lo, hi = gram_entry(directory, directory.get(gram))
    return list(directory.rows[lo:hi])


def extract_row_grams(corpus, sa, q_max):
    """Independent reconstruction of the gram directory from the BWT rows:
    for the suffix at each row, collect the power-of-two grams that end
    right before it and do not run past the text start."""
    inv = {int(p): r for r, p in enumerate(sa)}
    directory = {}
    for row in range(corpus.n):
        i = int(sa[row])
        q = 1
        while q <= q_max and q <= i:
            gram = corpus.data[i - q:i]
            rows, firsts = directory.setdefault(gram, ([], []))
            rows.append(row)
            firsts.append(inv[i - q])
            q *= 2
    return {g: (sorted(rows), min(firsts)) for g, (rows, firsts) in directory.items()}


class TestSuperlinearBuild:
    def test_pattern_row_grams(self):
        idx = SuperlinearIndex.build(Corpus.from_bytes(b"pattern"), q_max=4)
        contents = {gram for gram, _ in idx.directory.items()}
        assert contents == {b"n", b"rn", b"tern", b"p", b"t", b"tt", b"patt",
                            b"r", b"er", b"tter", b"e", b"te", b"atte",
                            b"at", b"a", b"pa"}

    def test_pattern_t_occurrence_rows(self):
        idx = SuperlinearIndex.build(Corpus.from_bytes(b"pattern"), q_max=4)
        assert [r + 1 for r in gram_rows(idx.directory, b"t")] == [3, 7]  # rows counted from 1

    def test_first_row_grams(self):
        # the row of the terminator-first rotation contributes the grams
        # ending at the last text symbol: n, rn, tern
        idx = SuperlinearIndex.build(Corpus.from_bytes(b"pattern"), q_max=4)
        for gram in (b"n", b"rn", b"tern"):
            assert 0 in gram_rows(idx.directory, gram)

    def test_terminator_only_corpus(self):
        idx = SuperlinearIndex.build(Corpus.from_bytes(b""), q_max=1)
        assert len(idx.directory) == 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            SuperlinearIndex.build(Corpus.from_bytes(b"abc"), q_max=3)

    def test_directory_completeness(self):
        # The directory a build derives, and the one a load derives, equal
        # the grams read off each row of a suffix array sorted by slices.
        rng = random.Random(3)
        for alphabet in (b"a", b"ab", b"acgt", bytes(range(1, 256))):
            for _ in range(8):
                raw = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 199)))
                corpus = Corpus.from_bytes(raw)
                data = corpus.data
                sa = sorted(range(corpus.n), key=lambda i: data[i:])
                q_max = rng.choice([1, 2, 8, 128])
                expected = extract_row_grams(corpus, sa, q_max)
                idx = SuperlinearIndex.build(corpus, q_max=q_max)
                loaded = deserialize_index(serialize_index(idx))
                assert directory_entries(idx.directory) == expected
                assert directory_entries(loaded.directory) == expected


class TestListRank:
    def test_small_list(self):
        assert list_rank(array("I", [3, 7]), 0, 2, 5) == 1

    def test_empty(self):
        assert list_rank(array("I", []), 0, 0, 10) == 0

    def test_sub_ranges_match_naive(self):
        rng = random.Random(17)
        for _ in range(200):
            values = sorted(rng.sample(range(500), rng.randint(0, 60)))
            rows = array("I", values)
            for _ in range(20):
                lo = rng.randint(0, len(values))
                hi = rng.randint(lo, len(values))
                row = rng.randint(-1, 510)
                expected = sum(1 for v in values[lo:hi] if v <= row)
                assert list_rank(rows, lo, hi, row) == expected


class TestSuperlinearCount:
    def test_banana_ana_two_steps(self):
        idx = SuperlinearIndex.build(Corpus.from_bytes(b"banana"), q_max=4)
        count, steps = idx.count_with_steps(b"ana")
        assert count == 2
        assert steps == 2  # one 2-gram step, one 1-gram step

    def test_single_gram_lookup(self):
        idx = SuperlinearIndex.build(Corpus.from_bytes(b"pattern"), q_max=4)
        assert idx.count(b"tt") == 1

    def test_absent_pattern(self):
        idx = SuperlinearIndex.build(Corpus.from_bytes(b"pattern"), q_max=4)
        assert idx.count(b"xyz") == 0

    def test_pattern_longer_than_text(self):
        idx = SuperlinearIndex.build(Corpus.from_bytes(b"ab"), q_max=2)
        assert idx.count(b"ababab") == 0

    def test_step_count_is_popcount(self):
        rng = random.Random(23)
        raw = bytes(rng.choice(b"ab") for _ in range(600))
        idx = SuperlinearIndex.build(Corpus.from_bytes(raw), q_max=128)
        for m in (1, 2, 3, 5, 8, 12, 16, 31, 32):
            s = rng.randrange(len(raw) - m)
            pattern = raw[s:s + m]
            count, steps = idx.count_with_steps(pattern)
            assert count >= 1
            assert steps == bin(m).count("1")

    @pytest.mark.parametrize("q_max", [1, 4, 128])
    def test_matches_naive(self, q_max):
        rng = random.Random(q_max)
        raw = bytes(rng.choice(b"abcd") for _ in range(500))
        idx = SuperlinearIndex.build(Corpus.from_bytes(raw), q_max=q_max)
        for _ in range(300):
            m = rng.randint(1, 20)
            if rng.random() < 0.5:
                s = rng.randrange(len(raw) - m + 1)
                pattern = raw[s:s + m]
            else:
                pattern = bytes(rng.choice(b"abcde") for _ in range(m))
            assert idx.count(pattern) == naive_count(raw, pattern)

    def test_qmax_one_degenerates_to_fm(self):
        rng = random.Random(31)
        raw = bytes(rng.choice(b"ab") for _ in range(200))
        corpus = Corpus.from_bytes(raw)
        idx = SuperlinearIndex.build(corpus, q_max=1)
        fm = FmIndex.build(corpus)
        for _ in range(100):
            m = rng.randint(1, 6)
            s = rng.randrange(len(raw) - m)
            pattern = raw[s:s + m]
            assert idx.count(pattern) == fm.count(pattern)

    def test_empty_text(self):
        # q_max 0 and no grams: an empty, so falsy, map that still counts
        idx = SuperlinearIndex.build(Corpus.from_bytes(b""), q_max=8)
        assert idx.q_max == 0 and len(idx.directory) == 0 and not idx.directory
        assert idx.count_with_steps(b"a") == (0, 0)
        assert idx.count(b"ab") == 0
        assert idx.directory.stats() == {"entries": 0, "max_chain": 0}
        assert (idx.directory.bucket_count, idx.directory.load_factor) == (64, 0.0)
        assert idx.size_in_bytes() == 4 * 64 + 1


class TestSuperlinearSteps:
    """`count_with_steps` consumes q_max for each whole q_max in m, then the
    set bits of m % q_max from the highest down, right to left, and stops
    at the first chunk that is no gram or leaves no rows."""

    TEXT = bytes(random.Random(41).choice(b"abc") for _ in range(700))

    @pytest.mark.parametrize("q_max", [1 << i for i in range(8)])
    def test_step_law_on_occurring_patterns(self, q_max):
        idx = SuperlinearIndex.build(Corpus.from_bytes(self.TEXT), q_max=q_max)
        assert idx.q_max == q_max
        rng = random.Random(q_max)
        for m in range(1, 301):
            s = rng.randrange(len(self.TEXT) - m + 1)
            pattern = self.TEXT[s:s + m]
            steps = m // q_max + bin(m % q_max).count("1")
            assert idx.count_with_steps(pattern) == (
                harness_naive_count(self.TEXT, pattern), steps), (m, q_max)

    # Over (ab)^200 at q_max 4, m = 11 takes the chunks [7:11], [3:7], [1:3]
    # and [0:1] in turn.  A chunk holding c is no gram; the others are
    # grams that do not join up with the part already read.
    @pytest.mark.parametrize("pattern, steps", [
        (b"ababababcba", 1),  # first chunk: no gram
        (b"abababacaba", 1),
        (b"ababcbababa", 2),  # middle chunks: no gram
        (b"abcbabababa", 3),
        (b"cbababababa", 4),  # last chunk: no gram
        (b"babababbaba", 2),  # middle chunks: no rows left
        (b"bbaabababab", 3),
        (b"aababababab", 4),  # last chunk: no rows left
    ])
    def test_absent_patterns_stop_at_the_failing_chunk(self, pattern, steps):
        text = b"ab" * 200
        idx = SuperlinearIndex.build(Corpus.from_bytes(text), q_max=4)
        assert harness_naive_count(text, pattern) == 0
        assert idx.count_with_steps(pattern) == (0, steps)


class TestLinearIndex:
    def test_appearance_phrases_in_directory(self):
        idx = LinearIndex.build(Corpus.from_bytes(b"appearance"), alpha=4, q=2)
        contents = {gram for gram, _ in idx.directory.items()}
        assert contents == {b"appe", b"ar"}

    def test_single_minimizer_corpus(self):
        # whole text is one window; no phrases, but queries still answer
        idx = LinearIndex.build(Corpus.from_bytes(b"ab"), alpha=1, q=2)
        assert len(idx.directory) == 0
        assert idx.count(b"ab") == 1

    def test_corpus_too_short(self):
        with pytest.raises(ValueError):
            LinearIndex.build(Corpus.from_bytes(b"ab"), alpha=3, q=2)

    @pytest.mark.parametrize("alpha, q", [(0, 4), (3, 0), (-1, 4), (3, -2)])
    def test_nonpositive_alpha_or_q_refused_before_sorting(self, monkeypatch, alpha, q):
        def unreachable(corpus):
            raise AssertionError("suffix sort reached")
        monkeypatch.setattr(suffixbwt, "build_suffix_array", unreachable)
        with pytest.raises(ValueError, match="alpha and q must be positive"):
            LinearIndex.build(Corpus.from_bytes(b"acgt" * 50), alpha, q)

    @pytest.mark.parametrize("alpha, q", [(1, 2), (3, 2), (4, 2), (3, 4), (4, 1), (8, 4),
                                          (1, 1), (16, 6), (2, 17)])
    def test_short_patterns_match_naive(self, alpha, q):
        # a pattern below one window is counted by character steps alone,
        # one window long holds one minimizer position and one longer up to
        # two; the smallest buildable corpus, one window long, also gets
        # patterns longer than itself
        rng = random.Random(alpha * 100 + q)
        raw = bytes(rng.choice(b"abc") for _ in range(300))
        window = q + alpha - 1
        for text in (raw, raw[:window]):
            idx = LinearIndex.build(Corpus.from_bytes(text), alpha=alpha, q=q)
            for m in range(1, window + 3):
                patterns = [bytes(rng.choice(b"abc") for _ in range(m)) for _ in range(8)]
                patterns += [b"d" * m, b"a" * (m - 1) + b"d"]
                if m <= len(text):
                    patterns += [text[s:s + m] for s in
                                 rng.sample(range(len(text) - m + 1), min(5, len(text) - m + 1))]
                for pattern in patterns:
                    assert idx.count(pattern) == naive_count(text, pattern), pattern
            for bad in (b"", b"\x00", b"a\x00", b"a" * window + b"\x00"):
                with pytest.raises(ValueError):
                    idx.count(bad)

    def test_whole_text_pattern(self):
        idx = LinearIndex.build(Corpus.from_bytes(b"appearance"), alpha=4, q=2)
        assert idx.count(b"appearance") == 1

    def test_phrase_lists_match_naive_locations(self):
        rng = random.Random(41)
        raw = bytes(rng.choice(b"ACGT") for _ in range(400))
        corpus = Corpus.from_bytes(raw)
        inv = {int(p): r for r, p in enumerate(build_suffix_array(corpus))}
        # alpha at most 8 and above it: the directory lists every phrase of
        # two or more symbols once, by length and then by first row
        for alpha, q in [(3, 3), (9, 2)]:
            idx = LinearIndex.build(corpus, alpha=alpha, q=q)
            expected = {}
            for gram in dict.fromkeys(phrase_bytes(raw, alpha, q)):
                if len(gram) > 1:
                    starts = [s for s in range(len(raw) - len(gram) + 1)
                              if raw[s:s + len(gram)] == gram]
                    expected[gram] = (sorted(inv[s + len(gram)] for s in starts),
                                      min(inv[s] for s in starts))
            assert [gram for gram, _ in idx.directory.items()] == sorted(
                expected, key=lambda gram: (len(gram), expected[gram][1]))
            assert directory_entries(idx.directory) == expected

    def test_no_single_symbol_grams(self):
        # one-symbol phrases are counted with a character step, so the
        # directory lists none of them
        raw = dna_like_text(5000, seed=3)
        pieces = phrase_bytes(raw, 3, 4)
        assert any(len(p) == 1 for p in pieces)
        idx = LinearIndex.build(Corpus.from_bytes(raw), alpha=3, q=4)
        assert len(idx.directory) > 0
        assert all(len(gram) > 1 for gram, _ in idx.directory.items())
        for s in range(0, len(raw) - 40, 97):
            assert idx.count(raw[s:s + 40]) == naive_count(raw, raw[s:s + 40])

    def test_built_index_keeps_no_suffix_array(self):
        corpus = Corpus.from_bytes(dna_like_text(2000, seed=4))
        idx = LinearIndex.build(corpus, alpha=3, q=4)
        assert not hasattr(idx.fm, "sa")

    def test_matches_naive(self):
        rng = random.Random(43)
        raw = bytes(rng.choice(b"abc") for _ in range(700))
        idx = LinearIndex.build(Corpus.from_bytes(raw), alpha=3, q=2)
        window = 2 + 3 - 1
        for _ in range(400):
            m = rng.randint(window, 24)
            if rng.random() < 0.6:
                s = rng.randrange(len(raw) - m + 1)
                pattern = raw[s:s + m]
            else:
                pattern = bytes(rng.choice(b"abcd") for _ in range(m))
            assert idx.count(pattern) == naive_count(raw, pattern)

    def test_sampled_patterns_always_found(self):
        rng = random.Random(47)
        raw = bytes(rng.choice(b"ab") for _ in range(300))
        idx = LinearIndex.build(Corpus.from_bytes(raw), alpha=2, q=2)
        for _ in range(200):
            m = rng.randint(3, 30)
            s = rng.randrange(len(raw) - m)
            pattern = raw[s:s + m]
            assert idx.count(pattern) >= 1

    def test_binary_alphabet_tie_pressure(self):
        # a binary text with a wide window maximizes tied grams, stressing
        # leftmost tie-breaking and phrase boundary alignment
        rng = random.Random(53)
        raw = bytes(rng.choice(b"ab") for _ in range(500))
        idx = LinearIndex.build(Corpus.from_bytes(raw), alpha=4, q=1)
        window = 1 + 4 - 1
        for _ in range(600):
            m = rng.randint(window, 40)
            if rng.random() < 0.7:
                s = rng.randrange(len(raw) - m + 1)
                pattern = raw[s:s + m]
            else:
                pattern = bytes(rng.choice(b"ab") for _ in range(m))
            assert idx.count(pattern) == naive_count(raw, pattern)

    @pytest.mark.parametrize("alpha, q", [(3, 4), (8, 4), (16, 6), (2, 17)])
    def test_bounded_phrase_search(self, alpha, q):
        # a phrase step searches for e only among the e - s + 1 rows after
        # the one found for s: wide intervals come from patterns inside a
        # repeated unit, width-1 intervals from long unique substrings
        rng = random.Random(alpha * 100 + q)
        unit = bytes(rng.choice(b"ACGT") for _ in range(53))
        unique = bytes(rng.choice(b"ACGT") for _ in range(1500))
        raw = unique[:700] + unit * 30 + unique[700:]
        idx = LinearIndex.build(Corpus.from_bytes(raw), alpha=alpha, q=q)
        window = q + alpha - 1
        repeats_at = 700 + 53 * 5
        patterns = []
        for _ in range(60):
            m = rng.randint(window, window + 40)
            s = rng.randrange(repeats_at, repeats_at + 53 * 20)
            patterns.append(raw[s:s + m])
        for _ in range(60):
            m = rng.randint(max(window, 40), 120)
            s = rng.choice([rng.randrange(0, 700 - m), rng.randrange(2290, len(raw) - m)])
            patterns.append(raw[s:s + m])
        for pattern in patterns[:]:
            mutated = bytearray(pattern)
            mutated[len(mutated) // 2] = ord("N")
            patterns.append(bytes(mutated))
            patterns.append(bytes(rng.choice(b"ACGT") for _ in range(len(pattern))))
        counts = [idx.count(pattern) for pattern in patterns]
        assert counts == [naive_count(raw, pattern) for pattern in patterns]
        assert max(counts) >= 20 and counts.count(1) >= 40 and counts.count(0) >= 60

    def test_size_model_terms(self):
        # directory (the key bytes, and 4 bytes a gram for each of its
        # length, first row and row-list start), BWT (n), count table (257
        # entries of 8 bytes) and LF mapping (4n), read off a built index
        # and a loaded one; no corpus
        corpus = Corpus.from_bytes(dna_like_text(3000, seed=5))
        built = LinearIndex.build(corpus, alpha=3, q=4)
        loaded = deserialize_index(serialize_index(built))
        for idx in (built, loaded):
            directory, fm = idx.directory, idx.fm
            key_bytes = sum(len(key) for key, _ in directory.items())
            assert len(directory.buffer) == key_bytes
            directory_bytes = (key_bytes + 12 * len(directory) + 4 * len(directory.rows)
                               + 4 * directory.bucket_count)
            assert len(fm.lf) == len(fm.l) == corpus.n
            assert idx.size_in_bytes() == (directory_bytes + len(fm.l)
                                           + 8 * len(fm.count_table) + 4 * len(fm.lf))

    def test_traced_load_builds_the_fm_index_through_rank_index(self):
        # a load builds the LF mapping and count table once, in
        # `RankIndex.__init__`, which traced runs time as
        # `suffixbwt.rank_build`; `FmIndex` inherits that constructor
        from test_tracer_points import load_tracer_module
        corpus = Corpus.from_bytes(dna_like_text(600, seed=7))
        data = serialize_index(LinearIndex.build(corpus, alpha=3, q=4))
        tracer = load_tracer_module().Tracer()
        tracer.install()
        try:
            with tracer.span("load"):
                # looked up through the module, where the tracer wraps it
                index = envelope.deserialize_index(data)
        finally:
            tracer.uninstall()
        assert isinstance(index.fm, suffixbwt.RankIndex)
        assert index.count(corpus.text[100:110]) == naive_count(corpus.text, corpus.text[100:110])
        assert tracer.total("suffixbwt.rank_build", field=0, phase="load",
                            owner="envelope.deserialize") == 1
        assert tracer.total("suffixbwt.rank_build", field=0) == 1
        assert not hasattr(index.fm, "corpus")


def stored_columns(data: bytes, at: int, corpus: Corpus):
    """The keys, firsts and starts of the linear gram directory whose gram
    count sits at `at` in the file bytes `data`: the gram count, then the
    lengths, firsts and counts columns.  No key is stored: gram g's is the
    first lengths[g] symbols of the suffix at row firsts[g] of the corpus,
    read here off its suffix array."""
    grams = int.from_bytes(data[at:at + 4], "little")
    at += 4
    lengths, firsts, counts = [], [], []
    for column in (lengths, firsts, counts):
        column.extend(int.from_bytes(data[i:i + 4], "little")
                      for i in range(at, at + 4 * grams, 4))
        at += 4 * grams
    sa = build_suffix_array(corpus).tolist()
    keys = [corpus.data[sa[first]:sa[first] + length] for first, length in zip(firsts, lengths)]
    starts = [0]
    for count in counts:
        starts.append(starts[-1] + count)
    return keys, firsts, starts


class TestDirectoryIds:
    """`get` maps each gram to its id, and the id reads the gram's first
    row and row range off the columns, in a built index and a loaded one.
    The columns are those a linear file stores, with keys read off the
    text's first rows, and those a superlinear build derives (its file
    stores only the corpus and q_max)."""

    @pytest.mark.parametrize("kind", ["superlinear", "linear"])
    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_ids_read_the_stored_columns(self, kind, loaded):
        if kind == "superlinear":
            raw = english_like_text(3000, seed=61)
            idx = SuperlinearIndex.build(Corpus.from_bytes(raw), q_max=16)
            built = idx.directory
            columns = ([raw[o:o + ln] for o, ln in zip(built.offsets.tolist(),
                                                       built.lengths.tolist())],
                       list(built.firsts), list(built.starts))
        else:
            raw = dna_like_text(3000, seed=62)
            idx = LinearIndex.build(Corpus.from_bytes(raw), alpha=3, q=4)
        data = serialize_index(idx)
        if kind == "linear":
            # envelope, alpha, q, BWT blob; no corpus
            columns = stored_columns(data, 9 + 4 + 4 + 4 + len(raw) + 1, Corpus.from_bytes(raw))
        if loaded:
            idx = deserialize_index(data)
        directory = idx.directory
        keys, firsts, starts = columns
        assert len(directory) == len(keys) > 0
        for g, key in enumerate(keys):
            assert directory.get(key) == g
            entry = gram_entry(directory, g)
            assert all(type(item) is int for item in entry)
            assert entry == (firsts[g], starts[g], starts[g + 1])
        rng = random.Random(63)
        for _ in range(200):
            m = rng.randint(1, 40)
            s = rng.randrange(len(raw) - m + 1)
            pattern = raw[s:s + m]
            if rng.random() < 0.3:
                pattern = pattern[:-1] + b"#"
            assert idx.count(pattern) == naive_count(raw, pattern)


def reference_keys(directory):
    """The key map built slice by slice: a repeated gram keeps its later id
    and its first place."""
    buffer = directory.buffer
    return {buffer[o:o + ln]: g for g, (o, ln) in
            enumerate(zip(directory.offsets.tolist(), directory.lengths.tolist()))}


def columns_directory(buffer, offsets, lengths):
    """A directory over the given key columns, with one row per gram."""
    grams = len(offsets)
    return GramDirectory(buffer, offsets, lengths, [0] * grams, range(grams + 1), [0] * grams)


class TestKeyMap:
    """`entry_for` builds the same map as slicing each key out of the buffer,
    in id order, for directories of any shape."""

    @staticmethod
    def check(directory):
        reference = reference_keys(directory)
        assert list(directory.items()) == list(reference.items())
        assert len(directory) == len(reference)
        for key, g in reference.items():
            assert type(key) is bytes
            got = directory.get(key)
            assert type(got) is int and got == g

    @pytest.mark.parametrize("seed", range(4))
    def test_unsorted_mixed_lengths_and_high_bytes(self, seed):
        rng = random.Random(seed)
        buffer = bytes(rng.randint(1, 255) for _ in range(600)) + b"\x80\xff\x01\0"
        lengths = [rng.randint(1, 200) for _ in range(300)]
        # the last gram ends at the last symbol before the terminator
        lengths.append(3)
        offsets = [rng.randrange(len(buffer) - ln) for ln in lengths[:-1]]
        offsets.append(len(buffer) - 4)
        directory = columns_directory(buffer, offsets, lengths)
        self.check(directory)
        assert directory.get(b"\x80\xff\x01") == 300

    def test_repeated_grams_keep_the_later_id(self):
        buffer = b"abcabcab\0"
        offsets, lengths = [0, 3, 1, 4, 0, 6], [3, 3, 2, 2, 2, 2]
        directory = columns_directory(buffer, offsets, lengths)
        self.check(directory)
        assert list(directory.items()) == [(b"abc", 1), (b"bc", 3), (b"ab", 5)]

    def test_keys_keep_zero_bytes(self):
        # void items keep trailing 0 bytes, where fixed-width strings drop them
        buffer = b"a\0\0b\0"
        directory = columns_directory(buffer, [0, 0, 1, 3], [1, 2, 2, 2])
        self.check(directory)
        assert [key for key, _ in directory.items()] == [b"a", b"a\0", b"\0\0", b"b\0"]

    def test_empty_directory(self):
        directory = SuperlinearIndex.build(Corpus.from_bytes(b""), q_max=8).directory
        assert len(directory) == 0 and list(directory.items()) == []
        self.check(columns_directory(b"\0", [], []))

    @pytest.mark.parametrize("kind", ["superlinear", "linear"])
    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_index_directories(self, kind, loaded):
        raw = english_like_text(2000, seed=64) + bytes(range(128, 256))
        if kind == "superlinear":
            idx = SuperlinearIndex.build(Corpus.from_bytes(raw), q_max=256)
        else:
            idx = LinearIndex.build(Corpus.from_bytes(raw), alpha=3, q=4)
        if loaded:
            idx = deserialize_index(serialize_index(idx))
        directory = idx.directory
        assert directory.lengths.max() > (100 if kind == "superlinear" else 1)
        self.check(directory)
        # distinct grams, so the map iterates over every id in order
        assert [g for _, g in directory.items()] == list(range(len(directory.offsets)))


class TestLazyMinimizers:
    """`LinearIndex.count` finds its pattern's minimizers from the right,
    lazily; only the build selects minimizers with numpy."""

    def test_no_query_calls_the_numpy_path(self, monkeypatch):
        calls = []
        select = textcore.minimizers

        def spy(text, alpha, q):
            calls.append(len(text))
            return select(text, alpha, q)

        monkeypatch.setattr(fmgram, "minimizers", spy)
        monkeypatch.setattr(textcore, "minimizers", spy)
        raw = dna_like_text(5000, seed=67)
        idx = LinearIndex.build(Corpus.from_bytes(raw), alpha=3, q=4)
        assert calls == [len(raw)]
        rng = random.Random(67)
        for _ in range(300):
            m = rng.randint(1, 120)
            s = rng.randrange(len(raw) - m + 1)
            pattern = raw[s:s + m]
            if rng.random() < 0.3:
                pattern = bytes(rng.choice(b"ACGT") for _ in range(m))
            assert idx.count(pattern) == naive_count(raw, pattern)
        assert calls == [len(raw)]


def occurs_twice(text, pattern):
    """Whether `pattern` occurs at least twice in `text`, overlaps included."""
    first = text.find(pattern)
    return first >= 0 and text.find(pattern, first + 1) >= 0


class TestOneRowHandOff:
    """`LinearIndex.count` takes phrase steps only while the interval holds
    several rows, and hands the rest of the pattern to `FmIndex.extend`."""

    @staticmethod
    def spy_lookups(monkeypatch):
        looked_up = []
        get = GramDirectory.get

        def spy(self, content):
            looked_up.append(content)
            return get(self, content)

        monkeypatch.setattr(GramDirectory, "get", spy)
        return looked_up

    def test_wide_intervals_take_phrase_steps(self, monkeypatch):
        # tandem repeats and the binary tie-pressure text keep intervals wide
        # for many symbols; in a * n every phrase is one symbol, so it has
        # no grams and its patterns take character steps throughout
        rng = random.Random(59)
        unit = bytes(rng.choice(b"ACGT") for _ in range(41))
        binary = bytes(rng.choice(b"ab") for _ in range(500))
        looked_up = self.spy_lookups(monkeypatch)
        for raw, alpha, q in [(unit * 25, 3, 4), (b"a" * 700, 3, 4), (binary, 4, 1)]:
            idx = LinearIndex.build(Corpus.from_bytes(raw), alpha=alpha, q=q)
            looked_up.clear()
            for _ in range(150):
                m = rng.randint(q + alpha - 1, 120)
                s = rng.randrange(len(raw) - m + 1)
                pattern = raw[s:s + m]
                mutated = pattern[:m // 2] + bytes([pattern[m // 2] ^ 3]) + pattern[m // 2 + 1:]
                for p in (pattern, mutated):
                    assert idx.count(p) == naive_count(raw, p), p
            if raw == b"a" * 700:
                assert len(idx.directory) == 0
            else:
                assert len(idx.directory) > 0 and len(looked_up) > 100

    def test_no_gram_lookup_once_one_row(self, monkeypatch):
        # on a DNA-like text the interval holds one row after a few symbols;
        # from then on the pattern's phrases are walked, not looked up
        raw = dna_like_text(20000, seed=61)
        idx = LinearIndex.build(Corpus.from_bytes(raw), alpha=3, q=4)
        looked_up = self.spy_lookups(monkeypatch)
        rng = random.Random(61)
        saved = 0
        for _ in range(200):
            m = rng.randint(6, 200)
            s = rng.randrange(len(raw) - m + 1)
            pattern = raw[s:s + m]
            looked_up.clear()
            assert idx.count(pattern) == naive_count(raw, pattern)
            marks = minimizers(pattern, 3, 4).tolist()
            expected = []
            for i in range(len(marks) - 1, 0, -1):
                phrase = pattern[marks[i - 1]:marks[i]]
                if len(phrase) == 1:
                    continue
                if occurs_twice(raw, pattern[marks[i]:]):
                    expected.append(phrase)
                else:
                    saved += 1
            assert looked_up == expected, pattern
        assert saved > 100


@st.composite
def skewed_texts(draw):
    """A long run of one symbol, or English-like text, with a few rare
    bytes dropped in: texts where a step's find scans far."""
    n = draw(st.integers(6, 3000))
    if draw(st.booleans()):
        raw = bytearray(draw(st.sampled_from(b"aT ")) for _ in range(n))
    else:
        raw = bytearray(english_like_text(n, seed=draw(st.integers(0, 1000))))
    rare = draw(st.lists(st.integers(1, 255), min_size=1, max_size=3))
    for symbol in rare:
        raw[draw(st.integers(0, n - 1))] = symbol
    return bytes(raw), bytes(rare)


@given(skewed_texts(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_counts_on_skewed_texts_match_naive(text_and_rare, rng):
    # slices of the text, runs of its commonest symbol with a rare byte on
    # either side, and slices with a rare byte swapped in
    raw, rare = text_and_rare
    fm = FmIndex.build(Corpus.from_bytes(raw))
    linear = LinearIndex.build(Corpus.from_bytes(raw), alpha=3, q=4)
    common = max(set(raw), key=raw.count)
    patterns = []
    for _ in range(30):
        m = rng.randint(1, min(80, len(raw)))
        s = rng.randrange(len(raw) - m + 1)
        patterns.append(raw[s:s + m])
        mutated = bytearray(raw[s:s + m])
        mutated[rng.randrange(m)] = rng.choice(rare)
        patterns.append(bytes(mutated))
        run = bytes([common]) * rng.randint(1, 60)
        patterns += [run, run + rare[:1], rare[-1:] + run]
    for pattern in patterns:
        want = harness_naive_count(raw, pattern)
        assert fm.count(pattern) == want, pattern
        assert linear.count(pattern) == want, pattern
