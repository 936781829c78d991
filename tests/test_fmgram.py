import random
from array import array

import pytest

from textindex.envelope import deserialize_index, serialize_index
from textindex.errors import UnsupportedPatternError
from textindex.harness import dna_like_text
from textindex.suffixbwt import FmIndex, build_suffix_array
from textindex.textcore import Corpus, minimizers, phrases
from textindex.fmgram import LinearIndex, SuperlinearIndex, _greedy_chunks, list_rank


def naive_count(text, pattern):
    return sum(1 for s in range(len(text) - len(pattern) + 1)
               if text[s:s + len(pattern)] == pattern)


def directory_entries(directory):
    """{gram: (rows, first)} read off the directory's columns."""
    return {gram: (list(directory.rows[lo:hi]), first)
            for gram, (first, lo, hi) in directory.items()}


def gram_rows(directory, gram):
    _, lo, hi = directory.get(gram)
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
        rng = random.Random(3)
        for _ in range(10):
            raw = bytes(rng.choice(b"ab") for _ in range(rng.randint(2, 200)))
            corpus = Corpus.from_bytes(raw)
            idx = SuperlinearIndex.build(corpus, q_max=8)
            expected = extract_row_grams(corpus, build_suffix_array(corpus), 8)
            assert directory_entries(idx.directory) == expected


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

    def test_chunk_decomposition(self):
        assert _greedy_chunks(3, 128) == [2, 1]
        assert _greedy_chunks(12, 128) == [8, 4]
        assert _greedy_chunks(12, 4) == [4, 4, 4]
        assert _greedy_chunks(1, 1) == [1]
        assert _greedy_chunks(31, 128) == [16, 8, 4, 2, 1]

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

    def test_short_pattern_unsupported(self):
        idx = LinearIndex.build(Corpus.from_bytes(b"appearance"), alpha=4, q=2)
        with pytest.raises(UnsupportedPatternError):
            idx.count(b"app")

    def test_whole_text_pattern(self):
        idx = LinearIndex.build(Corpus.from_bytes(b"appearance"), alpha=4, q=2)
        assert idx.count(b"appearance") == 1

    def test_phrase_lists_match_naive_locations(self):
        rng = random.Random(41)
        raw = bytes(rng.choice(b"ACGT") for _ in range(400))
        corpus = Corpus.from_bytes(raw)
        inv = {int(p): r for r, p in enumerate(build_suffix_array(corpus))}
        # alpha <= 8 finds distinct phrases by packed keys, larger alpha by
        # slicing; both list every phrase of two or more symbols once, in
        # first-seen order
        for alpha, q in [(3, 3), (9, 2)]:
            idx = LinearIndex.build(corpus, alpha=alpha, q=q)
            pieces = phrases(raw, minimizers(raw, alpha, q)).extract(raw)
            assert [gram for gram, _ in idx.directory.items()] == [
                p for p in dict.fromkeys(pieces) if len(p) > 1]
            for gram, (rows, first) in directory_entries(idx.directory).items():
                starts = [s for s in range(len(raw) - len(gram) + 1)
                          if raw[s:s + len(gram)] == gram]
                expected_rows = sorted(inv[s + len(gram)] for s in starts)
                assert rows == expected_rows
                assert first == min(inv[s] for s in starts)

    def test_no_single_symbol_grams(self):
        # one-symbol phrases are counted with a character step, so the
        # directory lists none of them
        raw = dna_like_text(5000, seed=3)
        pieces = phrases(raw, minimizers(raw, 3, 4)).extract(raw)
        assert any(len(p) == 1 for p in pieces)
        idx = LinearIndex.build(Corpus.from_bytes(raw), alpha=3, q=4)
        assert len(idx.directory) > 0
        assert all(len(gram) > 1 for gram, _ in idx.directory.items())
        for s in range(0, len(raw) - 40, 97):
            assert idx.count(raw[s:s + 40]) == naive_count(raw, raw[s:s + 40])

    def test_built_index_keeps_no_suffix_array(self):
        corpus = Corpus.from_bytes(dna_like_text(2000, seed=4))
        fm = FmIndex.build(corpus)
        before = dict(vars(fm))
        for idx in (LinearIndex.build(corpus, alpha=3, q=4),
                    LinearIndex.build(corpus, alpha=3, q=4, fm=fm)):
            assert idx.fm.sa is None
        SuperlinearIndex.build(corpus, q_max=8, fm=fm)
        # the caller's substrate is read, never changed
        assert vars(fm).keys() == before.keys()
        assert all(vars(fm)[name] is value for name, value in before.items())

    def test_substrate_without_suffix_array_refused(self):
        corpus = Corpus.from_bytes(dna_like_text(2000, seed=4))
        loaded = deserialize_index(serialize_index(LinearIndex.build(corpus, alpha=3, q=4)))
        with pytest.raises(ValueError, match="no suffix array"):
            LinearIndex.build(corpus, alpha=3, q=4, fm=loaded.fm)
        with pytest.raises(ValueError, match="no suffix array"):
            SuperlinearIndex.build(corpus, q_max=8, fm=loaded.fm)

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
