import random

import pytest

from textindex.harness import (BenchConfig, NaiveHammingSearcher, bench_csv,
                               avg_comparison_experiment, dna_kmer_dictionary,
                               dna_like_text, english_frequency_vector,
                               english_like_text, generate_noisy_queries,
                               hamming_distance, load_corpus, load_dictionary,
                               load_queries, naive_count, naive_hamming_search,
                               per_character_query_time, random_word_dictionary,
                               run_bench, sample_patterns)
from textindex.fmgram import SuperlinearIndex
from textindex.splitindex import Dictionary
from textindex.textcore import Corpus


def loop_hamming_search(words, pattern, k):
    """Second, deliberately plain implementation used to cross-check the oracle."""
    found = set()
    for word in words:
        if len(word) != len(pattern):
            continue
        errors = 0
        for a, b in zip(word, pattern):
            if a != b:
                errors += 1
        if errors <= k:
            found.add(word)
    return found


class TestOracles:
    def test_single_substitution(self):
        assert naive_hamming_search(Dictionary([b"abc"]), b"abd", 1) == {b"abc"}

    def test_exact_only(self):
        assert naive_hamming_search(Dictionary([b"abc"]), b"abd", 0) == set()

    def test_cross_implementation_agreement(self):
        # exhaustive over a tiny universe: alphabet size 3, lengths <= 5
        import itertools
        sigma = b"abc"
        words = [bytes(w) for L in range(1, 5) for w in itertools.product(sigma, repeat=L)]
        d = Dictionary(words)
        searcher = NaiveHammingSearcher(d)
        for L in range(1, 6):
            for pattern in itertools.product(sigma, repeat=L):
                pattern = bytes(pattern)
                for k in (0, 1, 2):
                    want = loop_hamming_search(words, pattern, k)
                    assert naive_hamming_search(d, pattern, k) == want
                    assert searcher.search(pattern, k) == want

    def test_naive_count_examples(self):
        assert naive_count(b"banana", b"ana") == 2
        assert naive_count(b"banana", b"banana") == 1
        assert naive_count(b"aaaa", b"aa") == 3

    def test_naive_count_on_corpus(self):
        corpus = load_corpus_from_bytes(b"banana")
        assert naive_count(corpus, b"ana") == 2

    def test_hamming_distance_unequal_lengths(self):
        with pytest.raises(ValueError):
            hamming_distance(b"ab", b"abc")


def load_corpus_from_bytes(raw):
    from textindex.textcore import Corpus
    return Corpus.from_bytes(raw)


class TestWorkloads:
    def test_zero_probability_returns_words(self):
        d = random_word_dictionary(50, seed=1)
        wl = generate_noisy_queries(d, 30, per_error_probability=0.0, seed=2)
        pool = set(d.words)
        assert all(q in pool for q in wl.queries)

    def test_certain_errors_produce_mismatches(self):
        d = random_word_dictionary(50, min_len=4, seed=3)
        wl = generate_noisy_queries(d, 200, max_errors=3,
                                    per_error_probability=1.0, seed=4)
        for q in wl.queries:
            best = min(hamming_distance(q, w) for w in d.words if len(w) == len(q))
            assert 1 <= best <= 3

    def test_seed_determinism(self):
        d = random_word_dictionary(50, seed=5)
        a = generate_noisy_queries(d, 100, seed=6)
        b = generate_noisy_queries(d, 100, seed=6)
        assert a.queries == b.queries

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ValueError):
            generate_noisy_queries(Dictionary([]), 5)

    def test_one_symbol_alphabet_returns_words(self):
        # no other symbol can be substituted, so every round is skipped
        d = Dictionary([b"aaa", b"aaaa"])
        wl = generate_noisy_queries(d, 40, per_error_probability=1.0, seed=7)
        assert set(wl.queries) == {b"aaa", b"aaaa"}

    @pytest.mark.parametrize("words", [[b"ab", b"ba"], [b"table", b"left", b"stable"]])
    def test_draws_follow_the_substitution_loop(self, words):
        # the same draws as a plain loop that redraws a replacement equal to
        # the symbol it replaces
        d = Dictionary(words)
        rng = random.Random(8)
        alphabet = d.alphabet()
        expected = []
        for _ in range(100):
            word = bytearray(rng.choice(d.words))
            for _ in range(3):
                if rng.random() < 0.5:
                    pos = rng.randrange(len(word))
                    replacement = rng.choice(alphabet)
                    while replacement == word[pos]:
                        replacement = rng.choice(alphabet)
                    word[pos] = replacement
            expected.append(bytes(word))
        assert list(generate_noisy_queries(d, 100, seed=8).queries) == expected


class TestLoaders:
    def test_dictionary_dedup(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"a\nb\na\n")
        d, stats = load_dictionary(path)
        assert d.words == (b"a", b"b")
        assert stats.accepted == 2
        assert stats.duplicates == 1

    def test_duplicates_are_repeated_accepted_tokens(self, tmp_path):
        # a rejected line is no duplicate, even when it repeats
        path = tmp_path / "words.txt"
        path.write_bytes(b"a\nb\na\nb\na\n\n\nc d\nc d\nc\n")
        d, stats = load_dictionary(path)
        assert d.words == (b"a", b"b", b"c")
        assert (stats.accepted, stats.duplicates) == (3, 3)
        assert (stats.rejected_empty, stats.rejected_bad_bytes) == (2, 2)

    def test_rejections_counted(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"good\n" + b"x" * 300 + b"\nbad byte\n\nok\n")
        d, stats = load_dictionary(path)
        assert d.words == (b"good", b"ok")
        assert stats.rejected_overlong == 1
        assert stats.rejected_bad_bytes == 1  # the embedded space
        assert stats.rejected_empty == 1

    @pytest.mark.parametrize("byte, printable", [
        (0x09, False), (0x20, False), (0x21, True), (0x7E, True),
        (0x7F, False), (0x80, False), (0xFF, False)])
    def test_printable_boundary_bytes(self, tmp_path, byte, printable):
        # alone, and inside a word
        path = tmp_path / "words.txt"
        path.write_bytes(bytes([byte]) + b"\nab" + bytes([byte]) + b"cd\n")
        d, stats = load_dictionary(path)
        expected = (bytes([byte]), b"ab" + bytes([byte]) + b"cd") if printable else ()
        assert d.words == expected
        assert stats.accepted == len(expected)
        assert stats.rejected_bad_bytes == 2 - len(expected)

    def test_misspelling_convention(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_bytes(b"teh->the\nplain\n")
        assert load_queries(path) == [b"teh", b"plain"]

    def test_empty_dictionary_file(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"")
        d, stats = load_dictionary(path)
        assert len(d) == 0

    def test_corpus_byte_exact(self, tmp_path):
        path = tmp_path / "corpus.bin"
        raw = bytes(range(1, 200))
        path.write_bytes(raw)
        corpus = load_corpus(path)
        assert corpus.text == raw

    def test_corpus_zero_byte_rejected(self, tmp_path):
        path = tmp_path / "corpus.bin"
        path.write_bytes(b"ab\x00cd")
        with pytest.raises(ValueError):
            load_corpus(path)


class TestAverageComparisons:
    @pytest.mark.parametrize("sigma,expected", [(2, 2.0), (4, 4 / 3), (26, 1.04)])
    def test_uniform_alphabets(self, sigma, expected):
        got = avg_comparison_experiment(sigma, 200_000, seed=sigma)
        assert got == pytest.approx(expected, abs=0.02)

    def test_english_frequencies(self):
        freqs = english_frequency_vector()
        iid_expectation = 1.0 / (1.0 - float((freqs ** 2).sum()))
        got = avg_comparison_experiment(26, 300_000, seed=1, frequencies=freqs)
        assert got == pytest.approx(iid_expectation, abs=0.01)
        assert got == pytest.approx(1.075, abs=0.03)

    def test_sigma_below_two_rejected(self):
        with pytest.raises(ValueError):
            avg_comparison_experiment(1, 10)
        with pytest.raises(ValueError, match="pairs"):
            avg_comparison_experiment(4, 0)
        with pytest.raises(ValueError, match="length"):
            avg_comparison_experiment(4, 10, length=0)


class TestPerCharacterQueryTime:
    @pytest.fixture(scope="class")
    def index(self):
        return SuperlinearIndex.build(Corpus.from_bytes(english_like_text(500, seed=1)))

    def test_time_per_character(self, index):
        assert per_character_query_time(index, [b"the", b"and a"], repeats=1) > 0

    def test_empty_patterns_refused(self, index):
        with pytest.raises(ValueError, match="patterns"):
            per_character_query_time(index, [])

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_refused(self, index, repeats):
        with pytest.raises(ValueError, match="repeats"):
            per_character_query_time(index, [b"the"], repeats=repeats)


class TestGenerators:
    def test_english_like_is_lowercase_and_spaces(self):
        text = english_like_text(5000, seed=1)
        assert len(text) == 5000
        assert set(text) <= set(b"abcdefghijklmnopqrstuvwxyz ")

    def test_dna_like(self):
        text = dna_like_text(5000, seed=1)
        assert set(text) <= set(b"ACGT")

    def test_kmer_dictionary(self):
        d = dna_kmer_dictionary(500, k=20, seed=2)
        assert len(d) == 500
        assert all(len(w) == 20 for w in d)

    def test_kmer_count_beyond_the_genome_refused(self):
        # 80 bytes of genome hold at most 16 distinct 2-mers
        with pytest.raises(ValueError, match="16 distinct 2-mers"):
            dna_kmer_dictionary(20, k=2)
        assert len(dna_kmer_dictionary(16, k=2)) == 16

    def test_word_count_beyond_the_alphabet_refused(self):
        # two distinct symbols (b"abba" has only two) make two 1-letter words
        with pytest.raises(ValueError, match="2 distinct words"):
            random_word_dictionary(3, min_len=1, max_len=1, alphabet=b"abba")
        assert random_word_dictionary(2, min_len=1, max_len=1, alphabet=b"abba").words == (
            b"a", b"b")

    def test_sample_patterns_reproducible(self):
        text = english_like_text(2000, seed=3)
        a = sample_patterns(text, 50, [4, 8], seed=4)
        b = sample_patterns(text, 50, [4, 8], seed=4)
        assert a == b

    @pytest.mark.parametrize("lengths", [[-2], [0], [4, 0], [4, -1, 8]])
    def test_sample_patterns_length_below_one_refused(self, lengths):
        # a length of -2 would slice text[at:at - 2], and 0 give b""
        with pytest.raises(ValueError, match="lengths must all be at least 1"):
            sample_patterns(b"abracadabra", 10, lengths, seed=1)

    def test_sample_patterns_empty_alphabet_refused_for_misses(self):
        with pytest.raises(ValueError, match="alphabet must not be empty"):
            sample_patterns(b"abracadabra", 10, [3], seed=1, alphabet=b"")
        # with no misses to draw, no alphabet is read
        patterns = sample_patterns(b"abracadabra", 10, [3], seed=1, miss_ratio=0, alphabet=b"")
        assert all(p in b"abracadabra" for p in patterns)


class TestBench:
    def test_split_bench_rows(self, tmp_path):
        d = random_word_dictionary(300, seed=7)
        path = tmp_path / "dict.txt"
        path.write_bytes(b"\n".join(d.words) + b"\n")
        config = BenchConfig(structure="split", input_path=str(path),
                             random_queries=40, repeats=3, k_values=(1, 2))
        rows = run_bench(config)
        assert len(rows) == 2
        assert rows[0].index_bytes < rows[1].index_bytes
        csv_text = bench_csv(rows)
        assert csv_text.splitlines()[0].startswith("structure,params,dataset")
        assert len(csv_text.splitlines()) == 3

    def test_fm_bench_row_per_pattern_length(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(english_like_text(4000, seed=8))
        config = BenchConfig(structure="fm-super", input_path=str(path),
                             random_queries=30, repeats=3, q_max=16,
                             pattern_lengths=(8, 16, 32))
        rows = run_bench(config)
        assert [row.params for row in rows] == [
            "q_max=16;m=8", "q_max=16;m=16", "q_max=16;m=32"]
        for row in rows:
            assert row.structure == "fm-super"
            assert row.queries == 30
            assert row.mean_query_us > 0
            assert row.counters.startswith("lf_steps=")

    def test_fm_linear_rows_time_the_plain_fm_index(self, tmp_path):
        # each fm-linear row carries the mean time of the plain FM index
        # over the same queries
        path = tmp_path / "corpus.txt"
        path.write_bytes(dna_like_text(4000, seed=13))
        config = BenchConfig(structure="fm-linear", input_path=str(path),
                             random_queries=20, repeats=2, pattern_lengths=(8, 64))
        rows = run_bench(config)
        assert len(rows) == 2
        for row in rows:
            name, _, value = row.counters.partition("=")
            assert name == "fm_mean_us" and float(value) > 0

    @pytest.mark.parametrize("structure", ["split", "fm-super", "fm-linear"])
    def test_load_seconds_column(self, tmp_path, structure):
        # each row times loads of its index's file bytes, next to the build
        path = tmp_path / "input.txt"
        if structure == "split":
            path.write_bytes(b"\n".join(random_word_dictionary(200, seed=12).words) + b"\n")
        else:
            path.write_bytes(dna_like_text(4000, seed=12))
        config = BenchConfig(structure=structure, input_path=str(path),
                             random_queries=20, repeats=2, k_values=(1, 2), q_max=16,
                             pattern_lengths=(8, 16))
        rows = run_bench(config)
        header = bench_csv(rows).splitlines()[0].split(",")
        assert header.index("load_seconds") == header.index("build_seconds") + 1
        assert len(rows) == 2
        assert all(row.load_seconds > 0 for row in rows)
        if structure == "split":
            # one build, and so one row, per k
            assert [row.params for row in rows] == [
                "k=1;compress=False", "k=2;compress=False"]
        else:
            # the rows of one FM build share its build and load times
            assert len({(row.build_seconds, row.load_seconds) for row in rows}) == 1

    def test_zero_queries(self, tmp_path):
        d = random_word_dictionary(50, seed=9)
        path = tmp_path / "dict.txt"
        path.write_bytes(b"\n".join(d.words) + b"\n")
        queries = tmp_path / "queries.txt"
        queries.write_bytes(b"")
        config = BenchConfig(structure="split", input_path=str(path),
                             queries_path=str(queries), repeats=3)
        rows = run_bench(config)
        assert rows[0].queries == 0
        assert rows[0].mean_query_us == 0.0

    def test_non_timing_fields_deterministic(self, tmp_path):
        d = random_word_dictionary(200, seed=10)
        path = tmp_path / "dict.txt"
        path.write_bytes(b"\n".join(d.words) + b"\n")
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(english_like_text(3000, seed=10))
        timing = {"build_seconds", "load_seconds", "mean_query_us", "p50_query_us",
                  "p95_query_us"}

        def stable_fields(structure):
            config = BenchConfig(structure=structure,
                                 input_path=str(path if structure == "split" else corpus),
                                 random_queries=50, repeats=2, k_values=(1, 2),
                                 q_max=16, pattern_lengths=(4, 8, 16), seed=11)
            rows = run_bench(config)
            # an fm-linear row's counters are a timing, `fm_mean_us`
            skip = timing | ({"counters"} if structure == "fm-linear" else set())
            return [{k: v for k, v in vars(row).items() if k not in skip}
                    for row in rows]

        for structure in ("split", "fm-super", "fm-linear"):
            assert stable_fields(structure) == stable_fields(structure)
