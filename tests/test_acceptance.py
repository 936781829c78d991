"""Acceptance suite: one test per release criterion.

Each test prints a single pass line once its criterion holds (run with -s to
watch them); a failed assertion is the corresponding fail line.  Tolerances
and workload sizes are pinned here, not configurable.
"""

import itertools
import random
import time
from collections import Counter

import pytest

from textindex.envelope import deserialize_index, serialize_index
from textindex.fmgram import LinearIndex, SuperlinearIndex
from textindex.harness import (NaiveHammingSearcher, avg_comparison_experiment,
                               dna_kmer_dictionary, dna_like_text,
                               english_like_text, generate_noisy_queries, hamming_distance,
                               load_queries, naive_count, per_character_query_time,
                               random_word_dictionary, sample_patterns)
from textindex.sketches import (OCCURRENCE, SketchConfig, build_sketch,
                                filtered_compare, hamming_lower_bound,
                                sketch_distance)
from textindex.splitindex import Dictionary, SplitIndex, encode_word, select_qgrams
from textindex.suffixbwt import (FmIndex, build_count_table, build_suffix_array,
                                 bwt_forward, bwt_inverse)
from textindex.textcore import Corpus, minimizers, phrases, printable


def _ok(number, message):
    print(f"\ncriterion {number}: PASS - {message}")


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

WINDOW_ALPHA, WINDOW_Q = 3, 4  # linear-index minimizer parameters


@pytest.fixture(scope="module")
def desk_corpora():
    """One English-like and one DNA-like corpus, each far below the 1 MB cap."""
    return {
        "english": Corpus.from_bytes(english_like_text(131072, seed=101)),
        "dna": Corpus.from_bytes(dna_like_text(131072, seed=102)),
    }


def english_like_dictionary(count: int, min_len: int, max_len: int, seed: int) -> Dictionary:
    """Distinct words cut from an English-like text stream; letter frequencies
    make pieces shared across words, as in a natural-language dictionary."""
    text = english_like_text(max(80 * count, 1 << 20), seed=seed)
    words = []
    seen = set()
    for word in text.split(b" "):
        if min_len <= len(word) <= max_len and word not in seen:
            seen.add(word)
            words.append(word)
            if len(words) == count:
                break
    assert len(words) == count, "text stream too short for the requested count"
    return Dictionary(words)


@pytest.fixture(scope="module")
def split_fixture():
    """A 50k-word dictionary with its k=1..3 indexes and a noisy workload."""
    dictionary = english_like_dictionary(50_000, min_len=5, max_len=13, seed=103)
    indexes = {k: SplitIndex.build(dictionary, k) for k in (1, 2, 3)}
    workload = generate_noisy_queries(dictionary, 10_000, max_errors=3,
                                      per_error_probability=0.5, seed=104)
    return dictionary, indexes, workload


def test_criterion_1_worked_examples():
    started = time.perf_counter()
    assert printable(bwt_forward(Corpus.from_bytes(b"pattern"))) == "nptr$eta"
    assert list(build_suffix_array(Corpus.from_bytes(b"banana"))) == [6, 5, 3, 1, 0, 4, 2]
    table = build_count_table(Corpus.from_bytes(b"mississippi"))
    assert {c: table[c] for c in range(256) if table[c] < table[c + 1]} == {
        0: 0, ord("i"): 1, ord("m"): 5, ord("p"): 6, ord("s"): 8}
    assert table[256] == 12
    assert tuple(b"texting"[p:p + 2] for p in minimizers(b"texting", 3, 2).tolist()) == \
        (b"ex", b"in")
    offsets, lengths = phrases(b"appearance", minimizers(b"appearance", 4, 2))
    assert [b"appearance"[a:a + m] for a, m in zip(offsets.tolist(), lengths.tolist())] == \
        [b"appe", b"ar"]
    sketch = build_sketch(b"instance", SketchConfig.from_policy("most-common", width=1))
    assert sketch.bitstring() == "11101110"
    pairs = [(b"com", ord("#")), (b"re", ord("*")), (b"co", ord("$")),
             (b"om", ord("&")), (b"sion", ord("\\"))]
    assert encode_word(b"compression", pairs) == b"#p*s\\"
    idx = SuperlinearIndex.build(Corpus.from_bytes(b"pattern"), q_max=4)
    directory = idx.directory
    g = directory.get(b"t")
    assert [r + 1 for r in directory.rows[directory.starts[g]:directory.starts[g + 1]]] == [3, 7]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok(1, f"worked examples bit-exact in {elapsed:.3f}s")


def test_criterion_2_bwt_round_trip():
    started = time.perf_counter()
    rng = random.Random(202)
    alphabets = [bytes(range(1, 3)), bytes(range(1, 5)), bytes(range(1, 27))]
    for trial in range(10_000):
        alphabet = alphabets[trial % 3]
        n = rng.randint(1, 512)
        raw = bytes(rng.choice(alphabet) for _ in range(n - 1))
        corpus = Corpus.from_bytes(raw)
        assert bwt_inverse(bwt_forward(corpus)).data == corpus.data
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _ok(2, f"10^4 round trips, zero failures, {elapsed:.1f}s")


def test_criterion_3_fm_count_oracle_equivalence(desk_corpora):
    started = time.perf_counter()
    lengths = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]
    checked = Counter()
    for name, corpus in desk_corpora.items():
        patterns = sample_patterns(corpus.text, 5000, lengths, seed=301)
        expected = {p: naive_count(corpus.text, p) for p in set(patterns)}
        fm = FmIndex.build(corpus)
        for p in patterns:
            assert fm.count(p) == expected[p]
            checked["fm"] += 1
        for q_max in (1, 4, 128):
            idx = SuperlinearIndex.build(corpus, q_max)
            for p in patterns:
                assert idx.count(p) == expected[p]
                checked[f"superlinear q_max={q_max}"] += 1
            del idx
        linear = LinearIndex.build(corpus, WINDOW_ALPHA, WINDOW_Q)
        for p in patterns:
            assert linear.count(p) == expected[p]
            checked["linear"] += 1
        del linear, fm
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    summary = ", ".join(f"{k}:{v}" for k, v in sorted(checked.items()))
    _ok(3, f"zero discrepancies ({summary}) in {elapsed:.1f}s")


def test_criterion_4_lf_step_law():
    rng = random.Random(404)
    corpus = Corpus.from_bytes(english_like_text(32768, seed=401))
    idx = SuperlinearIndex.build(corpus, q_max=128)
    text = corpus.text
    pinned = [16, 31, 32, 127, 128]
    assorted = [rng.randint(1, 128) for _ in range(1000 - 5 * 40)]
    queries = pinned * 40 + assorted
    checked = 0
    for m in queries:
        at = rng.randrange(len(text) - m)
        pattern = text[at:at + m]
        count, steps = idx.count_with_steps(pattern)
        if count > 0:
            assert steps == bin(m).count("1"), (m, steps)
            checked += 1
    assert checked >= 900  # sampled patterns, so nearly all succeed
    _ok(4, f"LF steps equal popcount(m) on {checked} successful queries")


def test_criterion_5_per_character_time_trend():
    corpus = Corpus.from_bytes(english_like_text(65536, seed=501))
    idx = SuperlinearIndex.build(corpus, q_max=128)
    rng = random.Random(502)
    times = {}
    for m in (31, 32, 127, 128):
        patterns = []
        for _ in range(150):
            at = rng.randrange(len(corpus.text) - m)
            patterns.append(corpus.text[at:at + m])
        times[m] = per_character_query_time(idx, patterns, repeats=100)
    assert times[32] < times[31], times
    assert times[128] < times[127], times
    _ok(5, "per-character medians: "
           + ", ".join(f"m={m}: {times[m]:.4f}us" for m in sorted(times)))


def test_criterion_6_split_index_exactness(split_fixture, tmp_path):
    started = time.perf_counter()
    dictionary, indexes, workload = split_fixture
    oracle = NaiveHammingSearcher(dictionary)

    # misspelling-style file: left side of "wrong->right" lines
    rng = random.Random(603)
    lines = []
    for _ in range(400):
        word = rng.choice(dictionary.words)
        wrong = bytearray(word)
        for _ in range(rng.randint(1, 2)):
            wrong[rng.randrange(len(wrong))] = rng.choice(b"abcdefghijklmnopqrstuvwxyz")
        lines.append(bytes(wrong) + b"->" + word)
    path = tmp_path / "misspellings.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    misspellings = load_queries(path)
    assert len(misspellings) == 400

    total = 0
    for k, index in indexes.items():
        for pattern in itertools.chain(workload.queries, misspellings):
            if len(pattern) < k + 1:
                continue
            assert index.query(pattern) == oracle.search(pattern, k), (k, pattern)
            total += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _ok(6, f"{total} queries identical to the brute-force scan in {elapsed:.1f}s")


def test_criterion_7_split_index_space_trend(split_fixture):
    _, indexes, _ = split_fixture
    sizes = {k: indexes[k].size_in_bytes() for k in (1, 2, 3)}
    assert sizes[1] < sizes[2] < sizes[3]
    assert sizes[2] / sizes[1] < 2.0
    assert sizes[3] / sizes[2] < 2.0
    _ok(7, f"bytes {sizes[1]} < {sizes[2]} < {sizes[3]}, "
           f"ratios {sizes[2]/sizes[1]:.2f}, {sizes[3]/sizes[2]:.2f}")


def test_criterion_8_compression_soundness_and_benefit():
    dictionary = dna_kmer_dictionary(12_000, k=20, seed=801)
    table = select_qgrams(dictionary, budget=100, lengths=(2, 3, 4))
    plain = SplitIndex.build(dictionary, 1)
    packed = SplitIndex.build(dictionary, 1, table)

    workload = generate_noisy_queries(dictionary, 2000, seed=802)
    for pattern in workload.queries:
        assert packed.query(pattern) == plain.query(pattern)

    shrink = 1.0 - packed.list_bytes() / plain.list_bytes()
    assert shrink >= 0.10, f"list bytes shrank only {shrink:.1%}"

    rng = random.Random(803)
    for _ in range(100_000):
        word = bytes(rng.choice(b"ACGT") for _ in range(rng.randint(1, 40)))
        assert table.decode(table.encode(word)) == word
    _ok(8, f"compressed results identical; list bytes shrank {shrink:.1%}; "
           "10^5 encode/decode round trips")


def test_criterion_9_sketch_soundness():
    started = time.perf_counter()
    sigma = b"acgt"
    config = SketchConfig.from_letters(sigma + bytes(range(1, 13)),
                                       mode=OCCURRENCE, width=2)
    for length in range(0, 7):
        words = [bytes(w) for w in itertools.product(sigma, repeat=length)]
        for i, w1 in enumerate(words):
            s1 = build_sketch(w1, config)
            for w2 in words[i:]:
                diff = sketch_distance(s1, build_sketch(w2, config))
                true = hamming_distance(w1, w2)
                assert hamming_lower_bound(diff) <= true
                for k in (0, 1, 2):
                    assert filtered_compare(w1, w2, k, config) == (true <= k)

    english = SketchConfig.from_policy("most-common", width=2)
    letters = b"abcdefghijklmnopqrstuvwxyz"
    rng = random.Random(901)
    rejected = 0
    for _ in range(1_000_000):
        length = rng.randint(2, 14)
        w1 = bytes(rng.choice(letters) for _ in range(length))
        if rng.random() < 0.5:
            w2 = bytearray(w1)
            for _ in range(rng.randint(1, 3)):
                w2[rng.randrange(length)] = rng.choice(letters)
            w2 = bytes(w2)
        else:
            w2 = bytes(rng.choice(letters) for _ in range(length))
        true = hamming_distance(w1, w2)
        diff = sketch_distance(build_sketch(w1, english), build_sketch(w2, english))
        assert hamming_lower_bound(diff) <= true
        for k in (1, 2):
            assert filtered_compare(w1, w2, k, english) == (true <= k)
        if hamming_lower_bound(diff) > 1:
            rejected += 1
    elapsed = time.perf_counter() - started
    _ok(9, f"exhaustive sigma=4 len<=6 plus 10^6 english pairs, zero violations, "
           f"{elapsed:.0f}s (rejection rate at k=1: {rejected/1e6:.3f})")


def test_criterion_10_average_comparisons():
    for sigma, expected in ((2, 2.0), (4, 1.3333), (26, 1.04)):
        got = avg_comparison_experiment(sigma, 1_000_000, seed=1000 + sigma)
        assert abs(got - (1 + 1 / (sigma - 1))) <= 0.02, (sigma, got)
    _ok(10, "empirical comparison counts within 0.02 of 1 + 1/(sigma-1) "
            "for sigma in {2, 4, 26} at 10^6 pairs")


def test_criterion_11_serialization_round_trip():
    corpus = Corpus.from_bytes(english_like_text(8192, seed=1101))
    patterns = sample_patterns(corpus.text, 500, [2, 4, 6, 8, 16, 32], seed=1102)

    super_idx = SuperlinearIndex.build(corpus, q_max=16)
    linear_idx = LinearIndex.build(corpus, WINDOW_ALPHA, WINDOW_Q)
    dictionary = random_word_dictionary(2000, seed=1103)
    split_plain = SplitIndex.build(dictionary, 1)
    split_packed = SplitIndex.build(dictionary, 2, select_qgrams(dictionary, 40, (2,)))
    queries = generate_noisy_queries(dictionary, 500, seed=1104).queries

    def fm_outputs(index):
        return [index.count(p) for p in patterns]

    for index, replay in (
        (super_idx, fm_outputs),
        (linear_idx, fm_outputs),
        (split_plain, lambda idx: [sorted(idx.query(q)) for q in queries]),
        (split_packed, lambda idx: [sorted(idx.query(q)) for q in queries]),
    ):
        clone = deserialize_index(serialize_index(index))
        assert replay(clone) == replay(index), type(index).__name__
    _ok(11, "all index kinds replay their workloads identically after "
            "serialize/deserialize")
