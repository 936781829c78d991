"""Brute-force oracles, dataset loading, workload generation and benchmarks.

The oracles here are the ground truth the index structures are tested
against; none of them share code with the structures they validate.  The
benchmark layer reproduces the measurement protocol used throughout the
package's experiments: warm-up pass, a fixed number of repetitions, averages
over a monotonic clock, and deterministic non-timing fields.
"""

from __future__ import annotations

import csv
import io
import random
import statistics
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import UnsupportedPatternError
from .textcore import ENGLISH_LETTER_FREQUENCIES, Corpus
from .splitindex import (Dictionary, MAX_WORD_LENGTH, SplitIndex,
                         SplitIndexConfig, select_qgrams)
from .fmgram import LinearIndex, SuperlinearIndex


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def hamming_distance(a: bytes, b: bytes) -> int:
    if len(a) != len(b):
        raise ValueError("Hamming distance requires equal lengths")
    return sum(1 for x, y in zip(a, b) if x != y)


def naive_hamming_search(dictionary, pattern: bytes, k: int) -> set[bytes]:
    """Full scan: every word of the pattern's length within k mismatches."""
    words = dictionary.words if isinstance(dictionary, Dictionary) else dictionary
    out = set()
    m = len(pattern)
    for word in words:
        if len(word) == m and hamming_distance(word, pattern) <= k:
            out.add(word)
    return out


class NaiveHammingSearcher:
    """The same full-scan answer, bucketed by length and vectorized so large
    workloads stay tractable.  Cross-checked against the plain loop in tests."""

    def __init__(self, dictionary):
        words = dictionary.words if isinstance(dictionary, Dictionary) else tuple(dictionary)
        self._groups: dict[int, tuple[list[bytes], np.ndarray]] = {}
        by_length: dict[int, list[bytes]] = {}
        for word in words:
            by_length.setdefault(len(word), []).append(word)
        for length, group in by_length.items():
            arr = np.frombuffer(b"".join(group), dtype=np.uint8).reshape(len(group), length)
            self._groups[length] = (group, arr)

    def search(self, pattern: bytes, k: int) -> set[bytes]:
        group = self._groups.get(len(pattern))
        if group is None:
            return set()
        words, arr = group
        q = np.frombuffer(pattern, dtype=np.uint8)
        mismatches = (arr != q).sum(axis=1)
        return {words[i] for i in np.nonzero(mismatches <= k)[0]}


def naive_count(text, pattern: bytes) -> int:
    """Occurrences of `pattern` in `text`, overlaps included, by repeated find."""
    if isinstance(text, Corpus):
        text = text.text
    if not pattern:
        raise ValueError("pattern must be nonempty")
    count = 0
    at = text.find(pattern)
    while at != -1:
        count += 1
        at = text.find(pattern, at + 1)
    return count


# ---------------------------------------------------------------------------
# datasets and workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryWorkload:
    queries: tuple[bytes, ...]
    provenance: str
    seed: int | None = None


def generate_noisy_queries(dictionary: Dictionary, count: int, max_errors: int = 3,
                           per_error_probability: float = 0.5, seed: int = 0) -> QueryWorkload:
    """Sample words and substitute random positions.

    Each query is a uniformly sampled word; for each of `max_errors` rounds,
    with the given probability one uniformly chosen position is replaced by a
    different symbol from the dictionary alphabet.  Rounds may hit the same
    position, so a query carries between 0 and `max_errors` mismatches
    against its source word.
    """
    if not len(dictionary):
        raise ValueError("dictionary is empty")
    rng = random.Random(seed)
    alphabet = dictionary.alphabet()
    queries = []
    for _ in range(count):
        word = bytearray(rng.choice(dictionary.words))
        for _ in range(max_errors):
            if rng.random() < per_error_probability:
                pos = rng.randrange(len(word))
                replacement = rng.choice(alphabet)
                while replacement == word[pos]:
                    replacement = rng.choice(alphabet)
                word[pos] = replacement
        queries.append(bytes(word))
    return QueryWorkload(tuple(queries), provenance="generated", seed=seed)


@dataclass
class LoadStats:
    accepted: int = 0
    duplicates: int = 0
    rejected_overlong: int = 0
    rejected_bad_bytes: int = 0
    rejected_empty: int = 0


def load_dictionary(path) -> tuple[Dictionary, LoadStats]:
    """Newline-separated tokens, deduplicated in first-occurrence order.

    Tokens must consist of printable ASCII (0x21..0x7E); lines with other
    bytes, empty lines and words longer than 255 symbols are rejected and
    counted in the stats.
    """
    stats = LoadStats()
    seen = set()
    words = []
    with open(path, "rb") as handle:
        for line in handle:
            token = line.rstrip(b"\r\n")
            if not token:
                stats.rejected_empty += 1
                continue
            if len(token) > MAX_WORD_LENGTH:
                stats.rejected_overlong += 1
                continue
            if any(b < 0x21 or b > 0x7E for b in token):
                stats.rejected_bad_bytes += 1
                continue
            if token in seen:
                stats.duplicates += 1
                continue
            seen.add(token)
            words.append(token)
            stats.accepted += 1
    return Dictionary(words), stats


def load_queries(path) -> list[bytes]:
    """Newline-separated query patterns; a line `wrong->right` contributes
    only its left side (the misspelling-list convention)."""
    queries = []
    with open(path, "rb") as handle:
        for line in handle:
            token = line.rstrip(b"\r\n")
            if not token:
                continue
            if b"->" in token:
                token = token.split(b"->", 1)[0]
            if token:
                queries.append(token)
    return queries


def load_corpus(path) -> Corpus:
    """Read a corpus file byte-exact and append the terminator."""
    with open(path, "rb") as handle:
        return Corpus.from_bytes(handle.read())


# Synthetic datasets for tests and benchmarks.

def english_like_text(size: int, seed: int = 0) -> bytes:
    """Random text with English letter frequencies and space-separated words."""
    rng = np.random.default_rng(seed)
    letters = np.frombuffer("".join(ENGLISH_LETTER_FREQUENCIES).encode(), dtype=np.uint8)
    probs = np.array(list(ENGLISH_LETTER_FREQUENCIES.values()))
    probs /= probs.sum()
    chars = rng.choice(letters, size=size, p=probs)
    word_lengths = rng.geometric(1 / 5.0, size=size // 3 + 1).clip(1, 16)
    spaces = np.cumsum(word_lengths + 1) - 1
    spaces = spaces[spaces < size]
    chars[spaces] = ord(" ")
    return chars.tobytes()


def dna_like_text(size: int, seed: int = 0) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), size=size).tobytes()


def random_word_dictionary(count: int, min_len: int = 4, max_len: int = 12,
                           alphabet: bytes = b"abcdefghijklmnopqrstuvwxyz",
                           seed: int = 0) -> Dictionary:
    rng = random.Random(seed)
    words = set()
    while len(words) < count:
        length = rng.randint(min_len, max_len)
        words.add(bytes(rng.choice(alphabet) for _ in range(length)))
    return Dictionary(sorted(words))


def dna_kmer_dictionary(count: int, k: int = 20, seed: int = 0) -> Dictionary:
    """k-mers sampled from one synthetic genome, so grams repeat realistically."""
    genome = dna_like_text(max(count * 4, 10 * k), seed=seed)
    rng = random.Random(seed + 1)
    words = set()
    while len(words) < count:
        at = rng.randrange(len(genome) - k)
        words.add(genome[at:at + k])
    return Dictionary(sorted(words))


def sample_patterns(text: bytes, count: int, lengths, seed: int = 0,
                    miss_ratio: float = 0.3, alphabet: bytes | None = None) -> list[bytes]:
    """Patterns for count queries: mostly substrings of `text`, the rest
    random strings of the same lengths (mostly absent from the text)."""
    rng = random.Random(seed)
    lengths = [ln for ln in lengths if ln <= len(text)]
    if not lengths:
        raise ValueError(f"no requested pattern length fits a text of {len(text)} bytes")
    if alphabet is None:
        alphabet = bytes(sorted(set(text)))
    patterns = []
    for _ in range(count):
        length = rng.choice(lengths)
        if rng.random() < miss_ratio:
            patterns.append(bytes(rng.choice(alphabet) for _ in range(length)))
        else:
            at = rng.randrange(len(text) - length + 1)
            patterns.append(text[at:at + length])
    return patterns


# ---------------------------------------------------------------------------
# average-comparison experiment
# ---------------------------------------------------------------------------

def avg_comparison_experiment(sigma: int, pairs: int, seed: int = 0,
                              length: int = 32, frequencies=None) -> float:
    """Mean number of symbol comparisons to decide equality of random pairs.

    Strings are drawn independently and compared left to right until the
    first mismatch (that comparison included) or the full length.  Under a
    uniform alphabet the expectation approaches 1 + 1/(sigma - 1).  Passing
    `frequencies` (a probability vector) draws symbols non-uniformly instead.
    """
    if sigma < 2:
        raise ValueError("sigma must be at least 2")
    rng = np.random.default_rng(seed)
    symbols = np.arange(sigma)
    total = 0.0
    done = 0
    chunk = min(pairs, 1 << 18)
    while done < pairs:
        batch = min(chunk, pairs - done)
        a = rng.choice(symbols, size=(batch, length), p=frequencies)
        b = rng.choice(symbols, size=(batch, length), p=frequencies)
        neq = a != b
        any_mismatch = neq.any(axis=1)
        first = np.argmax(neq, axis=1)
        comparisons = np.where(any_mismatch, first + 1, length)
        total += float(comparisons.sum())
        done += batch
    return total / pairs


def english_frequency_vector() -> np.ndarray:
    probs = np.array(list(ENGLISH_LETTER_FREQUENCIES.values()))
    return probs / probs.sum()


# ---------------------------------------------------------------------------
# benchmark layer
# ---------------------------------------------------------------------------

BENCH_CSV_COLUMNS = [
    "structure", "params", "dataset", "index_bytes", "build_seconds",
    "queries", "repeats", "mean_query_us", "p50_query_us", "p95_query_us",
    "counters", "load_factor", "buckets", "entries",
]

# Timing covers everything from pattern bytes to the final result set,
# including pattern splitting and hashing.


@dataclass
class BenchRow:
    structure: str
    params: str
    dataset: str
    index_bytes: int
    build_seconds: float
    queries: int
    repeats: int
    mean_query_us: float
    p50_query_us: float
    p95_query_us: float
    counters: str
    load_factor: float
    buckets: int
    entries: int


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(BENCH_CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([getattr(row, col) for col in BENCH_CSV_COLUMNS])
        return out.getvalue()


@dataclass
class BenchConfig:
    structure: str                      # split | fm-super | fm-linear
    input_path: str
    dataset_label: str = ""
    queries_path: str | None = None
    random_queries: int = 1000
    seed: int = 0
    repeats: int = 100
    k_values: tuple[int, ...] = (1,)
    q_max: int = 128
    alpha: int = 3
    q: int = 4
    hash_name: str = "xxhash32"
    max_load_factor: float | None = None
    compress: bool = False
    pattern_lengths: tuple[int, ...] = (8, 16, 32)


def count_with_fallback(index, pattern: bytes) -> int:
    """`index.count(pattern)`, except that a pattern a LinearIndex refuses as
    shorter than its minimizer window is counted by its plain FM index."""
    try:
        return index.count(pattern)
    except UnsupportedPatternError:
        return index.fm.count(pattern)


def _time_workload(run_query, queries, repeats: int) -> tuple[float, float, float]:
    """Per-query microseconds: mean over repetitions, plus 50th and 95th
    percentiles of the per-repetition averages.  One warm-up pass runs first
    and is excluded."""
    for query in queries:
        run_query(query)
    per_rep = []
    for _ in range(repeats):
        start = time.perf_counter()
        for query in queries:
            run_query(query)
        elapsed = time.perf_counter() - start
        per_rep.append(elapsed / len(queries) * 1e6)
    per_rep.sort()
    mean = statistics.fmean(per_rep)
    p50 = per_rep[len(per_rep) // 2]
    p95 = per_rep[min(len(per_rep) - 1, int(len(per_rep) * 0.95))]
    return mean, p50, p95


def run_bench(config: BenchConfig) -> BenchReport:
    """Build the requested structures, replay the workload and report."""
    report = BenchReport()
    label = config.dataset_label or str(config.input_path)
    if config.structure == "split":
        dictionary, _ = load_dictionary(config.input_path)
        if config.queries_path:
            queries = load_queries(config.queries_path)
        else:
            queries = list(generate_noisy_queries(
                dictionary, config.random_queries, seed=config.seed).queries)
        substitution = select_qgrams(dictionary) if config.compress else None
        for k in config.k_values:
            split_config = SplitIndexConfig(
                hash_name=config.hash_name,
                max_load_factor=config.max_load_factor or 2.0,
                substitution=substitution)
            start = time.perf_counter()
            index = SplitIndex.build(dictionary, k, split_config)
            build_seconds = time.perf_counter() - start
            usable = [q for q in queries if len(q) >= k + 1]
            if not usable:
                mean = p50 = p95 = 0.0
                counters = "no-queries"
            else:
                verifications = 0
                inspected = 0
                for q in usable:
                    _, qs = index.query_verbose(q)
                    verifications += qs.verifications
                    inspected += qs.entries_inspected
                counters = f"verifications={verifications};entries_inspected={inspected}"
                mean, p50, p95 = _time_workload(index.query, usable, config.repeats)
            report.rows.append(BenchRow(
                structure="split", params=f"k={k};compress={config.compress}",
                dataset=label, index_bytes=index.size_in_bytes(),
                build_seconds=build_seconds, queries=len(usable),
                repeats=config.repeats, mean_query_us=mean, p50_query_us=p50,
                p95_query_us=p95, counters=counters,
                load_factor=index.table.load_factor,
                buckets=index.table.bucket_count, entries=len(index.table)))
        return report

    corpus = load_corpus(config.input_path)
    if config.structure == "fm-super":
        start = time.perf_counter()
        index = SuperlinearIndex.build(
            corpus, config.q_max, hash_name=config.hash_name,
            max_load_factor=config.max_load_factor or 2.81)
        build_seconds = time.perf_counter() - start
        run = index.count
        base_params = f"q_max={config.q_max}"
    elif config.structure == "fm-linear":
        start = time.perf_counter()
        index = LinearIndex.build(
            corpus, config.alpha, config.q, hash_name=config.hash_name,
            max_load_factor=config.max_load_factor or 2.81)
        build_seconds = time.perf_counter() - start
        run = partial(count_with_fallback, index)
        base_params = f"alpha={config.alpha};q={config.q}"
    else:
        raise ValueError(f"unknown structure {config.structure!r}")
    directory = index.directory

    # One row per pattern length so per-character trends can be read off;
    # a query file, if given, contributes a single mixed-length row instead.
    if config.queries_path:
        workloads = [("mixed", load_queries(config.queries_path))]
    else:
        workloads = [
            (f"m={length}",
             sample_patterns(corpus.text, config.random_queries, [length],
                             seed=config.seed))
            for length in config.pattern_lengths if length < corpus.n
        ]
    for tag, queries in workloads:
        if queries:
            mean, p50, p95 = _time_workload(run, queries, config.repeats)
        else:
            mean = p50 = p95 = 0.0
        counters = ""
        if config.structure == "fm-super":
            steps = sum(index.count_with_steps(q)[1] for q in queries)
            counters = f"lf_steps={steps}"
        report.rows.append(BenchRow(
            structure=config.structure, params=f"{base_params};{tag}",
            dataset=label, index_bytes=index.size_in_bytes(),
            build_seconds=build_seconds, queries=len(queries),
            repeats=config.repeats, mean_query_us=mean, p50_query_us=p50,
            p95_query_us=p95, counters=counters,
            load_factor=directory.load_factor, buckets=directory.bucket_count,
            entries=len(directory)))
    return report


def per_character_query_time(index: SuperlinearIndex, patterns: list[bytes],
                             repeats: int = 100) -> float:
    """Median over repetitions of (workload time / total pattern symbols),
    in microseconds per character."""
    total_chars = sum(len(p) for p in patterns)
    for pattern in patterns:
        index.count(pattern)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for pattern in patterns:
            index.count(pattern)
        times.append((time.perf_counter() - start) / total_chars * 1e6)
    return statistics.median(times)
