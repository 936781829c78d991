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
import re
import statistics
import time
from dataclasses import dataclass, fields

import numpy as np

from .textcore import ENGLISH_LETTER_FREQUENCIES, Corpus
from .splitindex import Dictionary, MAX_WORD_LENGTH, SplitIndex, select_qgrams
from .envelope import deserialize_index, serialize_index
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


def generate_noisy_queries(dictionary: Dictionary, count: int, max_errors: int = 3,
                           per_error_probability: float = 0.5, seed: int = 0) -> QueryWorkload:
    """Sample words and substitute random positions.

    Each query is a uniformly sampled word; for each of `max_errors` rounds,
    with the given probability one uniformly chosen position is replaced by a
    different symbol from the dictionary alphabet.  Rounds may hit the same
    position, so a query carries between 0 and `max_errors` mismatches
    against its source word.  A one-symbol alphabet has no different
    symbol, so its queries are the sampled words unchanged.
    """
    if not len(dictionary):
        raise ValueError("dictionary is empty")
    rng = random.Random(seed)
    alphabet = dictionary.alphabet()
    rounds = max_errors if len(alphabet) > 1 else 0
    queries = []
    for _ in range(count):
        word = bytearray(rng.choice(dictionary.words))
        for _ in range(rounds):
            if rng.random() < per_error_probability:
                pos = rng.randrange(len(word))
                replacement = rng.choice(alphabet)
                while replacement == word[pos]:
                    replacement = rng.choice(alphabet)
                word[pos] = replacement
        queries.append(bytes(word))
    return QueryWorkload(tuple(queries))


_printable_token = re.compile(rb"[\x21-\x7e]+").fullmatch


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
    counted in the stats.  `accepted` counts the distinct words kept, and
    `duplicates` the accepted tokens that repeat one of them.
    """
    stats = LoadStats()
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
            if not _printable_token(token):
                stats.rejected_bad_bytes += 1
                continue
            words.append(token)
    dictionary = Dictionary(words)
    stats.accepted = len(dictionary)
    stats.duplicates = len(words) - len(dictionary)
    return dictionary, stats


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
    chars = rng.choice(letters, size=size, p=english_frequency_vector())
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
    # The distinct words the draws can make.  A length below 1 draws b"",
    # which the sum counts at length 0, or the next line if none reaches 0.
    room = sum(len(set(alphabet)) ** ln for ln in range(max(min_len, 0), max_len + 1))
    room += min_len <= max_len < 0
    if count > room:
        raise ValueError(f"count {count} exceeds the {room} distinct words of "
                         f"lengths {min_len}..{max_len} over the alphabet")
    rng = random.Random(seed)
    words = set()
    while len(words) < count:
        length = rng.randint(min_len, max_len)
        words.add(bytes(rng.choice(alphabet) for _ in range(length)))
    return Dictionary(sorted(words))


def dna_kmer_dictionary(count: int, k: int = 20, seed: int = 0) -> Dictionary:
    """k-mers sampled from one synthetic genome, so grams repeat realistically."""
    genome = dna_like_text(max(count * 4, 10 * k), seed=seed)
    room = len({genome[at:at + k] for at in range(len(genome) - k)})
    if count > room:
        raise ValueError(f"count {count} exceeds the {room} distinct {k}-mers of the genome")
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
    # Every length below 1 fits any text, so the filter keeps it.
    lengths = [ln for ln in lengths if ln <= len(text)]
    if not lengths:
        raise ValueError(f"no requested pattern length fits a text of {len(text)} bytes")
    if min(lengths) < 1:
        raise ValueError(f"lengths must all be at least 1, not {min(lengths)}")
    if alphabet is None:
        alphabet = bytes(sorted(set(text)))
    if miss_ratio > 0 and not alphabet:
        raise ValueError("alphabet must not be empty when miss_ratio is above 0")
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
    if pairs < 1:
        raise ValueError("pairs must be at least 1")
    if length < 1:
        raise ValueError("length must be at least 1")
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

# Timing covers everything from pattern bytes to the final result set,
# including pattern splitting and hashing.


@dataclass
class BenchRow:
    structure: str
    params: str
    dataset: str
    index_bytes: int
    build_seconds: float
    load_seconds: float
    queries: int
    repeats: int
    mean_query_us: float
    p50_query_us: float
    p95_query_us: float
    counters: str
    load_factor: float
    buckets: int
    entries: int


# The CSV header, also listed by `textindex bench --help`.
BENCH_CSV_COLUMNS = [column.name for column in fields(BenchRow)]


def bench_csv(rows: list[BenchRow]) -> str:
    """`rows` as CSV text under the `BENCH_CSV_COLUMNS` header."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(BENCH_CSV_COLUMNS)
    for row in rows:
        writer.writerow([getattr(row, col) for col in BENCH_CSV_COLUMNS])
    return out.getvalue()


@dataclass
class BenchConfig:
    structure: str                      # split | fm-super | fm-linear
    input_path: str
    queries_path: str | None = None
    random_queries: int = 1000
    seed: int = 0
    repeats: int = 100
    k_values: tuple[int, ...] = (1,)
    q_max: int = 128
    alpha: int = 3
    q: int = 4
    compress: bool = False
    pattern_lengths: tuple[int, ...] = (8, 16, 32)


def _pass_seconds(run_query, queries, repeats: int) -> list[float]:
    """Seconds of each of `repeats` timed passes over `queries`, after one
    untimed warm-up pass."""
    for query in queries:
        run_query(query)
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        for query in queries:
            run_query(query)
        seconds.append(time.perf_counter() - start)
    return seconds


def _time_workload(run_query, queries, repeats: int) -> tuple[float, float, float]:
    """Per-query microseconds: mean over repetitions, plus 50th and 95th
    percentiles of the per-repetition averages (`_pass_seconds`); all 0.0
    for no queries."""
    if not queries:
        return 0.0, 0.0, 0.0
    per_rep = sorted(elapsed / len(queries) * 1e6
                     for elapsed in _pass_seconds(run_query, queries, repeats))
    mean = statistics.fmean(per_rep)
    p50 = per_rep[len(per_rep) // 2]
    p95 = per_rep[min(len(per_rep) - 1, int(len(per_rep) * 0.95))]
    return mean, p50, p95


def _timed_build(repeats: int, build, *args):
    """The index `build(*args)` returns, and the bench-row fields it fixes
    alone: its size, its build seconds, and the best of `repeats` timed
    loads of its file bytes."""
    start = time.perf_counter()
    index = build(*args)
    build_seconds = time.perf_counter() - start
    data = serialize_index(index)
    load_seconds = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        deserialize_index(data)
        load_seconds = min(load_seconds, time.perf_counter() - start)
    return index, {"index_bytes": index.size_in_bytes(), "build_seconds": build_seconds,
                   "load_seconds": load_seconds}


def _bench_rows(config: BenchConfig):
    """Yields each row's build fields, params, answer call, queries and
    counters.  A split row has a build of its own per k; the rows of one FM
    build share it, one per pattern length."""
    if config.structure == "split":
        dictionary, _ = load_dictionary(config.input_path)
        if config.queries_path:
            queries = load_queries(config.queries_path)
        else:
            queries = list(generate_noisy_queries(
                dictionary, config.random_queries, seed=config.seed).queries)
        substitution = select_qgrams(dictionary) if config.compress else None
        for k in config.k_values:
            index, built = _timed_build(config.repeats, SplitIndex.build, dictionary, k,
                                        substitution)
            built.update(index.piece_layout())
            usable = [q for q in queries if len(q) >= k + 1]
            counters = "no-queries"
            if usable:
                stats = [index.query_verbose(q)[1] for q in usable]
                counters = (f"verifications={sum(qs.verifications for qs in stats)};"
                            f"entries_inspected={sum(qs.entries_inspected for qs in stats)}")
            yield built, f"k={k};compress={config.compress}", index.query, usable, counters
        return

    corpus = load_corpus(config.input_path)
    if config.structure == "fm-super":
        index, built = _timed_build(config.repeats, SuperlinearIndex.build, corpus, config.q_max)
        base_params = f"q_max={config.q_max}"
    elif config.structure == "fm-linear":
        index, built = _timed_build(config.repeats, LinearIndex.build, corpus, config.alpha,
                                    config.q)
        base_params = f"alpha={config.alpha};q={config.q}"
    else:
        raise ValueError(f"unknown structure {config.structure!r}")
    directory = index.directory
    built.update(load_factor=directory.load_factor, buckets=directory.bucket_count,
                 entries=len(directory))

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
        if config.structure == "fm-super":
            counters = f"lf_steps={sum(index.count_with_steps(q)[1] for q in queries)}"
        else:
            # The linear index's own plain FM index, timed on the same
            # queries, so that one row compares the two.
            fm_mean = _time_workload(index.fm.count, queries, config.repeats)[0]
            counters = f"fm_mean_us={fm_mean:.3f}"
        yield built, f"{base_params};{tag}", index.count, queries, counters


def run_bench(config: BenchConfig) -> list[BenchRow]:
    """Build the requested structures, replay the workload and return one
    row per structure and workload."""
    rows = []
    for built, params, answer, queries, counters in _bench_rows(config):
        mean, p50, p95 = _time_workload(answer, queries, config.repeats)
        rows.append(BenchRow(
            structure=config.structure, params=params, dataset=str(config.input_path),
            queries=len(queries), repeats=config.repeats, mean_query_us=mean,
            p50_query_us=p50, p95_query_us=p95, counters=counters, **built))
    return rows


def per_character_query_time(index: SuperlinearIndex, patterns: list[bytes],
                             repeats: int = 100) -> float:
    """Median over repetitions of (workload time / total pattern symbols),
    in microseconds per character.  Refuses an empty `patterns` and
    `repeats` below 1 with `ValueError`."""
    if not patterns:
        raise ValueError("patterns must not be empty")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, not {repeats}")
    total_chars = sum(map(len, patterns))
    return statistics.median(_pass_seconds(index.count, patterns, repeats)) / total_chars * 1e6
