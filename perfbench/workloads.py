"""The benchmark's workloads: seeded inputs, the calls a CLI user makes, and
the brute-force oracle every answer is checked against.

Index parameters are left at the library defaults, which equal the CLI
defaults (q_max=128, hash xxhash32, load factor 2.81 for gram directories
and 2.0 for split tables), so a later change of default shows up here.
`LinearIndex.build` has no defaults for alpha and q; the CLI's 3 and 4 are
passed.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from textindex.errors import UnsupportedPatternError
from textindex.fmgram import LinearIndex, SuperlinearIndex
from textindex.harness import (NaiveHammingSearcher, dna_like_text, english_like_text,
                               generate_noisy_queries, naive_count,
                               random_word_dictionary, sample_patterns)
from textindex.splitindex import SplitIndex, split_word
from textindex.textcore import Corpus

SUPER_TEXT_BYTES = 8 * 1024
LINEAR_TEXT_BYTES = 1024 * 1024
SPLIT_WORDS = 50_000
SPLIT_K = 2
LINEAR_ALPHA = 3
LINEAR_Q = 4
# Distinct queries per run; the timed phase cycles through them.
QUERY_SET = 2000


class _Workload:
    @cached_property
    def expected(self) -> list:
        """Oracle answers for `queries`, computed on first use."""
        return [self.oracle(query) for query in self.queries]


class _FmWorkload(_Workload):
    """Count queries over one generated corpus."""

    lengths: range

    def __init__(self, text: bytes, seed: int):
        self.text = text
        self.corpus = Corpus.from_bytes(text)
        self.input_bytes = len(text)
        self.queries = sample_patterns(text, QUERY_SET, self.lengths, seed=seed + 1)

    def oracle(self, pattern: bytes) -> int:
        return naive_count(self.text, pattern)

    def structure(self, index) -> dict[str, int]:
        stats = index.directory.stats()
        return {"fmgram.grams": stats["entries"], "fmgram.max_chain": stats["max_chain"]}


class SuperEnglish(_FmWorkload):
    name = "fm-super-english"
    lengths = range(4, 257)

    def __init__(self, seed: int):
        super().__init__(english_like_text(SUPER_TEXT_BYTES, seed=seed), seed)

    def build(self):
        return SuperlinearIndex.build(self.corpus)

    @staticmethod
    def query(index, pattern: bytes) -> int:
        return index.count(pattern)

    @staticmethod
    def traced_query(index, pattern: bytes, counters) -> int:
        count, steps = index.count_with_steps(pattern)
        counters["fmgram.lf_steps"] += steps
        return count


class LinearDna(_FmWorkload):
    name = "fm-linear-dna"
    lengths = range(2, 257)

    def __init__(self, seed: int):
        super().__init__(dna_like_text(LINEAR_TEXT_BYTES, seed=seed), seed)

    def build(self):
        return LinearIndex.build(self.corpus, LINEAR_ALPHA, LINEAR_Q)

    @staticmethod
    def query(index, pattern: bytes) -> int:
        # The CLI's fallback: patterns below the minimizer window are counted
        # by the plain FM index, and count as answered.
        try:
            return index.count(pattern)
        except UnsupportedPatternError:
            return index.fm.count(pattern)

    @staticmethod
    def traced_query(index, pattern: bytes, counters) -> int:
        return LinearDna.query(index, pattern)


class SplitWords(_Workload):
    """k-mismatch lookups of noisy words in a generated dictionary."""

    name = "split-words"

    def __init__(self, seed: int):
        self.dictionary = random_word_dictionary(SPLIT_WORDS, seed=seed)
        self.input_bytes = sum(len(w) for w in self.dictionary)
        self.queries = list(generate_noisy_queries(
            self.dictionary, QUERY_SET, max_errors=3, seed=seed + 1).queries)
        self._searcher = NaiveHammingSearcher(self.dictionary)

    @cached_property
    def _list_sizes(self) -> Counter:
        """Entries per list, from the dictionary alone: each of a word's k+1
        pieces keys one entry, whatever its role.  Built by traced runs only,
        so it stays out of the untraced run's peak RSS."""
        return Counter(piece for word in self.dictionary for piece in split_word(word, SPLIT_K))

    def build(self):
        return SplitIndex.build(self.dictionary, SPLIT_K)

    def oracle(self, pattern: bytes) -> set[bytes]:
        return self._searcher.search(pattern, SPLIT_K)

    @staticmethod
    def query(index, pattern: bytes) -> set[bytes]:
        return index.query(pattern)

    def traced_query(self, index, pattern: bytes, counters) -> set[bytes]:
        results, stats = index.query_verbose(pattern)
        counters["splitindex.entries_inspected"] += stats.entries_inspected
        counters["splitindex.length_matches"] += stats.length_matches
        counters["splitindex.verifications"] += stats.verifications
        counters["splitindex.results"] += len(results)
        counters["splitindex.probed_list_entries"] += sum(
            self._list_sizes[piece] for piece in split_word(pattern, SPLIT_K))
        return results

    def structure(self, index) -> dict[str, int]:
        return {"hashmap.max_chain": index.table.stats()["max_chain"]}


WORKLOADS = {w.name: w for w in (SuperEnglish, LinearDna, SplitWords)}
