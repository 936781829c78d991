import json
import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from textindex.fmgram import GramDirectory, LinearIndex, SuperlinearIndex
from textindex.harness import english_like_text, random_word_dictionary
from textindex.hashes import HASH_FUNCTIONS
from textindex.hashmap import ChainedHashMap
from textindex.splitindex import Dictionary, SplitIndex
from textindex.textcore import Corpus


def chained_layout(keys, max_load_factor, initial_buckets):
    """Reference chained map: a list of buckets filled one insertion at a
    time by zlib.crc32, doubled and rehashed whenever entries / buckets passes
    the load factor.  Yields the bucket list after each insertion."""
    buckets = [[] for _ in range(initial_buckets)]
    size = 0
    for key in keys:
        bucket = buckets[zlib.crc32(key) % len(buckets)]
        if key not in bucket:
            bucket.append(key)
            size += 1
            if size / len(buckets) > max_load_factor:
                target = len(buckets)
                while size / target > max_load_factor:
                    target *= 2
                fresh = [[] for _ in range(target)]
                for old in buckets:
                    for k in old:
                        fresh[zlib.crc32(k) % target].append(k)
                buckets = fresh
        yield buckets


def chain_report(buckets):
    """What `stats()` should say about a reference bucket list."""
    lengths = [len(b) for b in buckets]
    return {"entries": sum(lengths), "max_chain": max(lengths)}


def random_keys(count, seed):
    """Short keys over a small alphabet, so some repeat."""
    rng = random.Random(seed)
    return [bytes(rng.choice(b"abcdefgh") for _ in range(rng.randint(1, 12)))
            for _ in range(count)]


def gram_directory(keys):
    """A GramDirectory keyed by `keys`, with empty row lists."""
    lengths = [len(key) for key in keys]
    offsets = np.cumsum([0, *lengths[:-1]])
    zeros = np.zeros(len(keys) + 1, dtype=np.uint32)
    return GramDirectory(b"".join(keys), offsets, lengths, zeros[1:], zeros, [])


class TestHashVectors:
    def test_all_candidates_are_32_bit(self):
        for fn in HASH_FUNCTIONS.values():
            for data in (b"", b"a", b"some longer input string", bytes(range(256))):
                assert 0 <= fn(data) <= 0xFFFFFFFF


class TestChainedHashMap:
    def test_lookups_are_the_dict_methods(self):
        # C-level calls, named in each class body, where traced runs wrap them
        assert vars(GramDirectory)["get"] is dict.get
        assert vars(ChainedHashMap)["get"] is dict.get
        assert vars(ChainedHashMap)["put"] is dict.__setitem__

    def test_empty_map(self):
        m = ChainedHashMap()
        assert len(m) == 0 and not m and m.get(b"key") is None
        assert (m.bucket_count, m.load_factor) == (8, 0.0)
        assert m.stats() == {"entries": 0, "max_chain": 0}

    def test_put_get(self):
        m = ChainedHashMap()
        m.put(b"key", 1)
        m.put(b"other", 2)
        assert m.get(b"key") == 1
        assert m.get(b"other") == 2
        assert m.get(b"missing") is None

    def test_replace(self):
        m = ChainedHashMap()
        m.put(b"key", 1)
        m.put(b"key", 2)
        assert m.get(b"key") == 2
        assert len(m) == 1

    def test_load_factor_bound(self):
        m = ChainedHashMap()
        for i in range(1000):
            m.put(str(i).encode(), i)
        assert m.load_factor <= ChainedHashMap.MAX_LOAD_FACTOR
        assert len(m) == 1000
        assert all(m.get(str(i).encode()) == i for i in range(1000))

    def test_growth_doubles(self):
        m = ChainedHashMap()
        seen = {m.bucket_count}
        for i in range(200):
            m.put(str(i).encode(), i)
            seen.add(m.bucket_count)
        assert sorted(seen) == [8, 16, 32, 64, 128]

    def test_high_load_factor_allows_chains(self):
        # Entries / buckets may reach the load factor of 2 before a doubling.
        m = ChainedHashMap()
        for i in range(16):
            m.put(str(i).encode(), i)
        assert m.bucket_count == 8
        assert m.load_factor == 2.0

    def test_deterministic_iteration(self):
        def fill():
            m = ChainedHashMap()
            for i in range(200):
                m.put(f"w{i}".encode(), i)
            return list(m.items())
        assert fill() == fill()

    def test_stats(self):
        m = ChainedHashMap()
        for i in range(20):
            m.put(str(i).encode(), i)
        stats = m.stats()
        assert stats.keys() == {"entries", "max_chain"}
        assert stats["entries"] == 20
        assert 1 <= stats["max_chain"] <= 20

    @pytest.mark.parametrize("max_load_factor, initial_buckets",
                             [(0.5, 1), (1.0, 8), (2.0, 3), (2.81, 64)])
    def test_bucket_numbers_match_chained_layout(self, max_load_factor, initial_buckets):
        class Map(ChainedHashMap):
            MAX_LOAD_FACTOR = max_load_factor
            INITIAL_BUCKETS = initial_buckets

        keys = random_keys(600, seed=5)
        m = Map()
        for i, buckets in enumerate(chained_layout(keys, max_load_factor, initial_buckets)):
            m.put(keys[i], i)
            if i % 50 and i != len(keys) - 1:
                continue
            assert m.bucket_count == len(buckets)
            assert m.stats() == chain_report(buckets)

    @pytest.mark.parametrize("make, max_load_factor, initial_buckets", [
        (ChainedHashMap, 2.0, 8), (GramDirectory, 2.81, 64)])
    def test_map_reports_its_fixed_layout(self, make, max_load_factor, initial_buckets):
        # The map's report equals the reference map grown one insertion at a
        # time under the class constants.
        keys = random_keys(600, seed=6)
        layout = list(chained_layout(keys, max_load_factor, initial_buckets))[-1]
        if make is ChainedHashMap:
            m = ChainedHashMap()
            for i, key in enumerate(keys):
                m.put(key, i)
        else:
            m = gram_directory(keys)
        assert (make.MAX_LOAD_FACTOR, make.INITIAL_BUCKETS) == (max_load_factor, initial_buckets)
        assert m.bucket_count == len(layout)
        assert m.load_factor == len(m) / len(layout)
        assert m.stats() == chain_report(layout)

    def test_benchmark_structure_calls(self):
        # The benchmark's `structure` (perfbench/workloads.py) reports these
        # maps' chains: a split index's table and a superlinear and a linear
        # index's directory.
        text = Corpus.from_bytes(english_like_text(2000, seed=1))
        words = Dictionary(random_word_dictionary(500, seed=1))
        for m in (SplitIndex.build(words, 2).table,
                  SuperlinearIndex.build(text).directory,
                  LinearIndex.build(text, 3, 4).directory):
            layout = list(chained_layout(m, m.MAX_LOAD_FACTOR, m.INITIAL_BUCKETS))[-1]
            stats = m.stats()
            assert stats == chain_report(layout)
            assert stats["entries"] == len(m) > 0 and stats["max_chain"] >= 1


# The benchmark's maps, as `test_benchmark_structure_calls` builds them, and
# a hundred 8-bucket maps of 16 of the directory's keys each, whose reports
# a seeded hash would move; run in a fresh interpreter, it prints the
# reports as one JSON line.
_REPORTS = """
import json
from textindex.fmgram import SuperlinearIndex
from textindex.harness import english_like_text, random_word_dictionary
from textindex.hashmap import ChainedHashMap
from textindex.splitindex import Dictionary, SplitIndex
from textindex.textcore import Corpus
directory = SuperlinearIndex.build(Corpus.from_bytes(english_like_text(2000, seed=1))).directory
table = SplitIndex.build(Dictionary(random_word_dictionary(500, seed=1)), 2).table
keys = list(directory)
small = [ChainedHashMap.fromkeys(keys[at:at + 16]) for at in range(0, 1600, 16)]
print(json.dumps([m.stats() for m in (table, directory, *small)]))
"""


def test_stats_do_not_depend_on_the_hash_seed():
    # The built-in `hash()` of bytes changes with PYTHONHASHSEED; the chain
    # report must not.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    reports = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _REPORTS], env=env,
                              capture_output=True, text=True, check=True)
        reports.append(json.loads(done.stdout))
    assert reports[0] == reports[1]
    assert [len(report) for report in reports[0]] == [2] * 102
    assert reports[0][0]["entries"] > 0 and reports[0][1]["entries"] >= 1600
