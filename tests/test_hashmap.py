import random

import numpy as np
import pytest

from textindex.fmgram import GramDirectory
from textindex.hashes import (DEFAULT_HASH, HASH_FUNCTIONS, fnv1_32, fnv1a_32, get_hash,
                              murmur3_32, xxhash32)
from textindex.hashmap import ChainedHashMap, bucket_report


def chained_layout(keys, hash_name, max_load_factor, initial_buckets):
    """Reference chained map: a list of buckets filled one insertion at a
    time, doubled and rehashed whenever entries / buckets passes the load
    factor.  Yields the bucket list after each insertion."""
    hash_fn = HASH_FUNCTIONS[hash_name]
    buckets = [[] for _ in range(initial_buckets)]
    size = 0
    for key in keys:
        bucket = buckets[hash_fn(key) % len(buckets)]
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
                        fresh[hash_fn(k) % target].append(k)
                buckets = fresh
        yield buckets


def doubled_buckets(entries, max_load_factor, initial_buckets):
    """Buckets of a chained map that starts with `initial_buckets` and
    doubles whenever entries / buckets passes `max_load_factor`."""
    buckets = initial_buckets
    while entries / buckets > max_load_factor:
        buckets *= 2
    return buckets


def chain_report(buckets):
    """What `bucket_report` should say about a reference bucket list."""
    lengths = [len(b) for b in buckets]
    used = sum(1 for n in lengths if n)
    return {
        "entries": sum(lengths),
        "buckets": len(buckets),
        "load_factor": sum(lengths) / len(buckets),
        "max_chain": max(lengths),
        "mean_chain_nonempty": sum(lengths) / used,
    }


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
    # frozen reference digests from the upstream implementations
    XXHASH32 = {
        b"": 0x02CC5D05,
        b"a": 0x550D7456,
        b"abc": 0x32D153FF,
        b"texting": 0x19F493CE,
        b"Nobody inspects the spammish repetition": 0xE2293B2F,
        b"tablet": 0x302D31B8,
    }
    MURMUR3 = {
        b"": 0x00000000,
        b"hello": 0x248BFA47,
        b"The quick brown fox jumps over the lazy dog": 0x2E4FF723,
    }

    def test_xxhash32(self):
        for data, want in self.XXHASH32.items():
            assert xxhash32(data) == want

    def test_murmur3(self):
        for data, want in self.MURMUR3.items():
            assert murmur3_32(data) == want

    def test_fnv(self):
        assert fnv1a_32(b"") == 0x811C9DC5
        assert fnv1a_32(b"a") == 0xE40C292C
        assert fnv1_32(b"a") == 0x050C5D7E

    def test_all_candidates_are_32_bit(self):
        for name in HASH_FUNCTIONS:
            fn = get_hash(name)
            for data in (b"", b"a", b"some longer input string", bytes(range(256))):
                value = fn(data)
                assert 0 <= value <= 0xFFFFFFFF

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_hash("md5")


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
        assert m.stats() == {"entries": 0, "buckets": 8, "load_factor": 0.0,
                             "max_chain": 0, "mean_chain_nonempty": 0.0}

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
        assert stats["entries"] == 20
        assert stats["buckets"] == m.bucket_count
        assert stats["max_chain"] >= 1

    @pytest.mark.parametrize("hash_name", sorted(HASH_FUNCTIONS))
    def test_every_hash_candidate_plugs_in(self, hash_name):
        # Any hash function can be compared on a map's own keys and bucket
        # count through bucket_report; the default one gives stats().
        m = ChainedHashMap()
        for i, key in enumerate(random_keys(300, seed=1)):
            m.put(key, i)
        keys = [key for key, _ in m.items()]
        report = bucket_report(keys, hash_name, m.bucket_count)
        chains = [0] * m.bucket_count
        for key in keys:
            chains[HASH_FUNCTIONS[hash_name](key) % m.bucket_count] += 1
        assert (report["entries"], report["buckets"]) == (len(m), m.bucket_count)
        assert report["max_chain"] == max(chains)
        if hash_name == DEFAULT_HASH:
            assert report == m.stats()

    @pytest.mark.parametrize("hash_name", sorted(HASH_FUNCTIONS))
    @pytest.mark.parametrize("max_load_factor, initial_buckets",
                             [(0.5, 1), (1.0, 8), (2.0, 3), (2.81, 64)])
    def test_bucket_numbers_match_chained_layout(self, hash_name, max_load_factor,
                                                 initial_buckets):
        keys = random_keys(600, seed=5)
        layouts = chained_layout(keys, hash_name, max_load_factor, initial_buckets)
        for i, buckets in enumerate(layouts):
            if i % 50 and i != len(keys) - 1:
                continue
            seen = set(keys[:i + 1])
            assert doubled_buckets(len(seen), max_load_factor, initial_buckets) == len(buckets)
            assert bucket_report(seen, hash_name, len(buckets)) == chain_report(buckets)

    @pytest.mark.parametrize("make, max_load_factor, initial_buckets", [
        (ChainedHashMap, 2.0, 8), (GramDirectory, 2.81, 64)])
    def test_map_reports_its_fixed_layout(self, make, max_load_factor, initial_buckets):
        # The map's report equals the reference map grown one insertion at a
        # time under the class constants and the default hash.
        keys = random_keys(600, seed=6)
        layout = list(chained_layout(keys, DEFAULT_HASH, max_load_factor, initial_buckets))[-1]
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
