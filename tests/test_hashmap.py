import random

import pytest

from textindex.hashes import (HASH_FUNCTIONS, fnv1_32, fnv1a_32, get_hash,
                              murmur3_32, xxhash32)
from textindex.hashmap import ChainedHashMap


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
        m = ChainedHashMap(max_load_factor=2.0, initial_buckets=4)
        for i in range(1000):
            m.put(str(i).encode(), i)
        assert m.load_factor <= 2.0
        assert len(m) == 1000
        assert all(m.get(str(i).encode()) == i for i in range(1000))

    def test_growth_doubles(self):
        m = ChainedHashMap(max_load_factor=1.0, initial_buckets=4)
        seen = {m.bucket_count}
        for i in range(100):
            m.put(str(i).encode(), i)
            seen.add(m.bucket_count)
        assert sorted(seen) == [4, 8, 16, 32, 64, 128]

    def test_high_load_factor_allows_chains(self):
        m = ChainedHashMap(max_load_factor=8.0, initial_buckets=2)
        for i in range(16):
            m.put(str(i).encode(), i)
        assert m.bucket_count == 2
        assert m.load_factor == 8.0

    def test_deterministic_iteration(self):
        def fill():
            m = ChainedHashMap(hash_name="sdbm", max_load_factor=1.5)
            for i in range(200):
                m.put(f"w{i}".encode(), i)
            return list(m.items())
        assert fill() == fill()

    def test_stats(self):
        m = ChainedHashMap(initial_buckets=8)
        for i in range(20):
            m.put(str(i).encode(), i)
        stats = m.stats()
        assert stats["entries"] == 20
        assert stats["buckets"] == m.bucket_count
        assert stats["max_chain"] >= 1

    @pytest.mark.parametrize("hash_name", sorted(HASH_FUNCTIONS))
    def test_every_hash_candidate_plugs_in(self, hash_name):
        rng = random.Random(1)
        m = ChainedHashMap(hash_name=hash_name)
        reference = {}
        for _ in range(300):
            key = bytes(rng.choice(b"abcdef") for _ in range(rng.randint(1, 8)))
            value = rng.randrange(1000)
            m.put(key, value)
            reference[key] = value
        for key, value in reference.items():
            assert m.get(key) == value
        assert len(m) == len(reference)

    @pytest.mark.parametrize("hash_name", sorted(HASH_FUNCTIONS))
    @pytest.mark.parametrize("max_load_factor, initial_buckets",
                             [(0.5, 1), (1.0, 8), (2.0, 3), (2.81, 64)])
    def test_bucket_numbers_match_chained_layout(self, hash_name, max_load_factor,
                                                 initial_buckets):
        rng = random.Random(5)
        # Short keys over a small alphabet, so some repeat.
        keys = [bytes(rng.choice(b"abcdefgh") for _ in range(rng.randint(1, 12)))
                for _ in range(600)]
        m = ChainedHashMap(hash_name, max_load_factor, initial_buckets)
        layouts = chained_layout(keys, hash_name, max_load_factor, initial_buckets)
        for i, (key, buckets) in enumerate(zip(keys, layouts)):
            m.put(key, i)
            if i % 50 and i != len(keys) - 1:
                continue
            lengths = [len(b) for b in buckets]
            used = sum(1 for n in lengths if n)
            assert m.bucket_count == len(buckets)
            assert m.load_factor == len(m) / len(buckets)
            assert m.stats() == {
                "entries": sum(lengths),
                "buckets": len(buckets),
                "load_factor": sum(lengths) / len(buckets),
                "max_chain": max(lengths),
                "mean_chain_nonempty": sum(lengths) / used,
            }
