"""The lookup map shared by the indexes, plus a report on its bucket layout.

Lookups are served by a plain dict keyed by bytes, so no Python-level hash
runs on a query path.  The chained-bucket layout of a map is kept only as a
measurement, fixed by class constants: `bucket_count` and `load_factor`
follow the doubling rule of a chained map that starts with
`INITIAL_BUCKETS` buckets and doubles whenever entries / buckets passes
`MAX_LOAD_FACTOR`, and `stats()` hashes every key once with `DEFAULT_HASH`
to report the chain lengths that map would have.  Chain lengths depend only
on the final key set and the final bucket count, so the report equals what
a map grown one insertion at a time would show.  `bucket_report` gives the
same report for any hash function and bucket count.
"""

from __future__ import annotations

from .hashes import DEFAULT_HASH, get_hash


def bucket_report(keys, hash_name: str, buckets: int) -> dict:
    """Chain statistics of `keys` chained into `buckets` slots by `hash_name`."""
    hash_fn = get_hash(hash_name)
    lengths = [0] * buckets
    for key in keys:
        lengths[hash_fn(key) % buckets] += 1
    entries = sum(lengths)
    used = buckets - lengths.count(0)
    return {
        "entries": entries,
        "buckets": buckets,
        "load_factor": entries / buckets,
        "max_chain": max(lengths, default=0),
        "mean_chain_nonempty": (entries / used) if used else 0.0,
    }


class ChainedHashMap:
    """Map from byte keys to arbitrary values.

    Iteration follows insertion order, so it is deterministic for a fixed
    insertion sequence.  `entries`, if given, is a prebuilt dict that the
    map adopts as it is, without a copy.
    """

    MAX_LOAD_FACTOR = 2.0
    INITIAL_BUCKETS = 8

    def __init__(self, entries: dict | None = None):
        self._entries: dict = {} if entries is None else entries

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def buckets_for(cls, entries: int) -> int:
        """Buckets of a chained map of `entries` keys that doubles whenever
        an insertion takes entries / buckets past `MAX_LOAD_FACTOR`."""
        buckets = cls.INITIAL_BUCKETS
        while entries / buckets > cls.MAX_LOAD_FACTOR:
            buckets *= 2
        return buckets

    @property
    def bucket_count(self) -> int:
        return self.buckets_for(len(self._entries))

    @property
    def load_factor(self) -> float:
        return len(self._entries) / self.bucket_count

    def get(self, key: bytes):
        return self._entries.get(key)

    def put(self, key: bytes, value) -> None:
        """Insert or replace the value for `key`."""
        self._entries[key] = value

    def items(self):
        """(key, value) pairs in insertion order."""
        return self._entries.items()

    def stats(self) -> dict:
        return bucket_report(self._entries, DEFAULT_HASH, self.bucket_count)
