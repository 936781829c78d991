"""The lookup map shared by the indexes, plus a report on its bucket layout.

Lookups are served by a plain dict keyed by bytes, so no Python-level hash
runs on a query path.  The chained-bucket layout that the hash function and
the load factor describe is kept only as a measurement: `bucket_count` and
`load_factor` follow the doubling rule of a chained map that grows whenever
entries / buckets passes `max_load_factor`, and `stats()` hashes every key
once to report the chain lengths that map would have.  Chain lengths depend
only on the final key set and the final bucket count, so the report equals
what a map grown one insertion at a time would show.
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

    `hash_name`, `max_load_factor` and `initial_buckets` shape only the
    reported bucket layout.  Iteration follows insertion order, so it is
    deterministic for a fixed insertion sequence.
    """

    def __init__(self, hash_name: str = DEFAULT_HASH, max_load_factor: float = 2.0,
                 initial_buckets: int = 8):
        if max_load_factor <= 0:
            raise ValueError("max_load_factor must be positive")
        if initial_buckets < 1:
            raise ValueError("initial_buckets must be positive")
        get_hash(hash_name)  # reject an unknown name here, not at the first stats()
        self.hash_name = hash_name
        self.max_load_factor = max_load_factor
        self.initial_buckets = initial_buckets
        self._entries: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bucket_count(self) -> int:
        """Buckets of a chained map that doubles whenever an insertion takes
        entries / buckets past `max_load_factor`."""
        buckets = self.initial_buckets
        while len(self._entries) / buckets > self.max_load_factor:
            buckets *= 2
        return buckets

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
        return bucket_report(self._entries, self.hash_name, self.bucket_count)
