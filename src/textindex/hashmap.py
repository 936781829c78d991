"""The lookup map shared by the indexes, plus a report on its bucket layout.

The map is a dict keyed by bytes, so no Python-level hash or forwarding
call runs on a query path.  Its chained-bucket layout is kept only as a
measurement, fixed by class constants: `bucket_count` and `load_factor`
follow the doubling rule of a chained map that starts with
`INITIAL_BUCKETS` buckets and doubles whenever entries / buckets passes
`MAX_LOAD_FACTOR`, and `stats()` hashes every key once with `zlib.crc32`
to report the longest chain that map would have.  Chains depend only on the
final key set and the final bucket count, so the report equals what a map
grown one insertion at a time would show.
"""

from __future__ import annotations

import zlib


class ChainedHashMap(dict):
    """Map from byte keys to arbitrary values: a dict, so `get` and `put`
    are the dict's own C-level lookup and store.  They are named in the
    class body, where traced benchmark runs wrap them.  Iteration follows
    insertion order, so it is deterministic for a fixed insertion sequence.
    """

    MAX_LOAD_FACTOR = 2.0
    INITIAL_BUCKETS = 8

    get = dict.get
    put = dict.__setitem__

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
        return self.buckets_for(len(self))

    @property
    def load_factor(self) -> float:
        return len(self) / self.bucket_count

    def stats(self) -> dict:
        """The entry count and the longest chain of this map's keys hashed by
        `zlib.crc32` into `bucket_count` chains."""
        buckets = self.bucket_count
        lengths = [0] * buckets
        for key in self:
            lengths[zlib.crc32(key) % buckets] += 1
        return {"entries": len(self), "max_chain": max(lengths)}
