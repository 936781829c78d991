"""In-memory span recorder that instruments textindex from the outside.

`Tracer.install` replaces the module attributes, class methods and hash
table entries that the layers call through with timing wrappers, and
`uninstall` restores the originals.  No file of the package changes.

Every call opens a frame on one stack.  When a frame closes, its duration is
charged to its parent's child time, so a layer's self time is its duration
minus the time of the spans it caused.  Totals are kept per (phase, owner,
layer): the phase is the outermost open span (setup, load or query) and the
owner is the nearest enclosing full span.

Cold layers (whole builds, serialization, one query) are kept as full spans:
id, name, start, end, parent id and query id.  Hot layers, called up to
millions of times (hashing, rank, step, lookups), are aggregated as a call
count and summed time per (enclosing full span, name).  Spans stay in memory
until `dump` writes them out.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.aggregates: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        # (phase, owner, name) -> [calls, self seconds, inclusive seconds],
        # where the owner is the name of the nearest enclosing full span.
        self.layers: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.query_id: int | None = None
        self._stack: list[list] = []
        self._next_id = 1
        self._saved: list[tuple] = []

    # -- frames ----------------------------------------------------------------

    def _enter(self, name: str, hot: bool) -> list:
        span_id = None
        if not hot:
            span_id = self._next_id
            self._next_id += 1
        # [name, start, child seconds, span id (None for hot frames)]
        frame = [name, 0.0, 0.0, span_id]
        self._stack.append(frame)
        frame[1] = _perf()
        return frame

    def _exit(self, frame: list) -> None:
        end = _perf()
        stack = self._stack
        stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        parent_id, owner = None, None
        if stack:
            stack[-1][2] += duration
            phase = stack[0][0]
            for outer in reversed(stack):
                if outer[3] is not None:
                    owner, parent_id = outer[0], outer[3]
                    break
        else:
            phase = name
        totals = self.layers[(phase, owner, name)]
        totals[0] += 1
        totals[1] += duration - child
        totals[2] += duration
        if span_id is None:
            agg = self.aggregates[(parent_id, name)]
            agg[0] += 1
            agg[1] += duration
        else:
            self.spans.append((span_id, name, start, end, parent_id, self.query_id))

    @contextmanager
    def span(self, name: str):
        """A full span opened by the benchmark itself."""
        frame = self._enter(name, hot=False)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, fn, name: str, hot: bool, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- instrumentation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary listed in `POINTS`.  A missing module,
        owner or attribute raises, so a renamed layer cannot read as zero."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attrs, name, hot, observe in POINTS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            namespace = owner if isinstance(owner, dict) else vars(owner)
            for attr in list(namespace) if attrs is None else attrs:
                original = namespace[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(original.__func__, name, hot, observe))
                else:
                    wrapped = self.wrap(original, name, hot, observe)
                _assign(owner, attr, wrapped)
                self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            _assign(owner, attr, original)
        self._saved.clear()

    # -- reports ---------------------------------------------------------------

    def total(self, name: str, field: int = 1, phase: str | None = None,
              owner: str | None = None) -> float:
        """Summed calls (field 0), self seconds (1) or inclusive seconds (2)
        of one layer, optionally only in one phase or under one owner."""
        return sum(v[field] for (p, o, n), v in self.layers.items()
                   if n == name and phase in (None, p) and owner in (None, o))

    def dump(self, path) -> None:
        doc = {
            "spans": [dict(zip(("id", "name", "start", "end", "parent", "query_id"), s))
                      for s in self.spans],
            "aggregates": [{"parent": parent, "name": name, "calls": calls, "total_s": total}
                           for (parent, name), (calls, total) in self.aggregates.items()],
            "layers": [{"phase": phase, "owner": owner, "name": name, "calls": v[0],
                        "self_s": v[1], "inclusive_s": v[2]}
                       for (phase, owner, name), v in self.layers.items()],
            "counters": dict(self.counters),
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


def _assign(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _count_hash_bytes(counters, args, result):
    counters["hashes.bytes"] += len(args[0])


def _count_hit(prefix):
    key = prefix + ".hits"

    def observe(counters, args, result):
        if result is not None:
            counters[key] += 1
    return observe


# (module, owner in the module or None, attributes or None for every key of a
# dict owner, layer name, hot, observer).  Names that a module imports from
# another (fmgram's `minimizers`, envelope's `bwt_forward`) are wrapped where
# the caller looks them up.  Maps bind their hash function from
# `HASH_FUNCTIONS` when they are built, so only maps built after `install`
# are traced at the hashing layer.
POINTS = [
    ("textindex.suffixbwt", None, ["build_suffix_array"], "suffixbwt.sa", False, None),
    ("textindex.suffixbwt", None, ["bwt_forward"], "suffixbwt.bwt", False, None),
    ("textindex.envelope", None, ["bwt_forward"], "suffixbwt.bwt", False, None),
    ("textindex.suffixbwt", "RankIndex", ["__init__"], "suffixbwt.rank_build", False, None),
    ("textindex.suffixbwt", "RankIndex", ["rank"], "suffixbwt.rank", True, None),
    ("textindex.suffixbwt", "FmIndex", ["step"], "suffixbwt.step", True, None),
    ("textindex.fmgram", None, ["minimizers"], "textcore.minimizers", False, None),
    ("textindex.fmgram", None, ["phrases"], "textcore.phrases", False, None),
    ("textindex.fmgram", None, ["list_rank"], "fmgram.list_rank", True, None),
    ("textindex.fmgram", "GramDirectory", ["get"], "fmgram.get", True, _count_hit("fmgram.get")),
    ("textindex.fmgram", "GramDirectory", ["entry_for"], "fmgram.entry_for", True, None),
    ("textindex.fmgram", "SuperlinearIndex", ["build"], "fmgram.build", False, None),
    ("textindex.fmgram", "LinearIndex", ["build"], "fmgram.build", False, None),
    ("textindex.fmgram", "SuperlinearIndex", ["count_with_steps"], "fmgram.count", False, None),
    ("textindex.fmgram", "LinearIndex", ["count"], "fmgram.count", False, None),
    ("textindex.hashmap", "ChainedHashMap", ["get"], "hashmap.get", True, _count_hit("hashmap.get")),
    ("textindex.hashmap", "ChainedHashMap", ["put"], "hashmap.put", True, None),
    ("textindex.splitindex", "SplitIndex", ["build"], "splitindex.build", False, None),
    ("textindex.splitindex", "SplitIndex", ["query_verbose"], "splitindex.query", False, None),
    ("textindex.envelope", None, ["serialize_index"], "envelope.serialize", False, None),
    ("textindex.envelope", None, ["deserialize_index"], "envelope.deserialize", False, None),
    ("textindex.hashes", "HASH_FUNCTIONS", None, "hashes", True, _count_hash_bytes),
]
