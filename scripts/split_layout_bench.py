"""Time split-index builds, queries and loads, and measure file bytes, for
one or more checkouts of the package, as a markdown table.

    python3 scripts/split_layout_bench.py --src OLD/src --src src --rounds 5

Each configuration is a cell of `scripts/checkouts.py`: k = 1, 2 or 3
over plain runs (`plain-1` to `plain-3`), or k = 1 or 2 coded with the
default `select_qgrams` table (`coded-1`, `coded-2`), on
`random_word_dictionary(--words, seed)` and the 2,000
`generate_noisy_queries` (up to 3 substitutions, seed + 1) that the
`split-words` benchmark uses.  A cell reports its fastest of --passes
builds, its fastest of --passes passes over the query set, per query, its
fastest of --loads loads of the file bytes, the file size and, if coded,
its fastest of --passes `select_qgrams` calls.

Once the timing is done, a cell checks the answers of the built and of the
loaded index to every query against `NaiveHammingSearcher`, and it reports
the format version and a SHA-256 of its file bytes, which a second table
lists.  The command also exits non-zero if an answer differs.
"""

from __future__ import annotations

import hashlib
import sys
import time

from checkouts import compare, fastest, first, table

CONFIGS = ["plain-1", "plain-2", "plain-3", "coded-1", "coded-2"]


def worker(args) -> dict:
    from textindex.envelope import FORMAT_VERSION, deserialize_index, serialize_index
    from textindex.harness import (NaiveHammingSearcher, generate_noisy_queries,
                                   random_word_dictionary)
    from textindex.splitindex import SplitIndex, select_qgrams

    layout, k = args.cell.split("-")
    k = int(k)
    words = random_word_dictionary(args.words, seed=args.seed)
    queries = [q for q in generate_noisy_queries(words, 2000, max_errors=3,
                                                 seed=args.seed + 1).queries
               if len(q) > k]
    substitution = None
    selects = []
    for _ in range(args.passes if layout == "coded" else 0):
        t0 = time.perf_counter()
        substitution = select_qgrams(words)
        selects.append(time.perf_counter() - t0)
    builds = []
    for _ in range(args.passes):
        t0 = time.perf_counter()
        built = SplitIndex.build(words, k, substitution)
        builds.append(time.perf_counter() - t0)
    data = serialize_index(built)
    loads = []
    for _ in range(args.loads):
        t0 = time.perf_counter()
        index = deserialize_index(data)
        loads.append(time.perf_counter() - t0)
    query = index.query
    passes = []
    for _ in range(args.passes):
        t0 = time.perf_counter()
        for q in queries:
            query(q)
        passes.append((time.perf_counter() - t0) / len(queries))
    oracle = NaiveHammingSearcher(words)
    expected = [oracle.search(q, k) for q in queries]
    for name, checked in (("built", built), ("loaded", index)):
        if [checked.query(q) for q in queries] != expected:
            sys.exit(f"{args.cell}: the {name} index answers wrongly")
    return {"select_ms": 1e3 * min(selects) if selects else None,
            "build_ms": 1e3 * min(builds), "us": 1e6 * min(passes),
            "load_ms": 1e3 * min(loads), "bytes": len(data),
            "format": FORMAT_VERSION, "digest": hashlib.sha256(data).hexdigest()}


if __name__ == "__main__":
    args, runs = compare(__doc__, CONFIGS, worker, words=50_000, passes=7, loads=15)
    table("configuration", CONFIGS, args, runs,
          [("select ms", fastest("select_ms", "{:.1f}")),
           ("build ms", fastest("build_ms", "{:.1f}")), ("µs/query", fastest("us", "{:.1f}")),
           ("load ms", fastest("load_ms", "{:.1f}")), ("file bytes", first("bytes", "{:,}"))])
    print()
    table("configuration", CONFIGS, args, runs,
          [("format", first("format")), ("file SHA-256", first("digest"))])
