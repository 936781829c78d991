"""Time split-index builds, queries and loads, and measure file bytes, for
one or more checkouts of the package, as a markdown table.

    python3 scripts/split_layout_bench.py --src OLD/src --src src --rounds 5

Each (checkout, configuration) cell runs in its own process, the cells of
one round in turn, so two checkouts share the host's slow and fast spells.
A configuration is k = 1, 2 or 3 over plain runs, or k = 1 or 2 coded with
the default `select_qgrams` table, on `random_word_dictionary(--words,
seed)` and the 2,000 `generate_noisy_queries` (up to 3 substitutions, seed
+ 1) that the `split-words` benchmark uses.  A cell reports its fastest
of --passes builds, its fastest of --passes passes over the query set,
per query, its fastest of --loads loads of the file bytes, the file size
and, if coded, its fastest of --passes `select_qgrams` calls; the table
shows each cell's fastest over the rounds, since other tenants of a
shared host only ever slow a pass down.  Times are raw, not scaled to a
reference host.

Once the timing is done, a cell checks the answers of the built and of the
loaded index to every query against `NaiveHammingSearcher`, and it reports
the format version and a SHA-256 of its file bytes, which a second table
lists.  The command exits non-zero if a cell fails, if an answer differs,
or if two checkouts of one format version write different bytes for one
configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time

CONFIGS = [(1, False), (2, False), (3, False), (1, True), (2, True)]


def worker(args) -> None:
    sys.path.insert(0, args.src)
    from textindex.envelope import FORMAT_VERSION, deserialize_index, serialize_index
    from textindex.harness import (NaiveHammingSearcher, generate_noisy_queries,
                                   random_word_dictionary)
    from textindex.splitindex import SplitIndex, select_qgrams

    words = random_word_dictionary(args.words, seed=args.seed)
    queries = [q for q in generate_noisy_queries(words, 2000, max_errors=3,
                                                 seed=args.seed + 1).queries
               if len(q) > args.k]
    substitution = None
    selects = []
    for _ in range(args.passes if args.coded else 0):
        t0 = time.perf_counter()
        substitution = select_qgrams(words)
        selects.append(time.perf_counter() - t0)
    builds = []
    for _ in range(args.passes):
        t0 = time.perf_counter()
        built = SplitIndex.build(words, args.k, substitution)
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
    expected = [oracle.search(q, args.k) for q in queries]
    for name, checked in (("built", built), ("loaded", index)):
        if [checked.query(q) for q in queries] != expected:
            sys.exit(f"k={args.k} coded={args.coded}: the {name} index answers wrongly")
    print(json.dumps({"select_ms": 1e3 * min(selects, default=float("nan")),
                      "build_ms": 1e3 * min(builds), "us": 1e6 * min(passes),
                      "load_ms": 1e3 * min(loads), "bytes": len(data),
                      "format": FORMAT_VERSION, "digest": hashlib.sha256(data).hexdigest()}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a checkout's src directory; repeat to compare")
    parser.add_argument("--words", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--passes", type=int, default=7)
    parser.add_argument("--loads", type=int, default=15)
    parser.add_argument("--k", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--coded", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.k is not None:
        args.src = args.src[0]
        worker(args)
        return
    cells: dict[tuple, list[dict]] = {}
    for _ in range(args.rounds):
        for k, coded in CONFIGS:
            for src in args.src:
                out = subprocess.run(
                    [sys.executable, __file__, "--src", src, "--k", str(k),
                     "--coded", str(int(coded)), "--words", str(args.words),
                     "--seed", str(args.seed), "--passes", str(args.passes),
                     "--loads", str(args.loads)],
                    check=True, stdout=subprocess.PIPE, text=True).stdout
                cells.setdefault((k, coded, src), []).append(json.loads(out))
    for k, coded in CONFIGS:
        runs = [run for src in args.src for run in cells[k, coded, src]]
        for version in {run["format"] for run in runs}:
            digests = {run["digest"] for run in runs if run["format"] == version}
            if len(digests) != 1:
                sys.exit(f"k={k} coded={coded}: the format {version} checkouts wrote "
                         f"{len(digests)} different files")
    print("| runs | k | " + " | ".join(f"{name} {src}" for src in args.src
                                        for name in ("select ms", "build ms", "µs/query",
                                                     "load ms", "file bytes"))
          + " |")
    print("|---|---|" + "---|" * (5 * len(args.src)))
    for k, coded in CONFIGS:
        row = []
        for src in args.src:
            runs = cells[k, coded, src]
            row += [f"{min(r['select_ms'] for r in runs):.1f}" if coded else "–",
                    f"{min(r['build_ms'] for r in runs):.1f}",
                    f"{min(r['us'] for r in runs):.1f}",
                    f"{min(r['load_ms'] for r in runs):.1f}",
                    f"{runs[0]['bytes']:,}"]
        print(f"| {'coded' if coded else 'plain'} | {k} | " + " | ".join(row) + " |")
    print()
    print("| runs | k | checkout | format | file SHA-256 |")
    print("|---|---|---|---|---|")
    for k, coded in CONFIGS:
        for src in args.src:
            run = cells[k, coded, src][0]
            print(f"| {'coded' if coded else 'plain'} | {k} | {src} | {run['format']} "
                  f"| {run['digest']} |")


if __name__ == "__main__":
    main()
