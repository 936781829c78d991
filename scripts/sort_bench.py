"""Time `suffixbwt.build_suffix_array` for one or more checkouts of the
package, as a markdown table.

    python3 scripts/sort_bench.py --src OLD/src --src src --rounds 5

The inputs are 1 MiB of `dna_like_text(seed)` and of
`english_like_text(seed)` (the corpora of the `fm-linear-dna` build and
of `scripts/load_bench.py`'s `fm-linear-english`), the periodic text
b"ab" * 300000 + b"c", whose suffixes stay tied the longest, and 8 KiB of
`english_like_text(seed)` (the `fm-super-english` corpus, sorted by each
of its builds and loads).  Each input is a cell of `scripts/checkouts.py`,
which runs the rounds and checks that every checkout gives the same
suffix array.  A cell reports its fastest of PASSES sorts (more for the
small input) and the peak of one more sort as `tracemalloc` traces it.
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc

from checkouts import compare, fastest, first, table

INPUTS = ["dna-1MiB", "english-1MiB", "ab-periodic", "english-8KiB"]
PASSES = 5
SMALL_PASSES = 200


def worker(args) -> dict:
    from textindex import suffixbwt
    from textindex.harness import dna_like_text, english_like_text
    from textindex.textcore import Corpus

    raw = {"dna-1MiB": lambda: dna_like_text(1 << 20, seed=args.seed),
           "english-1MiB": lambda: english_like_text(1 << 20, seed=args.seed),
           "ab-periodic": lambda: b"ab" * 300000 + b"c",
           "english-8KiB": lambda: english_like_text(8 << 10, seed=args.seed)}[args.cell]()
    corpus = Corpus.from_bytes(raw)
    passes = SMALL_PASSES if corpus.n < 1 << 16 else PASSES
    best = float("inf")
    for _ in range(passes):
        t0 = time.perf_counter()
        sa = suffixbwt.build_suffix_array(corpus)
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    suffixbwt.build_suffix_array(corpus)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"ms": 1e3 * best, "peak_mib": peak / 2**20,
            "digest": hashlib.sha256(sa.astype("<i8").tobytes()).hexdigest()}


if __name__ == "__main__":
    args, runs = compare(__doc__, INPUTS, worker)
    table("input", INPUTS, args, runs,
          [("sort ms", fastest("ms")), ("traced peak MiB", first("peak_mib", "{:.1f}"))])
