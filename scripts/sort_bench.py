"""Time `suffixbwt.build_suffix_array` for one or more checkouts of the
package, as a markdown table.

    python3 scripts/sort_bench.py --src OLD/src --src src --rounds 5

The inputs are 1 MiB of `dna_like_text(seed)` and of
`english_like_text(seed)` (the corpora of the `fm-linear-dna` build and
of `scripts/load_bench.py`'s `fm-linear-english`), the periodic text
b"ab" * 300000 + b"c", whose suffixes stay tied the longest, and 8 KiB of
`english_like_text(seed)` (the `fm-super-english` corpus, sorted by each
of its builds and loads).  Each (checkout, input) cell runs in its own
process, the cells of one round in turn, so two checkouts share the
host's slow and fast spells.  A cell reports its fastest of PASSES sorts
(more for the small input) and the peak of one more sort as `tracemalloc`
traces it.  The table shows each cell's fastest over the rounds.  Times
are raw, not scaled to a reference host.  The command exits non-zero if a
cell fails or if two checkouts give different suffix arrays for an input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
import tracemalloc

INPUTS = ["dna-1MiB", "english-1MiB", "ab-periodic", "english-8KiB"]
PASSES = 5
SMALL_PASSES = 200


def worker(args) -> None:
    sys.path.insert(0, args.src)
    from textindex import suffixbwt
    from textindex.harness import dna_like_text, english_like_text
    from textindex.textcore import Corpus

    raw = {"dna-1MiB": lambda: dna_like_text(1 << 20, seed=args.seed),
           "english-1MiB": lambda: english_like_text(1 << 20, seed=args.seed),
           "ab-periodic": lambda: b"ab" * 300000 + b"c",
           "english-8KiB": lambda: english_like_text(8 << 10, seed=args.seed)}[args.input]()
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
    print(json.dumps({"ms": 1e3 * best, "peak_mib": peak / 2**20,
                      "digest": hashlib.sha256(sa.astype("<i8").tobytes()).hexdigest()}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a checkout's src directory; repeat to compare")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--input", choices=INPUTS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.input is not None:
        args.src = args.src[0]
        worker(args)
        return
    cells: dict[tuple, list[dict]] = {}
    for _ in range(args.rounds):
        for name in INPUTS:
            for src in args.src:
                out = subprocess.run(
                    [sys.executable, __file__, "--src", src, "--input", name,
                     "--seed", str(args.seed)],
                    check=True, capture_output=True, text=True).stdout
                cells.setdefault((name, src), []).append(json.loads(out))
    for name in INPUTS:
        if len({run["digest"] for src in args.src for run in cells[name, src]}) != 1:
            sys.exit(f"{name}: the checkouts gave different suffix arrays")
    print("| input | " + " | ".join(f"{col} {src}" for src in args.src
                                     for col in ("sort ms", "traced peak MiB")) + " |")
    print("|---|" + "---|" * (2 * len(args.src)))
    for name in INPUTS:
        row = []
        for src in args.src:
            runs = cells[name, src]
            row += [f"{min(run['ms'] for run in runs):.2f}", f"{runs[0]['peak_mib']:.1f}"]
        print(f"| {name} | " + " | ".join(row) + " |")


if __name__ == "__main__":
    main()
