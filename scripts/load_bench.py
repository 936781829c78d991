"""Time FM q-gram index builds, loads and gram-directory key maps for one
or more checkouts of the package, as a markdown table.

    python3 scripts/load_bench.py --src OLD/src --src src --rounds 5

Each (checkout, input) cell runs in its own process, the cells of one round
in turn, so two checkouts share the host's slow and fast spells.  The
inputs are those of the `fm-super-english` and `fm-linear-dna` benchmark
workloads: a `SuperlinearIndex` (q_max 128) over 8 KiB of
`english_like_text(seed)` and a `LinearIndex` (alpha 3, q 4) over 1 MiB of
`dna_like_text(seed)`.  A cell reports its fastest of BUILDS build +
serialize passes, its fastest of LOADS loads of the file bytes, and its
fastest of LOADS `GramDirectory.entry_for` calls on the loaded index's
directory, plus the file size and a digest of the file bytes; the table
shows each cell's fastest over the rounds, since other tenants of a shared
host only ever slow a pass down.  Times are raw, not scaled to a reference
host.  The command exits non-zero if a cell fails or if two checkouts
write different bytes for one input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from functools import partial

INPUTS = ["fm-super-english", "fm-linear-dna"]
BUILDS = 5
LOADS = 15


def fastest(passes: int, call) -> float:
    """The least wall time of `passes` calls of `call`, in seconds."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


def worker(args) -> None:
    sys.path.insert(0, args.src)
    from textindex.envelope import deserialize_index, serialize_index
    from textindex.fmgram import LinearIndex, SuperlinearIndex
    from textindex.harness import dna_like_text, english_like_text
    from textindex.textcore import Corpus

    if args.input == "fm-super-english":
        corpus = Corpus.from_bytes(english_like_text(8 * 1024, seed=args.seed))
        build = partial(SuperlinearIndex.build, corpus, 128)
    else:
        corpus = Corpus.from_bytes(dna_like_text(1024 * 1024, seed=args.seed))
        build = partial(LinearIndex.build, corpus, 3, 4)
    data = serialize_index(build())
    build_s = fastest(BUILDS, lambda: serialize_index(build()))
    load_s = fastest(LOADS, lambda: deserialize_index(data))
    directory = deserialize_index(data).directory
    entry_for_s = fastest(LOADS, directory.entry_for)
    print(json.dumps({"build_ms": 1e3 * build_s, "load_ms": 1e3 * load_s,
                      "entry_for_ms": 1e3 * entry_for_s, "grams": len(directory),
                      "bytes": len(data), "digest": hashlib.sha256(data).hexdigest()}))


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
        digests = {run["digest"] for src in args.src for run in cells[name, src]}
        if len(digests) != 1:
            sys.exit(f"{name}: the checkouts wrote {len(digests)} different files")
    print("| input | " + " | ".join(f"{col} {src}" for src in args.src
                                     for col in ("build ms", "load ms", "entry_for ms"))
          + " | grams | file bytes |")
    print("|---|" + "---|" * (3 * len(args.src) + 2))
    for name in INPUTS:
        row = []
        for src in args.src:
            runs = cells[name, src]
            row += [f"{min(r[key] for r in runs):.2f}"
                    for key in ("build_ms", "load_ms", "entry_for_ms")]
        first = cells[name, args.src[0]][0]
        print(f"| {name} | " + " | ".join(row)
              + f" | {first['grams']:,} | {first['bytes']:,} |")


if __name__ == "__main__":
    main()
