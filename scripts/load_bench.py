"""Time FM q-gram index builds, loads, gram-directory key maps and linear
gram walks for one or more checkouts of the package, as a markdown table.

    python3 scripts/load_bench.py --src OLD/src --src src --rounds 5

Each (checkout, input) cell runs in its own process, the cells of one round
in turn, so two checkouts share the host's slow and fast spells.  The
inputs are those of the `fm-super-english` and `fm-linear-dna` benchmark
workloads, a `SuperlinearIndex` (q_max 128) over 8 KiB of
`english_like_text(seed)` and a `LinearIndex` (alpha 3, q 4) over 1 MiB of
`dna_like_text(seed)`, and `fm-linear-english`, a `LinearIndex` (alpha 3,
q 4) over 1 MiB of `english_like_text(seed)`, whose thousands of grams
make it the costliest linear load to check.  A cell reports its fastest of
BUILDS build + serialize passes, its fastest of BUILDS suffix sorts of the
input's corpus (`suffixbwt.build_suffix_array`, which a linear build and a
superlinear build or load each run once), its fastest of LOADS loads of
the file bytes, its fastest of LOADS `GramDirectory.entry_for` calls on
the loaded index's directory and, for a linear index of a checkout that
checks its grams at load, its fastest of LOADS gram walks: the part of a
load that reads each gram's key and rows off the BWT and checks them.
That is one `fmgram._gram_keys` call, or, in a checkout without it, the
key read (`suffixbwt.row_prefixes` from `firsts`, where format 13 has it)
and then `envelope._check_gram_rows`, so that the table compares the same
work.  The sorts run before the builds, so that the loads follow the
builds as in a benchmark run, and a cell counts the minor page faults per
load over its timed loads (`ru_minflt`): 0 when a load reuses heap pages
that the builds left.  Once the timing is done it traces (`tracemalloc`)
the peak of one build + serialize and of one load.  It also reports the
file size, the format version and a digest of the file bytes.  The table
shows each cell's fastest time over the rounds, since other tenants of a
shared host only ever slow a pass down, and its median faults and peaks,
each followed by its least and greatest value over the cell's processes in
brackets: a load's faults depend on the heap it starts on, so one process
of a cell can read a hundred and the next thousands.
Times are raw, not scaled to a reference host.  The command exits non-zero
if a cell fails or if two checkouts of one format version write different
bytes for one input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from functools import partial

INPUTS = ["fm-super-english", "fm-linear-dna", "fm-linear-english"]
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


def traced_peak_mib(call) -> float:
    """The traced peak of one call of `call`, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def worker(args) -> None:
    sys.path.insert(0, args.src)
    import numpy as np
    from textindex import envelope, fmgram, suffixbwt
    from textindex.envelope import deserialize_index, serialize_index
    from textindex.fmgram import LinearIndex, SuperlinearIndex
    from textindex.harness import dna_like_text, english_like_text
    from textindex.textcore import Corpus

    if args.input == "fm-super-english":
        corpus = Corpus.from_bytes(english_like_text(8 * 1024, seed=args.seed))
        build = partial(SuperlinearIndex.build, corpus, 128)
    else:
        text = dna_like_text if args.input == "fm-linear-dna" else english_like_text
        corpus = Corpus.from_bytes(text(1024 * 1024, seed=args.seed))
        build = partial(LinearIndex.build, corpus, 3, 4)
    sort_s = fastest(BUILDS, partial(suffixbwt.build_suffix_array, corpus))
    data = serialize_index(build())
    build_s = fastest(BUILDS, lambda: serialize_index(build()))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    load_s = fastest(LOADS, lambda: deserialize_index(data))
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / LOADS
    index = deserialize_index(data)
    directory = index.directory
    entry_for_s = fastest(LOADS, directory.entry_for)
    walk = None
    if isinstance(index, LinearIndex):
        l, psi = index.fm.l, suffixbwt.psi_mapping(index.fm.l)
        if hasattr(fmgram, "_gram_keys"):
            columns = [np.asarray(column, dtype=np.int64) for column in (
                directory.lengths, directory.offsets, directory.firsts, directory.starts)]
            walk = partial(fmgram._gram_keys, l, psi, *columns, np.asarray(directory.rows))
        elif hasattr(envelope, "_check_gram_rows"):
            def walk():
                if hasattr(suffixbwt, "row_prefixes"):
                    suffixbwt.row_prefixes(l, psi, directory.firsts, directory.lengths)
                envelope._check_gram_rows(l, psi, directory)
    walk_ms = None if walk is None else 1e3 * fastest(LOADS, walk)
    build_peak = traced_peak_mib(lambda: serialize_index(build()))
    load_peak = traced_peak_mib(lambda: deserialize_index(data))
    print(json.dumps({"build_ms": 1e3 * build_s, "sort_ms": 1e3 * sort_s,
                      "load_ms": 1e3 * load_s, "faults_per_load": faults,
                      "build_peak_mib": build_peak, "load_peak_mib": load_peak,
                      "entry_for_ms": 1e3 * entry_for_s, "walk_ms": walk_ms,
                      "grams": len(directory), "bytes": len(data),
                      "format": envelope.FORMAT_VERSION,
                      "digest": hashlib.sha256(data).hexdigest()}))


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
        runs = [run for src in args.src for run in cells[name, src]]
        for version in {run["format"] for run in runs}:
            digests = {run["digest"] for run in runs if run["format"] == version}
            if len(digests) != 1:
                sys.exit(f"{name}: the format {version} checkouts wrote "
                         f"{len(digests)} different files")
    timings = {"build_ms": "build ms", "sort_ms": "sort ms", "load_ms": "load ms",
               "entry_for_ms": "entry_for ms", "walk_ms": "gram walk ms"}
    medians = {"faults_per_load": ("faults per load", "{:,.0f}"),
               "build_peak_mib": ("build peak MiB", "{:.1f}"),
               "load_peak_mib": ("load peak MiB", "{:.1f}")}
    columns = [*timings.values(), *(label for label, _ in medians.values()), "file bytes"]
    print("| input | " + " | ".join(f"{col} {src}" for src in args.src for col in columns)
          + " | grams |")
    print("|---|" + "---|" * (len(columns) * len(args.src) + 1))
    for name in INPUTS:
        row = []
        for src in args.src:
            runs = cells[name, src]
            for key in timings:
                times = [run[key] for run in runs if run[key] is not None]
                row.append(f"{min(times):.2f}" if times else "–")
            for key, (_, form) in medians.items():
                values = [run[key] for run in runs]
                row.append(f"{form.format(statistics.median(values))} "
                           f"({form.format(min(values))}–{form.format(max(values))})")
            row.append(f"{runs[0]['bytes']:,}")
        print(f"| {name} | " + " | ".join(row) + f" | {cells[name, args.src[0]][0]['grams']:,} |")


if __name__ == "__main__":
    main()
