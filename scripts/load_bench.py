"""Time FM q-gram index builds, loads, gram-directory key maps and linear
gram walks for one or more checkouts of the package, as a markdown table.

    python3 scripts/load_bench.py --src OLD/src --src src --rounds 5

The inputs, each a cell of `scripts/checkouts.py`, are those of the
`fm-super-english` and `fm-linear-dna` benchmark workloads, a
`SuperlinearIndex` (q_max 128) over 8 KiB of `english_like_text(seed)`
and a `LinearIndex` (alpha 3, q 4) over 1 MiB of `dna_like_text(seed)`,
and `fm-linear-english`, a `LinearIndex` (alpha 3, q 4) over 1 MiB of
`english_like_text(seed)`, whose thousands of grams make it the costliest
linear load to check.  A cell reports its fastest of BUILDS build +
serialize passes, its fastest of BUILDS suffix sorts of the input's
corpus (`suffixbwt.build_suffix_array`, which a linear build and a
superlinear build or load each run once), its fastest of LOADS loads of
the file bytes, its fastest of LOADS `GramDirectory.entry_for` calls on
the loaded index's directory and, for a linear index, its fastest of
LOADS gram walks (`fmgram._gram_keys`): the part of a load that reads
each gram's key and rows off the BWT and checks them.  The sorts run
before the builds, so that the loads follow the builds as in a benchmark
run, and a cell counts the minor page faults per load over its timed
loads (`ru_minflt`): 0 when a load reuses heap pages that the builds
left.  Once the timing is done it traces (`tracemalloc`) the peak of one
build + serialize and of one load.  It also reports the file size, the
format version and a digest of the file bytes.  The table shows each
cell's median faults and peaks, each followed by its least and greatest
value over the cell's processes in brackets: a load's faults depend on
the heap it starts on, so one process of a cell can read a hundred and
the next thousands.
"""

from __future__ import annotations

import hashlib
import resource
import time
import tracemalloc
from functools import partial

from checkouts import compare, fastest, first, spread, table

INPUTS = ["fm-super-english", "fm-linear-dna", "fm-linear-english"]
BUILDS = 5
LOADS = 15


def timed(passes: int, call) -> float:
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


def worker(args) -> dict:
    import numpy as np
    from textindex import envelope, fmgram, suffixbwt
    from textindex.envelope import deserialize_index, serialize_index
    from textindex.fmgram import LinearIndex, SuperlinearIndex
    from textindex.harness import dna_like_text, english_like_text
    from textindex.textcore import Corpus

    if args.cell == "fm-super-english":
        corpus = Corpus.from_bytes(english_like_text(8 * 1024, seed=args.seed))
        build = partial(SuperlinearIndex.build, corpus, 128)
    else:
        text = dna_like_text if args.cell == "fm-linear-dna" else english_like_text
        corpus = Corpus.from_bytes(text(1024 * 1024, seed=args.seed))
        build = partial(LinearIndex.build, corpus, 3, 4)
    sort_s = timed(BUILDS, partial(suffixbwt.build_suffix_array, corpus))
    data = serialize_index(build())
    build_s = timed(BUILDS, lambda: serialize_index(build()))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    load_s = timed(LOADS, lambda: deserialize_index(data))
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / LOADS
    index = deserialize_index(data)
    directory = index.directory
    entry_for_s = timed(LOADS, directory.entry_for)
    walk_ms = None
    if isinstance(index, LinearIndex):
        columns = [np.asarray(column, dtype=np.int64) for column in (
            directory.lengths, directory.offsets, directory.firsts, directory.starts)]
        walk_ms = 1e3 * timed(LOADS, partial(
            fmgram._gram_keys, index.fm.l, suffixbwt.psi_mapping(index.fm.l), *columns,
            np.asarray(directory.rows)))
    build_peak = traced_peak_mib(lambda: serialize_index(build()))
    load_peak = traced_peak_mib(lambda: deserialize_index(data))
    return {"build_ms": 1e3 * build_s, "sort_ms": 1e3 * sort_s,
            "load_ms": 1e3 * load_s, "faults_per_load": faults,
            "build_peak_mib": build_peak, "load_peak_mib": load_peak,
            "entry_for_ms": 1e3 * entry_for_s, "walk_ms": walk_ms,
            "grams": len(directory), "bytes": len(data),
            "format": envelope.FORMAT_VERSION,
            "digest": hashlib.sha256(data).hexdigest()}


if __name__ == "__main__":
    args, runs = compare(__doc__, INPUTS, worker)
    table("input", INPUTS, args, runs,
          [("build ms", fastest("build_ms")), ("sort ms", fastest("sort_ms")),
           ("load ms", fastest("load_ms")), ("entry_for ms", fastest("entry_for_ms")),
           ("gram walk ms", fastest("walk_ms")),
           ("faults per load", spread("faults_per_load", "{:,.0f}")),
           ("build peak MiB", spread("build_peak_mib", "{:.1f}")),
           ("load peak MiB", spread("load_peak_mib", "{:.1f}")),
           ("file bytes", first("bytes", "{:,}"))],
          shared=[("grams", first("grams", "{:,}"))])
