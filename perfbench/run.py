"""Seeded end-to-end and per-layer benchmark of the textindex indexes.

    python3 perfbench/run.py --workload fm-super-english --seed 1 --seconds 8 --trace 0

Run from the repository root.  The package is imported from `src/` next to
this directory, never from an installed copy; without it the run exits 2.

One process runs one workload with one closed-loop client: each query is
sent when the previous one has returned.  Each index is built and
serialized (`setup_s`), loaded back from those bytes (`load_s`), and the
loaded copy is queried, for `--seconds` in all.  Every timed sample is
scaled to a reference host speed (see "Host speed" below).  Every answer is
compared with a brute-force oracle; a mismatch, or a query the index
refuses, prints the result with `"correct": false` and exits 1.  NOTES.md
says why each figure is taken as it is.

`--trace 1` instead reports per-layer metrics: an untraced query phase for
`--seconds`, then a traced build, load and TRACED_PASSES passes over the
query set, timed by wrappers around each layer's public functions (see
tracer.py).  Spans are written to perfbench/out/.  `--workload all` runs
every workload, each in its own process.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOAD_NAMES = ("fm-super-english", "fm-linear-dna", "split-words")
# A run is ROUNDS rounds, each on the next CPU: one set-up (build and
# serialize), loads of its bytes, and a query phase of --seconds / ROUNDS.
# Spreading every kind of sample over the whole run keeps a slow spell from
# owning all samples of one metric.
ROUNDS = 4
# Each round makes at least MIN_PASSES timed passes over the query set
# (2000 queries) and loads at least MIN_LOADS times and for LOAD_SECONDS.
MIN_PASSES = 2
MIN_LOADS = 3
LOAD_SECONDS = 0.4
CPUS = sorted(os.sched_getaffinity(0))

# Host speed.  Other tenants of a shared virtual machine slow both of its
# CPUs by up to 2x, switching between fast and slow spells many times a
# second for some minutes and seldom for others: one process repeating the
# same work had raw medians per 25 s window spread by up to 0.49
# (IQR/median) across five minutes.  So a
# short, fixed pure-Python kernel (stores and lookups of bytes keys in a
# dict, like the indexes' own hot loops) is timed KERNEL_REPEATS times before
# and after every timed sample (a set-up, a load, a pass over the query
# set), and the sample's time is scaled by KERNEL_REFERENCE_S over the
# kernel's mean time around it: it reads as on a host that runs the kernel
# in KERNEL_REFERENCE_S.  Each metric is the median of its scaled samples.
# No package code runs in the kernel, so a slower program still reads
# slower.
KERNEL_REFERENCE_S = 0.001
KERNEL_REPEATS = 5
_KERNEL_KEYS = [i.to_bytes(4, "little") * 3 for i in range(2048)]


def _kernel() -> int:
    table = {}
    for key in _KERNEL_KEYS:
        table[key[3:9]] = len(table) ^ hash(key)
    total = 0
    for key in _KERNEL_KEYS:
        total += table[key[3:9]] & 0xFF
    return total


def kernel_s() -> float:
    """The kernel's mean time over KERNEL_REPEATS runs, in s."""
    t0 = time.perf_counter()
    for _ in range(KERNEL_REPEATS):
        _kernel()
    return (time.perf_counter() - t0) / KERNEL_REPEATS


def host_scale(before: float, after: float) -> float:
    """Factor that turns a time taken between two kernel timings into
    reference-host time."""
    return 2 * KERNEL_REFERENCE_S / (before + after)


def timed(fn):
    """fn() and its time in s, scaled to the reference host."""
    before = kernel_s()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    return result, elapsed * host_scale(before, kernel_s())


def pin(repetition: int) -> None:
    """Run the next repetition on the next allowed CPU, in turn."""
    os.sched_setaffinity(0, {CPUS[repetition % len(CPUS)]})


def unpin() -> None:
    os.sched_setaffinity(0, CPUS)


# name -> unit, for --trace 0.
END_TO_END = {
    "setup_s": "s",
    "load_s": "s",
    "query_p50_med_us": "us",
    "query_p99_med_us": "us",
    "query_qps": "1/s",
    "bytes_per_input_byte": "ratio",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

_FAILED = object()


def _answer(run, pattern):
    try:
        return run(pattern)
    except ValueError:
        # The package's typed errors (MalformedInputError,
        # UnsupportedPatternError) derive from ValueError; anything else is
        # a crash and ends the run.
        return _FAILED


def closed_loop(run, queries, seconds):
    """Send queries one after another in passes over `queries`, until
    `seconds` have passed and at least MIN_PASSES passes are complete.
    Each call is timed, and so is each pass; both are scaled to the
    reference host by the kernel timings before and after the pass.  Each
    answer is compared with the untimed warm-up answer for the same query.

    Returns (each pass's scaled time of each query in s, each pass's scaled
    time in s, queries sent, failed, warm-up answers, answers that differed
    from the warm-up answer)."""
    warm = [_answer(run, q) for q in queries]
    gc.collect()
    perf = time.perf_counter
    query_times, pass_times = [], []
    failed = drifted = 0
    deadline = perf() + seconds
    while len(pass_times) < MIN_PASSES or perf() < deadline:
        pin(len(pass_times))
        before = kernel_s()
        times = []
        start = perf()
        for j, query in enumerate(queries):
            t0 = perf()
            answer = _answer(run, query)
            times.append(perf() - t0)
            if answer is _FAILED:
                failed += 1
            if answer != warm[j]:
                drifted += 1
        wall = perf() - start
        scale = host_scale(before, kernel_s())
        pass_times.append(wall * scale)
        query_times.append([t * scale for t in times])
    unpin()
    return query_times, pass_times, len(pass_times) * len(queries), failed, warm, drifted


def oracle_mismatches(workload, answers) -> int:
    """Answers that differ from the workload's oracle.  The oracle answers
    every query, so a query the index refused counts as a mismatch."""
    return sum(1 for want, got in zip(workload.expected, answers)
               if got is _FAILED or got != want)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_end_to_end(workload, seconds):
    from textindex import envelope

    setup_times, load_times, query_times, pass_times, blobs = [], [], [], [], set()
    attempted = failed = mismatches = 0
    for round_ in range(ROUNDS):
        pin(round_)
        gc.collect()
        blob, elapsed = timed(lambda: envelope.serialize_index(workload.build()))
        setup_times.append(elapsed)
        blobs.add(blob)
        loaded, loads_start = None, len(load_times)
        while (len(load_times) - loads_start < MIN_LOADS
               or sum(load_times[loads_start:]) < LOAD_SECONDS):
            loaded = None
            pin(len(load_times))
            gc.collect()
            loaded, elapsed = timed(lambda: envelope.deserialize_index(blob))
            load_times.append(elapsed)
        round_queries, round_passes, sent, round_failed, warm, drifted = closed_loop(
            lambda q: workload.query(loaded, q), workload.queries, seconds / ROUNDS)
        query_times += round_queries
        pass_times += round_passes
        attempted += sent
        failed += round_failed
        mismatches += oracle_mismatches(workload, warm) + drifted
        loaded = None

    # Each query's median scaled time over the run's passes.
    latency = [statistics.median(column) for column in zip(*query_times)]
    metrics = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "load_s": (statistics.median(load_times), len(load_times)),
        "query_p50_med_us": (1e6 * statistics.median(latency), len(latency)),
        "query_p99_med_us": (1e6 * statistics.quantiles(latency, n=100)[98], len(latency)),
        "query_qps": (len(latency) / statistics.median(pass_times), len(pass_times)),
        "bytes_per_input_byte": (len(blob) / workload.input_bytes, 1),
        "peak_rss_mb": (peak_rss_mib(), 1),
        "ok_ratio": ((attempted - failed) / attempted, attempted),
    }
    # Every set-up must serialize to the same bytes.
    correct = mismatches == 0 and len(blobs) == 1
    return metrics, END_TO_END, attempted, failed, correct


# The traced run builds and loads once and makes this many passes over the
# query set, so its counts are fixed for a seed.
TRACED_PASSES = 3

# name -> (unit, better), for --trace 1.
PER_LAYER = {
    "suffixbwt.sa.self_s": ("s", "lower"),
    "suffixbwt.bwt.self_s": ("s", "lower"),
    "suffixbwt.rank_build.self_s": ("s", "lower"),
    "suffixbwt.step.calls": ("count", "lower"),
    "suffixbwt.step.self_s": ("s", "lower"),
    "suffixbwt.rank.calls": ("count", "lower"),
    "suffixbwt.rank.self_s": ("s", "lower"),
    "textcore.minimizers.calls": ("count", "lower"),
    "textcore.minimizers.self_s": ("s", "lower"),
    "textcore.phrases.self_s": ("s", "lower"),
    "fmgram.build.self_s": ("s", "lower"),
    "fmgram.entry_for.calls": ("count", "lower"),
    "fmgram.get.calls": ("count", "lower"),
    "fmgram.get.self_s": ("s", "lower"),
    "fmgram.get.hit_ratio": ("ratio", "higher"),
    "fmgram.list_rank.calls": ("count", "lower"),
    "fmgram.list_rank.self_s": ("s", "lower"),
    "fmgram.count.self_s": ("s", "lower"),
    "fmgram.count.minimizers_share": ("ratio", "lower"),
    "fmgram.count.step_share": ("ratio", "lower"),
    "fmgram.count.gram_share": ("ratio", "lower"),
    "fmgram.lf_steps": ("count", "lower"),
    "fmgram.grams": ("count", "lower"),
    "fmgram.max_chain": ("count", "lower"),
    "hashes.calls": ("count", "lower"),
    "hashes.bytes": ("bytes", "lower"),
    "hashes.self_s": ("s", "lower"),
    "hashmap.get.calls": ("count", "lower"),
    "hashmap.get.self_s": ("s", "lower"),
    "hashmap.get.hit_ratio": ("ratio", "higher"),
    "hashmap.put.calls": ("count", "lower"),
    "hashmap.max_chain": ("count", "lower"),
    "splitindex.build.self_s": ("s", "lower"),
    "splitindex.query.self_s": ("s", "lower"),
    "splitindex.entries_inspected": ("count", "lower"),
    "splitindex.length_matches": ("count", "lower"),
    "splitindex.verifications": ("count", "lower"),
    "splitindex.results": ("count", "higher"),
    "splitindex.verify_yield": ("ratio", "higher"),
    "splitindex.probed_list_entries": ("count", "lower"),
    "envelope.serialize.self_s": ("s", "lower"),
    "envelope.deserialize.self_s": ("s", "lower"),
    "envelope.file_bytes": ("bytes", "lower"),
    "envelope.model_bytes": ("bytes", "lower"),
    "tracing.query_qps_untraced": ("1/s", "higher"),
    "tracing.query_qps_traced": ("1/s", "higher"),
    "tracing.overhead": ("ratio", "lower"),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, workload, index, blob, qps_untraced, qps_traced) -> dict:
    total, counters = tracer.total, tracer.counters
    values = {}
    for layer in ("suffixbwt.sa", "suffixbwt.bwt", "suffixbwt.rank_build",
                  "suffixbwt.step", "suffixbwt.rank", "textcore.minimizers",
                  "textcore.phrases", "fmgram.build", "fmgram.get", "fmgram.list_rank",
                  "fmgram.count", "hashes", "hashmap.get", "splitindex.build",
                  "splitindex.query", "envelope.serialize", "envelope.deserialize"):
        values[f"{layer}.self_s"] = total(layer, 1)
    for layer in ("suffixbwt.step", "suffixbwt.rank", "textcore.minimizers",
                  "fmgram.entry_for", "fmgram.get", "fmgram.list_rank", "hashes",
                  "hashmap.get", "hashmap.put"):
        values[f"{layer}.calls"] = total(layer, 0)
    values["fmgram.get.hit_ratio"] = _ratio(counters["fmgram.get.hits"],
                                            values["fmgram.get.calls"])
    values["hashmap.get.hit_ratio"] = _ratio(counters["hashmap.get.hits"],
                                             values["hashmap.get.calls"])
    values["hashes.bytes"] = counters["hashes.bytes"]
    # Shares of the index's own count time (queries that fall back to the
    # plain FM index are outside it), inclusive of the layers below each.
    count_s = total("fmgram.count", 2, phase="query")
    under_count = lambda layer: total(layer, 2, phase="query", owner="fmgram.count")
    values["fmgram.count.minimizers_share"] = _ratio(under_count("textcore.minimizers"), count_s)
    values["fmgram.count.step_share"] = _ratio(under_count("suffixbwt.step"), count_s)
    values["fmgram.count.gram_share"] = _ratio(
        under_count("fmgram.get") + under_count("fmgram.list_rank"), count_s)
    for name in ("fmgram.lf_steps", "splitindex.entries_inspected",
                 "splitindex.length_matches", "splitindex.verifications",
                 "splitindex.results", "splitindex.probed_list_entries"):
        values[name] = counters[name]
    values["splitindex.verify_yield"] = _ratio(values["splitindex.results"],
                                               values["splitindex.verifications"])
    values.update({"fmgram.grams": 0, "fmgram.max_chain": 0, "hashmap.max_chain": 0})
    values.update(workload.structure(index))
    values["envelope.file_bytes"] = len(blob)
    values["envelope.model_bytes"] = index.size_in_bytes()
    values["tracing.query_qps_untraced"] = qps_untraced
    values["tracing.query_qps_traced"] = qps_traced
    values["tracing.overhead"] = _ratio(qps_untraced, qps_traced)
    return values


def run_traced(workload, seconds, trace_path):
    from textindex import envelope
    from tracer import Tracer

    loaded = envelope.deserialize_index(envelope.serialize_index(workload.build()))
    _, pass_times, attempted, failed, warm, drifted = closed_loop(
        lambda q: workload.query(loaded, q), workload.queries, seconds)
    mismatches = oracle_mismatches(workload, warm) + drifted
    del loaded
    gc.collect()

    tracer = Tracer()
    tracer.install()
    traced_passes = []
    try:
        with tracer.span("setup"):
            blob = envelope.serialize_index(workload.build())
        with tracer.span("load"):
            index = envelope.deserialize_index(blob)

        def traced_query(query):
            return workload.traced_query(index, query, tracer.counters)

        def traced_pass():
            nonlocal attempted
            answers = []
            for query in workload.queries:
                tracer.query_id = attempted
                attempted += 1
                with tracer.span("query"):
                    answers.append(_answer(traced_query, query))
            return answers

        for _ in range(TRACED_PASSES):
            answers, elapsed = timed(traced_pass)
            traced_passes.append(elapsed)
            failed += sum(1 for a in answers if a is _FAILED)
            mismatches += oracle_mismatches(workload, answers)
        tracer.query_id = None
    finally:
        tracer.uninstall()

    # Both as query_qps: queries over the median scaled pass time.
    n = len(workload.queries)
    values = layer_metrics(tracer, workload, index, blob,
                           n / statistics.median(pass_times),
                           n / statistics.median(traced_passes))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_path)
    metrics = {name: (values[name], TRACED_PASSES * n) for name in PER_LAYER}
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return metrics, units, attempted, failed, mismatches == 0


def run_one(args) -> int:
    if not (SRC / "textindex" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={platform.python_version()} "
          f"numpy={numpy.__version__}", flush=True)
    if args.trace:
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, units, attempted, failed, correct = run_traced(
            workload, args.seconds, trace_path)
        print(f"# spans written to {trace_path.relative_to(HERE.parent)}")
    else:
        metrics, units, attempted, failed, correct = run_end_to_end(workload, args.seconds)
    for name, (value, samples) in metrics.items():
        print(f"{name:34s} {value:16.6f} {units[name]:6s} n={samples}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args)
    # Each workload in its own process, so peak RSS is its own.
    worst = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        worst = max(worst, child.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
