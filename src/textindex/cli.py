"""Command-line workbench: build, query, verify and benchmark the indexes.

Exit codes: 0 success, 1 runtime failure (including verification
discrepancies), 2 usage error.  All behaviour is controlled by flags alone
so runs are reproducible; environment variables are deliberately ignored.
"""

from __future__ import annotations

import argparse
import os
import sys

from .envelope import load_index, save_index
from .fmgram import LinearIndex, SuperlinearIndex
from .harness import (BENCH_CSV_COLUMNS, BenchConfig, NaiveHammingSearcher,
                      generate_noisy_queries, load_corpus, load_dictionary,
                      load_queries, naive_count, run_bench, sample_patterns)
from .splitindex import MAX_K, Dictionary, SplitIndex, select_qgrams
from .suffixbwt import bwt_inverse
from .textcore import FrequencyTable, entropy, printable


# Pattern lengths that `verify --random` samples for FM indexes: Fibonacci
# numbers from 1, which fits a one-symbol text, up to 233, which checks long
# patterns that spend most of their steps on one row.  A linear index also
# gets the lengths of one minimizer window and one more: shorter patterns are
# counted by plain FM steps, and these are the shortest that take the gram
# loop.  Lengths past the text are dropped.
VERIFY_LENGTHS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textindex",
        description="Build, query, verify and benchmark string indexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build an index file from a corpus or dictionary")
    build.add_argument("--type", required=True, choices=["split", "fm-super", "fm-linear"])
    build.add_argument("--input", required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--k", type=int, default=1, help="allowed mismatches (split)")
    build.add_argument("--qmax", type=int, default=128, help="largest gram length (fm-super)")
    build.add_argument("--alpha", type=int, default=3, help="grams per minimizer window (fm-linear)")
    build.add_argument("--q", type=int, default=4, help="minimizer gram length (fm-linear)")
    build.add_argument("--compress", action="store_true",
                       help="substitution-code the stored pieces (split)")

    query = sub.add_parser("query", help="run queries against an index file")
    query.add_argument("--index", required=True)
    query.add_argument("--pattern", help="a single query pattern")
    query.add_argument("--queries", help="file of newline-separated patterns")
    query.add_argument("--op", choices=["match", "count", "words"], default=None)

    verify = sub.add_parser("verify", help="replay queries against the index and a brute-force oracle")
    verify.add_argument("--index", required=True)
    verify.add_argument("--queries")
    verify.add_argument("--random", type=int, default=None, metavar="N")
    verify.add_argument("--seed", type=int, default=0)

    stats = sub.add_parser("stats", help="symbol frequencies and entropy of a file")
    stats.add_argument("--input", required=True)

    bench = sub.add_parser(
        "bench", help="benchmark a structure, CSV on stdout",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(f"CSV columns: {', '.join(BENCH_CSV_COLUMNS)}.\n"
                "Query timings cover everything from pattern bytes to the "
                "result set, including pattern splitting and hashing; a "
                "warm-up pass runs first and is excluded from the averages."))
    bench.add_argument("--type", required=True, choices=["split", "fm-super", "fm-linear"])
    bench.add_argument("--input", required=True)
    bench.add_argument("--queries")
    bench.add_argument("--random", type=int, default=1000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--repeats", type=int, default=100)
    bench.add_argument("--k", default="1", help="comma-separated k values (split)")
    bench.add_argument("--qmax", type=int, default=128)
    bench.add_argument("--alpha", type=int, default=3)
    bench.add_argument("--q", type=int, default=4)
    bench.add_argument("--compress", action="store_true")
    bench.add_argument("--lengths", default="8,16,32",
                       help="comma-separated pattern lengths, one row each (fm kinds)")
    return parser


def _cmd_build(args) -> int:
    if args.type == "split":
        if not 1 <= args.k <= MAX_K:
            bound = "be at least 1" if args.k < 1 else f"be at most {MAX_K}"
            print(f"error: --k must {bound} for the split index", file=sys.stderr)
            return 2
        dictionary, load_stats = load_dictionary(args.input)
        substitution = select_qgrams(dictionary) if args.compress else None
        index = SplitIndex.build(dictionary, args.k, substitution)
        save_index(index, args.out)
        # A word of k symbols or fewer has no k+1 pieces; the others are
        # listed once per piece.
        indexed = sum(len(word) > args.k for word in dictionary)
        print(f"split index: k={args.k} words={indexed} "
              f"skipped={len(dictionary) - indexed} entries={(args.k + 1) * indexed}")
        print(f"rejected lines: overlong={load_stats.rejected_overlong} "
              f"bad-bytes={load_stats.rejected_bad_bytes} empty={load_stats.rejected_empty}")
        layout = index.piece_layout()
        print(f"size={index.size_in_bytes()} bytes load-factor={layout['load_factor']:.3f} "
              f"buckets={layout['buckets']} compressed={substitution is not None}")
        return 0
    corpus = load_corpus(args.input)
    if args.type == "fm-super":
        index = SuperlinearIndex.build(corpus, args.qmax)
        extra = f"q_max={index.q_max}"
    else:
        index = LinearIndex.build(corpus, args.alpha, args.q)
        extra = f"alpha={index.alpha} q={index.q}"
    save_index(index, args.out)
    directory = index.directory
    print(f"{args.type} index: n={corpus.n} {extra} grams={len(directory)}")
    print(f"size={index.size_in_bytes()} bytes file={os.path.getsize(args.out)} bytes "
          f"load-factor={directory.load_factor:.3f} buckets={directory.bucket_count}")
    return 0


def _cmd_query(args, parser) -> int:
    if (args.pattern is None) == (args.queries is None):
        parser.error("provide exactly one of --pattern or --queries")
    index = load_index(args.index)
    if args.pattern is not None:
        patterns = [args.pattern.encode("latin-1")]
    else:
        patterns = load_queries(args.queries)

    failed = False
    if isinstance(index, SplitIndex):
        op = args.op or "words"
        for pattern in patterns:
            try:
                words = index.query(pattern)
            except ValueError as exc:
                print(f"error: {exc}")
                failed = True
                continue
            if op == "words":
                print("\t".join(sorted(w.decode("latin-1") for w in words)))
            elif op == "count":
                print(len(words))
            else:
                print(1 if words else 0)
        return 1 if failed else 0

    op = args.op or "count"
    if op == "words":
        parser.error("--op words is only supported by split indexes")
    for pattern in patterns:
        try:
            count = index.count(pattern)
        except ValueError as exc:
            print(f"error: {exc}")
            failed = True
            continue
        print(count if op == "count" else (1 if count else 0))
    return 1 if failed else 0


def _cmd_verify(args, parser) -> int:
    if (args.queries is None) == (args.random is None):
        parser.error("provide exactly one of --queries or --random N")
    if args.random is not None and args.random < 1:
        print("error: --random must be at least 1", file=sys.stderr)
        return 2
    index = load_index(args.index)
    discrepancies = 0
    total = 0

    if isinstance(index, SplitIndex):
        words = sorted(set(index.reconstruct_words()))
        dictionary = Dictionary(words)
        oracle = NaiveHammingSearcher(dictionary)
        if args.queries:
            patterns = load_queries(args.queries)
        else:
            patterns = list(generate_noisy_queries(dictionary, args.random,
                                                   seed=args.seed).queries)
        for pattern in patterns:
            if len(pattern) < index.k + 1:
                continue
            total += 1
            if index.query(pattern) != oracle.search(pattern, index.k):
                discrepancies += 1
    else:
        # A linear index keeps no corpus: its text comes back from its BWT,
        # which `bwt_inverse` refuses if it is no text's.
        corpus = index.corpus if isinstance(index, SuperlinearIndex) else bwt_inverse(index.fm.l)
        text = corpus.text
        if args.queries:
            patterns = load_queries(args.queries)
        else:
            lengths = VERIFY_LENGTHS
            if isinstance(index, LinearIndex):
                window = index.q + index.alpha - 1
                lengths = sorted({*lengths, window, window + 1})
            patterns = sample_patterns(text, args.random, lengths, seed=args.seed)
        for pattern in patterns:
            total += 1
            if index.count(pattern) != naive_count(text, pattern):
                discrepancies += 1

    if total == 0:
        # Only a split index skips patterns: those shorter than k + 1.
        need = f" with at least {index.k + 1} symbols" if patterns else ""
        print(f"error: no query{need} to check", file=sys.stderr)
        return 1
    print(f"{discrepancies} discrepancies over {total} queries")
    return 0 if discrepancies == 0 else 1


def _cmd_stats(args) -> int:
    with open(args.input, "rb") as handle:
        data = handle.read()
    if not data:
        print("error: input file is empty", file=sys.stderr)
        return 1
    table = FrequencyTable.from_bytes(data)
    probs = table.probabilities()
    print("symbol\tcount\tprobability")
    for sym in sorted(table.counts):
        label = printable(bytes([sym])) if 0x21 <= sym <= 0x7E or sym == 0 else f"0x{sym:02x}"
        print(f"{label}\t{table.counts[sym]}\t{probs[sym]:.6f}")
    print(f"entropy\t{entropy(table):.6f}\tbits/symbol")
    return 0


def _positive_ints(flag: str, text: str) -> tuple[int, ...] | None:
    """The comma-separated positive integers of `text`, or None, after one
    `error:` line naming `flag`, if it holds anything else or none."""
    try:
        values = tuple(int(item) for item in text.split(","))
    except ValueError:
        values = ()
    if values and min(values) > 0:
        return values
    print(f"error: {flag} takes comma-separated positive integers, not {text!r}",
          file=sys.stderr)
    return None


def _cmd_bench(args) -> int:
    if args.repeats < 1:
        print("error: --repeats must be at least 1", file=sys.stderr)
        return 2
    if args.random < 0:
        print("error: --random must not be negative", file=sys.stderr)
        return 2
    k_values = _positive_ints("--k", args.k)
    lengths = _positive_ints("--lengths", args.lengths)
    if k_values is None or lengths is None:
        return 2
    if args.type == "split" and max(k_values) > MAX_K:
        print(f"error: --k must be at most {MAX_K} for the split index", file=sys.stderr)
        return 2
    config = BenchConfig(
        structure=args.type,
        input_path=args.input,
        queries_path=args.queries,
        random_queries=args.random,
        seed=args.seed,
        repeats=args.repeats,
        k_values=k_values,
        q_max=args.qmax,
        alpha=args.alpha,
        q=args.q,
        compress=args.compress,
        pattern_lengths=lengths)
    report = run_bench(config)
    sys.stdout.write(report.to_csv())
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("build", "bench") and (
            args.qmax < 1 or args.qmax & (args.qmax - 1) or min(args.alpha, args.q) < 1):
        print("error: --qmax must be a positive power of two, and --alpha and --q "
              "at least 1", file=sys.stderr)
        return 2
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "query":
            return _cmd_query(args, parser)
        if args.command == "verify":
            return _cmd_verify(args, parser)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "bench":
            return _cmd_bench(args)
        parser.error(f"unknown command {args.command!r}")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # last resort: one line, never a traceback
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
