"""Time `LinearIndex.count` against `FmIndex.count` per pattern length, for
one or more checkouts of the package, as markdown tables.

    python3 scripts/linear_parse_bench.py --src OLD/src --src src --rounds 5

Each text and alpha is a cell of `scripts/checkouts.py`, all at q 4:
1 MiB of `dna_like_text(seed)` at alpha 3 (the `fm-linear-dna` corpus),
and a repetitive text at alpha 3 and at alpha 16: 64 copies of
`dna_like_text(16 KiB, seed)`, each with 16 substitutions drawn from
`random.Random(5)`.  On the first, the backward-search interval holds one
row after about log_4 n symbols, and from there both counts run the same
one-row walk; on the second, it stays wide for hundreds of symbols, which
is where gram steps save character steps.

For each pattern length m, a cell draws PATTERNS present patterns
(`sample_patterns`, seed + m) and reports, per query, the fastest of
--passes passes of the linear index's `count` and of its own FM index's
`count`, the two alternating.  It checks that both counts agree on every
pattern and equal `naive_count` on every tenth, and exits non-zero if one
does not.  It reports the format version and a SHA-256 of the serialized
index file, which the last table lists.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time

from checkouts import compare, fastest, first, table

CELLS = ["dna-a3", "repetitive-a3", "repetitive-a16"]
LENGTHS = (16, 64, 256)
PATTERNS = 400


def repetitive_text(seed: int) -> bytes:
    """64 copies of `dna_like_text(16 KiB, seed)`, each with 16 symbols
    changed to another of ACGT, drawn from `random.Random(5)`."""
    from textindex.harness import dna_like_text

    unit = dna_like_text(16 * 1024, seed=seed)
    rng = random.Random(5)
    copies = []
    for _ in range(64):
        copy = bytearray(unit)
        for _ in range(16):
            at = rng.randrange(len(copy))
            copy[at] = rng.choice(b"ACGT".replace(bytes([copy[at]]), b""))
        copies.append(bytes(copy))
    return b"".join(copies)


def pass_us(count, patterns) -> float:
    """One pass of `count` over `patterns`, in µs per query."""
    t0 = time.perf_counter()
    for pattern in patterns:
        count(pattern)
    return 1e6 * (time.perf_counter() - t0) / len(patterns)


def worker(args) -> dict:
    from textindex.envelope import FORMAT_VERSION, serialize_index
    from textindex.fmgram import LinearIndex
    from textindex.harness import dna_like_text, naive_count, sample_patterns
    from textindex.textcore import Corpus

    name, alpha = args.cell.split("-a")
    text = dna_like_text(1 << 20, seed=args.seed) if name == "dna" else repetitive_text(args.seed)
    index = LinearIndex.build(Corpus.from_bytes(text), int(alpha), 4)
    data = serialize_index(index)
    result = {"grams": len(index.directory), "bytes": len(data), "format": FORMAT_VERSION,
              "digest": hashlib.sha256(data).hexdigest()}
    for m in LENGTHS:
        patterns = sample_patterns(text, PATTERNS, [m], seed=args.seed + m, miss_ratio=0)
        counts = [index.count(p) for p in patterns]
        if counts != [index.fm.count(p) for p in patterns] or any(
                counts[i] != naive_count(text, patterns[i]) for i in range(0, PATTERNS, 10)):
            sys.exit(f"{args.cell}: a count at m {m} differs from the oracle")
        linear, fm = [], []
        for _ in range(args.passes):
            linear.append(pass_us(index.count, patterns))
            fm.append(pass_us(index.fm.count, patterns))
        result[f"linear_us_{m}"], result[f"fm_us_{m}"] = min(linear), min(fm)
    return result


if __name__ == "__main__":
    args, runs = compare(__doc__, CELLS, worker, passes=7)
    for m in LENGTHS:
        table(f"m {m}, µs/query", CELLS, args, runs,
              [("`LinearIndex`", fastest(f"linear_us_{m}", "{:.1f}")),
               ("`FmIndex`", fastest(f"fm_us_{m}", "{:.1f}"))])
        print()
    table("text", CELLS, args, runs,
          [("format", first("format")), ("file SHA-256", first("digest"))],
          shared=[("grams", first("grams", "{:,}")), ("file bytes", first("bytes", "{:,}"))])
