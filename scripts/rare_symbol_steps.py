"""Time FM counts whose last backward step meets a rare symbol.

The corpus is b"Z" + dna_like_text(size, seed): `Z` occurs once, so each
pattern below narrows to a wide interval of DNA rows and then steps on `Z`,
which mostly does not occur there.  Such a step is the worst case for a
scan: it reads the whole interval before it can say "empty".

Run from the repository root:

    PYTHONPATH=src python3 scripts/rare_symbol_steps.py --mib 1 8 --seed 1

Each row is one corpus size and pattern: the count (checked against
`harness.naive_count`) and the best of `--passes` passes of `--repeats`
counts each, in µs per count.  An 8 MiB corpus takes a few seconds and
about 0.5 GiB at peak to build.
"""

from __future__ import annotations

import argparse
import time

from textindex.harness import dna_like_text, naive_count
from textindex.suffixbwt import FmIndex
from textindex.textcore import Corpus

PATTERNS = (b"ZG", b"ZT", b"ZGA", b"ZTT")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mib", type=int, nargs="+", default=[1, 8])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=50)
    args = parser.parse_args()
    print("MiB\tpattern\tcount\tus_per_count")
    for mib in args.mib:
        text = b"Z" + dna_like_text(mib << 20, seed=args.seed)
        fm = FmIndex.build(Corpus.from_bytes(text))
        for pattern in PATTERNS:
            count = fm.count(pattern)
            if count != naive_count(text, pattern):
                raise SystemExit(f"wrong count for {pattern!r} at {mib} MiB")
            best = float("inf")
            for _ in range(args.passes):
                start = time.perf_counter()
                for _ in range(args.repeats):
                    fm.count(pattern)
                best = min(best, time.perf_counter() - start)
            print(f"{mib}\t{pattern.decode()}\t{count}\t{best / args.repeats * 1e6:.1f}")
        del fm, text


if __name__ == "__main__":
    main()
