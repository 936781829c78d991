"""Run a benchmark script's cells for one or more checkouts of the package
and print the results as markdown tables.

    python3 scripts/SCRIPT.py --src OLD/src --src src --rounds 5

A cell is one input or configuration of a script.  Each (checkout, cell)
pair runs in its own process, which puts the checkout's `src` first on
`sys.path`, does the cell's work and prints its result as one JSON line.
A round runs the cells in turn, each for every checkout, so two checkouts
share the host's slow and fast spells.  A table shows each cell's fastest
time over the rounds, since other tenants of a shared host only ever slow
a pass down.  Times are raw, not scaled to a reference host.

A result's `digest` fingerprints what the cell made (file bytes or a
suffix array).  The command exits non-zero if a cell fails, with one line
that names the cell, the checkout and the last line the cell wrote to
stderr, or if two checkouts of one format version give different digests
for a cell; the results without a `format` form one group.  Each checkout
is named once, and must be a directory: a repeated --src is refused,
since its runs would merge into one column, and so is one that is no
directory, with a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def compare(doc: str, cells: list[str], worker, **int_options: int):
    """Parse the command line and run every cell for every checkout.

    `int_options` maps each of the script's own integer options to its
    default; children get them and --seed.  In a child (the hidden --cell
    flag) this prints `worker(args)` as JSON and exits.  In the parent it
    returns `(args, runs)`, with `runs[cell, src]` the cell's results in
    round order, after the digest check."""
    parser = argparse.ArgumentParser(description=doc.split("\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a checkout's src directory; repeat to compare")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    for name, default in int_options.items():
        parser.add_argument(f"--{name}", type=int, default=default)
    parser.add_argument("--cell", choices=cells, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if len(set(args.src)) != len(args.src):
        parser.error("each --src may be given once")
    for src in args.src:
        if not os.path.isdir(src):
            parser.error(f"--src {src} is not a directory")
    if args.cell is not None:
        sys.path.insert(0, args.src[0])
        print(json.dumps(worker(args)))
        sys.exit()
    options = [f"--{name}={getattr(args, name)}" for name in ("seed", *int_options)]
    runs: dict[tuple[str, str], list[dict]] = {}
    for _ in range(args.rounds):
        for cell in cells:
            for src in args.src:
                done = subprocess.run(
                    [sys.executable, sys.argv[0], "--src", src, "--cell", cell, *options],
                    capture_output=True, text=True)
                if done.returncode != 0:
                    error = (done.stderr.strip().splitlines() or ["no error output"])[-1]
                    sys.exit(f"{cell}: the checkout {src} failed: {error}")
                runs.setdefault((cell, src), []).append(json.loads(done.stdout))
    for cell in cells:
        results = [run for src in args.src for run in runs[cell, src]]
        for version in {run.get("format") for run in results}:
            digests = {run["digest"] for run in results if run.get("format") == version}
            if len(digests) != 1:
                checkouts = "checkouts" if version is None else f"format {version} checkouts"
                sys.exit(f"{cell}: the {checkouts} gave {len(digests)} different digests")
    return args, runs


def table(label: str, cells: list[str], args, runs, columns, shared=()) -> None:
    """Print one markdown row per cell: for each checkout, one column per
    `(title, show)` pair of `columns`, where `show` formats the cell's runs;
    then one column per pair of `shared`, shown for the first checkout."""
    titles = [f"{title} {src}" for src in args.src for title, _ in columns]
    titles += [title for title, _ in shared]
    print(f"| {label} | " + " | ".join(titles) + " |")
    print("|---|" + "---|" * len(titles))
    for cell in cells:
        row = [show(runs[cell, src]) for src in args.src for _, show in columns]
        row += [show(runs[cell, args.src[0]]) for _, show in shared]
        print(f"| {cell} | " + " | ".join(row) + " |")


def fastest(key: str, form: str = "{:.2f}"):
    """The least of the runs' `key` values, or "–" if every one is None."""
    def show(runs):
        values = [run[key] for run in runs if run[key] is not None]
        return form.format(min(values)) if values else "–"
    return show


def spread(key: str, form: str):
    """The median of the runs' `key` values, then their least and greatest
    in brackets."""
    def show(runs):
        values = [run[key] for run in runs]
        return (f"{form.format(statistics.median(values))} "
                f"({form.format(min(values))}–{form.format(max(values))})")
    return show


def first(key: str, form: str = "{}"):
    """The first run's `key` value."""
    return lambda runs: form.format(runs[0][key])
