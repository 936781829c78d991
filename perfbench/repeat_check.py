"""Check that every count and byte metric repeats exactly for a fixed seed.

    python3 perfbench/repeat_check.py --seed 1 --seconds 1

Runs run.py twice per workload with --trace 1 and twice with --trace 0, each
in its own process, and compares the metrics that do not depend on timing:
call counts, structure counts, byte sizes and the ratios of such counts.
Exits 1 if any differs between the two runs or any run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT_RATIOS = ("bytes_per_input_byte", "ok_ratio", "fmgram.get.hit_ratio",
                "hashmap.get.hit_ratio", "splitindex.verify_yield")


def exact_metrics(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: oracle mismatch")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes") or name in EXACT_RATIOS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(RUN.parent))
    from run import WORKLOAD_NAMES

    differing = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            first, second = (exact_metrics(workload, args.seed, args.seconds, trace)
                             for _ in range(2))
            for name in first:
                same = first[name] == second[name]
                differing += not same
                print(f"{workload:17s} {name:34s} {first[name]!r:>14} "
                      f"{second[name]!r:>14} {'same' if same else 'DIFFERS'}")
    print(f"{differing} metrics differ between runs")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
