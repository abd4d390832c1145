"""Run-to-run spread of the end-to-end metrics over a set of seeds.

    python3 perfbench/steadiness.py --workload NAME --seeds 1-10 [--seconds S]

Runs run.py once per seed (untraced, S defaulting to BENCHMARK.json's
run_seconds) and prints, for each end-to-end metric, the median, the first
and third quartiles (statistics.quantiles(n=4)) and the spread: the
interquartile distance as a share of the median, to compare with the
metric's bound.  The last line is the whole table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
        print(json.dumps({"seed": seed, **runs[-1]}), file=sys.stderr, flush=True)
    table = {"workload": args.workload, "seeds": args.seeds,
             "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
             "correct": all(r["correct"] for r in runs), "metrics": {}}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        table["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / med, "bound": m["bound"],
                                       "values": values}
        print(f"{m['name']:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {(q3 - q1) / med:.3f} (bound {m['bound']})")
    print(json.dumps(table))


if __name__ == "__main__":
    main()
