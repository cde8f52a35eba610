"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads W ...] [--seeds 1 2 ...]
        [--seconds 30] [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints (or writes to ``--out``) per workload and metric the ten values,
their median, quartiles and the spread (third minus first quartile, as a
share of the median), the way the benchmark's bounds are checked.
baseline.json holds two such sets, seeds 1-10 and 11-20, of the commit that
added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().with_name("run.py")


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1].items()), file=sys.stderr)
        report[name] = {
            key: {"unit": runs[0][key]["unit"],
                  **summarize([r[key]["value"] for r in runs])}
            for key in runs[0]
        }
    text = json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                       "workloads": report}, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
