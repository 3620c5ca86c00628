"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload cli --seeds 1 2 3 4 5

Runs run.py with --trace 0 and BENCHMARK.json's run_seconds. Prints, per
metric, the median, the quartiles and the quartile spread
(distance between the first and third quartile over the median), the
figure BENCHMARK.json's bounds are judged against, then one JSON line.
The JSON line also summarises the numeric notes of run.py's table, such
as the figures as measured, before scaling to the reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["notes"] = {}
        for line in lines[:-1]:
            fields = line.split()
            if line.startswith("  ") and len(fields) == 2 and fields[0] not in result["metrics"]:
                with contextlib.suppress(ValueError):
                    result["notes"][fields[0]] = float(fields[1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed",
                  file=sys.stderr)
        runs.append(result)
    summary = {}
    for group in ("metrics", "notes"):
        summary[group] = {}
        for name in runs[0][group]:
            values = [r[group][name]["value"] if group == "metrics" else r[group][name]
                      for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = metrics.quartile_spread(values) if median else 0.0
            summary[group][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                    "values": values}
            print(f"{name:40s} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:.4f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                      "correct": all(r["correct"] for r in runs), **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
