"""Run-to-run spread of the end-to-end metrics over several seeds.

  python3 benchmarks/spread.py --seeds 10 [--json FILE]

Runs run.py once per seed (1..N) and workload, with run_seconds from
BENCHMARK.json, and prints for each metric the median, the quartiles and the
spread (q3 - q1) / median next to the metric's bound. A spread above a third
of its bound is flagged. Then one traced run (seed 1) per workload gives the
per-layer metrics. --json writes all of it with the environment, as recorded
in baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, environment
from sweep import ROOT

RUN = Path(__file__).with_name("run.py")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    workloads = [w["name"] for w in BENCH["workloads"]]

    record = {"environment": environment(1)}
    for workload in workloads:
        values = {name: [] for name in bounds}
        failed = 0
        for seed in range(1, args.seeds + 1):
            result = run(workload, seed, BENCH["run_seconds"], 0)
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        record[workload] = {"seeds": args.seeds, "failed_sweeps": failed}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[name] / 3 else "  > bound/3"
            print(f"  {name:14} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bounds[name]}{flag}")
            record[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": spread, "values": vals}
    for workload in workloads:
        result = run(workload, 1, BENCH["run_seconds"], 1)
        record[workload]["traced_seed_1"] = {
            name: m["value"] for name, m in result["metrics"].items()}
        record[workload]["failed_sweeps"] += result["failed"]
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
