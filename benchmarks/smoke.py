"""Smoke test of the benchmark itself, at a tiny size (about two minutes).

  python3 benchmarks/smoke.py

Checks that
1. ``run.py --workload all --size tiny`` passes the gate and prints every
   metric named in BENCHMARK.json, and every other reported metric, with
   its unit;
2. run.py exits 1 with "correct": false when the gate fails, here against a
   reference whose SER values p are replaced by 1 - p;
3. run.py exits 2 without a result in a tree that holds only BENCHMARK.json
   and the benchmark's own directory.
Exits 0 when all three hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import UNITS, WORK
from sweep import ROOT

HERE = Path(__file__).resolve().parent


def run(args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def main() -> int:
    failures = []

    proc = run(["--workload", "all", "--size", "tiny", "--seconds", "1"])
    print(proc.stdout)
    if proc.returncode != 0:
        failures.append(f"tiny run of all workloads exited {proc.returncode}")
    rows = {line.split()[0]: line.split()[-1] for line in proc.stdout.splitlines()
            if line and not line.startswith("#")}
    for name, unit in UNITS.items():
        if rows.get(name) != unit:
            failures.append(f"metric {name} [{unit}] not printed")

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        reference = json.loads((HERE / "reference.json").read_text())
        link = reference["link_level"]
        header, *lines = link["csv"].splitlines()
        flipped = []
        for line in lines:
            snr, ser, trials, seed = line.split(",")
            flipped.append(f"{snr},{1.0 - float(ser)},{trials},{seed}")
        link["csv"] = "\n".join([header, *flipped]) + "\n"
        bad = Path(tmp) / "reference.json"
        bad.write_text(json.dumps(reference))
        proc = run(["--workload", "link-scma", "--size", "tiny", "--seconds",
                    "0.1", "--reference", str(bad)])
        last = proc.stdout.strip().splitlines()[-1]
        if proc.returncode != 1 or json.loads(last)["correct"] is not False:
            failures.append(f"a failing gate gave exit {proc.returncode}: {last}")

        bare = Path(tmp) / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(["--workload", "link-scma", "--seed", "1"], cwd=bare,
                   script=bare / HERE.name / "run.py")
        if proc.returncode != 2 or proc.stdout.strip():
            failures.append(f"a tree without sources gave exit {proc.returncode}")
    try:
        WORK.rmdir()
    except OSError:
        pass

    for failure in failures:
        print(f"SMOKE FAIL: {failure}")
    print("smoke: ok" if not failures else "smoke: FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
