"""Benchmark of the unoma simulator's Monte-Carlo sweeps.

  python3 benchmarks/run.py --workload alloc-fig5 --seed 1 --seconds 20 --trace 0
  python3 benchmarks/run.py --workload all --size tiny --seconds 1

A run measures one workload in fresh processes. With --trace 0, the
measuring process repeats the workload's sweep through
unoma.engine.run_experiment for --seconds and reports the median sweep;
setup_s, the import of unoma plus the validation of the config, is the median
of five fresh processes: that one and two probes on each side of it. Both are
scaled to the host's usual speed by the median time of a calibration loop run
in the same processes (sweep.calibrate); the report also gives them unscaled,
as raw_*.
With --trace 1 the measuring process wraps the simulator's functions in
timers instead and reports the per-layer metrics. Every sweep's
CSV goes through the correctness gate (gate.py).

The report goes to stdout; its last line is the JSON object
{"correct", "attempted", "failed", "metrics"}. ``--workload all`` measures
every workload, untraced and then traced, and prints every report.
Exit status: 0 when every sweep passed the gate; 1 when a sweep failed it,
raised or ran out of time; 2 when the simulator's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
from sweep import CALIBRATION_REF_S, ROOT, SRC, WORKLOADS

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
# Printed in the report only: error_rate is 0 on a correct program.
UNITS.update(error_rate="ratio", raw_setup_s="s", raw_wall_s="s",
             raw_trials_per_s="1/s", calibration_s="s")
# The value of a result-quality mean on a workload whose CSV lacks it.
NEUTRAL_QUALITY = 1.0
SETUP_PROBES = 4
PROBE_LIMIT_S = 15.0
# The measuring process overruns --seconds by its set-up and up to half a
# sweep; the margin leaves room for sweeps of up to about a minute.
MARGIN_S = 60.0
SWEEP = Path(__file__).with_name("sweep.py")
WORK = ROOT / ".bench_out"


class ChildFailed(RuntimeError):
    pass


def child(args: list, timeout: float) -> dict:
    """Run sweep.py in a fresh process (and session, so that a timeout also
    ends its pool workers) and return the JSON of its last stdout line."""
    proc = subprocess.Popen([sys.executable, str(SWEEP), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"sweep.py did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise ChildFailed(f"sweep.py exited with {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg_1m": os.getloadavg()[0], "seed": seed}


def summary(values: list) -> tuple:
    """(median, first quartile, third quartile, samples)."""
    if len(values) < 2:
        return (values[0], values[0], values[0], len(values))
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (statistics.median(values), q1, q3, len(values))


def measure(workload: str, seed: int, seconds: float, trace: int, size: str,
            reference: Path) -> tuple[dict, list[str]]:
    """One run. Returns (result object, report lines)."""
    env = environment(seed)
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    WORK.mkdir(exist_ok=True)
    lines = [f"# workload={workload} seed={seed} trace={trace} size={size} "
             f"seconds={seconds:g}"]

    def probes():  # half before the measuring process, half after it
        return [child(common + ["--probe"], PROBE_LIMIT_S)
                for _ in range(0 if trace else SETUP_PROBES // 2)]

    try:
        setup = probes()
        with tempfile.TemporaryDirectory(dir=WORK) as out:
            r = child(common + ["--seconds", str(seconds), "--trace", str(trace),
                                "--out", out, "--reference", str(reference)],
                      seconds + MARGIN_S)
        setup += probes()
    except ChildFailed as exc:
        lines.append(f"# FAILED: {exc}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, lines
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    env.update(r["versions"], workers=r["workers"])
    lines.append("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    rows = {}  # name -> (median, q1, q3, samples); q1 None: one value
    if trace:
        for metric in BENCH["per_layer"]:
            value, samples = r["layers"][metric["name"]]
            rows[metric["name"]] = (value, None, None, samples)
    else:
        cals = [p["calibration_s"] for p in setup] + r["calibrations"]
        scale = CALIBRATION_REF_S / statistics.median(cals)
        setup = [p["setup_s"] for p in setup] + [r["setup_s"]]
        work = r["points"] * r["trials"]
        rows["setup_s"] = summary([t * scale for t in setup])
        rows["wall_s"] = summary([w * scale for w in r["walls"]])
        rows["trials_per_s"] = summary([work / (w * scale) for w in r["walls"]])
        rows["peak_rss_mb"] = (r["peak_rss_mb"], None, None, 1)
        for name in ("sum_rate_mean", "fairness_mean", "ser_mean"):
            rows[name] = (r["quality"].get(name, NEUTRAL_QUALITY), None, None, 1)
        rows["error_rate"] = (r["failed"] / r["attempted"], None, None,
                              r["attempted"])
        rows["raw_setup_s"] = summary(setup)
        rows["raw_wall_s"] = summary(r["walls"])
        rows["raw_trials_per_s"] = summary([work / w for w in r["walls"]])
        rows["calibration_s"] = summary(cals)
        lines.append(f"# {r['points']} points x {r['trials']} trials per sweep")
    lines.append(f"{'metric':44} {'median':>14} {'q1':>14} {'q3':>14} "
                 f"{'n':>7}  unit")
    for name, (med, q1, q3, n) in rows.items():
        q1, q3 = ("", "") if q1 is None else (f"{q1:.6g}", f"{q3:.6g}")
        lines.append(f"{name:44} {med:14.6g} {q1:>14} {q3:>14} {n:7d}  "
                     f"{UNITS[name]}")
    lines.append(f"# gate: {r['failed']} of {r['attempted']} sweeps failed")
    lines += [f"# gate: {p}" for p in r["problems"]]
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    result = {
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {m["name"]: {"value": rows[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few trials per point, for smoke runs")
    parser.add_argument("--reference", type=Path, default=gate.REFERENCE,
                        help="reference values for the correctness gate")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "unoma" / "__init__.py").is_file():
        print(f"no unoma sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result, lines = measure(args.workload, args.seed, args.seconds,
                                args.trace, args.size, args.reference)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1

    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, lines = measure(workload, args.seed, args.seconds, trace,
                                    args.size, args.reference)
            print("\n".join(lines) + "\n", flush=True)
            correct &= result["correct"]
    print("all workloads passed the gate" if correct
          else "a workload FAILED the gate")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
