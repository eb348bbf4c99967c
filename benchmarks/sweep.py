"""One workload measured inside one fresh process; run.py starts it.

  python3 benchmarks/sweep.py --workload W --seed N --seconds S --trace 0|1 \
      --size full|tiny --out DIR
  python3 benchmarks/sweep.py --probe --workload W --seed N --size full

The first form sweeps the workload's config through
``unoma.engine.run_experiment`` again and again for S seconds and prints one
JSON object (wall and calibration times, peak memory, gate verdicts, and with
--trace 1 the per-layer metrics) as its last stdout line. ``--probe`` only
imports the simulator and validates the config, and prints the time that took
and one calibration time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import gate
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LINK_SCMA = {
    "kind": "link_level", "name": "link-scma", "scheme": "scma",
    "k": 4, "n": 6, "q": 4, "matrix_params": {"column_weight": 2},
    "max_iters": 8, "sweep": {"variable": "snr_db", "values": [0, 4, 8, 12]},
}

# name -> (preset name or config, workers, trials per sweep point by size).
# One sweep takes 1 to 4 s on a 2-CPU Xeon, so a run repeats it many times.
WORKLOADS = {
    "assoc-fig4": ("fig4", 1, {"full": 1000, "tiny": 100}),
    "alloc-fig5": ("fig5", 1, {"full": 8, "tiny": 1}),
    "alloc-fig5-w2": ("fig5", 2, {"full": 8, "tiny": 1}),
    "link-scma": (LINK_SCMA, 1, {"full": 1500, "tiny": 100}),
}

# Time of calibrate() on a 2-CPU Xeon at its usual speed. Timings are scaled
# by CALIBRATION_REF_S / (calibrate() during the run): on a shared host the
# same code runs up to 1.6x slower for minutes at a time, and the scaled
# timings estimate what the host would give at its usual speed.
CALIBRATION_REF_S = 0.1


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's present speed at
    interpreting bytecode, which is where most of a sweep's time goes."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def set_up(workload: str, seed: int, size: str):
    """Import the simulator and build the validated config: what a fresh
    process pays before its first sweep. Returns (config, setup_s,
    validate_s), validate_s being the final validate_config call alone."""
    t0 = time.perf_counter()
    import unoma.engine
    from unoma.config import preset_config, validate_config
    if not Path(unoma.engine.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"unoma was imported from {unoma.engine.__file__}, "
                         f"not from {SRC}")
    base, workers, trials = WORKLOADS[workload]
    data = dict(preset_config(base).data) if isinstance(base, str) else dict(base)
    data.update(seed=seed, trials=trials[size], workers=workers)
    t1 = time.perf_counter()
    config = validate_config(data)
    t2 = time.perf_counter()
    return config, t2 - t0, t2 - t1


@contextmanager
def pool_peaks(out: Path, peaks: list):
    """Wrap unoma.engine._run_point for the block so that each pool worker
    forked inside it writes its own peak RSS (KiB) to a file named by its
    pid; at the end append the sum over the workers to peaks. RUSAGE_CHILDREN
    would give only the largest worker's peak."""
    import unoma.engine
    where = Path(tempfile.mkdtemp(dir=out))

    def record(args, result, elapsed):
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        (where / str(os.getpid())).write_text(str(rss))

    try:
        with Tracer().installed([(unoma.engine, "_run_point", "engine.point",
                                  record)]):
            yield
        peaks.append(sum(int(f.read_text()) for f in where.iterdir()))
    finally:
        shutil.rmtree(where)


def repeat(config, out, budget: float, workers: int, cals=None, peaks=None):
    """Run the sweep again and again, at least once, and stop where another
    sweep would end more than half a sweep past budget seconds. Returns the
    wall time and CSV text of each sweep. Given a list, cals receives the
    time of calibrate() before the first sweep and after each one, and peaks
    the summed peak RSS (KiB) of each sweep's pool workers."""
    from unoma.engine import run_experiment
    walls, csvs = [], []
    start = time.perf_counter()
    if cals is not None:
        cals.append(calibrate())
    while not walls or time.perf_counter() - start + walls[-1] / 2 < budget:
        t0 = time.perf_counter()
        with pool_peaks(out, peaks) if peaks is not None else nullcontext():
            csv_path, _, _ = run_experiment(config, out, workers=workers)
        walls.append(time.perf_counter() - t0)
        csvs.append(csv_path.read_text())
        if cals is not None:
            cals.append(calibrate())
    return walls, csvs


def layer_targets(sca: list, mpa: list):
    """Everything the traced run wraps, in the namespaces it is called from."""
    import unoma.allocation
    import unoma.association
    import unoma.engine

    def on_sca(args, solution, elapsed):
        sca.append((solution.iterations, solution.converged))

    def on_mpa(args, result, elapsed):
        received, matrix, codebook = args[:3]
        degrees = [int(d) for d in matrix.occupancy.sum(axis=1) if d > 0]
        combos = sum(codebook.q ** d for d in degrees)
        # complex128 log-likelihood per vector and row combination
        mpa.append((len(received), result[2], len(received) * combos * 16))

    e, a, s = unoma.engine, unoma.allocation, unoma.association
    return [
        (e, "association_probability", "association.association_probability", None),
        (e, "generate_instance", "engine.generate_instance", None),
        (e, "mpa_detect_batch", "noma_core.mpa_detect_batch", on_mpa),
        (e, "build_matrix", "noma_core.build_matrix", None),
        (e, "default_codebook", "noma_core.default_codebook", None),
        (e, "write_csv", "metrics.write_csv", None),
        (a, "match_rbs", "allocation.match_rbs", None),
        (a, "sca_power_control", "allocation.sca_power_control", on_sca),
        (a, "rb_rates", "allocation.rb_rates", None),
        (a, "minimize", "allocation.slsqp", None),
        (s, "sample_network", "geometry.sample_network", None),
        (s, "associate_user", "association.associate_user", None),
    ]


def traced(config, out, seconds: float, workers: int, validate_s: float):
    """The traced run. Pool sweeps (workers > 1) run untraced first, for the
    wall time that parallel efficiency divides by. Then serial sweeps with
    only the sweep points timed (point_s and the untraced wall time) take
    turns with serial sweeps with every layer wrapped (the layer metrics), so
    that a drift of the host's speed does not show as tracing overhead.
    Returns (layer metrics {name: (value, samples)}, CSVs, problems)."""
    import unoma.engine
    pool_walls, pool_csvs = [], []
    if workers > 1:
        pool_walls, pool_csvs = repeat(config, out, seconds / 3, workers)

    point_s = defaultdict(list)
    sca, mpa = [], []
    points, layers = Tracer(), Tracer()
    kinds = [(points, [(unoma.engine, "_run_point", "engine.point",
                        lambda args, r, dt: point_s[args[0][2]].append(dt))]),
             (layers, layer_targets(sca, mpa))]
    walls = {points: [], layers: []}
    csvs, unrestored = [], []
    budget = seconds * (2 / 3 if workers > 1 else 1)
    start = time.perf_counter()
    while not csvs or (time.perf_counter() - start
                       + (walls[points][-1] + walls[layers][-1]) / 2 < budget):
        for tracer, targets in kinds:
            with tracer.installed(targets):
                wall, csv_text = repeat(config, out, 0.0, 1)
            walls[tracer] += wall
            csvs += csv_text
            unrestored += tracer.unrestored
    base_walls, traced_walls = walls[points], walls[layers]

    problems = [f"{name} was not restored after tracing" for name in unrestored]
    n = len(traced_walls)
    span = layers.span

    def per_call(name, scale):
        s = span(name)
        return (s.total_s / s.calls * scale if s.calls else 0.0, s.calls)

    def per_sweep(value):
        return (value / n, n)

    def mean(values):
        values = list(values)
        return (statistics.fmean(values) if values else 0.0, len(values))

    point_med = [statistics.median(v) for _, v in sorted(point_s.items())]
    walls = pool_walls or base_walls
    mpa_s = span("noma_core.mpa_detect_batch").total_s
    vector_iters = sum(v * it for v, it, _ in mpa)
    return {
        "geometry.sample_network.calls":
            per_sweep(span("geometry.sample_network").calls),
        "geometry.sample_network.us_per_call":
            per_call("geometry.sample_network", 1e6),
        "association.associate_user.us_per_call":
            per_call("association.associate_user", 1e6),
        "association.association_probability.self_s":
            per_sweep(span("association.association_probability").self_s),
        "allocation.match_rbs.calls": per_sweep(span("allocation.match_rbs").calls),
        "allocation.match_rbs.ms_per_call": per_call("allocation.match_rbs", 1e3),
        "allocation.rb_rates.calls": per_sweep(span("allocation.rb_rates").calls),
        "allocation.sca_power_control.ms_per_call":
            per_call("allocation.sca_power_control", 1e3),
        "allocation.slsqp.calls": per_sweep(span("allocation.slsqp").calls),
        "allocation.slsqp.us_per_call": per_call("allocation.slsqp", 1e6),
        "allocation.sca.iterations_mean": mean(it for it, _ in sca),
        "allocation.sca.converged_frac": mean(float(c) for _, c in sca),
        "engine.generate_instance.ms_per_call":
            per_call("engine.generate_instance", 1e3),
        "engine.point_s.max": (max(point_med), len(point_med)),
        "engine.point_s.min": (min(point_med), len(point_med)),
        "engine.parallel_efficiency":
            (sum(point_med) / (workers * statistics.median(walls)), len(walls)),
        "noma_core.mpa_detect_batch.s": per_sweep(mpa_s),
        "noma_core.mpa.us_per_vector_iter":
            (mpa_s / vector_iters * 1e6 if vector_iters else 0.0, len(mpa)),
        "noma_core.mpa.iterations": mean(it for _, it, _ in mpa),
        "noma_core.mpa.combo_bytes_computed": mean(b for _, _, b in mpa),
        "config.validate_config.s": (validate_s, 1),
        "metrics.write_csv.s": per_call("metrics.write_csv", 1.0),
        "tracing.overhead_s": (statistics.median(
            t - b for t, b in zip(traced_walls, base_walls)), n),
    }, csvs + pool_csvs, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--reference", type=Path, default=gate.REFERENCE)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    config, setup_s, validate_s = set_up(args.workload, args.seed, args.size)
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "calibration_s": calibrate()}))
        return 0

    import numpy
    import scipy
    workers = config.workers
    reference = gate.load_reference(args.reference)
    layers, peaks = None, []
    if args.trace:
        layers, csvs, problems = traced(config, args.out, args.seconds,
                                        workers, validate_s)
        walls, cals = [], []
    else:
        start = time.perf_counter()
        problems, csvs, cals = [], [], []
        if workers > 1:
            # worker invariance: the pool sweeps must write these bytes
            csvs = repeat(config, args.out, 0.0, 1)[1]
        walls, timed_csvs = repeat(config, args.out,
                                   args.seconds - (time.perf_counter() - start),
                                   workers, cals, peaks if workers > 1 else None)
        csvs += timed_csvs
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # The first CSV is the serial one; every other sweep must match it byte
    # for byte (repeats, pool sweeps, traced sweeps).
    problems += gate.check(config.kind, csvs[0], config.trials, reference)
    mismatched = sum(text != csvs[0] for text in csvs)
    failed = len(csvs) if problems else mismatched
    if mismatched:
        problems.append(f"{mismatched} of {len(csvs)} sweeps wrote other CSV "
                        "bytes than the first serial sweep")
    print(json.dumps({
        "setup_s": setup_s,
        "walls": walls,
        "calibrations": cals,
        "points": len(config.sweep_values),
        "trials": config.trials,
        "workers": workers,
        "peak_rss_mb": (usage + max(peaks, default=0)) / 1024.0,  # KiB
        "attempted": len(csvs),
        "failed": failed,
        "problems": problems,
        "quality": gate.quality(config.kind, csvs[0]),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
