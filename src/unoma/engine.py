"""Seeded Monte-Carlo execution of configured experiments with CSV output.

Every sweep point gets a sub-seed hashed from (master seed, point index), and
every kind draws the point's trials by one rule, metrics.trial_blocks: blocks
of TRIAL_BLOCK trials, each from its own generator, in trial order.
Processing chunks are whole numbers of blocks, and an allocation point solves
a block's instances in lockstep groups whose solves do not see each other, so
results are byte-identical regardless of chunk or group size, worker count or
scheduling. A link-level run builds one matrix, from point_rng(master seed),
the one validation checks, and one codebook, and every point detects with
them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import (
    FAIRNESS,
    MATCHING,
    POWER_CONTROL,
    AllocationInstance,
    group_size,
    jain_fairness,
    solve_group,
)
from .association import ASSOCIATION, association_probability
from .config import ExperimentConfig, association_tiers
from .geometry import (
    DISTANCE_FLOOR_M,
    Region,
    avg_received_power,
    db_to_linear,
    dbm_to_watts,
    link_distances,
    rayleigh_power_gains,
    sample_uniform,
)
from .metrics import (
    SEEDING,
    TRIAL_BLOCK,
    mean_ci,
    point_rng,
    subseed,
    trial_blocks,
    write_csv,
)
from .noma_core import (
    MPA_CHUNK,
    MPA_STOP,
    NomaPair,
    build_matrix,
    default_codebook,
    mpa_detect_batch,
)

_HEADERS = {
    "association_sweep": ["sweep_value", "tier_id", "probability",
                          "ci_half_width", "trials"],
    "allocation_sweep": ["n_small_cells", "tau", "scheme", "sum_rate",
                         "sum_rate_ci", "fairness", "fairness_ci", "trials",
                         "seed"],
    "link_level": ["snr_db", "ser", "trials", "seed"],
}


def config_hash(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


_CONVENTIONS = {
    "association_sweep": {"association": ASSOCIATION},
    "allocation_sweep": {"fairness": FAIRNESS, "matching": MATCHING,
                         "power_control": POWER_CONTROL},
    "link_level": {
        "snr_db": "per-layer SNR: noise_var = 10^(-snr_db/10) per complex RB "
                  "sample, each layer's codewords having unit average energy; "
                  "the per-RB aggregate SNR is snr_db + 10*log10(N/K)",
        "mpa_stop": MPA_STOP,
    },
}


def generate_instance(n_small: int, data: dict, tau: int,
                      rng: np.random.Generator) -> AllocationInstance:
    """Random allocation instance: small BSs dropped uniformly (binomial point
    process conditioned on the sweep count), one near/far user pair each."""
    region = Region(data["region_radius_m"])
    alpha = data["alpha"]
    n_rb = data["n_rb"]
    bs_pos = sample_uniform(n_small, region, rng)
    macro_user = sample_uniform(1, region, rng)[0]

    # two users uniform in each BS's ring, sorted [near, far] (a tie keeps
    # the draw order)
    users = bs_pos[:, None, :] + sample_uniform(
        (n_small, 2), Region(data["user_ring_radius_m"]), rng)
    d = link_distances(bs_pos[:, None, :], users)
    users = np.where((d[:, 1] < d[:, 0])[:, None, None], users[:, ::-1], users)

    def gains(tx_points, rx_points):
        # (n_tx, n_rx, n_rb) instantaneous gains, fading drawn per RB
        d = link_distances(tx_points[:, None, :], rx_points[None, :, :])
        fad = rayleigh_power_gains(rng, d.shape + (n_rb,))
        return fad * avg_received_power(1.0, 1.0, d, alpha)[:, :, None]

    # every BS to every BS's near and far user; the diagonal is the own links
    x_near = gains(bs_pos, users[:, 0])
    x_far = gains(bs_pos, users[:, 1])
    h_macro = gains(bs_pos, macro_user[None, :])[:, 0, :]

    # Python floats on purpose: link_distances' axis norm and a numpy power
    # each differ in the last place on some draws, moving i_threshold.
    signal = dbm_to_watts(data["macro_power_dbm"]) * max(
        float(np.linalg.norm(macro_user)), DISTANCE_FLOOR_M) ** (-alpha)
    threshold = signal / db_to_linear(data["protection_ratio_db"])
    return AllocationInstance(
        x_near=x_near, x_far=x_far, h_macro=h_macro,
        i_threshold=np.full(n_rb, threshold),
        tau=tau, p_max=dbm_to_watts(data["small_power_dbm"]),
        sigma2=data["sigma2_w"], pair=NomaPair(data["a_m"], data["a_n"]))


def _association_point(data: dict, index: int, value: float):
    tiers = association_tiers(data, value)
    probs, cis = association_probability(Region(data["region_radius_m"]), tiers,
                                         data["trials"], subseed(data["seed"], index))
    return [(value, tier.tier_id, p, ci, data["trials"])
            for tier, p, ci in zip(tiers, probs, cis)]


def _allocation_point(data: dict, index: int, n_small: int):
    """A block's instances are drawn and solved in lockstep groups of at
    most group_size, so the solver's memory does not grow with the block."""
    point_seed = subseed(data["seed"], index)
    taus, schemes = data["taus"], data["schemes"]
    results = {(tau, scheme): ([], []) for tau in taus for scheme in schemes}
    most = group_size(n_small, data["n_rb"], len(taus) * len(schemes))
    for rng, n in trial_blocks(point_seed, data["trials"]):
        cuts = -(-n // most)  # as few groups as the cap allows, sizes even
        for size in (n // cuts + (g < n % cuts) for g in range(cuts)):
            group = solve_group([generate_instance(n_small, data, taus[0], rng)
                                 for _ in range(size)], taus, schemes)
            for key, (_, sol) in group.items():
                results[key][0].append(sol.sum_rate)
                results[key][1].append(jain_fairness(sol.per_bs_rates))
    return [(n_small, tau, scheme.upper(), *mean_ci(np.concatenate(rates)),
             *mean_ci(np.concatenate(fairs)), data["trials"], point_seed)
            for (tau, scheme), (rates, fairs) in results.items()]


def _link_point(data: dict, index: int, snr_db: float, matrix, codebook):
    seed = subseed(data["seed"], index)
    n, k, q = data["n"], data["k"], data["q"]
    noise_var = db_to_linear(-snr_db)  # unit codeword energy per layer
    blocks = trial_blocks(seed, data["trials"])
    errors = 0  # only the count outlives a group, so memory is bounded
    while group := list(itertools.islice(blocks, MPA_CHUNK // TRIAL_BLOCK)):
        truth, y = [], []
        for rng, m in group:
            symbols = rng.integers(0, q, size=(m, n))
            noise = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
            truth.append(symbols)
            y.append(codebook.codewords[np.arange(n), symbols].sum(axis=1)
                     + noise * math.sqrt(noise_var / 2.0))
        _, hard, _ = mpa_detect_batch(np.concatenate(y), matrix, codebook,
                                      noise_var, max_iters=data["max_iters"])
        errors += int(np.count_nonzero(hard != np.concatenate(truth)))
    return [(snr_db, errors / (data["trials"] * n), data["trials"], seed)]


_POINT_FUNCS = {
    "association_sweep": _association_point,
    "allocation_sweep": _allocation_point,
    "link_level": _link_point,
}


def _run_point(args):
    """One sweep point of the task (kind, data, index, value, *shared); the
    point index stays at position 2, where benchmarks/sweep.py reads it."""
    kind, *rest = args
    return _POINT_FUNCS[kind](*rest)


def run_experiment(config: ExperimentConfig, output_dir, workers: int | None = None):
    """Execute the experiment; writes <name>.csv and <name>_manifest.json.

    Returns (csv_path, manifest_path, the manifest dict). Identical config
    and seed produce byte-identical CSV regardless of worker count.
    """
    data = config.data
    n_workers = workers if workers is not None else config.workers
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    values = config.sweep_values
    shared = ()
    if config.kind == "link_level":
        matrix = build_matrix(data["scheme"], data["k"], data["n"],
                              data["matrix_params"], point_rng(data["seed"]))
        shared = (matrix, default_codebook(matrix, data["q"]))
    tasks = [(config.kind, data, i, v, *shared) for i, v in enumerate(values)]
    if n_workers > 1 and len(tasks) > 1:
        # imported here: a serial run never loads the process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(n_workers, len(tasks))) as pool:
            per_point = list(pool.map(_run_point, tasks))
    else:
        per_point = [_run_point(t) for t in tasks]
    rows = [row for point_rows in per_point for row in point_rows]
    csv_path = out / f"{config.name}.csv"
    write_csv(csv_path, _HEADERS[config.kind], rows)
    manifest = {
        "config_hash": config_hash(data),
        "version": __version__,
        "master_seed": config.seed,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "point_seeds": [subseed(config.seed, i) for i in range(len(values))],
        "conventions": {**_CONVENTIONS[config.kind], "seeding": SEEDING},
    }
    manifest_path = out / f"{config.name}_manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1)
    return csv_path, manifest_path, manifest
