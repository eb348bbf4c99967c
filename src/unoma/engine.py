"""Seeded Monte-Carlo execution of configured experiments with CSV output.

Every sweep point gets a sub-seed hashed from (master seed, point index), and
every kind draws the point's trials by one rule, metrics.trial_blocks: blocks
of TRIAL_BLOCK trials, each from its own generator, in trial order.
Processing chunks are whole numbers of blocks, so results are byte-identical
regardless of chunk size, worker count or scheduling. A link-level run builds
one matrix, from point_rng(master seed), the one validation checks, and one
codebook, and every point detects with them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import (
    _MAX_FIXED_POINT,
    _MAX_SCA_ITERS,
    _SCA_TOL,
    AllocationInstance,
    jain_fairness,
    solve_instance,
)
from .association import association_probability
from .config import ExperimentConfig, association_study
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
from .metrics import TRIAL_BLOCK, mean_ci, point_rng, trial_blocks, write_csv
from .noma_core import (
    MPA_CHUNK,
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

OUTPUT_ENV_VAR = "UNOMA_OUTPUT_DIR"


def config_hash(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def subseed(master_seed: int, index: int) -> int:
    """Sweep point's sub-seed: hash of (master seed, point index)."""
    canonical = json.dumps([master_seed, index], separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


_CONVENTIONS = {
    "association_sweep": {
        "association": "each drop's probe user joins the BS with the largest "
                       "average received power P*G*max(d, 1 m)^-alpha; ties go "
                       "to the earlier tier in config order, then to the "
                       "lowest BS index within that tier; drops without a BS "
                       "are not counted in trials",
    },
    "allocation_sweep": {
        "fairness": "Jain index over per-small-cell pair rates; "
                    "unmatched (blocked) BSs count as rate 0; a trial whose "
                    "rates are all 0 has fairness 1 (all shares equal)",
        "matching": "candidate co-channel sets are scored by their sum rate "
                    "at cap-scaled equal power (every member at p_max, "
                    "scaled down uniformly to meet i_threshold); each swap "
                    "round scans moves into vacancies before pairwise "
                    "exchanges, in row-major (BS, RB) and (BS, BS) order, "
                    "the first maximum winning and an exchange only if "
                    "strictly better than the best move; a round applies its "
                    "winner only if it raises the total by more than 1e-12",
        "power_control": "SCA from p_max scaled uniformly below each RB's "
                         "cap: each outer iteration bounds every rate term "
                         "below by alpha*log z + beta, tight at the current "
                         "powers, and solves that surrogate on every RB by "
                         "the fixed point p_j <- clip(A_j / (c_j(p) + "
                         "mu*h_j), p_max*e^-60, p_max): A_j sums the alpha "
                         "of BS j's terms, c_j(p) sums alpha_u*D_uj / "
                         "(D_u.p + sigma2) over the terms u whose "
                         "interference D_u.p BS j's power enters, and mu >= 0 "
                         "is found by bisection with Newton steps on RBs "
                         "whose cap binds; the fixed point stops when no "
                         "power changes by 1e-15 of itself, or after "
                         f"{_MAX_FIXED_POINT} updates; a candidate over its "
                         "cap is scaled to 1 - 1e-12 of it and is kept on an "
                         "RB only if that RB's sum rate does not fall; the "
                         "outer loop stops when the total gains less than "
                         + np.format_float_scientific(_SCA_TOL, trim="-", exp_digits=1)
                         + f" of itself, or after {_MAX_SCA_ITERS} iterations",
    },
    "link_level": {
        "snr_db": "per-layer SNR: noise_var = 10^(-snr_db/10) per complex RB "
                  "sample, each layer's codewords having unit average energy; "
                  "the per-RB aggregate SNR is snr_db + 10*log10(N/K)",
        "mpa_stop": "per received vector: its messages freeze after the first "
                    "iteration whose largest message change is below 1e-6, "
                    "or after max_iters",
    },
}


_SEEDING = ("sweep point i's sub-seed is the first 8 bytes of SHA-256 of "
            "the JSON list [master seed, i], mod 2^63; its trials are drawn "
            f"{TRIAL_BLOCK} at a time (TRIAL_BLOCK), block b from "
            "numpy.random.SeedSequence([point sub-seed, b]), in trial order; "
            "a link-level experiment has one spreading matrix (MUSA sequences), "
            "from numpy.random.SeedSequence(master seed, spawn_key=(1,))")


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    version: str
    master_seed: int
    started: str
    finished: str
    point_seeds: tuple
    conventions: dict

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=1)


def generate_instance(n_small: int, data: dict, tau: int,
                      rng: np.random.Generator) -> AllocationInstance:
    """Random allocation instance: small BSs dropped uniformly (binomial point
    process conditioned on the sweep count), one near/far user pair each."""
    region = Region(data["region_radius_m"])
    alpha = data["alpha"]
    n_rb = data["n_rb"]
    bs_pos = sample_uniform(n_small, region, rng)
    macro_user = sample_uniform(1, region, rng)[0]

    # two users uniform in each BS's ring, drawn per BS as two radii and then
    # two angles, sorted [near, far] (a tie keeps the draw order)
    u = rng.random((n_small, 2, 2))
    r = data["user_ring_radius_m"] * np.sqrt(u[:, 0])
    theta = 2.0 * math.pi * u[:, 1]
    users = bs_pos[:, None, :] + np.stack([r * np.cos(theta),
                                           r * np.sin(theta)], axis=-1)
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
    own = np.arange(n_small)
    h_macro = gains(bs_pos, macro_user[None, :])[:, 0, :]

    # Python floats on purpose: link_distances' axis norm and a numpy power
    # each differ in the last place on some draws, moving i_threshold.
    signal = dbm_to_watts(data["macro_power_dbm"]) * max(
        float(np.linalg.norm(macro_user)), DISTANCE_FLOOR_M) ** (-alpha)
    threshold = signal / db_to_linear(data["protection_ratio_db"])
    return AllocationInstance(
        g_near=x_near[own, own], g_far=x_far[own, own], x_near=x_near,
        x_far=x_far, h_macro=h_macro, i_threshold=np.full(n_rb, threshold),
        tau=tau, p_max=dbm_to_watts(data["small_power_dbm"]),
        sigma2=data["sigma2_w"], pair=NomaPair(data["a_m"], data["a_n"]))


def _association_point(data: dict, index: int, value: float):
    seed = subseed(data["seed"], index)
    stats = association_probability(association_study(data, value),
                                    data["trials"], seed)
    return [(value, tid, p, ci, stats.trials)
            for tid, p, ci in zip(stats.tier_ids, stats.probabilities,
                                  stats.ci_half_widths)]


def _allocation_point(data: dict, index: int, n_small: int):
    point_seed = subseed(data["seed"], index)
    results = {(tau, scheme): ([], [])
               for tau in data["taus"] for scheme in data["schemes"]}
    for rng, n in trial_blocks(point_seed, data["trials"]):
        for _ in range(n):
            base = generate_instance(n_small, data, data["taus"][0], rng)
            for tau in data["taus"]:
                inst = replace(base, tau=tau)
                for scheme in data["schemes"]:
                    _, sol = solve_instance(inst, scheme)
                    rates, fairs = results[(tau, scheme)]
                    rates.append(sol.sum_rate)
                    fairs.append(jain_fairness(sol.per_bs_rates))
    return [(n_small, tau, scheme.upper(), *mean_ci(rates), *mean_ci(fairs),
             data["trials"], point_seed)
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

    Returns (csv_path, manifest_path, RunManifest). Identical config and seed
    produce byte-identical CSV regardless of worker count.
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
        with ProcessPoolExecutor(max_workers=min(n_workers, len(tasks))) as pool:
            per_point = list(pool.map(_run_point, tasks))
    else:
        per_point = [_run_point(t) for t in tasks]
    rows = [row for point_rows in per_point for row in point_rows]
    csv_path = out / f"{config.name}.csv"
    write_csv(csv_path, _HEADERS[config.kind], rows)
    manifest = RunManifest(
        config_hash=config_hash(data),
        version=__version__,
        master_seed=config.seed,
        started=started,
        finished=datetime.now(timezone.utc).isoformat(),
        point_seeds=tuple(subseed(config.seed, i) for i in range(len(values))),
        conventions={**_CONVENTIONS[config.kind], "seeding": _SEEDING},
    )
    manifest_path = out / f"{config.name}_manifest.json"
    manifest.save(manifest_path)
    return csv_path, manifest_path, manifest


def default_output_dir() -> str:
    return os.environ.get(OUTPUT_ENV_VAR, "out")
