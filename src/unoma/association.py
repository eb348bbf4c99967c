"""User association by maximum average received power and the
association-probability Monte-Carlo study."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    NetworkSnapshot,
    Region,
    avg_received_power,
    link_distances,
    sample_network,
    sample_uniform,
)
from .metrics import Z_95


def associate_user(user_pos, snapshot: NetworkSnapshot):
    """Return (tier_id, bs_index) of the BS with the largest average received
    power at the user; ties broken by tier order then lowest BS index."""
    best = None
    best_p = -math.inf
    for tier, positions in zip(snapshot.tiers, snapshot.bs_positions):
        if len(positions) == 0:
            continue
        d = link_distances(user_pos, positions)
        p = avg_received_power(tier.tx_power_w, tier.array_gain, d,
                               tier.path_loss_exponent)
        idx = int(np.argmax(p))
        if p[idx] > best_p:
            best_p = float(p[idx])
            best = (tier.tier_id, idx)
    if best is None:
        raise ValueError("cannot associate in an empty network")
    return best


@dataclass(frozen=True)
class AssociationStudy:
    """Configuration of one association-probability estimate."""

    region: Region
    tiers: tuple
    probe: str = "origin"  # "origin" or "uniform"
    guaranteed_bs: str | None = None  # None, "center", "uniform" (first tier)

    def __post_init__(self):
        if self.probe not in ("origin", "uniform"):
            raise ValueError(f"unknown probe mode {self.probe!r}")


@dataclass(frozen=True)
class AssociationStats:
    tier_ids: tuple
    probabilities: tuple
    ci_half_widths: tuple  # Wilson 95% intervals
    trials: int


def _wilson_half_width(p_hat: float, n: int) -> float:
    z2 = Z_95**2
    return (Z_95 * math.sqrt(p_hat * (1 - p_hat) / n + z2 / (4 * n * n))
            / (1 + z2 / n))


def association_probability(study: AssociationStudy, trials: int,
                            seed: int) -> AssociationStats:
    """Monte-Carlo per-tier association probability with Wilson 95% CIs.

    Each trial draws a fresh network and one probe user (at the origin or
    uniformly in the region); per-trial RNG derives from (seed, trial) so the
    estimate is independent of execution order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tiers = list(study.tiers)
    if all(t.density == 0 for t in tiers) and study.guaranteed_bs is None:
        raise ValueError("all tier densities are 0 and no BS is guaranteed")
    counts = {t.tier_id: 0 for t in tiers}
    for trial in range(trials):
        trial_seed = np.random.SeedSequence([seed, trial])
        rng = np.random.default_rng(trial_seed)
        snap_seed = int(rng.integers(0, 2**63 - 1))
        snap = sample_network(study.region, tiers, snap_seed,
                              guaranteed_bs=study.guaranteed_bs)
        if snap.n_bs == 0:
            continue
        if study.probe == "origin":
            probe = np.zeros(2)
        else:
            probe = sample_uniform(1, study.region, rng)[0]
        tier_id, _ = associate_user(probe, snap)
        counts[tier_id] += 1
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no trial produced a network with coverage")
    probs = tuple(counts[t.tier_id] / total for t in tiers)
    cis = tuple(_wilson_half_width(p, total) for p in probs)
    return AssociationStats(tuple(t.tier_id for t in tiers), probs, cis, total)
