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
from .metrics import Z_95, trial_blocks


def associate_user(user_pos, snapshot: NetworkSnapshot):
    """Associate one user per drop of the snapshot; user_pos is (drops, 2).

    Returns an integer array of length drops: the index into snapshot.tiers
    whose nearest BS gives the largest average received power at the drop's
    user (a tier's strongest BS is its nearest), ties going to the earlier
    tier; -1 for a drop without a BS.
    """
    if snapshot.n_bs == 0:
        raise ValueError("cannot associate in an empty network")
    probes = np.reshape(np.asarray(user_pos, dtype=float), (snapshot.n_drops, 2))
    best_p = np.full(snapshot.n_drops, -math.inf)
    best_tier = np.full(snapshot.n_drops, -1)
    for k, (tier, positions, counts) in enumerate(
            zip(snapshot.tiers, snapshot.bs_positions, snapshot.bs_counts)):
        if len(positions) == 0:
            continue
        d = link_distances(np.repeat(probes, counts, axis=0), positions)
        drops = np.flatnonzero(counts)  # empty drops have no segment
        nearest = np.minimum.reduceat(d, (np.cumsum(counts) - counts)[drops])
        p = avg_received_power(tier.tx_power_w, tier.array_gain, nearest,
                               tier.path_loss_exponent)
        win = p > best_p[drops]  # strict: a tie stays with the earlier tier
        best_p[drops[win]] = p[win]
        best_tier[drops[win]] = k
    return best_tier


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
        if self.guaranteed_bs not in (None, "center", "uniform"):
            raise ValueError(f"unknown guaranteed_bs mode {self.guaranteed_bs!r}")
        if self.guaranteed_bs is None and all(t.density == 0 for t in self.tiers):
            raise ValueError("every tier density is 0 and no BS is guaranteed, "
                             "so no drop has a BS")


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

    Each trial ("drop") draws a fresh network and one probe user (at the
    origin or uniformly in the region). Drops are drawn and associated a
    block at a time, as metrics.trial_blocks(seed, trials) yields them, so the
    estimate is independent of execution order. Drops without a BS are not
    counted.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tiers = list(study.tiers)
    counts = np.zeros(len(tiers), dtype=np.int64)
    for rng, drops in trial_blocks(seed, trials):
        snap = sample_network(study.region, tiers, rng, drops,
                              guaranteed_bs=study.guaranteed_bs)
        if snap.n_bs == 0:
            continue
        if study.probe == "origin":
            probes = np.zeros((drops, 2))
        else:
            probes = sample_uniform(drops, study.region, rng)
        winner = associate_user(probes, snap)
        counts += np.bincount(winner[winner >= 0], minlength=len(tiers))
    total = int(counts.sum())
    if total == 0:
        raise ValueError("no trial produced a network with coverage")
    probs = tuple(int(c) / total for c in counts)
    cis = tuple(_wilson_half_width(p, total) for p in probs)
    return AssociationStats(tuple(t.tier_id for t in tiers), probs, cis, total)
