"""User association by maximum average received power and the
association-probability Monte-Carlo study."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    NetworkSnapshot,
    Region,
    TierConfig,
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
class AssociationStats:
    tier_ids: tuple
    probabilities: tuple
    ci_half_widths: tuple  # Wilson 95% intervals


def _wilson_half_width(p_hat: float, n: int) -> float:
    z2 = Z_95**2
    return (Z_95 * math.sqrt(p_hat * (1 - p_hat) / n + z2 / (4 * n * n))
            / (1 + z2 / n))


def association_probability(region: Region, tiers: tuple[TierConfig, ...],
                            trials: int, seed: int) -> AssociationStats:
    """Monte-Carlo per-tier association probability with Wilson 95% CIs.

    Each trial ("drop") draws a fresh network in the region, adds one BS of
    the first tier at its centre, and draws one probe user uniformly in it.
    Drops are drawn and associated a block at a time, as
    metrics.trial_blocks(seed, trials) yields them, so the estimate is
    independent of execution order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = np.zeros(len(tiers), dtype=np.int64)
    for rng, drops in trial_blocks(seed, trials):
        snap = sample_network(region, tiers, rng, drops)
        first, n = snap.bs_positions[0], snap.bs_counts[0]
        centred = np.insert(first, np.cumsum(n) - n, 0.0, axis=0)  # first in its drop
        snap = NetworkSnapshot(snap.tiers, (centred, *snap.bs_positions[1:]),
                               (n + 1, *snap.bs_counts[1:]))
        probes = sample_uniform(drops, region, rng)
        counts += np.bincount(associate_user(probes, snap), minlength=len(tiers))
    probs = tuple(int(c) / trials for c in counts)
    cis = tuple(_wilson_half_width(p, trials) for p in probs)
    return AssociationStats(tuple(t.tier_id for t in tiers), probs, cis)
