"""User association by maximum average received power and the
association-probability Monte-Carlo study."""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    Region,
    TierConfig,
    avg_received_power,
    link_distances,
    sample_network,
    sample_uniform,
)
from .metrics import TRIAL_BLOCK, Z_95, trial_blocks, within_budget

# Peak bytes of a block of drops per BS drawn in it. tracemalloc read 61-96 B
# at 6 000 to 180 000 BSs per block, the most when the first tier holds them
# all: putting the centre BSs in copies that tier's positions.
_BYTES_PER_BS = 100


def associate_user(probes, tiers, network):
    """Associate one probe user per drop; probes is (drops, 2), and network
    holds per tier the (positions, per-drop counts) pair of sample_network.

    Returns an integer array of length drops: the index into tiers whose
    nearest BS gives the largest average received power at the drop's probe
    (a tier's strongest BS is its nearest), ties going to the earlier tier;
    -1 for a drop without a BS.
    """
    probes = np.asarray(probes, dtype=float)
    best_p = np.full(len(probes), -math.inf)
    best_tier = np.full(len(probes), -1)
    for k, (tier, (positions, counts)) in enumerate(zip(tiers, network)):
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


def _wilson_half_width(p_hat: float, n: int) -> float:
    z2 = Z_95**2
    return (Z_95 * math.sqrt(p_hat * (1 - p_hat) / n + z2 / (4 * n * n))
            / (1 + z2 / n))


def check_block_bytes(region: Region, tiers, trials: int) -> None:
    """Refuse, by within_budget, the largest block of drops that
    association_probability draws for trials, sized as its expected BS
    count, centre BSs included, plus six Poisson standard deviations, times
    _BYTES_PER_BS. Arithmetic only: nothing is drawn."""
    drops = min(trials, TRIAL_BLOCK)
    mean = drops * (1.0 + sum(tier.density for tier in tiers) * region.area)
    within_budget(math.ceil((mean + 6.0 * math.sqrt(mean)) * _BYTES_PER_BS),
                  f"drawing a block of {drops} drops (about {mean:.3g} BSs)")


ASSOCIATION = ("each drop is a PPP of every tier in a disc of radius "
               "region_radius_m, plus one BS of the first tier at the disc's "
               "centre, and one probe user drawn uniformly in the disc; the "
               "probe joins the tier whose nearest BS gives the largest "
               "average received power P*G*max(d, 1 m)^-alpha; ties go to the "
               "earlier tier in config order")


def association_probability(region: Region, tiers: tuple[TierConfig, ...],
                            trials: int, seed: int) -> tuple[tuple, tuple]:
    """Monte-Carlo per-tier association probability with Wilson 95% CIs:
    returns (probabilities, ci_half_widths), one entry per tier.

    Each trial ("drop") draws a fresh network in the region, adds one BS of
    the first tier at its centre, and draws one probe user uniformly in it.
    Drops are drawn and associated a block at a time, as
    metrics.trial_blocks(seed, trials) yields them, so the estimate is
    independent of execution order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_block_bytes(region, tiers, trials)
    counts = np.zeros(len(tiers), dtype=np.int64)
    for rng, drops in trial_blocks(seed, trials):
        (first, n), *rest = sample_network(region, tiers, rng, drops)
        centred = np.insert(first, np.cumsum(n) - n, 0.0, axis=0)  # first in its drop
        probes = sample_uniform(drops, region, rng)
        counts += np.bincount(associate_user(probes, tiers, [(centred, n + 1), *rest]),
                              minlength=len(tiers))
    probs = tuple(int(c) / trials for c in counts)
    return probs, tuple(_wilson_half_width(p, trials) for p in probs)
