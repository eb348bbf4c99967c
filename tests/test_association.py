import math
import tracemalloc

import numpy as np
import pytest

from oracles import associate_drops
from unoma import association
from unoma.association import (
    AssociationStudy,
    associate_user,
    association_probability,
)
from unoma.geometry import NetworkSnapshot, Region, TierConfig, sample_network
from unoma.metrics import TRIAL_BLOCK

_MACRO_DENSITY = 1.0 / (2.0 * math.pi * 500.0**2)  # the fig4 preset's


def _snapshot(tiers, drops):
    """drops: per drop, one list of (x, y) positions per tier."""
    positions = [np.asarray([xy for drop in drops for xy in drop[k]],
                            dtype=float).reshape(-1, 2)
                 for k in range(len(tiers))]
    counts = [np.array([len(drop[k]) for drop in drops])
              for k in range(len(tiers))]
    return NetworkSnapshot(tuple(tiers), tuple(positions), tuple(counts))


def _winner(tiers, positions):
    """(tier_id, BS index) of the one-drop snapshot with these positions,
    the user at the origin."""
    snap = _snapshot(tiers, [positions])
    tier, bs = associate_user(np.zeros(2), snap)
    return tiers[tier[0]].tier_id, int(bs[0])


def test_associate_single_bs():
    tiers = [TierConfig("macro", 40.0, 0.0)]
    assert _winner(tiers, [[(100.0, 0.0)]]) == ("macro", 0)


def test_associate_femto_beats_distant_macro():
    # macro: 10 W * 12.4 gain at 200 m -> 7.75e-8 W average received power;
    # femto: 0.1 W at 10 m -> 1e-5 W, so the femto BS wins
    tiers = [TierConfig("macro", 40.0, 0.0, array_gain=12.4),
             TierConfig("femto", 20.0, 0.0)]
    assert _winner(tiers, [[(200.0, 0.0)], [(10.0, 0.0)]]) == ("femto", 0)


def test_associate_picks_nearest_within_tier():
    tiers = [TierConfig("pico", 30.0, 0.0)]
    assert _winner(tiers, [[(100.0, 0.0), (20.0, 0.0), (50.0, 0.0)]]) == ("pico", 1)


def test_associate_empty_network_raises():
    snap = _snapshot([TierConfig("macro", 40.0, 0.0)], [[[]], [[]]])
    with pytest.raises(ValueError):
        associate_user(np.zeros((2, 2)), snap)


def test_associate_matches_per_drop_oracle():
    """Batched association equals the per-drop loop: random multi-drop
    networks with empty drops, and 1 m-floor ties across and within tiers."""
    rng = np.random.default_rng(17)
    region = Region(500.0)
    tiers = [TierConfig("macro", 40.0, _MACRO_DENSITY, array_gain=12.4),
             TierConfig("pico", 30.0, _MACRO_DENSITY),
             TierConfig("femto", 20.0, 3 * _MACRO_DENSITY)]
    empty_drops = 0
    for seed, guaranteed in ((1, None), (2, None), (3, "center"), (4, "uniform")):
        snap = sample_network(region, tiers, np.random.default_rng(seed), 300,
                              guaranteed_bs=guaranteed)
        probes = region.radius * rng.uniform(-0.7, 0.7, (300, 2))
        tier, bs = associate_user(probes, snap)
        assert list(zip(tier.tolist(), bs.tolist())) == associate_drops(probes, snap)
        empty_drops += int(np.sum(tier == -1))
    assert empty_drops > 0  # the unguaranteed draws left some drops empty

    # Two tiers of equal power and gain: every BS within 1 m of the user
    # receives the same power at the floor, so ties decide.
    equal = [TierConfig("a", 30.0, 0.0), TierConfig("b", 30.0, 0.0),
             TierConfig("c", 20.0, 0.0)]
    drops = [
        [[(40.0, 0.0)], [(0.5, 0.0)], [(0.2, 0.0)]],         # b alone at the floor
        [[(0.9, 0.0)], [(0.0, 0.3)], []],                    # tie across tiers -> a
        [[], [(9.0, 0.0), (0.0, 0.4), (0.6, 0.0)], []],      # tie within b -> 1
        [[], [], []],                                        # empty drop
        [[(0.0, -1.0), (0.1, 0.0)], [(0.5, 0.5)], [(0.0, 0.0)]],  # -> a, 0
        [[], [], [(3.0, 4.0), (-3.0, 4.0)]],                 # tie at 5 m -> c, 0
    ]
    snap = _snapshot(equal, drops)
    probes = np.zeros((len(drops), 2))
    tier, bs = associate_user(probes, snap)
    expected = [(1, 0), (0, 0), (1, 1), (-1, -1), (0, 0), (2, 0)]
    assert list(zip(tier.tolist(), bs.tolist())) == expected
    assert associate_drops(probes, snap) == expected


def test_single_tier_probability_one():
    study = AssociationStudy(Region(500.0),
                             (TierConfig("pico", 30.0, 2e-5),),
                             probe="uniform")
    stats = association_probability(study, 50, seed=3)
    assert stats.probabilities == (1.0,)
    assert stats.trials == 50
    assert 0.0 < stats.ci_half_widths[0] < 0.1


def test_zero_density_tier_never_wins():
    study = AssociationStudy(
        Region(500.0),
        (TierConfig("macro", 40.0, 0.0), TierConfig("pico", 30.0, 2e-5)),
        probe="origin")
    stats = association_probability(study, 40, seed=5)
    assert stats.probabilities == (0.0, 1.0)


def test_all_empty_network_raises():
    with pytest.raises(ValueError):
        AssociationStudy(Region(500.0), (TierConfig("macro", 40.0, 0.0),))
    with pytest.raises(ValueError):
        AssociationStudy(Region(500.0), (), probe="midpoint")


def test_association_probability_reproducible():
    study = AssociationStudy(
        Region(500.0),
        (TierConfig("macro", 40.0, 1e-6, array_gain=12.4),
         TierConfig("pico", 30.0, 5e-6)),
        probe="uniform", guaranteed_bs="center")
    a = association_probability(study, 200, seed=11)
    b = association_probability(study, 200, seed=11)
    assert a == b
    assert sum(a.probabilities) == pytest.approx(1.0, abs=1e-12)


def test_guaranteed_bs_gives_coverage():
    study = AssociationStudy(Region(500.0),
                             (TierConfig("macro", 40.0, 0.0),),
                             guaranteed_bs="center")
    stats = association_probability(study, 20, seed=1)
    assert stats.probabilities == (1.0,)


def test_association_matches_closed_form():
    """Probe at the origin, no guaranteed BS, equal alpha: tier k wins with
    probability lambda_k (P_k G_k)^(2/alpha) / sum_j lambda_j (P_j G_j)^(2/alpha)
    (Jo, Sang, Xia & Andrews, IEEE TWC 2012). The fig4 tiers at its 5x point,
    every density scaled by 20 (macro at 20x the fig4 macro density), so the
    500 m disc holds the strongest BS of almost every drop, as the formula's
    infinite plane does."""
    lam = 20 * _MACRO_DENSITY
    tiers = (TierConfig("macro", 40.0, lam, array_gain=12.4),
             TierConfig("pico", 30.0, 5 * lam),
             TierConfig("femto", 20.0, 25 * lam))
    alpha = tiers[0].path_loss_exponent
    weights = [t.density * (t.tx_power_w * t.array_gain) ** (2 / alpha)
               for t in tiers]
    closed = [w / sum(weights) for w in weights]
    stats = association_probability(
        AssociationStudy(Region(500.0), tiers, probe="origin"), 20000, seed=2012)
    assert stats.trials == 20000
    for p, half, exact in zip(stats.probabilities, stats.ci_half_widths, closed):
        assert abs(p - exact) <= 2 * half, (stats.probabilities, closed)


def test_association_memory_bounded_by_chunk():
    study = AssociationStudy(
        Region(500.0),
        (TierConfig("macro", 40.0, _MACRO_DENSITY, array_gain=12.4),
         TierConfig("pico", 30.0, 10 * _MACRO_DENSITY),
         TierConfig("femto", 20.0, 50 * _MACRO_DENSITY)),
        probe="uniform", guaranteed_bs="center")

    def peak(trials):
        tracemalloc.start()
        try:
            stats = association_probability(study, trials, seed=5)
            return tracemalloc.get_traced_memory()[1], stats
        finally:
            tracemalloc.stop()

    one, _ = peak(TRIAL_BLOCK)
    eight, _ = peak(8 * TRIAL_BLOCK)
    assert eight <= 1.5 * one, (one, eight)
    _, stats = peak(2 * TRIAL_BLOCK + 1)  # a partial last block
    assert stats.trials == 2 * TRIAL_BLOCK + 1


def test_chunks_draw_from_their_own_seed():
    """Drops are drawn and associated a block at a time, block b from
    SeedSequence([seed, b]): a run is its blocks' counts added up, whatever
    came before them."""
    study = AssociationStudy(
        Region(500.0),
        (TierConfig("macro", 40.0, _MACRO_DENSITY, array_gain=12.4),
         TierConfig("pico", 30.0, 5 * _MACRO_DENSITY)),
        probe="uniform", guaranteed_bs="uniform")
    trials = 2 * TRIAL_BLOCK + 10  # a partial last block
    whole = association_probability(study, trials, seed=8)
    wins = np.zeros(2)
    for block, drops in enumerate((TRIAL_BLOCK, TRIAL_BLOCK, 10)):
        rng = np.random.default_rng(np.random.SeedSequence([8, block]))
        snap = sample_network(study.region, list(study.tiers), rng, drops,
                              guaranteed_bs="uniform")
        probes = association.sample_uniform(drops, study.region, rng)
        wins += np.bincount(associate_user(probes, snap)[0], minlength=2)
    assert whole.probabilities == tuple(wins / trials)
