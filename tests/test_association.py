import math
import tracemalloc

import numpy as np
import pytest

from oracles import associate_drops
from unoma import association, metrics
from unoma.association import (
    _wilson_half_width,
    associate_user,
    association_probability,
    check_block_bytes,
)
from unoma.geometry import Region, TierConfig, sample_network
from unoma.metrics import TRIAL_BLOCK, trial_blocks

_MACRO_DENSITY = 1.0 / (2.0 * math.pi * 500.0**2)  # the fig4 preset's


def _network(tiers, drops):
    """drops: per drop, one list of (x, y) positions per tier; returns per
    tier the (positions, per-drop counts) pair sample_network returns."""
    return [(np.asarray([xy for drop in drops for xy in drop[k]],
                        dtype=float).reshape(-1, 2),
             np.array([len(drop[k]) for drop in drops], dtype=np.int64))
            for k in range(len(tiers))]


def _winner(tiers, positions):
    """tier_id of the winning tier of the one-drop network with these
    positions, the user at the origin."""
    network = _network(tiers, [positions])
    return tiers[associate_user(np.zeros((1, 2)), tiers, network)[0]].tier_id


def test_associate_single_bs():
    tiers = [TierConfig("macro", 40.0, 0.0)]
    assert _winner(tiers, [[(100.0, 0.0)]]) == "macro"


def test_associate_femto_beats_distant_macro():
    # macro: 10 W * 12.4 gain at 200 m -> 7.75e-8 W average received power;
    # femto: 0.1 W at 10 m -> 1e-5 W, so the femto BS wins
    tiers = [TierConfig("macro", 40.0, 0.0, array_gain=12.4),
             TierConfig("femto", 20.0, 0.0)]
    assert _winner(tiers, [[(200.0, 0.0)], [(10.0, 0.0)]]) == "femto"


def test_associate_empty_network_gives_minus_one():
    """A network without a BS in any drop leaves every drop unassociated,
    as an empty drop of a non-empty network is."""
    tiers = [TierConfig("macro", 40.0, 0.0), TierConfig("pico", 30.0, 0.0)]
    network = _network(tiers, [[[], []], [[], []]])
    assert associate_user(np.zeros((2, 2)), tiers, network).tolist() == [-1, -1]


def test_associate_matches_per_drop_oracle():
    """Batched association equals the per-drop loop: random multi-drop
    networks with empty drops, and 1 m-floor ties across and within tiers."""
    rng = np.random.default_rng(17)
    region = Region(500.0)
    tiers = [TierConfig("macro", 40.0, _MACRO_DENSITY, array_gain=12.4),
             TierConfig("pico", 30.0, _MACRO_DENSITY),
             TierConfig("femto", 20.0, 3 * _MACRO_DENSITY)]
    empty_drops = 0
    for seed in (1, 2, 3, 4):
        network = sample_network(region, tiers, np.random.default_rng(seed), 300)
        probes = region.radius * rng.uniform(-0.7, 0.7, (300, 2))
        tier = associate_user(probes, tiers, network)
        assert tier.tolist() == associate_drops(probes, tiers, network)
        empty_drops += int(np.sum(tier == -1))
    assert empty_drops > 0  # the PPP draws left some drops empty

    # Two tiers of equal power and gain: every BS within 1 m of the user
    # receives the same power at the floor, so ties decide.
    equal = [TierConfig("a", 30.0, 0.0), TierConfig("b", 30.0, 0.0),
             TierConfig("c", 20.0, 0.0)]
    drops = [
        [[(40.0, 0.0)], [(0.5, 0.0)], [(0.2, 0.0)]],         # b alone at the floor
        [[(0.9, 0.0)], [(0.0, 0.3)], []],                    # tie across tiers -> a
        [[], [(9.0, 0.0), (0.0, 0.4), (0.6, 0.0)], []],      # tie within b -> b
        [[], [], []],                                        # empty drop
        [[(0.0, -1.0), (0.1, 0.0)], [(0.5, 0.5)], [(0.0, 0.0)]],  # -> a
        [[], [], [(3.0, 4.0), (-3.0, 4.0)]],                 # tie at 5 m -> c
    ]
    network = _network(equal, drops)
    probes = np.zeros((len(drops), 2))
    expected = [1, 0, 1, -1, 0, 2]
    assert associate_user(probes, equal, network).tolist() == expected
    assert associate_drops(probes, equal, network) == expected


def test_single_tier_probability_one():
    probs, cis = association_probability(Region(500.0),
                                         (TierConfig("pico", 30.0, 2e-5),), 50, seed=3)
    assert probs == (1.0,)
    assert 0.0 < cis[0] < 0.1


def test_zero_density_tier_never_wins():
    probs, _ = association_probability(
        Region(500.0),
        (TierConfig("pico", 30.0, 2e-5), TierConfig("macro", 40.0, 0.0)),
        40, seed=5)
    assert probs == (1.0, 0.0)


def test_association_probability_reproducible():
    region = Region(500.0)
    tiers = (TierConfig("macro", 40.0, 1e-6, array_gain=12.4),
             TierConfig("pico", 30.0, 5e-6))
    a = association_probability(region, tiers, 200, seed=11)
    b = association_probability(region, tiers, 200, seed=11)
    assert a == b
    assert sum(a[0]) == pytest.approx(1.0, abs=1e-12)


def test_guaranteed_bs_gives_coverage():
    """Every tier density 0: the first tier's BS at the centre serves every
    drop."""
    probs, _ = association_probability(Region(500.0),
                                       (TierConfig("macro", 40.0, 0.0),), 20, seed=1)
    assert probs == (1.0,)


def test_guaranteed_bs_center(monkeypatch):
    """Each drop gets one more first-tier BS, at the centre and first in its
    drop; the PPP tiers are the ones sample_network draws, unchanged."""
    seen = []

    def spy(probes, tiers, network):
        seen.append(network)
        return associate_user(probes, tiers, network)

    monkeypatch.setattr(association, "associate_user", spy)
    region = Region(500.0)
    tiers = (TierConfig("macro", 40.0, 2e-6), TierConfig("pico", 30.0, 5e-6))
    association_probability(region, tiers, 50, seed=2)
    (network,) = seen
    (centred, counts), (pico, pico_counts) = network
    (ppp, ppp_counts), (ppp_pico, ppp_pico_counts) = sample_network(
        region, tiers, next(trial_blocks(2, 50))[0], 50)
    assert counts.tolist() == (ppp_counts + 1).tolist()
    assert np.any(counts > 1)
    first = np.cumsum(counts) - counts
    assert np.all(centred[first] == 0.0)
    assert np.delete(centred, first, axis=0).tobytes() == ppp.tobytes()
    assert pico_counts.tobytes() == ppp_pico_counts.tobytes()
    assert pico.tobytes() == ppp_pico.tobytes()


def test_association_matches_closed_form():
    """PPPs alone, probe at the origin, equal alpha: tier k wins with
    probability lambda_k (P_k G_k)^(2/alpha) / sum_j lambda_j (P_j G_j)^(2/alpha)
    (Jo, Sang, Xia & Andrews, IEEE TWC 2012). The fig4 tiers at its 5x point,
    every density scaled by 20 (macro at 20x the fig4 macro density), so the
    500 m disc holds the strongest BS of almost every drop, as the formula's
    infinite plane does. The drops are drawn and associated as
    association_probability draws them, without its centre BS and uniform
    probe."""
    region = Region(500.0)
    lam = 20 * _MACRO_DENSITY
    tiers = (TierConfig("macro", 40.0, lam, array_gain=12.4),
             TierConfig("pico", 30.0, 5 * lam),
             TierConfig("femto", 20.0, 25 * lam))
    alpha = tiers[0].path_loss_exponent
    weights = [t.density * (t.tx_power_w * t.array_gain) ** (2 / alpha)
               for t in tiers]
    closed = [w / sum(weights) for w in weights]
    wins = np.zeros(len(tiers), dtype=np.int64)
    for rng, drops in trial_blocks(2012, 20000):
        winner = associate_user(np.zeros((drops, 2)), tiers,
                                sample_network(region, tiers, rng, drops))
        wins += np.bincount(winner[winner >= 0], minlength=len(tiers))
    covered = int(wins.sum())
    assert covered == 20000
    probabilities = [int(w) / covered for w in wins]
    for p, exact in zip(probabilities, closed):
        half = _wilson_half_width(p, covered)
        assert abs(p - exact) <= 2 * half, (probabilities, closed)


def test_association_memory_bounded_by_chunk():
    region = Region(500.0)
    tiers = (TierConfig("macro", 40.0, _MACRO_DENSITY, array_gain=12.4),
             TierConfig("pico", 30.0, 10 * _MACRO_DENSITY),
             TierConfig("femto", 20.0, 50 * _MACRO_DENSITY))

    def peak(trials):
        tracemalloc.start()
        try:
            probs, _ = association_probability(region, tiers, trials, seed=5)
            return tracemalloc.get_traced_memory()[1], probs
        finally:
            tracemalloc.stop()

    one, _ = peak(TRIAL_BLOCK)
    eight, _ = peak(8 * TRIAL_BLOCK)
    assert eight <= 1.5 * one, (one, eight)
    trials = 2 * TRIAL_BLOCK + 1  # a partial last block
    _, probs = peak(trials)
    assert sum(round(p * trials) for p in probs) == trials


@pytest.mark.parametrize("densities", [(50, 0.0), (1.0, 50), (25, 25),
                                       (1.0, 10, 50)])
def test_block_bytes_bound_the_peak(densities, monkeypatch):
    """check_block_bytes's estimate bounds the tracemalloc peak of a run's
    block, full or partial, whichever tier holds the BSs: with the budget
    set to the measured peak, it refuses."""
    region = Region(500.0)
    tiers = tuple(TierConfig(f"t{k}", 40.0 - 10 * k, d * _MACRO_DENSITY)
                  for k, d in enumerate(densities))
    for trials in (TRIAL_BLOCK, 40):
        association_probability(region, tiers, trials, seed=3)  # warm up
        tracemalloc.start()
        try:
            association_probability(region, tiers, trials, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(metrics, "MEMORY_BUDGET", peak)
        with pytest.raises(ValueError, match=f"over the {peak} B budget"):
            check_block_bytes(region, tiers, trials)


def test_association_refuses_a_block_over_budget_before_any_draw(monkeypatch):
    """At 1 BS per m^2 a block of 128 drops in a 500 m disc holds about 100 M
    BSs: association_probability refuses it from arithmetic alone."""

    def no_draw(*args):
        raise AssertionError("drew a network")

    monkeypatch.setattr(association, "sample_network", no_draw)
    tiers = (TierConfig("macro", 40.0, _MACRO_DENSITY),
             TierConfig("femto", 20.0, 1.0))
    with pytest.raises(ValueError, match="drawing a block of 128 drops "
                                         "\\(about 1.01e\\+08 BSs\\) needs"):
        association_probability(Region(500.0), tiers, 20_000, seed=1)


def test_chunks_draw_from_their_own_seed():
    """Drops are drawn and associated a block at a time, block b from
    SeedSequence([seed, b]): a run is its blocks' counts added up, whatever
    came before them."""
    region = Region(500.0)
    tiers = (TierConfig("macro", 40.0, _MACRO_DENSITY, array_gain=12.4),
             TierConfig("pico", 30.0, 5 * _MACRO_DENSITY))
    trials = 2 * TRIAL_BLOCK + 10  # a partial last block
    whole, _ = association_probability(region, tiers, trials, seed=8)
    wins = np.zeros(2)
    for block, drops in enumerate((TRIAL_BLOCK, TRIAL_BLOCK, 10)):
        rng = np.random.default_rng(np.random.SeedSequence([8, block]))
        (macro, n), pico = sample_network(region, tiers, rng, drops)
        network = [(np.insert(macro, np.cumsum(n) - n, 0.0, axis=0), n + 1), pico]
        probes = association.sample_uniform(drops, region, rng)
        wins += np.bincount(associate_user(probes, tiers, network), minlength=2)
    assert whole == tuple(wins / trials)
