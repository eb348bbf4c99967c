import math

import numpy as np
import pytest

from unoma.geometry import (
    Region,
    TierConfig,
    avg_received_power,
    db_to_linear,
    dbm_to_watts,
    link_distances,
    rayleigh_power_gains,
    sample_network,
    sample_ppp,
    zero_forcing_array_gain,
)


def test_dbm_to_watts_definition():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(0.001)
    assert dbm_to_watts(40.0) == pytest.approx(10.0)


def test_dbm_to_watts_rejects_non_finite():
    with pytest.raises(ValueError):
        dbm_to_watts(float("nan"))
    with pytest.raises(ValueError):
        dbm_to_watts(float("inf"))


def test_db_to_linear_only_gives_positive_finite_ratios():
    assert db_to_linear(10.0) == 10.0
    for level in (1e308, 4000.0, -4000.0, float("-inf")):  # over- and underflow
        with pytest.raises(ValueError):
            db_to_linear(level)
    with pytest.raises(ValueError):
        dbm_to_watts(1e308)


def test_region_invariants():
    r = Region(500.0)
    assert r.area == pytest.approx(math.pi * 500.0**2)
    with pytest.raises(ValueError):
        Region(0.0)
    with pytest.raises(ValueError):
        Region(-1.0)


def test_tier_config_invariants():
    with pytest.raises(ValueError):
        TierConfig("t", 30.0, -1e-6)
    with pytest.raises(ValueError):
        TierConfig("t", 30.0, 1e-6, path_loss_exponent=2.0)
    with pytest.raises(ValueError):
        TierConfig("t", 30.0, 1e-6, array_gain=0.5)
    with pytest.raises(ValueError):
        TierConfig("t", 30.0, float("inf"))
    with pytest.raises(ValueError):
        TierConfig("t", 1e308, 1e-6)
    assert TierConfig("t", 30.0, 1e-6).tx_power_w == pytest.approx(1.0)


def test_sample_ppp_zero_density():
    rng = np.random.default_rng(0)
    assert len(sample_ppp(0.0, Region(500.0), rng)) == 0


def test_sample_ppp_negative_density():
    with pytest.raises(ValueError):
        sample_ppp(-1.0, Region(500.0), np.random.default_rng(0))


def test_sample_ppp_mean_count_macro_density():
    # density from the three-tier study: mean 0.5 BSs in the 500 m disc
    density = 1.0 / (2.0 * math.pi * 500.0**2)
    region = Region(500.0)
    rng = np.random.default_rng(42)
    counts = np.array([len(sample_ppp(density, region, rng))
                       for _ in range(100_000)])
    mean = counts.mean()
    three_sigma = 3.0 * math.sqrt(0.5 / len(counts))
    assert abs(mean - 0.5) < three_sigma
    # Poisson: variance equals the mean lambda * area
    assert counts.var() == pytest.approx(0.5, rel=0.05)


def test_sample_ppp_points_inside_region():
    region = Region(100.0)
    pts = sample_ppp(1e-3, region, np.random.default_rng(1))
    assert len(pts) > 0
    d = np.linalg.norm(pts, axis=1)
    assert np.all(d <= region.radius * (1 + 1e-12))


def test_avg_received_power_values():
    gain = zero_forcing_array_gain(200, 15)
    assert gain == pytest.approx(12.4)
    assert avg_received_power(10.0, gain, 100.0, 4.0) == pytest.approx(1.24e-6)
    assert avg_received_power(3.7, 5.0, 1.0, 4.0) == pytest.approx(3.7 * 5.0)
    assert avg_received_power(1.0, 1.0, 50.0, 4.0) == pytest.approx(1.6e-7)


def test_avg_received_power_errors():
    with pytest.raises(ValueError):
        avg_received_power(1.0, 1.0, 0.0, 4.0)
    with pytest.raises(ValueError):
        avg_received_power(1.0, 1.0, 10.0, 2.0)


def test_avg_received_power_monotone():
    dists = np.linspace(1.0, 1000.0, 200)
    p = avg_received_power(1.0, 1.0, dists, 4.0)
    assert np.all(np.diff(p) < 0)
    powers = np.linspace(0.1, 10.0, 100)
    vals = [avg_received_power(pw, 1.0, 100.0, 4.0) for pw in powers]
    assert np.all(np.diff(vals) > 0)


def test_instantaneous_gain_mean_matches_path_loss():
    rng = np.random.default_rng(7)
    d, alpha = 37.0, 4.0
    gains = rayleigh_power_gains(rng, 1_000_000) * d ** (-alpha)
    assert gains.mean() == pytest.approx(d ** (-alpha), rel=0.01)


def test_fading_unit_mean():
    rng = np.random.default_rng(11)
    assert rayleigh_power_gains(rng, 1_000_000).mean() == pytest.approx(1.0, rel=0.005)


def test_snapshot_reproducible_bit_for_bit():
    region = Region(500.0)
    tiers = [TierConfig("macro", 40.0, 2e-6, array_gain=12.4),
             TierConfig("pico", 30.0, 5e-6)]
    a = sample_network(region, tiers, np.random.default_rng(123), 5,
                       guaranteed_bs="center")
    b = sample_network(region, tiers, np.random.default_rng(123), 5,
                       guaranteed_bs="center")
    for pa, pb in zip(a.bs_positions + a.bs_counts, b.bs_positions + b.bs_counts):
        assert pa.tobytes() == pb.tobytes()


def test_guaranteed_bs_center():
    snap = sample_network(Region(500.0), [TierConfig("macro", 40.0, 0.0)],
                          np.random.default_rng(1), 1, guaranteed_bs="center")
    assert len(snap.bs_positions[0]) == 1
    assert np.allclose(snap.bs_positions[0][0], (0.0, 0.0))
    # several drops: each drop's own guaranteed BS comes first in its group
    snap = sample_network(Region(500.0), [TierConfig("macro", 40.0, 2e-6)],
                          np.random.default_rng(2), 50, guaranteed_bs="center")
    counts = snap.bs_counts[0]
    assert len(counts) == 50 and np.all(counts >= 1) and np.any(counts > 1)
    first = np.cumsum(counts) - counts
    assert np.all(snap.bs_positions[0][first] == (0.0, 0.0))


def test_sample_network_poisson_counts_per_drop():
    # mean 0.5 BSs per drop in a 100 m disc
    region = Region(100.0)
    snap = sample_network(region, [TierConfig("t", 30.0, 0.5 / region.area)],
                          np.random.default_rng(42), 100_000)
    counts = snap.bs_counts[0]
    assert abs(counts.mean() - 0.5) < 3.0 * math.sqrt(0.5 / len(counts))
    assert counts.var() == pytest.approx(0.5, rel=0.05)
    d = np.linalg.norm(snap.bs_positions[0], axis=1)
    assert np.all(d <= region.radius * (1 + 1e-12))


def test_link_distances_floor():
    d = link_distances(np.zeros(2), np.array([[0.0, 0.0], [0.0, 3.0]]))
    assert d[0] == 1.0
    assert d[1] == pytest.approx(3.0)
