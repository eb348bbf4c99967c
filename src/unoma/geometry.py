"""Multi-tier random deployment: PPP sampling, path loss, fading, received power."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Distances below this are clamped to avoid the d^-alpha singularity at 0.
DISTANCE_FLOOR_M = 1.0


def db_to_linear(x: float) -> float:
    """The ratio 10^(x/10) of a level x in dB; ValueError unless it is a
    positive finite number."""
    try:
        ratio = 10.0 ** (x / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"{x!r} dB is out of range: 10^(x/10) = {ratio}, "
                         "not a positive finite number")
    return ratio


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power level from dBm to watts."""
    return db_to_linear(p_dbm - 30.0)


def zero_forcing_array_gain(n_antennas: int, n_streams: int) -> float:
    """Per-stream array gain (M - N + 1)/N of a zero-forcing massive-MIMO macro BS."""
    if n_antennas < n_streams or n_streams < 1:
        raise ValueError("need n_antennas >= n_streams >= 1")
    return (n_antennas - n_streams + 1) / n_streams


@dataclass(frozen=True)
class Region:
    """Disc-shaped simulation window centred on the origin."""

    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and > 0, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius**2


@dataclass(frozen=True)
class TierConfig:
    """One deployment tier (macro / pico / femto)."""

    tier_id: str
    tx_power_dbm: float
    density: float  # BSs per m^2
    array_gain: float = 1.0
    path_loss_exponent: float = 4.0

    def __post_init__(self):
        where = f"tier {self.tier_id!r}"
        if not 0 <= self.density < math.inf:
            raise ValueError(f"{where}: density must be finite and >= 0, "
                             f"got {self.density}")
        if not self.path_loss_exponent > 2:  # for a finite mean interference
            raise ValueError(f"{where}: path_loss_exponent must be > 2")
        if not self.array_gain >= 1:
            raise ValueError(f"{where}: array_gain must be >= 1, got {self.array_gain}")
        try:  # the power in watts must be positive and finite
            dbm_to_watts(self.tx_power_dbm)
        except ValueError as exc:
            raise ValueError(f"{where}: tx_power_dbm {exc}") from None

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)


def _sample_ppp_drops(density: float, region: Region, rng: np.random.Generator,
                      drops: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw `drops` homogeneous PPP realizations: one array call for the
    per-drop Poisson counts, one for all the points, grouped by drop.
    Returns the (sum of counts, 2) positions and the (drops,) counts."""
    if density < 0:
        raise ValueError(f"density must be >= 0, got {density}")
    n = rng.poisson(density * region.area, drops)
    return sample_uniform(int(n.sum()), region, rng), n


def sample_ppp(density: float, region: Region, rng: np.random.Generator) -> np.ndarray:
    """Draw one homogeneous PPP realization; returns an (n, 2) position array."""
    return _sample_ppp_drops(density, region, rng, 1)[0]


def sample_uniform(n: int, region: Region, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. uniform points in the region (binomial point process)."""
    r = region.radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


@dataclass(frozen=True)
class NetworkSnapshot:
    """Independent random draws ("drops") of BS positions per tier."""

    tiers: tuple[TierConfig, ...]
    bs_positions: tuple[np.ndarray, ...]  # one (n_i, 2) array per tier
    # one (drops,) array per tier: how many of the tier's positions, taken
    # in order, belong to each drop
    bs_counts: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not len(self.tiers) == len(self.bs_positions) == len(self.bs_counts):
            raise ValueError("one position array and one count array per tier required")
        if len({len(c) for c in self.bs_counts}) > 1 or any(
                c.sum() != len(p) for c, p in zip(self.bs_counts, self.bs_positions)):
            raise ValueError("each tier needs one count per drop, summing to "
                             "its number of positions")

    @property
    def n_bs(self) -> int:
        return sum(len(p) for p in self.bs_positions)

    @property
    def n_drops(self) -> int:
        return len(self.bs_counts[0])


def sample_network(
    region: Region,
    tiers: list[TierConfig],
    rng: np.random.Generator,
    drops: int,
    guaranteed_bs: str | None = None,
) -> NetworkSnapshot:
    """Draw `drops` independent networks, one PPP per tier each, from rng.

    Each tier's drops come from one _sample_ppp_drops call, the draw
    sample_ppp makes for a single drop.
    guaranteed_bs: None, "center" or "uniform" -- adds to every drop one extra
    BS of the first tier, listed first in its drop, so every drop has coverage.
    """
    if guaranteed_bs not in (None, "center", "uniform"):
        raise ValueError(f"unknown guaranteed_bs mode {guaranteed_bs!r}")
    positions, counts = [], []
    for i, tier in enumerate(tiers):
        pts, n = _sample_ppp_drops(tier.density, region, rng, drops)
        if i == 0 and guaranteed_bs is not None:
            if guaranteed_bs == "center":
                extra = np.zeros((drops, 2))
            else:
                extra = sample_uniform(drops, region, rng)
            pts = np.insert(pts, np.cumsum(n) - n, extra, axis=0)
            n = n + 1
        positions.append(pts)
        counts.append(n)
    return NetworkSnapshot(tuple(tiers), tuple(positions), tuple(counts))


def link_distances(point: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Euclidean distances between (..., 2) arrays of points and positions,
    broadcast against each other, clamped to the 1 m floor."""
    d = np.linalg.norm(np.asarray(positions) - np.asarray(point), axis=-1)
    return np.maximum(d, DISTANCE_FLOOR_M)


def avg_received_power(tx_power: float, array_gain: float, distance, alpha: float):
    """Fading-averaged received power tx * gain * d^-alpha.

    distance may be a scalar or an array; all entries must be > 0.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be > 0 (clamp to the 1 m floor upstream)")
    if alpha <= 2:
        raise ValueError(f"alpha must be > 2, got {alpha}")
    out = tx_power * array_gain * d ** (-alpha)
    return float(out) if np.isscalar(distance) else out


def rayleigh_power_gains(rng: np.random.Generator, size=None):
    """Unit-mean exponential power gains (Rayleigh amplitude fading)."""
    return rng.exponential(1.0, size)
