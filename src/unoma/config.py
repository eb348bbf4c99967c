"""Declarative experiment configuration: schema validation and presets.

Config files are JSON. Units are stated per key: powers in dBm, densities in
BSs per m^2, distances in meters, noise/interference levels in watts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .allocation import group_size
from .association import check_block_bytes
from .geometry import (
    Region,
    TierConfig,
    db_to_linear,
    dbm_to_watts,
    zero_forcing_array_gain,
)
from .metrics import point_rng, within_budget
from .noma_core import (
    MPA_CHUNK,
    SCHEMES,
    NomaPair,
    build_matrix,
    mpa_chunk_bytes,
    received_chunk_bytes,
)

KINDS = ("association_sweep", "allocation_sweep", "link_level")

_COMMON_KEYS = {"kind", "name", "seed", "trials", "workers", "sweep"}
_SWEEP_KEYS = {"variable", "values"}
_TIER_KEYS = {"tier_id", "tx_power_dbm", "density_per_m2",
              "density_factor_of_sweep", "array_gain", "antennas", "streams",
              "path_loss_exponent"}
_ASSOC_KEYS = _COMMON_KEYS | {"region_radius_m", "tiers"}
_ALLOC_KEYS = _COMMON_KEYS | {"n_rb", "taus", "schemes", "macro_power_dbm",
                              "small_power_dbm", "sigma2_w",
                              "protection_ratio_db", "region_radius_m",
                              "user_ring_radius_m", "alpha", "a_m", "a_n"}
_LINK_KEYS = _COMMON_KEYS | {"scheme", "k", "n", "q", "matrix_params",
                             "max_iters"}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    data: dict

    @property
    def name(self) -> str:
        return self.data["name"]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def trials(self) -> int:
        return self.data["trials"]

    @property
    def workers(self) -> int:
        return self.data["workers"]

    @property
    def sweep_values(self) -> list:
        return self.data["sweep"]["values"]


def _require(data: dict, key: str, types, pred=None, what: str = ""):
    if key not in data:
        raise ConfigError(f"missing required key {key!r}")
    val = data[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise ConfigError(f"key {key!r} has invalid type {type(val).__name__}")
    if pred is not None and not pred(val):
        raise ConfigError(f"key {key!r} invalid: {what}")
    return val


def _built(what: str, make, *args):
    """make(*args), as the run builds it from the config: a bound it enforces
    is checked there only, and its error becomes a ConfigError naming what."""
    try:
        return make(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _reject_unknown(data: dict, allowed: set, where: str = "config"):
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _validate_sweep(data: dict, variable: str, value_pred=None, what: str = ""):
    sweep = _require(data, "sweep", dict)
    _reject_unknown(sweep, _SWEEP_KEYS, "sweep")
    var = _require(sweep, "variable", str)
    if var != variable:
        raise ConfigError(f"key 'sweep.variable' must be {variable!r}, got {var!r}")
    values = _require(sweep, "values", list, lambda v: len(v) > 0,
                      "must be non-empty")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or value_pred is not None and not value_pred(v):
            raise ConfigError(f"key 'sweep.values' invalid entry {v!r}: {what}")
    if sorted(values) != list(values) or len(set(values)) != len(values):
        raise ConfigError("key 'sweep.values' must be strictly increasing")
    return values


def _validate_common(data: dict):
    kind = _require(data, "kind", str, lambda k: k in KINDS,
                    f"must be one of {KINDS}")
    data.setdefault("name", kind)
    data.setdefault("seed", 0)
    data.setdefault("workers", 1)
    _require(data, "seed", int, lambda s: s >= 0, "must be >= 0")
    _require(data, "trials", int, lambda t: t >= 1, "trials must be >= 1")
    _require(data, "workers", int, lambda w: w >= 1, "must be >= 1")
    _require(data, "name", str,
             lambda n: n not in ("", ".", "..") and not set("/\\\0") & set(n),
             "must be a file name: not empty, '.' or '..', and without '/', "
             "'\\' or NUL")
    return kind


def _validate_tier(tier: dict, idx: int) -> dict:
    where = f"tiers[{idx}]"
    if not isinstance(tier, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(tier, _TIER_KEYS, where)
    _require(tier, "tier_id", str)
    _require(tier, "tx_power_dbm", (int, float))
    tier.setdefault("density_per_m2", 0.0)
    tier.setdefault("density_factor_of_sweep", 0.0)
    tier.setdefault("path_loss_exponent", 4.0)
    _require(tier, "density_per_m2", (int, float), lambda d: d >= 0, "must be >= 0")
    _require(tier, "density_factor_of_sweep", (int, float), lambda d: d >= 0,
             "must be >= 0")
    _require(tier, "path_loss_exponent", (int, float))
    gain = _require(tier, "array_gain", (int, float)) if "array_gain" in tier else None
    if "antennas" in tier or "streams" in tier:
        zf_gain = _built(f"{where} keys 'antennas'/'streams'",
                         zero_forcing_array_gain, _require(tier, "antennas", int),
                         _require(tier, "streams", int))
        if gain is not None and not math.isclose(gain, zf_gain):
            raise ConfigError(f"{where}: array_gain conflicts with antennas/streams")
        gain = zf_gain
    tier["array_gain"] = 1.0 if gain is None else gain
    return tier


def _validate_association(data: dict):
    _reject_unknown(data, _ASSOC_KEYS)
    region = _built("key 'region_radius_m'", Region,
                    _require(data, "region_radius_m", (int, float)))
    tiers = _require(data, "tiers", list, lambda t: len(t) >= 1,
                     "need at least one tier")
    for i, tier in enumerate(tiers):
        _validate_tier(tier, i)
    ids = [t["tier_id"] for t in tiers]
    if len(set(ids)) != len(ids):
        raise ConfigError("key 'tiers' contains duplicate tier_id values")
    for v in _validate_sweep(data, "small_cell_density_per_m2", lambda v: v >= 0,
                             "must be >= 0"):
        run_tiers = _built(f"tiers at sweep value {v!r}", association_tiers,
                           data, v)
        # the run's blocks of drops, as association_probability checks them
        _built(f"sweep value {v!r}", check_block_bytes, region, run_tiers,
               data["trials"])


def association_tiers(data: dict, value: float) -> tuple[TierConfig, ...]:
    """The tiers an association_sweep config runs at one small-cell density
    sweep value: tier density density_per_m2 + density_factor_of_sweep * value."""
    return tuple(TierConfig(t["tier_id"], t["tx_power_dbm"],
                            t["density_per_m2"] + t["density_factor_of_sweep"] * value,
                            t["array_gain"], t["path_loss_exponent"])
                 for t in data["tiers"])


def _validate_allocation(data: dict):
    _reject_unknown(data, _ALLOC_KEYS)
    data.setdefault("a_m", 0.6)
    data.setdefault("a_n", 0.4)
    data.setdefault("alpha", 4.0)
    data.setdefault("schemes", ["noma", "oma"])
    data.setdefault("protection_ratio_db", 10.0)
    _require(data, "n_rb", int, lambda n: n >= 1, "must be >= 1")
    taus = _require(data, "taus", list, lambda t: len(t) >= 1, "must be non-empty")
    for t in taus:
        if isinstance(t, bool) or not isinstance(t, int) or t < 1:
            raise ConfigError(f"key 'taus' entries must be integers >= 1, got {t!r}")
    if len(set(taus)) != len(taus):  # a repeat counts each sample twice
        raise ConfigError(f"key 'taus' repeats an entry: {taus}")
    schemes = data["schemes"]
    if not isinstance(schemes, list) or not schemes or \
            any(s not in ("noma", "oma") for s in schemes) or \
            len(set(schemes)) != len(schemes):
        raise ConfigError("key 'schemes' must be a non-empty subset of ['noma','oma']")
    # each is converted or built as the run does
    for key, make in (("macro_power_dbm", dbm_to_watts),
                      ("small_power_dbm", dbm_to_watts),
                      ("protection_ratio_db", db_to_linear),
                      ("region_radius_m", Region),
                      ("user_ring_radius_m", Region)):
        _built(f"key {key!r}", make, _require(data, key, (int, float)))
    _require(data, "sigma2_w", (int, float), lambda s: s > 0, "must be > 0")
    _require(data, "alpha", (int, float), lambda a: a > 2, "must be > 2")
    # the pair every small cell of the run is built with
    _built("keys 'a_m'/'a_n'", NomaPair, _require(data, "a_m", (int, float)),
           _require(data, "a_n", (int, float)))
    values = _validate_sweep(data, "n_small_cells",
                             lambda v: isinstance(v, int) and v >= 1,
                             "must be integers >= 1")
    # the run's group sizing, at its largest instance
    _built(f"n_small_cells {values[-1]} with n_rb {data['n_rb']}", group_size,
           values[-1], data["n_rb"], len(taus) * len(schemes))


def _validate_link(data: dict):
    _reject_unknown(data, _LINK_KEYS)
    data.setdefault("max_iters", 8)
    data.setdefault("matrix_params", {})
    _require(data, "scheme", str, lambda s: s in SCHEMES,
             f"must be one of {SCHEMES}")
    _require(data, "k", int, lambda v: v >= 1, "must be >= 1")
    _require(data, "n", int, lambda v: v >= 1, "must be >= 1")
    _require(data, "q", int, lambda v: v in (2, 4, 8), "must be 2, 4 or 8")
    _require(data, "max_iters", int, lambda v: v >= 1, "must be >= 1")
    _require(data, "matrix_params", dict)
    for snr_db in _validate_sweep(data, "snr_db"):  # the run's noise variance
        _built(f"key 'sweep.values' entry {snr_db!r}", db_to_linear, -snr_db)
    # Build the run's one spreading matrix, so validation rejects what it would.
    matrix = _built(f"{data['scheme']} matrix with k={data['k']}, n={data['n']}",
                    build_matrix, data["scheme"], data["k"], data["n"],
                    data["matrix_params"], point_rng(data["seed"]))
    mpa = mpa_chunk_bytes(matrix, data["q"])
    arrays = received_chunk_bytes(matrix, data["q"])
    _built(f"{data['scheme']} with k={data['k']}, n={data['n']}, q={data['q']}",
           within_budget, mpa + arrays,
           f"detecting a chunk of {MPA_CHUNK} vectors by MPA ({mpa} B, "
           f"plus {arrays} B of K-wide arrays)")


def validate_config(data: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Validate a raw config dict, with the keys in overrides replaced, and
    apply defaults; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    data = json.loads(json.dumps({**data, **(overrides or {})}))  # JSON-typed copy
    kind = _validate_common(data)
    if kind == "association_sweep":
        _validate_association(data)
    elif kind == "allocation_sweep":
        _validate_allocation(data)
    else:
        _validate_link(data)
    return ExperimentConfig(kind, data)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return validate_config(data, overrides)


_MACRO_DENSITY = 1.0 / (2.0 * math.pi * 500.0**2)


# Built-in case-study presets, as raw configs.
PRESETS = {
    "fig4": {
        "kind": "association_sweep",
        "name": "fig4",
        "seed": 42,
        "trials": 20000,
        "workers": 1,
        "region_radius_m": 500.0,
        "tiers": [
            {"tier_id": "macro", "tx_power_dbm": 40.0,
             "density_per_m2": _MACRO_DENSITY,
             "antennas": 200, "streams": 15},
            {"tier_id": "pico", "tx_power_dbm": 30.0,
             "density_factor_of_sweep": 1.0},
            {"tier_id": "femto", "tx_power_dbm": 20.0,
             "density_factor_of_sweep": 5.0},
        ],
        "sweep": {
            "variable": "small_cell_density_per_m2",
            "values": [_MACRO_DENSITY * m for m in (1, 2, 5, 10, 20, 50)],
        },
    },
    "fig5": {
        "kind": "allocation_sweep",
        "name": "fig5",
        "seed": 7,
        "trials": 100,
        "workers": 1,
        "n_rb": 4,
        "taus": [2, 3],
        "schemes": ["noma", "oma"],
        "macro_power_dbm": 43.0,
        "small_power_dbm": 23.0,
        "sigma2_w": 1e-9,
        "protection_ratio_db": 10.0,
        "region_radius_m": 500.0,
        "user_ring_radius_m": 50.0,
        "alpha": 4.0,
        "a_m": 0.6,
        "a_n": 0.4,
        "sweep": {
            "variable": "n_small_cells",
            "values": [12, 16, 20, 24, 28, 32],
        },
    },
}


def preset_config(name: str, overrides: dict | None = None) -> ExperimentConfig:
    """A built-in preset, validated with the keys in overrides replaced."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} "
                          f"(available: {', '.join(PRESETS)})")
    return validate_config(PRESETS[name], overrides)
