"""The CSV bytes of small runs of every experiment kind, pinned by SHA-256.

A change that only restructures the code must leave these hashes as they
are. They were taken under Python 3.11.7 and numpy 2.4.6; another numpy may
round a last place differently, and then every hash here needs retaking.
"""

import hashlib

import pytest

from unoma.config import preset_config, validate_config
from unoma.engine import run_experiment

_LINK = {"kind": "link_level", "seed": 5, "trials": 200, "k": 4, "n": 6,
         "q": 4, "sweep": {"variable": "snr_db", "values": [4.0, 10.0]}}

_PDMA_PATTERNS = [[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1],
                  [1, 1, 0, 0], [0, 0, 1, 1]]

_RUNS = {
    "fig4": (lambda: preset_config("fig4", {"trials": 300}),
             "ca7540f6dc5b8f64f8cb9f0334a9b80f527029b7733a287d5caa5af38a31096d"),
    "fig5": (lambda: preset_config("fig5", {"trials": 8}),
             "c9a12670c580e023a0825f50352966d6ed0c81f5ca99dfe8a97c09fa43dbdb76"),
    # the matcher's edge cases: quotas above n_bs, one RB with sets 12 wide,
    # and closed RBs (at alpha 150 the macro signal, so the cap, is mostly 0)
    "fig5-small-n": (lambda: preset_config("fig5", {
                         "seed": 9, "n_rb": 2, "taus": [1, 2], "trials": 140,
                         "sweep": {"variable": "n_small_cells",
                                   "values": [1, 2, 3, 5]}}),
                     "95699ca0a568cde593048c7dcc59d4363806d7312172a3d6d0ef075e4e76e1ca"),
    "fig5-wide": (lambda: preset_config("fig5", {
                      "seed": 5, "n_rb": 1, "taus": [12], "trials": 4,
                      "sweep": {"variable": "n_small_cells", "values": [12]}}),
                  "c72eed01e42fe45d02520a55116356d6316426a2c97fc8ebb8b4ee31a2a648b6"),
    "fig5-closed": (lambda: preset_config("fig5", {"alpha": 150, "trials": 1}),
                    "e8718039d353ed1a897eac958c3f74a283dd2b8100c1b6062e7dffb5c6def5df"),
    "scma": (lambda: validate_config(dict(
                 _LINK, name="scma", scheme="scma",
                 matrix_params={"column_weight": 2})),
             "b58ad66363ddc0507eb0374ba82603f2cffcd6609ddc4eb5899152c2871c8c9f"),
    "pdma": (lambda: validate_config(dict(
                 _LINK, name="pdma", scheme="pdma",
                 matrix_params={"patterns": _PDMA_PATTERNS})),
             "fe1235f9ac07e794ca08175ef4d220c6474ce25b2bc8d5ebd0c43a09699d65f4"),
    # MPA's edge paths: at 20 and 30 dB messages reach the _TINY clamp
    # (the SER is 0, so a clamp gone wrong shows as errors), Q=8 has 512
    # joint symbols per RB, and PDMA's degree-3 layers sum two messages
    "scma-high-snr": (lambda: validate_config(dict(
                          _LINK, name="scma", scheme="scma", trials=600,
                          matrix_params={"column_weight": 2},
                          sweep={"variable": "snr_db", "values": [20.0, 30.0]})),
                      "928ca550bee3e9b586c13c8ae3d8513d5822a69abbcd8b23cda4a5d44fa7f4e1"),
    "scma-q8": (lambda: validate_config(dict(
                    _LINK, name="scma8", scheme="scma", q=8,
                    matrix_params={"column_weight": 2},
                    sweep={"variable": "snr_db", "values": [4.0, 12.0]})),
                "a9d6eeaebbf244daef2b9d3995d1273203b8cb049fc10616754cd460134fbef8"),
    "pdma-20db": (lambda: validate_config(dict(
                      _LINK, name="pdma", scheme="pdma", trials=600,
                      matrix_params={"patterns": _PDMA_PATTERNS},
                      sweep={"variable": "snr_db", "values": [20.0]})),
                  "0554cc9179b31cc858037895ea3dc368e680451494e17961cba60ae714dbdf7c"),
    "musa": (lambda: validate_config(dict(
                 _LINK, name="musa", scheme="musa",
                 matrix_params={"column_weight": 2})),
             "ad99b06d99f079b63522d44fe79a2d6d5a62f57c6ccad72e6a8c0edce5db1ff8"),
    "pd-noma": (lambda: validate_config(dict(
                    _LINK, name="pdnoma", scheme="pd-noma", k=1, n=2, q=2)),
                "2406f4708844f3946d09e719d1a9947b1e1347206bfb6563c529d71b02b3ae37"),
}


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_csv_bytes_pinned(run, tmp_path):
    make, digest = _RUNS[run]
    csv_path, _, _ = run_experiment(make(), tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest
