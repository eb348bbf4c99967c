import concurrent.futures
import copy
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from unoma import config as config_module
from unoma import engine, metrics, noma_core
from unoma.cli import main
from unoma.config import (
    ConfigError,
    load_config,
    preset_config,
    validate_config,
)
from unoma.engine import config_hash, run_experiment
from unoma.metrics import MEMORY_BUDGET, TRIAL_BLOCK, subseed
from unoma.noma_core import (
    MPA_CHUNK,
    build_matrix,
    default_codebook,
    mpa_chunk_bytes,
    received_chunk_bytes,
)


def _tiny_link_config():
    return {
        "kind": "link_level",
        "name": "tiny",
        "seed": 1,
        "trials": 200,
        "scheme": "pd-noma",
        "k": 1,
        "n": 2,
        "q": 2,
        "sweep": {"variable": "snr_db", "values": [0.0, 6.0]},
    }


def _tiny_association_config():
    return {
        "kind": "association_sweep",
        "name": "assoc",
        "seed": 3,
        "trials": 60,
        "workers": 1,
        "region_radius_m": 500.0,
        "tiers": [
            {"tier_id": "macro", "tx_power_dbm": 40.0,
             "density_per_m2": 6.4e-7, "antennas": 200, "streams": 15},
            {"tier_id": "pico", "tx_power_dbm": 30.0,
             "density_factor_of_sweep": 1.0},
        ],
        "sweep": {"variable": "small_cell_density_per_m2",
                  "values": [1e-6, 5e-6]},
    }


def test_presets_validate():
    fig4 = preset_config("fig4")
    assert fig4.kind == "association_sweep"
    assert fig4.trials >= 20000
    assert len(fig4.sweep_values) >= 6
    assert fig4.data["tiers"][0]["array_gain"] == pytest.approx(12.4)
    fig5 = preset_config("fig5")
    assert fig5.kind == "allocation_sweep"
    assert fig5.trials >= 100
    assert fig5.data["taus"] == [2, 3]
    with pytest.raises(ConfigError):
        preset_config("fig6")


def test_unknown_key_rejected():
    data = _tiny_link_config()
    data["bogus"] = 1
    with pytest.raises(ConfigError) as exc:
        validate_config(data)
    assert "bogus" in str(exc.value)


def test_missing_required_key():
    data = _tiny_link_config()
    del data["trials"]
    with pytest.raises(ConfigError) as exc:
        validate_config(data)
    assert "trials" in str(exc.value)


def test_sweep_must_increase():
    data = _tiny_link_config()
    data["sweep"]["values"] = [6.0, 0.0]
    with pytest.raises(ConfigError):
        validate_config(data)
    data["sweep"]["values"] = [0.0, 0.0]
    with pytest.raises(ConfigError):
        validate_config(data)


def test_sweep_variable_checked():
    data = _tiny_link_config()
    data["sweep"]["variable"] = "snr"
    with pytest.raises(ConfigError):
        validate_config(data)


def test_bad_values_rejected():
    for key, val in [("q", 3), ("k", 0), ("trials", 0), ("seed", -1),
                     ("scheme", "cdma"), ("max_iters", 0)]:
        data = _tiny_link_config()
        data[key] = val
        with pytest.raises(ConfigError):
            validate_config(data)


def test_validate_rejects_unbuildable_matrix(tmp_path):
    base = dict(_tiny_link_config(), scheme="scma", k=4, n=6, q=4,
                matrix_params={"column_weight": 2})
    validate_config(base)
    bad = [dict(base, n=7),  # C(4,2) = 6 distinct columns < N = 7
           dict(base, matrix_params={"column_weight": 2, "bogus": 1}),
           dict(base, matrix_params={"column_weight": 4}),  # weight K: dense
           dict(base, scheme="pdma", n=3, matrix_params={"patterns": [
               [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1]]}),  # a zero column
           dict(base, scheme="pd-noma", k=2, n=2, matrix_params={})]
    for i, data in enumerate(bad):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == 1


def test_matrix_params_must_be_whole_numbers(tmp_path):
    # int() would truncate these and build another matrix than the one asked
    scma = dict(_tiny_link_config(), scheme="scma", k=4, n=6, q=4)
    musa = dict(scma, scheme="musa")
    pdma = dict(scma, scheme="pdma", n=4, matrix_params={"patterns": [
        [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]})
    validate_config(pdma)
    bad = [dict(scma, matrix_params={"column_weight": 2.7}),
           dict(scma, matrix_params={"column_weight": True}),
           dict(musa, matrix_params={"column_weight": 2.5}),
           dict(pdma, matrix_params={"patterns": [
               [True, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]})]
    for i, data in enumerate(bad):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == 1
    validate_config(dict(scma, matrix_params={"column_weight": 2.0}))


def test_musa_refuses_pool_size(tmp_path, capsys):
    """A MUSA pool is the matrix's N columns; a pool_size key is unknown."""
    path = tmp_path / "musa.json"
    path.write_text(json.dumps(dict(_tiny_link_config(), scheme="musa", k=4,
                                    n=6, q=4, matrix_params={
                                        "pool_size": 8, "column_weight": 2})))
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path), "--output", str(tmp_path)]):
        assert main(argv) == 1
        assert "unknown musa matrix parameter(s) ['pool_size']" \
            in capsys.readouterr().err


@pytest.mark.parametrize("name", ["a/b", "../escaped", "..", ".", "a\\b",
                                  "a\0b"])
def test_name_must_be_a_file_name(tmp_path, name):
    """A name that is not a plain file name would put the CSV in another
    directory, or in none: validate and run refuse it, and nothing is
    written."""
    path = tmp_path / "cfg" / "cfg.json"
    path.parent.mkdir()
    path.write_text(json.dumps(dict(_tiny_link_config(), name=name)))
    out = tmp_path / "out" / "deep"
    assert main(["validate", "--config", str(path)]) == 1
    assert main(["run", "--config", str(path), "--output", str(out)]) == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg", "cfg.json"]


def test_validate_rejects_mpa_over_memory_budget(tmp_path, monkeypatch):
    """A link-level config whose MPA chunk would exceed MEMORY_BUDGET fails
    validate and run, before any detection."""

    def no_run(*args, **kwargs):
        raise AssertionError("the run should have been refused")

    monkeypatch.setattr("unoma.cli.run_experiment", no_run)
    scma = dict(_tiny_link_config(), scheme="scma", k=4, n=6, q=4,
                matrix_params={"column_weight": 2})
    validate_config(scma)
    matrix = build_matrix("scma", 4, 6, {"column_weight": 2},
                          np.random.default_rng(0))
    # 4 RBs of 3 layers, so 4^3 joint symbols each, 12 edges and 6 layers
    assert mpa_chunk_bytes(matrix, 4) == (4 * 4**3 + 4**3 + 4 * (3 * 12 + 1)
                                          + 17 * 6) * MPA_CHUNK * 8 < MEMORY_BUDGET
    # (2 * 8^6 + 8 * 19 + 33 * 6) * 4096 * 8 B = 16 GiB
    pd = dict(_tiny_link_config(), k=1, n=6, q=8)
    path = tmp_path / "pd.json"
    path.write_text(json.dumps(pd))
    assert main(["validate", "--config", str(path)]) == 1
    assert main(["run", "--config", str(path),
                 "--output", str(tmp_path / "out")]) == 1
    validate_config(dict(pd, q=4))  # (2 * 4^6 + 76 + 102) * 4096 * 8 B = 262 MiB


def test_validate_and_run_count_every_rbs_likelihoods(tmp_path, monkeypatch,
                                                      capsys):
    """PDMA k=16, n=6, q=4, layer j on every RB but RB j: no RB holds more
    than 4^6 joint symbols (384 MiB at the old 24 B each), but detection
    keeps all 16 RBs' likelihoods, 6 * 4^5 + 10 * 4^6 of them (1472 MiB at
    8 B), so validate and run refuse it and write nothing. Only the
    estimate is computed; the config is never run."""

    def no_run(*args, **kwargs):
        raise AssertionError("the run should have been refused")

    monkeypatch.setattr("unoma.cli.run_experiment", no_run)
    patterns = [[int(rb != j) for rb in range(16)] for j in range(6)]
    matrix = build_matrix("pdma", 16, 6, {"patterns": patterns})
    kept = (6 * 4**5 + 10 * 4**6) * MPA_CHUNK * 8
    assert 4**6 * MPA_CHUNK * 24 < MEMORY_BUDGET < kept
    assert mpa_chunk_bytes(matrix, 4) == \
        kept + (4**6 + 4 * (3 * 90 + 1) + 17 * 6) * MPA_CHUNK * 8
    path = tmp_path / "cfg" / "pdma.json"
    path.parent.mkdir()
    path.write_text(json.dumps(dict(_tiny_link_config(), scheme="pdma",
                                    k=16, n=6, q=4,
                                    matrix_params={"patterns": patterns})))
    arrays = received_chunk_bytes(16, 6, 4)
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path),
                  "--output", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"detecting a chunk of {MPA_CHUNK} vectors by MPA " \
            f"({mpa_chunk_bytes(matrix, 4)} B, plus {arrays} B of K-wide " \
            f"arrays) needs {mpa_chunk_bytes(matrix, 4) + arrays} B, over " \
            f"the {MEMORY_BUDGET} B budget" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg", "pdma.json"]


def test_validate_and_run_count_the_k_wide_arrays(tmp_path, monkeypatch,
                                                  capsys):
    """SCMA k=100 000, n=2, column_weight 1, q=4: only two RBs hold a layer,
    so MPA's likelihoods, messages and layer arrays take 2 424 832 B a
    chunk, but the chunk's received vectors alone are 4096 x 100 000 complex
    values (6.55 GB), held three times. validate and run refuse it, from k,
    n and q alone, and write nothing; only the estimates are computed, and
    the config is never run."""

    def no_run(*args, **kwargs):
        raise AssertionError("the run should have been refused")

    monkeypatch.setattr("unoma.cli.run_experiment", no_run)
    matrix = build_matrix("scma", 100_000, 2, {"column_weight": 1})
    assert mpa_chunk_bytes(matrix, 4) == 2_424_832 < MEMORY_BUDGET
    arrays = received_chunk_bytes(100_000, 2, 4)
    assert arrays > 3 * MPA_CHUNK * 100_000 * 16 > MEMORY_BUDGET
    path = tmp_path / "cfg" / "scma.json"
    path.parent.mkdir()
    path.write_text(json.dumps(dict(_tiny_link_config(), scheme="scma",
                                    k=100_000, n=2, q=4,
                                    matrix_params={"column_weight": 1})))
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path),
                  "--output", str(tmp_path / "out")]):
        assert main(argv) == 1
        assert "scma with k=100000, n=2, q=4: holding the K-wide arrays of a " \
            f"chunk of {MPA_CHUNK} vectors needs {arrays} B, over the " \
            f"{MEMORY_BUDGET} B budget" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg", "scma.json"]


def test_validate_refuses_the_k_wide_arrays_before_building_the_matrix():
    """SCMA k = n = 1 500, q = 2, column_weight 1: the K-wide arrays need
    about 5 GB, and validate refuses them before build_matrix allocates its
    K x N arrays, which peaked at 66 MB when the build came first."""
    data = dict(_tiny_link_config(), scheme="scma", k=1500, n=1500, q=2,
                matrix_params={"column_weight": 1})
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="holding the K-wide arrays"):
            validate_config(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("n", [2, 6])
def test_link_estimate_bounds_a_full_chunk(n, monkeypatch):
    """SCMA K = 64, Q = 4, column weight 1: mpa_chunk_bytes plus
    received_chunk_bytes bounds the tracemalloc peak of a full MPA_CHUNK of
    engine._link_point (it read 0.99 and 0.97 times the estimate): with the
    budget set to the measured peak, validate refuses the config."""
    data = validate_config(dict(_tiny_link_config(), scheme="scma", k=64, n=n,
                                q=4, trials=MPA_CHUNK,
                                matrix_params={"column_weight": 1})).data
    matrix = build_matrix("scma", 64, n, data["matrix_params"])
    codebook = default_codebook(matrix, 4)
    engine._link_point(dict(data, trials=TRIAL_BLOCK), 0, 8.0, matrix,
                       codebook)  # one-time allocations are not in the peak
    tracemalloc.start()
    try:
        engine._link_point(data, 0, 8.0, matrix, codebook)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(metrics, "MEMORY_BUDGET", peak)
    with pytest.raises(ConfigError, match=f"over the {peak} B budget"):
        validate_config(data)


def test_validate_and_run_refuse_the_musa_matrix_over_budget(
        tmp_path, monkeypatch, capsys):
    """MUSA k=6, n=8, q=4, 8 sequences of weight 3: at seed 1 the
    experiment's one matrix has a degree-7 RB, whose likelihoods alone take
    4^7 * 4096 * 8 B = 512 MiB and as much again while built (1201 MiB in
    all), so validate and run refuse it, also when --seed picks it; at seed
    2 its densest RB has degree 5 (125 MiB in all)."""

    def no_run(*args, **kwargs):
        raise AssertionError("the run should have been refused")

    monkeypatch.setattr("unoma.cli.run_experiment", no_run)
    musa = dict(_tiny_link_config(), scheme="musa", k=6, n=8, q=4,
                matrix_params={"column_weight": 3},
                sweep={"variable": "snr_db", "values": [0.0, 4.0, 8.0]})
    bad, good = tmp_path / "seed1.json", tmp_path / "seed2.json"
    bad.write_text(json.dumps(dict(musa, seed=1)))
    good.write_text(json.dumps(dict(musa, seed=2)))
    out = str(tmp_path / "out")
    for argv in (["validate", "--config", str(bad)],
                 ["run", "--config", str(bad), "--output", out],
                 ["run", "--config", str(good), "--seed", "1", "--output", out]):
        assert main(argv) == 1
        assert f"over the {MEMORY_BUDGET} B budget" in capsys.readouterr().err
    assert main(["validate", "--config", str(good)]) == 0


def test_validate_and_run_refuse_a_musa_pool_over_budget(
        tmp_path, monkeypatch, capsys):
    """MUSA compares its N sequences in an N x N complex Gram matrix and its
    modulus, 24 B per entry. A pool whose matrix would exceed the budget is
    refused before any draw, by validate and by run; the budget is lowered
    here so that no test allocates a large matrix. 150 sequences of length 1
    need 540 000 B there, more than the 508 608 B of K-wide arrays validate
    checks first. At exactly 540 000 B the pool is drawn, and validate
    refuses the config on its MPA estimate instead."""

    def no_run(*args, **kwargs):
        raise AssertionError("the run should have been refused")

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"drew from the rng ({name})")

    monkeypatch.setattr("unoma.cli.run_experiment", no_run)
    assert received_chunk_bytes(1, 150, 2) == 508_608 < 24 * 150 * 150
    monkeypatch.setattr(metrics, "MEMORY_BUDGET", 24 * 150 * 150 - 1)
    with pytest.raises(ValueError, match="Gram matrix"):
        noma_core.musa_pool(150, 1, [1.0, -1.0], NoDraws())
    path = tmp_path / "musa.json"
    path.write_text(json.dumps(dict(_tiny_link_config(), scheme="musa", k=1,
                                    n=150)))
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path),
                  "--output", str(tmp_path / "out")]):
        assert main(argv) == 1
        assert "comparing 150 sequences in a Gram matrix needs 540000 B" \
            in capsys.readouterr().err
    monkeypatch.setattr(metrics, "MEMORY_BUDGET", 24 * 150 * 150)
    assert noma_core.musa_pool(150, 1, [1.0, -1.0],
                               np.random.default_rng(0)).shape == (150, 1)
    assert main(["validate", "--config", str(path)]) == 1
    assert "by MPA" in capsys.readouterr().err


def test_validate_and_run_refuse_musa_candidate_pools_over_budget(
        tmp_path, monkeypatch, capsys):
    """MUSA holds two (N, K) complex candidate pools and three K-long arrays
    of a draw, (32 N + 24) K B: 5 632 B for 2 sequences of length 64, whose
    Gram matrix needs only 96 B. Over the budget, musa_pool refuses the pool
    before any draw. The K-wide arrays of a link-level chunk are larger than
    the pools for every k and n, so validate and run refuse that config
    before building the matrix, on its 12 849 152 B of K-wide arrays, and
    write nothing; the budget is lowered here so that no test allocates a
    large array. At exactly 5 632 B the pool is drawn."""

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"drew from the rng ({name})")

    monkeypatch.setattr(metrics, "MEMORY_BUDGET", 5_632 - 1)
    with pytest.raises(ValueError, match="candidate pools"):
        noma_core.musa_pool(2, 64, [1.0, -1.0], NoDraws(), weight=1,
                            max_row_weight=1)
    path = tmp_path / "musa.json"
    path.write_text(json.dumps(dict(_tiny_link_config(), scheme="musa", k=64,
                                    n=2, matrix_params={"column_weight": 1})))
    out = tmp_path / "out"
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path), "--output", str(out)]):
        assert main(argv) == 1
        assert "holding the K-wide arrays of a chunk of 4096 vectors needs " \
            "12849152 B" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["musa.json"]
    monkeypatch.setattr(metrics, "MEMORY_BUDGET", 5_632)
    assert noma_core.musa_pool(2, 64, [1.0, -1.0], np.random.default_rng(0),
                               weight=1, max_row_weight=1).shape == (2, 64)


def test_power_split_must_be_a_valid_pair(tmp_path, monkeypatch, capsys):
    """a_m/a_n must be numbers that make the NomaPair the run builds."""

    def no_run(*args, **kwargs):
        raise AssertionError("the run should have been refused")

    monkeypatch.setattr("unoma.cli.run_experiment", no_run)
    fig5 = preset_config("fig5").data
    for i, split in enumerate([{"a_m": "0.6"}, {"a_n": None},
                               {"a_m": 0.4, "a_n": 0.6}]):
        path = tmp_path / f"split{i}.json"
        path.write_text(json.dumps(dict(fig5, **split)))
        for argv in (["validate", "--config", str(path)],
                     ["run", "--config", str(path),
                      "--output", str(tmp_path / "out")]):
            assert main(argv) == 1
            assert "'a_" in capsys.readouterr().err


def test_association_rejects_power_split_keys(tmp_path):
    """a_m/a_n have no effect on an association sweep and are unknown keys
    there."""
    for key in ("a_m", "a_n"):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(dict(_tiny_association_config(), **{key: 0.6})))
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == 1


def test_association_rejects_model_choice_keys(tmp_path, capsys):
    """An association sweep has one model, so 'probe' and 'guaranteed_bs' are
    unknown keys, refused before anything is written."""
    for key, value in (("probe", "origin"), ("probe", "uniform"),
                       ("guaranteed_bs", None), ("guaranteed_bs", "center")):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(_tiny_association_config(),
                                        **{key: value})))
        for argv in (["validate", "--config", str(path)],
                     ["run", "--config", str(path),
                      "--output", str(tmp_path / "out")]):
            assert main(argv) == 1
            assert f"unknown key {key!r}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_musa_alphabet_pairs(tmp_path):
    # JSON has no complex numbers: an entry is a real number or [re, im]
    base = dict(_tiny_link_config(), scheme="musa", k=4, n=6, q=4, trials=50)
    pairs = {"column_weight": 2, "alphabet": [[0.5, 0.5], [-0.5, 0.5], 1]}
    complex_alphabet = [0.5 + 0.5j, -0.5 + 0.5j, 1]
    direct = build_matrix("musa", 4, 6, dict(pairs, alphabet=complex_alphabet),
                          np.random.default_rng(0))
    parsed = build_matrix("musa", 4, 6, pairs, np.random.default_rng(0))
    assert np.array_equal(parsed.coefficients, direct.coefficients)
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(dict(base, matrix_params=pairs)))
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path),
                 "--output", str(tmp_path / "out")]) == 0
    for i, alphabet in enumerate([[[0.5, 0.5, 0.1]], [[0.5]], ["1j"],
                                  [[0.5, "x"]], [True], [{"re": 1}]]):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(dict(base, matrix_params={"alphabet": alphabet})))
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == 1


def test_musa_alphabet_magnitudes(tmp_path, capsys):
    """An entry that is not finite, or whose K-entry sequence's norm would
    overflow or underflow, is refused before drawing, naming the alphabet."""
    base = dict(_tiny_link_config(), scheme="musa", k=4, n=6, q=4)
    for i, alphabet in enumerate([[[1e200, 0], [1, 0]], [[1e-200, 0]],
                                  [math.nan, 1]]):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(dict(base, matrix_params={"alphabet": alphabet})))
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == 1
        assert "error: musa matrix with k=4, n=6: alphabet" in capsys.readouterr().err


def test_musa_default_column_weight_overfills_the_row_cap(tmp_path, capsys):
    """At the default column_weight (K) a k=4, n=6 pool needs 24 row slots
    and the cap of n - 1 per row allows 20: refused before drawing, naming
    column_weight."""
    path = tmp_path / "musa.json"
    path.write_text(json.dumps(dict(_tiny_link_config(), scheme="musa", k=4,
                                    n=6, q=4, matrix_params={})))
    assert main(["validate", "--config", str(path)]) == 1
    assert "column_weight" in capsys.readouterr().err
    assert main(["run", "--config", str(path),
                 "--output", str(tmp_path / "out")]) == 1
    assert "column_weight" in capsys.readouterr().err


@pytest.mark.parametrize("repeat", [{"taus": [2, 2]},
                                    {"schemes": ["noma", "noma"]}])
def test_allocation_refuses_a_repeated_entry(tmp_path, capsys, repeat):
    """A repeated tau or scheme would pool one key's samples twice and
    shrink its CI, so validate and run both refuse it."""
    path = tmp_path / "fig5.json"
    path.write_text(json.dumps(dict(preset_config("fig5").data, trials=1,
                                    sweep={"variable": "n_small_cells",
                                           "values": [3]}, **repeat)))
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path), "--output", str(tmp_path)]):
        assert main(argv) == 1
        assert repr(next(iter(repeat))) in capsys.readouterr().err


def test_validate_and_run_refuse_radii_whose_distances_overflow(tmp_path):
    """A link spans up to 2 region_radius_m + user_ring_radius_m; where its
    square overflows, validate and run exit 1 and write nothing. Just inside
    the bound both run clean (a RuntimeWarning is an error here)."""
    fig5 = dict(preset_config("fig5").data, trials=1,
                sweep={"variable": "n_small_cells", "values": [12]})
    for i, radii in enumerate([{"region_radius_m": 1e308},
                               {"region_radius_m": 1e154},
                               {"user_ring_radius_m": 1e308}]):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(dict(fig5, **radii)))
        assert main(["validate", "--config", str(path)]) == 1
        out = tmp_path / f"out{i}"
        assert main(["run", "--config", str(path), "--output", str(out)]) == 1
        assert not out.exists()
    for radii in ({"region_radius_m": 1e150}, {"user_ring_radius_m": 1e154}):
        run_experiment(validate_config(dict(fig5, **radii)), tmp_path / "ok")


def test_allocation_config_checks():
    data = dict(preset_config("fig5").data)
    data["taus"] = [2, 0]
    with pytest.raises(ConfigError):
        validate_config(data)
    data = dict(preset_config("fig5").data)
    data["schemes"] = ["noma", "tdma"]
    with pytest.raises(ConfigError):
        validate_config(data)
    data = dict(preset_config("fig5").data)
    data["a_m"], data["a_n"] = 0.5, 0.5
    with pytest.raises(ConfigError):
        validate_config(data)


def _fuzz_musa_config():
    return dict(_tiny_link_config(), scheme="musa", k=3, n=4, q=2,
                matrix_params={"column_weight": 2,
                               "alphabet": [[0.5, 0.5], -1]})


def _leaf_paths(node, path=()):
    """Paths to every number or string inside node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float, str)) else []
    return [p for key, child in items for p in _leaf_paths(child, path + (key,))]


def test_validate_never_crashes():
    """Any one leaf of a valid config set to an odd value is accepted or
    refused with a ConfigError, never another exception."""
    odd = [math.inf, -math.inf, -1, 0, 1e308, 10**30, "x", None, True, [], {}]
    for config in (preset_config("fig4"), preset_config("fig5"),
                   validate_config(_fuzz_musa_config())):
        for path in _leaf_paths(config.data):
            for value in odd:
                data = copy.deepcopy(config.data)
                node = data
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                try:
                    validate_config(data)
                except ConfigError:
                    pass


def _gap_configs():
    """Configs that validate once accepted and run then refused, or that
    crashed both with a traceback."""
    fig4 = dict(preset_config("fig4").data, trials=10)
    fig5 = dict(preset_config("fig5").data, trials=1)

    def macro(**keys):
        return dict(fig4, tiers=[dict(fig4["tiers"][0], **keys),
                                 *fig4["tiers"][1:]])

    return [dict(fig4, region_radius_m=math.inf),
            dict(fig5, region_radius_m=math.inf),
            dict(fig5, user_ring_radius_m=math.inf),
            macro(tx_power_dbm=1e308),
            dict(fig5, small_power_dbm=1e308),
            dict(fig5, macro_power_dbm=1e308),
            dict(fig5, protection_ratio_db=1e308),
            dict(_tiny_link_config(), sweep={"variable": "snr_db",
                                             "values": [0.0, 4000.0]}),
            macro(antennas=2, streams=5),
            macro(array_gain="x")]


def test_validate_and_run_agree(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the run should have been refused")

    monkeypatch.setattr("unoma.cli.run_experiment", no_run)
    for i, data in enumerate(_gap_configs()):
        path = tmp_path / f"gap{i}.json"
        path.write_text(json.dumps(data))
        for argv in (["validate", "--config", str(path)],
                     ["run", "--config", str(path),
                      "--output", str(tmp_path / "out")]):
            assert main(argv) == 1, (i, argv[0])
            assert "error:" in capsys.readouterr().err


def test_each_command_validates_once(tmp_path, monkeypatch):
    """run builds a MUSA config's matrix in validation once, also with
    overrides, and preset builds the fig5 power-split pair once."""
    built = []

    def counted(make):
        def wrapper(*args, **kwargs):
            built.append(make.__name__)
            return make(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(config_module, "build_matrix",
                        counted(config_module.build_matrix))
    monkeypatch.setattr(config_module, "NomaPair",
                        counted(config_module.NomaPair))
    monkeypatch.setattr("unoma.cli.run_experiment",
                        lambda *args, **kwargs: ("csv", "manifest", None))
    path = tmp_path / "musa.json"
    path.write_text(json.dumps(_fuzz_musa_config()))
    assert main(["run", "--config", str(path), "--seed", "3",
                 "--trials", "10", "--workers", "2"]) == 0
    assert built == ["build_matrix"]
    built.clear()
    assert main(["preset", "--name", "fig5", "--trials", "1"]) == 0
    assert built == ["NomaPair"]


def test_tier_checks():
    data = _tiny_association_config()
    data["tiers"].append(dict(data["tiers"][0]))
    with pytest.raises(ConfigError):  # duplicate tier_id
        validate_config(data)
    data = _tiny_association_config()
    data["tiers"][0]["array_gain"] = 3.0  # conflicts with antennas/streams
    with pytest.raises(ConfigError):
        validate_config(data)
    data = _tiny_association_config()
    cfg = validate_config(data)
    assert cfg.data["tiers"][0]["array_gain"] == pytest.approx(12.4)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_defaults_applied():
    cfg = validate_config(_tiny_link_config())
    assert cfg.workers == 1
    assert cfg.data["max_iters"] == 8
    assert cfg.name == "tiny"


def test_subseed_and_hash_stable():
    assert subseed(1, 2) == subseed(1, 2)
    assert subseed(1, 2) != subseed(2, 1)
    assert 0 <= subseed(0, 0) < 2**63
    a = config_hash({"b": 1, "a": 2})
    b = config_hash({"a": 2, "b": 1})
    assert a == b and len(a) == 64


def test_run_experiment_worker_invariant(tmp_path):
    cfg = validate_config(_tiny_association_config())
    csv1, man1, _ = run_experiment(cfg, tmp_path / "w1", workers=1)
    csv2, _, _ = run_experiment(cfg, tmp_path / "w2", workers=2)
    assert csv1.read_bytes() == csv2.read_bytes()
    manifest = json.loads(man1.read_text())
    assert manifest["config_hash"] == config_hash(cfg.data)
    assert len(manifest["point_seeds"]) == 2
    header = csv1.read_text().splitlines()[0]
    assert header == "sweep_value,tier_id,probability,ci_half_width,trials"


def test_pool_never_outnumbers_the_points(tmp_path, monkeypatch):
    """The pool gets at most one worker per sweep point, whatever workers
    says. A stand-in executor records the request and runs the points in this
    process, so no process starts."""
    requested = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = validate_config(_tiny_association_config())
    run_experiment(cfg, tmp_path, workers=100_000)
    assert requested == [len(cfg.sweep_values)] == [2]


def _assert_seeding(conventions):
    """Every kind's manifest states the one seeding rule."""
    for fact in (f"{TRIAL_BLOCK} at a time", "SeedSequence([point sub-seed, b])",
                 "in trial order", "SeedSequence(master seed, spawn_key=(1,))"):
        assert fact in conventions["seeding"]


@pytest.mark.parametrize("change", [{"n_rb": 10**9},
                                    {"sweep": {"variable": "n_small_cells",
                                               "values": [100000]}}])
def test_validate_and_run_refuse_an_allocation_instance_over_budget(
        tmp_path, monkeypatch, capsys, change):
    """An allocation instance whose stacked gain tables exceed MEMORY_BUDGET
    (tens to hundreds of GB here) is refused by validate and by run before
    any draw, and nothing is written: the check is arithmetic only."""

    def no_run(*args, **kwargs):
        raise AssertionError("the run should have been refused")

    monkeypatch.setattr("unoma.cli.run_experiment", no_run)
    path = tmp_path / "cfg" / "fig5.json"
    path.parent.mkdir()
    path.write_text(json.dumps(dict(preset_config("fig5").data, **change)))
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path),
                  "--output", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "stacking one instance's gain tables needs" in err
        assert f"over the {MEMORY_BUDGET} B budget" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg", "fig5.json"]


def test_validate_and_run_refuse_an_association_block_over_budget(
        tmp_path, monkeypatch, capsys):
    """fig4 at 1 BS per m^2: a block of 128 drops holds about 600 M BSs
    (about 9.7 GB for their positions alone), so validate and run refuse
    it before any draw, and nothing is written: the check is arithmetic
    only. The preset's own densities validate."""

    def no_run(*args, **kwargs):
        raise AssertionError("the run should have been refused")

    monkeypatch.setattr("unoma.cli.run_experiment", no_run)
    monkeypatch.setattr("unoma.association.sample_network", no_run)
    fig4 = preset_config("fig4").data
    path = tmp_path / "cfg" / "fig4.json"
    path.parent.mkdir()
    path.write_text(json.dumps(dict(fig4, sweep={
        "variable": "small_cell_density_per_m2",
        "values": [*fig4["sweep"]["values"], 1.0]})))
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path),
                  "--output", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "sweep value 1.0: drawing a block of 128 drops (about " \
               "6.03e+08 BSs) needs" in err
        assert f"over the {MEMORY_BUDGET} B budget" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg", "fig4.json"]


def _one_trial_configs():
    fig4, fig5 = preset_config("fig4").data, preset_config("fig5").data
    musa = dict(_tiny_link_config(), scheme="musa", k=4, n=6,
                matrix_params={"column_weight": 2})
    return {
        "association": dict(fig4, sweep=dict(fig4["sweep"],
                                             values=fig4["sweep"]["values"][:1])),
        "allocation": dict(fig5, taus=[2], sweep=dict(fig5["sweep"], values=[4])),
        "scma": dict(musa, scheme="scma", q=4),
        "musa": musa,
    }


@pytest.mark.parametrize("kind", list(_one_trial_configs()))
def test_validate_and_run_refuse_at_the_same_budget(tmp_path, monkeypatch,
                                                     kind):
    """Every memory estimate is read against metrics.MEMORY_BUDGET alone: at
    the largest need that validate checks, validate passes and the run
    completes; one byte lower, validate and run both exit 1 and write
    nothing."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(_one_trial_configs()[kind], name=kind,
                                    trials=1)))
    check, needs = metrics.within_budget, []

    def spy(need, what):
        needs.append(need)
        check(need, what)

    with monkeypatch.context() as m:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "unoma" \
                    and getattr(module, "within_budget", None) is check:
                m.setattr(module, "within_budget", spy)
        assert main(["validate", "--config", str(path)]) == 0
    monkeypatch.setattr(metrics, "MEMORY_BUDGET", max(needs))
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path),
                 "--output", str(tmp_path / "fits")]) == 0
    assert (tmp_path / "fits" / f"{kind}.csv").exists()
    monkeypatch.setattr(metrics, "MEMORY_BUDGET", max(needs) - 1)
    assert main(["validate", "--config", str(path)]) == 1
    assert main(["run", "--config", str(path),
                 "--output", str(tmp_path / "over")]) == 1
    assert not (tmp_path / "over").exists()


def test_cli_validate_ok(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_link_config()))
    assert main(["validate", "--config", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_bad_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "link_level"}))
    assert main(["validate", "--config", str(path)]) == 1


def test_cli_missing_config_flag():
    assert main(["run"]) == 1


def test_cli_usage_error_names_the_argument(capsys):
    """A usage error exits 1, and stderr says which argument is wrong, not
    only the usage lines."""
    assert main(["run"]) == 1
    assert "the following arguments are required: --config" \
        in capsys.readouterr().err
    assert main(["preset", "--name", "nope"]) == 1
    err = capsys.readouterr().err
    assert "argument --name: invalid choice: 'nope'" in err
    assert main(["--help"]) == 0


def test_cli_unknown_command():
    assert main(["frobnicate"]) == 1


def test_cli_missing_file():
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 1


def test_cli_run_link_level(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_link_config()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 0
    csv = (out / "tiny.csv").read_text().splitlines()
    assert csv[0] == "snr_db,ser,trials,seed"
    assert len(csv) == 3
    # SER should not increase with SNR
    ser = [float(line.split(",")[1]) for line in csv[1:]]
    assert ser[1] <= ser[0]
    manifest = json.loads((out / "tiny_manifest.json").read_text())
    assert set(manifest["conventions"]) == {"snr_db", "mpa_stop", "seeding"}
    assert "largest RB-to-layer message change" in \
        manifest["conventions"]["mpa_stop"]
    _assert_seeding(manifest["conventions"])


def test_cli_run_allocation(tmp_path):
    data = dict(preset_config("fig5").data, name="alloc", trials=1,
                taus=[2], sweep={"variable": "n_small_cells", "values": [3, 6]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 0
    csv = (out / "alloc.csv").read_text().splitlines()
    assert len(csv) == 1 + 2 * 2  # two points, two schemes
    conventions = json.loads((out / "alloc_manifest.json").read_text())["conventions"]
    assert set(conventions) == {"fairness", "matching", "power_control",
                                "seeding"}
    _assert_seeding(conventions)
    for fact in ("cap-scaled equal power", "moves into vacancies before",
                 "row-major (BS, RB) and (BS, BS)", "1e-12",
                 "two seeds", "deferred acceptance", "greedy",
                 "while its best gain is > 0",
                 "the first maximum in row-major (BS, RB) order",
                 "optimum is kept unless greedy's total is better by more "
                 "than 1e-12"):
        assert fact in conventions["matching"]
    for fact in ("clip(A_j / (c_j(p) + mu*h_j), p_max*e^-60, p_max)",
                 "bisection with Newton steps on RBs whose cap binds", "1e-15",
                 "only if that RB's sum rate does not fall"):
        assert fact in conventions["power_control"]


def test_cli_run_allocation_with_every_rate_zero(tmp_path):
    """Noise so strong that every rate is 0: the run completes, and Jain's
    index over all-zero rates reads 1."""
    data = dict(preset_config("fig5").data, name="zero", trials=1,
                sigma2_w=1e300,
                sweep={"variable": "n_small_cells", "values": [12]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 0
    rows = (out / "zero.csv").read_text().splitlines()
    header = rows[0].split(",")
    for row in rows[1:]:
        values = dict(zip(header, row.split(",")))
        assert float(values["sum_rate"]) == 0.0
        assert float(values["fairness"]) == 1.0
    conventions = json.loads((out / "zero_manifest.json").read_text())["conventions"]
    assert "all 0 has fairness 1" in conventions["fairness"]


def test_cli_run_allocation_with_closed_rbs(tmp_path):
    """Path loss so steep that the macro user's signal, and so every cap,
    underflows to 0: an RB is then closed to every set the macro user hears,
    whose members stay silent, and the run completes. Only a BS whose near
    user lies within the 1 m distance floor keeps a rate above 0."""
    data = dict(preset_config("fig5").data, name="closed", trials=1, alpha=150)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 0
    rows = (out / "closed.csv").read_text().splitlines()
    header = rows[0].split(",")
    zero = 0
    for row in rows[1:]:
        values = dict(zip(header, row.split(",")))
        rate, fairness = float(values["sum_rate"]), float(values["fairness"])
        assert rate >= 0.0
        assert 1.0 / int(values["n_small_cells"]) <= fairness <= 1.0
        assert rate > 0.0 or fairness == 1.0
        zero += rate == 0.0
    assert zero  # the case the test is meant to reach
    conventions = json.loads((out / "closed_manifest.json").read_text())["conventions"]
    assert "cap is 0 keeps the members the macro user hears silent" \
        in conventions["power_control"]


def test_cli_run_association(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_association_config()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 0
    csv = (out / "assoc.csv").read_text().splitlines()
    assert len(csv) == 1 + 2 * 2  # two points, two tiers
    conventions = json.loads((out / "assoc_manifest.json").read_text())["conventions"]
    assert set(conventions) == {"association", "seeding"}
    for fact in ("disc of radius region_radius_m",
                 "one BS of the first tier at the disc's centre",
                 "probe user drawn uniformly in the disc",
                 "largest average received power", "max(d, 1 m)",
                 "earlier tier", "nearest BS"):
        assert fact in conventions["association"]
    assert "not counted" not in conventions["association"]
    _assert_seeding(conventions)


def test_sweep_value_without_ppp_bs_runs(tmp_path):
    """One tier whose density is (almost) 0 at some sweep values: the first
    tier's BS at the centre serves every drop, so validate and run succeed
    and every point's probabilities sum to 1 over all its trials."""
    data = _tiny_association_config()
    data.update(trials=5,
                tiers=[{"tier_id": "pico", "tx_power_dbm": 30.0,
                        "density_factor_of_sweep": 1.0}],
                sweep={"variable": "small_cell_density_per_m2",
                       "values": [0.0, 1e-12, 1e-5]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--output", str(out)]) == 0
    header, *rows = (out / "assoc.csv").read_text().splitlines()
    assert header == "sweep_value,tier_id,probability,ci_half_width,trials"
    assert len(rows) == 3
    for row in rows:
        _, tier, probability, _, trials = row.split(",")
        assert (tier, float(probability), trials) == ("pico", 1.0, "5")


def test_cli_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_link_config()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--output", str(out),
                 "--trials", "50", "--seed", "9"]) == 0
    csv = (out / "tiny.csv").read_text().splitlines()
    assert csv[1].split(",")[2] == "50"
    manifest = json.loads((out / "tiny_manifest.json").read_text())
    assert manifest["master_seed"] == 9
