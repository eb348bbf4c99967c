import copy
import json
import math

import numpy as np
import pytest

from unoma import config as config_module
from unoma import engine as engine_module
from unoma.cli import main
from unoma.config import (
    ConfigError,
    load_config,
    preset_config,
    validate_config,
)
from unoma.engine import config_hash, run_experiment, subseed
from unoma.metrics import TRIAL_BLOCK
from unoma.noma_core import (
    MPA_CHUNK,
    MPA_MEMORY_BUDGET,
    build_matrix,
    mpa_chunk_bytes,
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
        "probe": "uniform",
        "guaranteed_bs": "center",
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
           dict(musa, matrix_params={"pool_size": 6.9}),
           dict(pdma, matrix_params={"patterns": [
               [True, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]})]
    for i, data in enumerate(bad):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == 1
    validate_config(dict(scma, matrix_params={"column_weight": 2.0}))


def test_validate_rejects_mpa_over_memory_budget(tmp_path, monkeypatch):
    """A link-level config whose MPA chunk would exceed MPA_MEMORY_BUDGET on
    its densest RB fails validate and run, before any detection."""

    def no_run(*args, **kwargs):
        raise AssertionError("the run should have been refused")

    monkeypatch.setattr("unoma.cli.run_experiment", no_run)
    scma = dict(_tiny_link_config(), scheme="scma", k=4, n=6, q=4,
                matrix_params={"column_weight": 2})
    validate_config(scma)
    matrix = build_matrix("scma", 4, 6, {"column_weight": 2},
                          np.random.default_rng(0))
    assert mpa_chunk_bytes(matrix, 4) == 4**3 * MPA_CHUNK * 24 < MPA_MEMORY_BUDGET
    pd = dict(_tiny_link_config(), k=1, n=6, q=8)  # 8^6 * 4096 * 24 B = 24 GiB
    path = tmp_path / "pd.json"
    path.write_text(json.dumps(pd))
    assert main(["validate", "--config", str(path)]) == 1
    assert main(["run", "--config", str(path),
                 "--output", str(tmp_path / "out")]) == 1
    validate_config(dict(pd, q=4))  # 4^6 * 4096 * 24 B = 384 MiB


def test_validate_and_run_refuse_the_musa_matrix_over_budget(
        tmp_path, monkeypatch, capsys):
    """MUSA k=6, n=8, q=4 from 8 sequences of weight 3: at seed 1 the
    experiment's one matrix has a degree-7 RB (4^7 * 4096 * 24 B = 1.5 GiB),
    so validate and run refuse it, also when --seed picks it; at seed 2 its
    densest RB has degree 5 (96 MiB)."""

    def no_run(*args, **kwargs):
        raise AssertionError("the run should have been refused")

    monkeypatch.setattr("unoma.cli.run_experiment", no_run)
    musa = dict(_tiny_link_config(), scheme="musa", k=6, n=8, q=4,
                matrix_params={"pool_size": 8, "column_weight": 3},
                sweep={"variable": "snr_db", "values": [0.0, 4.0, 8.0]})
    bad, good = tmp_path / "seed1.json", tmp_path / "seed2.json"
    bad.write_text(json.dumps(dict(musa, seed=1)))
    good.write_text(json.dumps(dict(musa, seed=2)))
    out = str(tmp_path / "out")
    for argv in (["validate", "--config", str(bad)],
                 ["run", "--config", str(bad), "--output", out],
                 ["run", "--config", str(good), "--seed", "1", "--output", out]):
        assert main(argv) == 1
        assert f"over the {MPA_MEMORY_BUDGET} B budget" in capsys.readouterr().err
    assert main(["validate", "--config", str(good)]) == 0


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
                matrix_params={"pool_size": 4, "column_weight": 2,
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

    monkeypatch.setattr(engine_module, "ProcessPoolExecutor", InlinePool)
    cfg = validate_config(_tiny_association_config())
    run_experiment(cfg, tmp_path, workers=100_000)
    assert requested == [len(cfg.sweep_values)] == [2]


def _assert_seeding(conventions):
    """Every kind's manifest states the one seeding rule."""
    for fact in (f"{TRIAL_BLOCK} at a time", "SeedSequence([point sub-seed, b])",
                 "in trial order", "SeedSequence(master seed, spawn_key=(1,))"):
        assert fact in conventions["seeding"]


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
                 "row-major (BS, RB) and (BS, BS)", "1e-12"):
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


def test_cli_run_association(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_association_config()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 0
    csv = (out / "assoc.csv").read_text().splitlines()
    assert len(csv) == 1 + 2 * 2  # two points, two tiers
    conventions = json.loads((out / "assoc_manifest.json").read_text())["conventions"]
    assert set(conventions) == {"association", "seeding"}
    for fact in ("largest average received power", "max(d, 1 m)",
                 "earlier tier", "lowest BS index"):
        assert fact in conventions["association"]
    _assert_seeding(conventions)


def test_validate_rejects_sweep_value_without_bs(tmp_path):
    """A sweep value at which every tier density is 0, with no guaranteed
    BS, fails validate as it fails run."""
    data = _tiny_association_config()
    data.update(guaranteed_bs=None,
                tiers=[{"tier_id": "pico", "tx_power_dbm": 30.0,
                        "density_factor_of_sweep": 1.0}],
                sweep={"variable": "small_cell_density_per_m2",
                       "values": [0.0, 1e-5]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 1
    assert main(["run", "--config", str(path), "--output",
                 str(tmp_path / "out")]) == 1
    data["guaranteed_bs"] = "center"
    path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(path)]) == 0


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
