"""The one seeding rule, metrics.trial_blocks, as each experiment kind uses
it: results depend on the blocks, not on processing chunks or workers."""

import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import reference_instance
from unoma import config, engine
from unoma.config import preset_config, validate_config
from unoma.metrics import TRIAL_BLOCK, point_rng, trial_blocks
from unoma.noma_core import MPA_CHUNK, build_matrix, default_codebook

_SCMA = {
    "kind": "link_level", "name": "scma", "seed": 11, "scheme": "scma",
    "k": 4, "n": 6, "q": 4, "matrix_params": {"column_weight": 2},
    "max_iters": 8, "trials": 8 * TRIAL_BLOCK + 50,
    "sweep": {"variable": "snr_db", "values": [4.0, 10.0]},
}

_MUSA = dict(_SCMA, scheme="musa", trials=10,
             matrix_params={"pool_size": 8, "column_weight": 2})


def _configs():
    fig5 = dict(preset_config("fig5").data, name="alloc", trials=3, taus=[2],
                sweep={"variable": "n_small_cells", "values": [3, 5]})
    assoc = dict(preset_config("fig4").data, name="assoc",
                 trials=2 * TRIAL_BLOCK + 7)
    assoc["sweep"] = {"variable": assoc["sweep"]["variable"],
                      "values": assoc["sweep"]["values"][:3]}
    return {"association_sweep": assoc, "allocation_sweep": fig5,
            "link_level": _SCMA}


def _csv(data, out, workers=1) -> bytes:
    csv_path, _, _ = engine.run_experiment(validate_config(data), out,
                                           workers=workers)
    return csv_path.read_bytes()


@pytest.mark.parametrize("kind", sorted(_configs()))
def test_csv_invariant_to_workers(kind, tmp_path):
    data = _configs()[kind]
    first = _csv(data, tmp_path / "w1")
    for workers in (2, 4):
        assert _csv(data, tmp_path / f"w{workers}", workers) == first


def test_link_csv_invariant_to_mpa_group(tmp_path, monkeypatch):
    """A link-level point detects MPA_CHUNK // TRIAL_BLOCK blocks per MPA
    call; groups of 1 and of 8 blocks give the same bytes as the default."""
    default = _csv(_SCMA, tmp_path / "default")
    for blocks in (1, 8):
        monkeypatch.setattr(engine, "MPA_CHUNK", blocks * TRIAL_BLOCK)
        assert _csv(_SCMA, tmp_path / str(blocks)) == default


def test_allocation_trial_draws_from_its_block(monkeypatch):
    """Instance t of a point is a draw of block t // TRIAL_BLOCK's generator:
    trial 128 of a 130-trial point is block 1's first instance."""
    data = dict(preset_config("fig5").data, trials=130, taus=[2])
    drawn = []

    def record(*args):
        drawn.append(generate(*args))
        return drawn[-1]

    generate = engine.generate_instance
    solution = SimpleNamespace(sum_rate=1.0, per_bs_rates=np.ones(3))
    monkeypatch.setattr(engine, "generate_instance", record)
    monkeypatch.setattr(engine, "solve_instance", lambda inst, s: (None, solution))
    engine._allocation_point(data, 2, 3)
    assert len(drawn) == 130
    block_1 = np.random.default_rng(
        np.random.SeedSequence([engine.subseed(data["seed"], 2), 1]))
    expected = generate(3, data, 2, block_1)
    for field in fields(expected):
        if isinstance(getattr(expected, field.name), np.ndarray):
            assert np.array_equal(getattr(drawn[128], field.name),
                                  getattr(expected, field.name)), field.name


def test_generate_instance_matches_the_per_bs_draw():
    """The array draw of a small-cell drop gives every array of the per-BS
    reference bit for bit, and leaves the generator where the reference does,
    so the later trials of a block are unchanged too."""
    data = preset_config("fig5").data
    arrays = ("g_near", "g_far", "x_near", "x_far", "h_macro", "i_threshold")
    for seed in range(200):
        for n in (1, 2, 12, 32):
            rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
            inst = engine.generate_instance(n, data, 2, rng)
            ref = reference_instance(n, data, 2, ref_rng)
            for name in arrays:
                a, b = getattr(inst, name), getattr(ref, name)
                assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), \
                    (seed, n, name)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def _record_builds(monkeypatch, module) -> list:
    """Wrap module.build_matrix; returns the list every built matrix joins."""
    build, built = module.build_matrix, []

    def record(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(module, "build_matrix", record)
    return built


_FOUR_POINTS = {"variable": "snr_db", "values": [0.0, 4.0, 8.0, 12.0]}


def test_link_matrix_draws_from_the_matrix_stream(monkeypatch, tmp_path):
    """A run's MUSA sequences come from point_rng(master seed), not from a
    point's block 0."""
    run = validate_config(dict(_MUSA, sweep=_FOUR_POINTS))
    data = run.data
    states = []

    def record(scheme, k, n, params, rng):
        states.append(rng.bit_generator.state)
        return build(scheme, k, n, params, rng)

    build = engine.build_matrix
    monkeypatch.setattr(engine, "build_matrix", record)
    engine.run_experiment(run, tmp_path)
    assert states == [point_rng(data["seed"]).bit_generator.state]
    for i in range(len(_FOUR_POINTS["values"])):
        block_0, _ = next(trial_blocks(engine.subseed(data["seed"], i),
                                       data["trials"]))
        assert states[0] != block_0.bit_generator.state


def test_link_run_builds_matrix_and_codebook_once(monkeypatch, tmp_path):
    """A 4-point MUSA run builds one matrix and one codebook for all its
    points; validation keeps its own dry build."""
    calls = []

    def counted(module, name):
        func = getattr(module, name)

        def wrapper(*args):
            calls.append(f"{module.__name__}.{name}")
            return func(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((config, "build_matrix"), (engine, "build_matrix"),
                         (engine, "default_codebook")):
        counted(module, name)
    run = validate_config(dict(_MUSA, sweep=_FOUR_POINTS))
    assert calls == ["unoma.config.build_matrix"]
    calls.clear()
    engine.run_experiment(run, tmp_path)
    assert calls == ["unoma.engine.build_matrix",
                     "unoma.engine.default_codebook"]


def test_validate_builds_the_matrix_every_point_detects(monkeypatch, tmp_path):
    """validate_config's dry build is the experiment's one matrix: for MUSA
    at seeds 0-9, each sweep point detects with exactly that matrix."""
    validated = _record_builds(monkeypatch, config)
    detect, detected = engine.mpa_detect_batch, []

    def record(received, matrix, *args, **kwargs):
        detected.append(matrix)
        return detect(received, matrix, *args, **kwargs)

    monkeypatch.setattr(engine, "mpa_detect_batch", record)
    for seed in range(10):
        validated.clear()
        detected.clear()
        engine.run_experiment(validate_config(dict(_MUSA, seed=seed)), tmp_path)
        assert len(validated) == 1 and len(detected) == 2
        for matrix in detected:
            assert np.array_equal(matrix.coefficients,
                                  validated[0].coefficients), seed


@pytest.mark.parametrize("kind", sorted(_configs()))
def test_tasks_carry_the_point_index_at_position_2(kind, monkeypatch, tmp_path):
    """benchmarks/sweep.py keys point timings on args[0][2] of
    engine._run_point: in a serial run it reads 0, 1, ..., P - 1 in order."""
    run_point, indices = engine._run_point, []

    def record(args):
        indices.append(args[2])
        return run_point(args)

    monkeypatch.setattr(engine, "_run_point", record)
    data = _configs()[kind]
    engine.run_experiment(validate_config(data), tmp_path, workers=1)
    assert indices == list(range(len(data["sweep"]["values"])))


def test_link_point_memory_bounded_by_mpa_group():
    """SCMA 3x3, Q=2: its MPA working set is small next to the symbols,
    received vectors and marginals of 8 * MPA_CHUNK trials (a point holding
    every trial at once peaks about 2.1 times higher at 8 than at 1)."""
    data = dict(_SCMA, k=3, n=3, q=2)
    matrix = build_matrix("scma", 3, 3, data["matrix_params"])
    codebook = default_codebook(matrix, 2)

    def peak(trials):
        tracemalloc.start()
        try:
            engine._link_point(dict(data, trials=trials), 0, 8.0, matrix,
                               codebook)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(TRIAL_BLOCK)  # one-time allocations are not part of either peak
    one = peak(MPA_CHUNK)
    eight = peak(8 * MPA_CHUNK)
    assert eight <= 1.5 * one, (one, eight)
