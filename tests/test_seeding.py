"""The one seeding rule, metrics.trial_blocks, as each experiment kind uses
it: results depend on the blocks, not on processing chunks or workers."""

import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import reference_instance
from unoma import allocation, config, engine
from unoma.config import preset_config, validate_config
from unoma.metrics import TRIAL_BLOCK, point_rng, subseed, trial_blocks
from unoma.noma_core import MPA_CHUNK, build_matrix, default_codebook

_SCMA = {
    "kind": "link_level", "name": "scma", "seed": 11, "scheme": "scma",
    "k": 4, "n": 6, "q": 4, "matrix_params": {"column_weight": 2},
    "max_iters": 8, "trials": 8 * TRIAL_BLOCK + 50,
    "sweep": {"variable": "snr_db", "values": [4.0, 10.0]},
}

_MUSA = dict(_SCMA, scheme="musa", trials=10,
             matrix_params={"column_weight": 2})


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

    def solve(group, taus, schemes):
        solution = SimpleNamespace(sum_rate=np.ones(len(group)),
                                   per_bs_rates=np.ones((len(group), 3)))
        return {(tau, scheme): (None, solution)
                for tau in taus for scheme in schemes}

    generate = engine.generate_instance
    monkeypatch.setattr(engine, "generate_instance", record)
    monkeypatch.setattr(engine, "solve_group", solve)
    engine._allocation_point(data, 2, 3)
    assert len(drawn) == 130
    block_1 = np.random.default_rng(
        np.random.SeedSequence([subseed(data["seed"], 2), 1]))
    expected = generate(3, data, 2, block_1)
    for field in fields(expected):
        if isinstance(getattr(expected, field.name), np.ndarray):
            assert np.array_equal(getattr(drawn[128], field.name),
                                  getattr(expected, field.name)), field.name


_CUT_SWEEP = {"variable": "n_small_cells", "values": [12, 32]}


def test_allocation_csv_invariant_to_lockstep_cuts(tmp_path, monkeypatch):
    """A point solves its instances in lockstep groups of at most
    allocation.group_size, and the rate kernel takes at most RATE_ROWS rows
    per call: one instance per group and one set's rows at n = 32 (33; two
    sets at n = 12) per call, across a second trial block, give the bytes of
    the default."""
    data = dict(preset_config("fig5").data, name="cuts",
                trials=TRIAL_BLOCK + 2, sweep=_CUT_SWEEP)
    default = _csv(data, tmp_path / "default")
    monkeypatch.setattr(allocation, "RATE_ROWS", 33)
    monkeypatch.setattr(allocation, "GROUP_BYTES", 1)
    assert _csv(data, tmp_path / "cut") == default


def test_allocation_kernel_calls_and_groups_are_bounded(monkeypatch):
    """On the n = 32 fig5 point no rate-kernel pass (matching or SCA) has more
    than RATE_ROWS rows, and no lockstep group's stacked tables more than
    GROUP_BYTES, whatever the trial count: the bounds are reached, not just
    kept."""
    rows, tables = [], []
    rates, stack = allocation._rates, allocation._stack

    def record_rates(terms, p, sigma2):
        rows.append(p.shape[1])
        return rates(terms, p, sigma2)

    def record_stack(instances):
        tab = stack(instances)
        tables.append(sum(a.nbytes for a in tab if isinstance(a, np.ndarray)))
        return tab

    monkeypatch.setattr(allocation, "_rates", record_rates)
    monkeypatch.setattr(allocation, "_stack", record_stack)
    data = preset_config("fig5").data
    engine._allocation_point(data, 5, 32)
    assert max(rows) <= allocation.RATE_ROWS < 2 * max(rows)
    assert max(tables) <= allocation.GROUP_BYTES < 2 * max(tables)
    solves = len(data["taus"]) * len(data["schemes"])
    assert len(tables) == -(-data["trials"] // allocation.group_size(32, 4, solves))


@pytest.mark.parametrize("schemes", [["noma"], ["oma"], ["noma", "oma"],
                                     ["oma", "noma"]])
def test_one_matcher_and_one_power_pass_per_group(monkeypatch, schemes):
    """On the n = 32 fig5 point each lockstep group solves all its (instance,
    tau, scheme) solves in one _match and one _power call, and _power in one
    _sca call, whatever RATE_ROWS is."""
    calls = []

    def record(name):
        real = getattr(allocation, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("_stack", "_match", "_power", "_sca"):
        monkeypatch.setattr(allocation, name, record(name))
    data = dict(preset_config("fig5").data, trials=7, schemes=schemes)
    solves = len(data["taus"]) * len(schemes)
    for rows in (allocation.RATE_ROWS, 3, 9):
        monkeypatch.setattr(allocation, "RATE_ROWS", rows)
        calls.clear()
        engine._allocation_point(data, 5, 32)
        groups = -(-data["trials"] // allocation.group_size(32, 4, solves))
        assert calls == ["_stack", "_match", "_power", "_sca"] * groups


def test_group_size_bounds_a_swap_round_and_an_sca_pass(tmp_path, monkeypatch):
    """group_size shrinks a group as its solves grow, so that on a small-n,
    many-tau point (n = 4, tau 1-8, both schemes) no scoring pass's sets
    (_rescore: a greedy step, the swap phase's first pass over every RB or a
    later round) and no SCA pass take more than RATE_ROWS rows unless the
    group is one instance; and groups cut small give the bytes of the
    default."""
    sizes = [allocation.group_size(4, 4, solves) for solves in (1, 4, 16, 256)]
    assert sizes == sorted(sizes, reverse=True) and sizes[0] > sizes[-1] == 1
    data = dict(preset_config("fig5").data, name="taus", trials=5,
                taus=list(range(1, 9)),
                sweep={"variable": "n_small_cells", "values": [4]})
    passes = []  # (instances in the group, rows) per scoring and SCA pass
    size = [0]

    def record(name, rows):
        real = getattr(allocation, name)

        def wrapper(*args):
            passes.append((size[0], rows(*args)))
            return real(*args)
        return wrapper

    def group(instances, taus, schemes):
        size[0] = len(instances)
        return solve_group(instances, taus, schemes)

    solve_group = allocation.solve_group
    monkeypatch.setattr(engine, "solve_group", group)
    monkeypatch.setattr(allocation, "_rescore", record(
        "_rescore", lambda tab, src, lanes, *_: len(lanes)))
    monkeypatch.setattr(allocation, "_sca", record(
        "_sca", lambda tab, sets, *_: sets.shape[1]))
    default = _csv(data, tmp_path / "default")
    for rows in (300, 100):  # groups of 2 instances, then of 1
        monkeypatch.setattr(allocation, "RATE_ROWS", rows)
        passes.clear()
        assert _csv(data, tmp_path / str(rows)) == default
        assert max(n for n, _ in passes) == (2 if rows == 300 else 1)
        assert all(r <= rows or n == 1 for n, r in passes)
        assert max(r for _, r in passes) > rows // 2
    monkeypatch.setattr(allocation, "GROUP_BYTES", 1)
    assert _csv(data, tmp_path / "cut") == default


def test_generate_instance_matches_the_per_bs_draw():
    """The array draw of a small-cell drop gives every array of the per-BS
    reference bit for bit, and leaves the generator where the reference does,
    so the later trials of a block are unchanged too."""
    data = preset_config("fig5").data
    arrays = ("x_near", "x_far", "h_macro", "i_threshold")
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
        block_0, _ = next(trial_blocks(subseed(data["seed"], i),
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
