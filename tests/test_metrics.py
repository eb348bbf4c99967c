import numpy as np
import pytest
from hypothesis import given, strategies as st

from unoma.metrics import (
    TRIAL_BLOCK,
    Z_95,
    mean_ci,
    point_rng,
    subseed,
    trial_blocks,
    write_csv,
)


def test_mean_ci_two_points():
    mean, ci_half = mean_ci([0.0, 2.0])
    assert mean == 1.0
    # CI half-width: z * std / sqrt(n) with std = sqrt(2) and n = 2
    assert ci_half == pytest.approx(Z_95)


def test_mean_ci_identical_samples():
    assert mean_ci([3.0] * 5) == (3.0, 0.0)


def test_mean_ci_empty_raises():
    with pytest.raises(ValueError):
        mean_ci([])


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
       st.randoms(use_true_random=False))
def test_mean_ci_order_invariant(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    # bit-identical thanks to the sorted reduction
    assert mean_ci(values) == mean_ci(shuffled)


def test_trial_blocks_cover_trials_in_order():
    sizes = [n for _, n in trial_blocks(3, 2 * TRIAL_BLOCK + 5)]
    assert sizes == [TRIAL_BLOCK, TRIAL_BLOCK, 5]
    assert list(trial_blocks(3, 0)) == []
    first = [rng.random(4) for rng, _ in trial_blocks(3, 3 * TRIAL_BLOCK)]
    for block, draws in enumerate(first):
        expected = np.random.default_rng(np.random.SeedSequence([3, block]))
        assert np.array_equal(draws, expected.random(4))


def test_matrix_stream_differs_from_every_block():
    """SeedSequence(s), SeedSequence([s]) and SeedSequence([s, 0]) give the
    same stream, so a matrix stream seeded from the bare sub-seed would
    repeat block 0's draws."""
    s = subseed(7, 0)
    matrix = point_rng(s).random(8)
    assert np.array_equal(point_rng(s).random(8), matrix)
    for rng, _ in trial_blocks(s, 4 * TRIAL_BLOCK):
        assert not np.array_equal(rng.random(8), matrix)


def test_write_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b", "c"], [(1, 0.123456789123, "x"),
                                      (2, 1e-7, "y")])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.123456789,x"
    assert lines[2] == "2,1e-07,y"


def test_write_csv_row_length_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [(1,)])


def test_write_csv_numpy_types(tmp_path):
    path = tmp_path / "np.csv"
    write_csv(path, ["a", "b"], [(np.int64(3), np.float64(0.5))])
    assert path.read_text().splitlines()[1] == "3,0.5"
