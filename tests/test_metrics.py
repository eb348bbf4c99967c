import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unoma.metrics import Z_95, aggregate, write_csv


def test_aggregate_two_point_group():
    s = aggregate([(0, 0.0), (0, 2.0)])
    assert s.values == (0,)
    assert s.mean == (1.0,)
    assert s.std[0] == pytest.approx(math.sqrt(2.0))
    # CI half-width: z * std / sqrt(n) with n = 2
    assert s.ci_half[0] == pytest.approx(Z_95)
    assert s.trials == (2,)


def test_aggregate_identical_samples():
    s = aggregate([(1, 3.0)] * 5)
    assert s.std == (0.0,)
    assert s.ci_half == (0.0,)


def test_aggregate_multiple_groups_sorted():
    s = aggregate([(2, 1.0), (0, 5.0), (2, 3.0)])
    assert s.values == (0, 2)
    assert s.mean == (5.0, 2.0)


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate([])


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
       st.randoms(use_true_random=False))
def test_aggregate_order_invariant(values, rnd):
    pairs = [(0, v) for v in values]
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    a = aggregate(pairs)
    b = aggregate(shuffled)
    # bit-identical thanks to the sorted reduction
    assert a == b


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
