import numpy as np
import pytest

from oracles import exact_posteriors
from unoma import noma_core
from unoma.noma_core import (
    build_matrix,
    default_codebook,
    mpa_detect_batch,
    symbol_error_rate,
)


def _tree_matrix():
    # K=2, N=2, acyclic factor graph
    return build_matrix("pdma", 2, 2, {"patterns": [(1, 1), (1, 0)]})


def _receive(codebook, truth, noise_var, rng):
    b, n = truth.shape
    k = codebook.codewords.shape[2]
    y = np.zeros((b, k), dtype=complex)
    for layer in range(n):
        y += codebook.codewords[layer, truth[:, layer], :]
    noise = rng.normal(size=(b, k)) + 1j * rng.normal(size=(b, k))
    return y + noise * np.sqrt(noise_var / 2.0)


def test_mpa_exact_on_tree():
    rng = np.random.default_rng(0)
    matrix = _tree_matrix()
    cb = default_codebook(matrix, 4)
    truth = rng.integers(0, 4, size=(64, 2))
    y = _receive(cb, truth, 0.5, rng)
    marg, _, _ = mpa_detect_batch(y, matrix, cb, 0.5, max_iters=20, tol=1e-13)
    exact, _ = exact_posteriors(y, cb, 0.5)
    assert np.max(np.abs(marg - exact)) < 1e-9


def test_mpa_exact_single_rb():
    rng = np.random.default_rng(1)
    matrix = build_matrix("pd-noma", 1, 2)
    cb = default_codebook(matrix, 2)
    truth = rng.integers(0, 2, size=(64, 2))
    y = _receive(cb, truth, 0.3, rng)
    marg, hard, _ = mpa_detect_batch(y, matrix, cb, 0.3, max_iters=10)
    exact, _ = exact_posteriors(y, cb, 0.3)
    assert np.max(np.abs(marg - exact)) < 1e-9
    assert (hard == np.argmax(marg, axis=2)).all()


def test_mpa_marginals_are_distributions():
    rng = np.random.default_rng(2)
    matrix = build_matrix("scma", 4, 6, {"column_weight": 2})
    cb = default_codebook(matrix, 4)
    truth = rng.integers(0, 4, size=(32, 6))
    y = _receive(cb, truth, 0.2, rng)
    marg, hard, iters = mpa_detect_batch(y, matrix, cb, 0.2)
    assert marg.shape == (32, 6, 4)
    assert np.allclose(marg.sum(axis=2), 1.0)
    assert (marg >= 0).all()
    assert 1 <= iters <= 8
    assert (hard == np.argmax(marg, axis=2)).all()


def test_mpa_noiseless_recovers_truth():
    rng = np.random.default_rng(3)
    matrix = build_matrix("scma", 4, 6, {"column_weight": 2})
    cb = default_codebook(matrix, 4)
    truth = rng.integers(0, 4, size=(50, 6))
    y = _receive(cb, truth, 1e-12, rng)
    _, hard, _ = mpa_detect_batch(y, matrix, cb, 1e-3, max_iters=16)
    assert symbol_error_rate(hard, truth) == 0.0


def _scma_batch(noise_var):
    matrix = build_matrix("scma", 4, 6, {"column_weight": 2})
    cb = default_codebook(matrix, 4)
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 4, size=(3000, 6))
    return matrix, cb, truth, _receive(cb, truth, noise_var, rng)


def test_mpa_chunk_and_batch_mate_invariance(monkeypatch):
    matrix, cb, _, y = _scma_batch(0.3)
    marg, hard, iters = mpa_detect_batch(y, matrix, cb, 0.3)
    monkeypatch.setattr(noma_core, "MPA_CHUNK", 1000)
    chunked = mpa_detect_batch(y, matrix, cb, 0.3)
    assert np.array_equal(chunked[0], marg) and chunked[2] == iters
    parts = [mpa_detect_batch(y[s:s + 700], matrix, cb, 0.3)
             for s in range(0, len(y), 700)]
    assert np.array_equal(np.concatenate([p[0] for p in parts]), marg)
    assert np.array_equal(np.concatenate([p[1] for p in parts]), hard)
    assert max(p[2] for p in parts) == iters
    for v in (0, 701, len(y) - 1):
        alone, alone_hard, _ = mpa_detect_batch(y[v], matrix, cb, 0.3)
        assert np.array_equal(alone[0], marg[v])
        assert np.array_equal(alone_hard[0], hard[v])


def test_mpa_low_noise_stays_finite():
    matrix, cb, truth, y = _scma_batch(1e-12)
    marg, hard, _ = mpa_detect_batch(y, matrix, cb, 1e-3)
    assert not np.isnan(marg).any()
    assert symbol_error_rate(hard, truth) == 0.0


def test_mpa_input_validation():
    matrix = _tree_matrix()
    cb = default_codebook(matrix, 4)
    with pytest.raises(ValueError):
        mpa_detect_batch(np.zeros((2, 2), dtype=complex), matrix, cb, 0.0)
    with pytest.raises(ValueError):
        mpa_detect_batch(np.zeros((2, 3), dtype=complex), matrix, cb, 0.1)
    with pytest.raises(ValueError):
        mpa_detect_batch(np.zeros((2, 2), dtype=complex), matrix, cb, 0.1,
                         max_iters=0)
    other = build_matrix("scma", 4, 6, {"column_weight": 2})
    with pytest.raises(ValueError):
        mpa_detect_batch(np.zeros((2, 4), dtype=complex), other, cb, 0.1)


def test_symbol_error_rate():
    assert symbol_error_rate(np.array([0, 1, 2]), np.array([0, 1, 3])) == \
        pytest.approx(1 / 3)
    assert symbol_error_rate(np.array([[0, 1]]), np.array([[0, 1]])) == 0.0
