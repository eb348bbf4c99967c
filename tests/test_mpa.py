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


# PDMA 4x6: the patterns of test_bytes.py, with degree-3 layers
_PDMA_PATTERNS = [(1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1),
                  (1, 1, 0, 0), (0, 0, 1, 1)]
_INVARIANCE_CASES = {
    "scma-q4": (lambda: build_matrix("scma", 4, 6, {"column_weight": 2}), 4),
    "scma-q8": (lambda: build_matrix("scma", 4, 6, {"column_weight": 2}), 8),
    "pdma": (lambda: build_matrix("pdma", 4, 6, {"patterns": _PDMA_PATTERNS}), 4),
    "pd-noma": (lambda: build_matrix("pd-noma", 1, 2), 2),
}


@pytest.mark.parametrize("case", sorted(_INVARIANCE_CASES))
def test_mpa_bits_do_not_depend_on_batch_size(case):
    """Every sub-batch of sizes 1 to 1500, at offsets 0, 1 and 37, gets the
    full batch's marginals bit for bit, at high, middle and low noise. At
    the default eight iterations and low noise, vectors start to freeze
    after the fourth, and a small sub-batch can stop before the full batch
    does."""
    make, q = _INVARIANCE_CASES[case]
    matrix = make()
    cb = default_codebook(matrix, q)
    rng = np.random.default_rng(11)
    for noise_var in (1.0, 0.1, 1e-3):
        truth = rng.integers(0, q, size=(1537, matrix.n_layers))
        y = _receive(cb, truth, noise_var, rng)
        marg, hard, _ = mpa_detect_batch(y, matrix, cb, noise_var)
        for size in (1, 2, 3, 17, 129, 1500):
            for offset in (0, 1, 37):
                part = slice(offset, offset + size)
                sub, sub_hard, _ = mpa_detect_batch(y[part], matrix, cb,
                                                    noise_var)
                assert np.array_equal(sub, marg[part]), (noise_var, size, offset)
                assert np.array_equal(sub_hard, hard[part])


@pytest.mark.parametrize("case, iterations", [
    ("scma", [60, 60, 15]), ("pdma", [60, 60, 11]), ("tree", [3, 3, 3])])
def test_mpa_stop_rule_iterations(case, iterations):
    """The iterations the stop rule returns on fixed batches of 200 vectors
    at 4, 12 and 20 dB, with max_iters 60."""
    matrix = {"scma": lambda: build_matrix("scma", 4, 6, {"column_weight": 2}),
              "pdma": lambda: build_matrix("pdma", 4, 6,
                                           {"patterns": _PDMA_PATTERNS}),
              "tree": _tree_matrix}[case]()
    cb = default_codebook(matrix, 4)
    used = []
    for snr_db in (4, 12, 20):
        rng = np.random.default_rng(snr_db)
        noise_var = 10 ** (-snr_db / 10)
        truth = rng.integers(0, 4, size=(200, matrix.n_layers))
        y = _receive(cb, truth, noise_var, rng)
        used.append(mpa_detect_batch(y, matrix, cb, noise_var, max_iters=60)[2])
    assert used == iterations


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
