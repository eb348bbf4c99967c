import numpy as np
import pytest

from unoma.noma_core import (
    Codebook,
    SpreadingMatrix,
    build_matrix,
    default_codebook,
    max_cross_correlation,
    musa_pool,
)


def _pdma(patterns):
    return build_matrix("pdma", len(patterns[0]), len(patterns),
                        {"patterns": patterns})


def test_pd_noma_matrix():
    m = build_matrix("pd-noma", 1, 3)
    assert m.occupancy.shape == (1, 3)
    assert (m.occupancy == 1).all()
    with pytest.raises(ValueError):
        build_matrix("pd-noma", 2, 3)


def test_scma_4x6():
    m = build_matrix("scma", 4, 6, {"column_weight": 2})
    assert m.occupancy.shape == (4, 6)
    assert (m.occupancy.sum(axis=0) == 2).all()
    # the 6 columns are the distinct 2-subsets of 4 rows
    cols = {tuple(m.occupancy[:, c]) for c in range(6)}
    assert len(cols) == 6


def test_scma_needs_enough_supports():
    with pytest.raises(ValueError):
        build_matrix("scma", 3, 4, {"column_weight": 2})
    with pytest.raises(ValueError):
        build_matrix("scma", 3, 2, {"column_weight": 3})


def test_pdma_patterns():
    m = _pdma([(1, 1), (1, 0), (0, 1)])
    assert m.occupancy.tolist() == [[1, 1, 0], [1, 0, 1]]
    with pytest.raises(ValueError):
        _pdma([(1, 1), (1, 1)])
    with pytest.raises(ValueError):
        _pdma([(1, 1), (0, 0)])
    with pytest.raises(ValueError):
        build_matrix("pdma", 2, 2, {})


def test_musa_matrix_valid_and_seeded():
    rng = np.random.default_rng(3)
    m = build_matrix("musa", 4, 6, {"column_weight": 2}, rng)
    assert m.occupancy.shape == (4, 6)
    assert (m.occupancy.sum(axis=0) == 2).all()
    norms = np.linalg.norm(m.coefficients, axis=0)
    assert np.allclose(norms, 1.0)
    with pytest.raises(ValueError):
        build_matrix("musa", 4, 6, {"column_weight": 2})  # needs rng


def test_musa_pool_properties():
    rng = np.random.default_rng(5)
    seqs = musa_pool(8, 4, [(1 + 1j) / 2, (1 - 1j) / 2, -0.5], rng)
    assert seqs.shape == (8, 4)
    assert np.allclose(np.linalg.norm(seqs, axis=1), 1.0)
    assert 0.0 <= max_cross_correlation(seqs) <= 1.0 + 1e-12


def test_musa_pool_single_sequence():
    rng = np.random.default_rng(5)
    seqs = musa_pool(1, 4, [1.0, -1.0], rng)
    assert seqs.shape == (1, 4)
    assert max_cross_correlation(seqs) == 0.0


def test_musa_pool_rejects_bad_alphabet():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        musa_pool(2, 4, [], rng)
    with pytest.raises(ValueError):
        musa_pool(2, 4, [0.0, 1.0], rng)
    with pytest.raises(ValueError):
        musa_pool(2, 4, [1.0], rng, weight=5)


def test_matrix_invariants():
    occ = np.array([[1, 0], [1, 0]], dtype=np.uint8)
    with pytest.raises(ValueError):  # zero column
        SpreadingMatrix("pdma", occ, occ.astype(complex))
    occ = np.ones((2, 2), dtype=np.uint8)
    with pytest.raises(ValueError):  # dense multi-RB matrix
        SpreadingMatrix("pdma", occ, occ.astype(complex))
    occ = np.array([[1, 1], [1, 0]], dtype=np.uint8)
    coef = np.array([[1, 1], [1, 0.5]], dtype=complex)
    with pytest.raises(ValueError):  # coefficient off the support
        SpreadingMatrix("pdma", occ, coef)
    with pytest.raises(ValueError):  # scma unequal column weights
        SpreadingMatrix("scma", occ, occ.astype(complex))
    with pytest.raises(ValueError):
        SpreadingMatrix("bogus", occ, occ.astype(complex))


def test_default_codebook_energy_and_shape():
    m = build_matrix("scma", 4, 6, {"column_weight": 2})
    cb = default_codebook(m, 4)
    assert cb.codewords.shape == (6, 4, 4)
    energy = np.mean(np.sum(np.abs(cb.codewords) ** 2, axis=2), axis=1)
    assert np.allclose(energy, 1.0)
    # codeword support confined to the column support
    used = np.any(np.abs(cb.codewords) > 0, axis=1)
    assert not np.any(used & ~m.occupancy.astype(bool).T)
    with pytest.raises(ValueError):
        default_codebook(m, 3)


def test_codebook_energy_invariant():
    with pytest.raises(ValueError):
        Codebook(2.0 * np.ones((1, 2, 1), dtype=complex))

