import itertools
import math

import numpy as np
import pytest

from unoma.noma_core import (
    NomaPair,
    SicLink,
    nearest_symbol,
    sic_decode_uplink,
)

BPSK = np.array([1.0 + 0j, -1.0 + 0j])


def test_noma_pair_invariants():
    with pytest.raises(ValueError):
        NomaPair(0.7, 0.4)
    with pytest.raises(ValueError):
        NomaPair(1.0, 0.0)  # degenerate a_m = 1
    with pytest.raises(ValueError):
        NomaPair(0.4, 0.6)  # near share must be smaller


def test_nearest_symbol_tie_lowest_index():
    idx, sym = nearest_symbol(0.0, BPSK)
    assert idx == 0 and sym == 1.0 + 0j
    idx, _ = nearest_symbol(-0.9, BPSK)
    assert idx == 1


def test_uplink_sinrs():
    near = SicLink(tx_power=2.0, gain=1.5)  # rx 3
    far = SicLink(tx_power=1.0, gain=1.0)  # rx 1
    _, _, sinr_n, sinr_f = sic_decode_uplink(0.0, near, far, 1.0, BPSK)
    assert sinr_n == pytest.approx(1.5)
    assert sinr_f == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sic_decode_uplink(0.0, near, far, 0.0, BPSK)
    with pytest.raises(ValueError):
        SicLink(-1.0, 1.0)


def test_uplink_noiseless_decodes_all_combos():
    near = SicLink(3.0, 1.0)
    far = SicLink(1.0, 1.0)
    for sn, sf in itertools.product(BPSK, repeat=2):
        y = math.sqrt(near.rx_power) * sn + math.sqrt(far.rx_power) * sf
        got_n, got_f, _, _ = sic_decode_uplink(y, near, far, 1e-9, BPSK)
        assert got_n == sn
        assert got_f == sf


def test_uplink_true_symbol_cancellation():
    near = SicLink(0.9, 1.0)
    far = SicLink(1.0, 1.0)
    # near decision is ambiguous here, but genie-aided cancellation still
    # recovers the far symbol
    y = math.sqrt(0.9) * (-1.0) + 1.0
    _, got_f, _, _ = sic_decode_uplink(y, near, far, 1e-9, BPSK,
                                       true_near_symbol=-1.0)
    assert got_f == 1.0


def test_uplink_polymatroid_identity():
    rng = np.random.default_rng(123)
    for _ in range(200):
        p_n, p_f = rng.uniform(0.01, 10.0, 2)
        g_n, g_f = rng.exponential(1.0, 2) + 1e-6
        s2 = rng.uniform(0.01, 2.0)
        _, _, sinr_n, sinr_f = sic_decode_uplink(
            0.0, SicLink(p_n, g_n), SicLink(p_f, g_f), s2, BPSK)
        lhs = math.log2(1 + sinr_n) + math.log2(1 + sinr_f)
        rhs = math.log2(1 + (p_n * g_n + p_f * g_f) / s2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

