import numpy as np
import pytest

from unoma.association import (
    AssociationStudy,
    associate_user,
    association_probability,
)
from unoma.geometry import NetworkSnapshot, Region, TierConfig


def _snapshot(tiers, positions):
    return NetworkSnapshot(Region(500.0), tuple(tiers),
                           tuple(np.asarray(p, dtype=float) for p in positions))


def test_associate_single_bs():
    snap = _snapshot([TierConfig("macro", 40.0, 0.0)], [[[100.0, 0.0]]])
    assert associate_user(np.zeros(2), snap) == ("macro", 0)


def test_associate_femto_beats_distant_macro():
    # macro: 10 W * 12.4 gain at 200 m -> 7.75e-8 W average received power;
    # femto: 0.1 W at 10 m -> 1e-5 W, so the femto BS wins
    snap = _snapshot(
        [TierConfig("macro", 40.0, 0.0, array_gain=12.4),
         TierConfig("femto", 20.0, 0.0)],
        [[[200.0, 0.0]], [[10.0, 0.0]]])
    assert associate_user(np.zeros(2), snap) == ("femto", 0)


def test_associate_picks_nearest_within_tier():
    snap = _snapshot([TierConfig("pico", 30.0, 0.0)],
                     [[[100.0, 0.0], [20.0, 0.0], [50.0, 0.0]]])
    assert associate_user(np.zeros(2), snap) == ("pico", 1)


def test_associate_empty_network_raises():
    snap = _snapshot([TierConfig("macro", 40.0, 0.0)], [np.empty((0, 2))])
    with pytest.raises(ValueError):
        associate_user(np.zeros(2), snap)


def test_single_tier_probability_one():
    study = AssociationStudy(Region(500.0),
                             (TierConfig("pico", 30.0, 2e-5),),
                             probe="uniform")
    stats = association_probability(study, 50, seed=3)
    assert stats.probabilities == (1.0,)
    assert stats.trials == 50
    assert 0.0 < stats.ci_half_widths[0] < 0.1


def test_zero_density_tier_never_wins():
    study = AssociationStudy(
        Region(500.0),
        (TierConfig("macro", 40.0, 0.0), TierConfig("pico", 30.0, 2e-5)),
        probe="origin")
    stats = association_probability(study, 40, seed=5)
    assert stats.probabilities == (0.0, 1.0)


def test_all_empty_network_raises():
    study = AssociationStudy(Region(500.0), (TierConfig("macro", 40.0, 0.0),))
    with pytest.raises(ValueError):
        association_probability(study, 10, seed=0)
    with pytest.raises(ValueError):
        AssociationStudy(Region(500.0), (), probe="midpoint")


def test_association_probability_reproducible():
    study = AssociationStudy(
        Region(500.0),
        (TierConfig("macro", 40.0, 1e-6, array_gain=12.4),
         TierConfig("pico", 30.0, 5e-6)),
        probe="uniform", guaranteed_bs="center")
    a = association_probability(study, 200, seed=11)
    b = association_probability(study, 200, seed=11)
    assert a == b
    assert sum(a.probabilities) == pytest.approx(1.0, abs=1e-12)


def test_guaranteed_bs_gives_coverage():
    study = AssociationStudy(Region(500.0),
                             (TierConfig("macro", 40.0, 0.0),),
                             guaranteed_bs="center")
    stats = association_probability(study, 20, seed=1)
    assert stats.probabilities == (1.0,)
