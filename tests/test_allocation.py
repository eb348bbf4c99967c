import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    all_swap_deltas,
    capped_equal_power,
    pair_rates,
    random_instance,
    sequential_deferred_acceptance,
    slsqp_sca,
    slsqp_surrogate_step,
)
import unoma.allocation as allocation
from unoma.allocation import (
    AllocationInstance,
    InfeasibleError,
    Matching,
    _capped_power,
    _da_seed,
    _padded,
    _pair_terms,
    _surrogate_step,
    jain_fairness,
    match_rbs,
    rb_rates,
    sca_power_control,
    solve_instance,
)
from unoma.config import preset_config
from unoma.engine import generate_instance
from unoma.noma_core import NomaPair


def test_jain_values():
    assert jain_fairness([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert jain_fairness([1.0, 2.0, 3.0]) == pytest.approx(6.0 / 7.0)
    assert jain_fairness([5.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    assert jain_fairness([0.0, 0.0]) == 1.0  # all shares equal
    with pytest.raises(ValueError):
        jain_fairness([1.0, -1.0])
    with pytest.raises(ValueError):
        jain_fairness([])


@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=20)
       .filter(lambda v: max(v) >= 1e-3),
       st.floats(1e-3, 1e3))
def test_jain_scale_invariant(values, scale):
    a = jain_fairness(values)
    b = jain_fairness([scale * v for v in values])
    assert a == pytest.approx(b, rel=1e-9)
    assert 1.0 / len(values) - 1e-12 <= a <= 1.0 + 1e-12


def _one_bs(g_far, g_near, sigma2=1.0):
    """Instance with one BS on one RB, unit power cap, no cap on interference."""
    zero = np.zeros((1, 1, 1))
    return AllocationInstance(
        g_near=np.array([[g_near]]), g_far=np.array([[g_far]]), x_near=zero,
        x_far=zero, h_macro=np.zeros((1, 1)), i_threshold=np.array([np.inf]),
        tau=1, p_max=1.0, sigma2=sigma2, pair=NomaPair(0.6, 0.4))


def _rates_on_rb0(inst, members, powers, scheme):
    """The kernel's (rates, total) of one co-channel set on RB 0."""
    rates, totals = rb_rates(inst, np.array([members]).T, np.array([0]),
                             np.array([powers], dtype=float).T, scheme)
    return rates[:, 0].tolist(), float(totals[0])


def test_noma_pair_rates_values():
    # far: 0.6*10 / (0.4*10 + 1) = 1.2; near: 0.4*10*3 / 1 = 12
    rates, total = _rates_on_rb0(_one_bs(1.0, 3.0), [0], [10.0], "noma")
    assert total == pytest.approx(math.log2(2.2) + math.log2(13.0))
    assert rates == [total]
    assert _rates_on_rb0(_one_bs(1.0, 3.0), [0], [0.0], "noma") == ([0.0], 0.0)
    with pytest.raises(ValueError):
        _one_bs(1.0, 3.0, sigma2=0.0)


def test_oma_pair_rates_values():
    _, total = _rates_on_rb0(_one_bs(1.0, 3.0), [0], [10.0], "oma")
    assert total == pytest.approx(0.5 * math.log2(11.0) + 0.5 * math.log2(31.0))


def test_singleton_bs_same_rate_in_both_schemes():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, 2, 2, tau=2)
    g_far = inst.g_far.copy()
    g_far[0, :] = 0.0  # BS 0 serves a single user
    inst = AllocationInstance(
        g_near=inst.g_near, g_far=g_far, x_near=inst.x_near,
        x_far=inst.x_far, h_macro=inst.h_macro,
        i_threshold=inst.i_threshold, tau=inst.tau, p_max=inst.p_max,
        sigma2=inst.sigma2, pair=inst.pair)
    noma = _rates_on_rb0(inst, [0], [inst.p_max], "noma")[1]
    oma = _rates_on_rb0(inst, [0], [inst.p_max], "oma")[1]
    assert noma == pytest.approx(oma)
    assert noma == pytest.approx(
        math.log2(1 + inst.p_max * inst.g_near[0, 0] / inst.sigma2))


def test_rb_rates_unknown_scheme():
    inst = random_instance(np.random.default_rng(1), 2, 2, tau=1)
    with pytest.raises(ValueError):
        _rates_on_rb0(inst, [0], [inst.p_max], "tdma")


def test_instance_validation():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, 2, 2, tau=1)
    with pytest.raises(ValueError):
        replace(inst, tau=0)
    with pytest.raises(ValueError):
        AllocationInstance(
            g_near=inst.g_near, g_far=inst.g_far[:, :1], x_near=inst.x_near,
            x_far=inst.x_far, h_macro=inst.h_macro,
            i_threshold=inst.i_threshold, tau=1, p_max=0.2, sigma2=1e-9,
            pair=inst.pair)


def _alone_scores(inst, scheme):
    """(B, R) total of every BS alone on every RB at the capped power: one
    width-1 kernel set per (BS, RB) pair."""
    bs, rb = np.divmod(np.arange(inst.n_bs * inst.n_rb), inst.n_rb)
    sets = bs[None]
    p = _capped_power(inst, sets, rb)
    totals = rb_rates(inst, sets, rb, p[None], scheme)[1]
    return totals.reshape(inst.n_bs, inst.n_rb)


def test_solo_table_scores_every_bs_alone(monkeypatch):
    """match_rbs scores once, at width tau, every BS alone on every RB: the
    table DA ranks by and greedy starts from equals the width-1 kernel
    scores bit for bit."""
    seen = []

    def da_seed(score, tau):
        seen.append(score.copy())
        return _da_seed(score, tau)

    def greedy_seed(inst, solo, plus_each):
        seen.append(solo.copy())
        return greedy(inst, solo, plus_each)

    greedy = allocation._greedy_seed
    monkeypatch.setattr(allocation, "_da_seed", da_seed)
    monkeypatch.setattr(allocation, "_greedy_seed", greedy_seed)
    rng = np.random.default_rng(4)
    cases = [random_instance(rng, 3, 1, tau=3)]  # one RB: every BS ranks it first
    cases += [random_instance(rng, int(rng.integers(1, 9)),
                              int(rng.integers(1, 5)), tau=int(rng.integers(1, 5)),
                              threshold=10.0 ** rng.uniform(-12, -8))
              for _ in range(30)]
    data = preset_config("fig5").data
    cases += [generate_instance(n, data, tau, np.random.default_rng(n))
              for n in (12, 32) for tau in (1, 4)]
    for inst in cases:
        for scheme in ("noma", "oma"):
            seen.clear()
            match_rbs(inst, scheme)
            score, solo = seen
            want = _alone_scores(inst, scheme)
            assert score.tobytes() == want.tobytes()
            assert solo[:, :inst.n_bs].T.tobytes() == want.tobytes()
            assert not solo[:, inst.n_bs].any()  # the empty sets' totals
    assert _da_seed(_alone_scores(cases[0], "noma"), 3).tolist() == [0, 0, 0]


def test_match_single_bs_single_rb():
    inst = random_instance(np.random.default_rng(5), 1, 1, tau=1)
    m = match_rbs(inst)
    assert m.bs_to_rb == (0,)
    assert m.rb_to_bs == ((0,),)


def test_da_seed_matches_one_proposal_at_a_time():
    """All free BSs propose at once in each round of _da_seed; with strict
    preferences that gives what one proposal at a time gives."""
    rng = np.random.default_rng(31)
    cases = [random_instance(rng, int(rng.integers(1, 12)),
                             int(rng.integers(1, 6)), tau=int(rng.integers(1, 5)))
             for _ in range(60)]
    data = preset_config("fig5").data
    cases += [generate_instance(n, data, tau, np.random.default_rng(n))
              for n in (12, 32) for tau in (2, 3)]
    unmatched = 0
    for inst in cases:
        for scheme in ("noma", "oma"):
            score = _alone_scores(inst, scheme)
            src = _da_seed(score, inst.tau).tolist()
            assert src == sequential_deferred_acceptance(score, inst.tau)
            unmatched += src.count(-1)
    assert unmatched  # the case the test is meant to reach


def test_match_respects_quota():
    inst = random_instance(np.random.default_rng(6), 5, 2, tau=2)
    m = match_rbs(inst)
    assert all(len(ms) <= 2 for ms in m.rb_to_bs)
    matched = sum(len(ms) for ms in m.rb_to_bs)
    assert matched == 4  # 2 RBs x quota 2, with 5 > 4 candidates


def test_set_rate_kernel_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    n_bs, tau = 7, 3
    inst = random_instance(rng, n_bs, 3, tau=tau)
    g_far = inst.g_far.copy()
    g_far[2, :] = 0.0  # BS 2 serves a single user
    # RB 1's cap binds for most sets; RB 2 allows no power at all
    inst = replace(inst, g_far=g_far, i_threshold=np.array([np.inf, 1e-10, 0.0]))
    sets, rbs = [], []
    for r in range(inst.n_rb):
        for size in range(tau + 1):
            for _ in range(6):
                members = sorted(rng.choice(n_bs, size, replace=False).tolist())
                sets.append(members + [n_bs] * (tau - size))
                rbs.append(r)
    sets, rbs = np.array(sets), np.array(rbs)
    powers = rng.uniform(0.0, inst.p_max, sets.shape)
    powers[::5, 0] = 0.0  # some members silent
    sets, powers = sets.T, powers.T  # slot-major, one set per column
    for scheme in ("noma", "oma"):
        rates, totals = rb_rates(inst, sets, rbs, powers, scheme)
        p = _capped_power(inst, sets, rbs)
        capped = rb_rates(inst, sets, rbs, np.broadcast_to(p, sets.shape),
                          scheme)[1]
        for row, (padded, r) in enumerate(zip(sets.T.tolist(), rbs.tolist())):
            members = [b for b in padded if b < n_bs]
            want = pair_rates(inst, r, members,
                              dict(zip(members, powers[:, row])), scheme)
            np.testing.assert_allclose(rates[:len(members), row],
                                       [want[b] for b in members],
                                       rtol=1e-12, atol=0)
            assert np.all(rates[len(members):, row] == 0.0)  # sentinel slots
            np.testing.assert_allclose(totals[row], sum(want.values()),
                                       rtol=1e-12, atol=0)
            p = capped_equal_power(inst, r, members)
            want = pair_rates(inst, r, members, dict.fromkeys(members, p), scheme)
            np.testing.assert_allclose(capped[row], sum(want.values()),
                                       rtol=1e-12, atol=0)
        assert np.all(capped[rbs == 2] == 0.0)
    # the cases the test is meant to reach
    assert np.any(sets == 2)
    assert any(0 < capped_equal_power(inst, 1, [b for b in row if b < n_bs])
               < inst.p_max for row in sets[:, rbs == 1].T.tolist())


def test_match_is_exchange_stable():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        n_bs = int(rng.integers(2, 5))
        n_rb = int(rng.integers(1, 4))
        tau = int(rng.integers(1, 3))
        inst = random_instance(rng, n_bs, n_rb, tau=tau)
        m = match_rbs(inst)
        deltas = all_swap_deltas(inst, m)
        assert all(d <= 1e-9 for d in deltas)


# rb_to_bs of generate_instance(n, fig5 data, tau, default_rng(2024 + n)),
# recorded from the scalar, set-by-set matcher that the batched scoring
# replaced. At n = 7 the 4 RBs have vacancies, so moves are scored as well as
# exchanges.
_FIG5_MATCHINGS = {
    (7, 2, "noma"): ((1, 4), (3, 5), (0,), (2, 6)),
    (7, 2, "oma"): ((0, 2), (4, 5), (1,), (3, 6)),
    (7, 3, "noma"): ((0, 1, 5), (3, 4), (), (2, 6)),
    (7, 3, "oma"): ((0, 1, 5), (4,), (), (2, 3, 6)),
    (12, 2, "noma"): ((7, 8), (3, 6), (4, 5), (2, 10)),
    (12, 2, "oma"): ((7, 8), (4, 6), (1, 3), (2, 5)),
    (12, 3, "noma"): ((0, 7, 8), (3, 6, 9), (1, 4, 5), (2, 10, 11)),
    (12, 3, "oma"): ((7, 8, 9), (5, 6, 10), (1, 3, 4), (0, 2, 11)),
    (32, 2, "noma"): ((5, 29), (9, 20), (2, 16), (15, 18)),
    (32, 2, "oma"): ((5, 15), (12, 20), (2, 9), (18, 29)),
    (32, 3, "noma"): ((2, 5, 29), (9, 12, 20), (11, 16, 19), (15, 17, 18)),
    (32, 3, "oma"): ((2, 5, 11), (12, 20, 26), (9, 16, 19), (15, 18, 29)),
}


def test_match_at_fig5_scale():
    data = preset_config("fig5").data
    for (n, tau, scheme), expected in _FIG5_MATCHINGS.items():
        inst = generate_instance(n, data, tau, np.random.default_rng(2024 + n))
        m = match_rbs(inst, scheme)
        assert m.rb_to_bs == expected
        assert max(all_swap_deltas(inst, m, scheme)) <= 1e-9


def test_matching_validator():
    m = Matching((1, -1, 0, 1), n_rb=3, tau=2)
    assert m.rb_to_bs == ((2,), (0, 3), ())
    with pytest.raises(ValueError):
        Matching((0, 0), n_rb=1, tau=1)  # quota exceeded
    for rb in (1, -2):
        with pytest.raises(ValueError):
            Matching((rb,), n_rb=1, tau=1)  # no such RB


def test_sca_monotone_and_feasible():
    rng = np.random.default_rng(7)
    inst = random_instance(rng, 4, 2, tau=2)
    matching, sol = solve_instance(inst)
    hist = np.asarray(sol.objective_history)
    assert np.all(np.diff(hist) >= -1e-9)
    assert sol.converged
    assert np.all(sol.powers <= inst.p_max * (1 + 1e-9))
    for r, members in enumerate(matching.rb_to_bs):
        load = sum(sol.powers[b] * inst.h_macro[b, r] for b in members)
        assert load <= inst.i_threshold[r] * (1 + 1e-9)
    assert sol.sum_rate == pytest.approx(sol.per_bs_rates.sum())
    # optimized powers must not lose rate vs. the capped equal-power start
    start = sum(sum(pair_rates(inst, r, members, dict.fromkeys(
                    members, capped_equal_power(inst, r, members))).values())
                for r, members in enumerate(matching.rb_to_bs) if members)
    assert sol.sum_rate >= start - 1e-9


def test_sca_improves_on_full_power_when_capped():
    rng = np.random.default_rng(8)
    inst = random_instance(rng, 3, 1, tau=3, threshold=5e-11)
    matching = match_rbs(inst)
    sol = sca_power_control(matching, inst)
    start = np.full(3, inst.p_max)
    load = start @ inst.h_macro[:, 0]
    start *= (inst.i_threshold[0] / load) * (1 - 1e-9)
    base = sum(pair_rates(inst, 0, [0, 1, 2], start, "noma").values())
    assert sol.sum_rate >= base - 1e-9


def test_infeasible_threshold_raises():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, 2, 1, tau=2, threshold=0.0)
    matching = match_rbs(inst)
    with pytest.raises(InfeasibleError) as exc:
        sca_power_control(matching, inst)
    assert "i_threshold" in exc.value.constraint


def test_oma_baseline_consistent():
    rng = np.random.default_rng(10)
    inst = random_instance(rng, 4, 2, tau=2)
    matching = match_rbs(inst, "oma")
    direct = sca_power_control(matching, inst, "oma").sum_rate
    assert solve_instance(inst, "oma")[1].sum_rate == pytest.approx(direct)
    assert direct > 0.0


def _sca_cases():
    """(instance, scheme) pairs for the SLSQP comparison: random instances
    with tau 1 to 3, caps that bind and caps that do not, BSs with
    g_far == 0; and fig5-scale instances."""
    rng = np.random.default_rng(77)
    cases = []
    for k in range(12):
        tau = 1 + k % 3
        inst = random_instance(rng, int(rng.integers(tau + 1, 7)),
                               int(rng.integers(1, 4)), tau=tau,
                               threshold=np.inf if k % 2 else 1e-10)
        if k % 4 < 2:
            g_far = inst.g_far.copy()
            g_far[0, :] = 0.0  # BS 0 serves a single user
            inst = replace(inst, g_far=g_far)
        cases += [(inst, "noma"), (inst, "oma")]
    data = preset_config("fig5").data
    for n, tau in ((12, 2), (32, 3)):
        inst = generate_instance(n, data, tau, np.random.default_rng(500 + n))
        cases += [(inst, "noma"), (inst, "oma")]
    return cases


def test_sca_matches_slsqp_oracle():
    """One batched surrogate step, from a random feasible start on every RB,
    and the full SCA give the sum rates of the per-RB SLSQP solve."""
    rng = np.random.default_rng(78)
    binding = single = 0
    for inst, scheme in _sca_cases():
        matching = match_rbs(inst, scheme)
        rbs = np.array([r for r, ms in enumerate(matching.rb_to_bs) if ms])
        sets = _padded(np.array(matching.bs_to_rb), rbs, inst.n_bs, inst.tau)
        h = np.vstack([inst.h_macro, np.zeros(inst.n_rb)])[sets, rbs]
        cap = inst.i_threshold[rbs]
        p = rng.uniform(0.05, 1.0, sets.shape) * inst.p_max
        p *= np.minimum(1.0, 0.5 * cap / (p * h).sum(axis=0))  # half a cap
        cand = _surrogate_step(inst, _pair_terms(inst, sets, rbs, scheme),
                               h, cap, p)
        for col, r in enumerate(rbs.tolist()):
            members = list(matching.rb_to_bs[r])
            want = slsqp_surrogate_step(inst, r, members, p[:len(members), col],
                                        scheme)
            got = cand[:len(members), col]
            binding += bool(np.isfinite(cap[col])
                            and got @ h[:len(members), col] > 0.999 * cap[col])
            single += bool(np.any(inst.g_far[members, r] == 0.0))
            rate = [sum(pair_rates(inst, r, members, dict(zip(members, pw)),
                                   scheme).values()) for pw in (got, want)]
            np.testing.assert_allclose(rate[0], rate[1], rtol=1e-9, atol=0)
        sol = sca_power_control(matching, inst, scheme)
        _, rate, iterations = slsqp_sca(matching, inst, scheme)
        np.testing.assert_allclose(sol.sum_rate, rate, rtol=1e-9, atol=0)
        assert sol.iterations == iterations
    assert binding and single  # the cases the test is meant to reach
