import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    all_swap_deltas,
    capped_equal_power,
    pair_rates,
    per_instance_match,
    per_instance_sca,
    random_instance,
    sequential_deferred_acceptance,
    slsqp_sca,
    slsqp_surrogate_step,
)
import unoma.allocation as allocation
from unoma.allocation import (
    AllocationInstance,
    Matching,
    _capped_power,
    _da_seed,
    _padded,
    _pair_terms,
    _plus_each,
    _sca,
    _stack,
    _surrogate_step,
    jain_fairness,
    match_rbs,
    rb_rates,
    sca_power_control,
    solve_group,
    solve_instance,
)
from unoma.config import preset_config
from unoma.engine import generate_instance
from unoma.metrics import subseed, trial_blocks
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
    return AllocationInstance(
        x_near=np.full((1, 1, 1), g_near), x_far=np.full((1, 1, 1), g_far),
        h_macro=np.zeros((1, 1)), i_threshold=np.array([np.inf]),
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


def test_rb_rates_unknown_scheme():
    inst = random_instance(np.random.default_rng(1), 2, 2, tau=1)
    with pytest.raises(ValueError):
        _rates_on_rb0(inst, [0], [inst.p_max], "tdma")


def test_rb_rates_reads_the_instance_as_it_is():
    """rb_rates builds an instance's tables on every call: after a gain array
    is changed in place, it gives what a fresh instance of the same arrays
    gives."""
    inst = random_instance(np.random.default_rng(3), 3, 2, tau=2)
    sets, rbs = np.array([[0, 2], [1, 3]]), np.array([0, 1])  # {0, 1}, {2}
    powers = np.full(sets.shape, inst.p_max)
    before = rb_rates(inst, sets, rbs, powers, "noma")[1]
    inst.x_near[1, 0, 0] *= 100.0  # BS 1 into BS 0's near user on RB 0
    after = rb_rates(inst, sets, rbs, powers, "noma")[1]
    assert after.tobytes() == rb_rates(replace(inst), sets, rbs, powers,
                                       "noma")[1].tobytes()
    assert after[0] < before[0]


def test_instance_validation():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, 2, 2, tau=1)
    with pytest.raises(ValueError):
        replace(inst, tau=0)
    with pytest.raises(ValueError):
        replace(inst, x_far=inst.x_far[:, :, :1])
    for cap in (-1e-12, np.nan):  # a cap no power can meet, and none at all
        with pytest.raises(ValueError, match="i_threshold"):
            replace(inst, i_threshold=np.array([1e-10, cap]))


def _alone_scores(inst, scheme):
    """(B, R) total of every BS alone on every RB at the capped power: one
    width-1 kernel set per (BS, RB) pair."""
    bs, rb = np.divmod(np.arange(inst.n_bs * inst.n_rb), inst.n_rb)
    sets = bs[None]
    p = _capped_power(_stack([inst]), sets, rb)
    totals = rb_rates(inst, sets, rb, p[None], scheme)[1]
    return totals.reshape(inst.n_bs, inst.n_rb)


def test_solo_table_scores_every_bs_alone(monkeypatch):
    """match_rbs scores once, in one-slot sets, every BS alone on every RB:
    the table DA ranks by and greedy starts from equals the width-1 kernel
    scores bit for bit."""
    seen = []

    def da_seed(score, tau):
        seen.append(score[0].copy())  # one solve
        return _da_seed(score, tau)

    def greedy_seed(tab, solo, inst, tau, oma):
        seen.append(solo[0].copy())  # one solve: one instance's table
        return greedy(tab, solo, inst, tau, oma)

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
    assert _da_seed(_alone_scores(cases[0], "noma")[None],
                    np.array([3]))[0].tolist() == [0, 0, 0]


def test_plus_each_invariant_to_row_budget(monkeypatch):
    """_plus_each cuts its rows into kernel calls of as many whole sets
    (n_bs + 1 rows each) as RATE_ROWS allows, one set when n_bs + 1 exceeds
    the budget; every budget gives the table of one call."""
    inst = generate_instance(12, preset_config("fig5").data, 3,
                             np.random.default_rng(3))
    rng = np.random.default_rng(4)
    cols = np.tile(np.arange(inst.n_rb), 5)
    src = rng.integers(-1, inst.n_rb, (len(cols), inst.n_bs))
    sets = _padded(src, cols, inst.n_bs, 3)
    calls = []
    kernel = allocation.rb_rates

    def record(tab, chunk, *args):
        calls.append(chunk.shape[1])
        return kernel(tab, chunk, *args)

    monkeypatch.setattr(allocation, "rb_rates", record)
    oma, tab = np.ones(len(cols), dtype=bool), _stack([inst])
    want = _plus_each(tab, sets, cols, oma)
    assert calls == [len(cols) * (inst.n_bs + 1)]
    for budget in (1, 5, 13, 39):  # 13 rows: one set
        calls.clear()
        monkeypatch.setattr(allocation, "RATE_ROWS", budget)
        assert _plus_each(tab, sets, cols, oma).tobytes() == want.tobytes()
        per_call = max(1, budget // (inst.n_bs + 1)) * (inst.n_bs + 1)
        assert max(calls) == per_call and sum(calls) == len(cols) * (inst.n_bs + 1)


def test_match_single_bs_single_rb():
    inst = random_instance(np.random.default_rng(5), 1, 1, tau=1)
    m = match_rbs(inst)
    assert m.bs_to_rb == (0,)
    assert m.rb_to_bs == ((0,),)


def test_da_seed_matches_one_proposal_at_a_time():
    """_da_seed places every stacked solve's pairs in score order; that gives
    each solve, whatever the quotas of the others, what one proposal at a
    time gives: on kernel scores, and on integer scores in {0, 1, 2}, whose
    exact ties across BSs and across RBs go to the lower index, with an
    all-zero RB and quotas above n_bs."""
    rng = np.random.default_rng(31)
    cases = [random_instance(rng, int(rng.integers(1, 12)),
                             int(rng.integers(1, 6)), tau=int(rng.integers(1, 5)))
             for _ in range(60)]
    data = preset_config("fig5").data
    cases += [generate_instance(n, data, tau, np.random.default_rng(n))
              for n in (12, 32) for tau in (2, 3)]
    stacks = {}  # (B, R) -> the (score, tau) of every solve of that shape
    for inst in cases:
        for scheme in ("noma", "oma"):
            score = _alone_scores(inst, scheme)
            for tau in {inst.tau, 1 + inst.tau % 4}:
                stacks.setdefault(score.shape, []).append((score, tau))
    ties = 0
    for _ in range(80):
        b_n, r_n = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        score = rng.integers(0, 3, (b_n, r_n)).astype(float)
        score[:, rng.integers(r_n)] = 0.0
        ties += any(len(set(line)) < len(line) for line in score.tolist()) \
            and any(len(set(line)) < len(line) for line in score.T.tolist())
        for tau in (1, 2, b_n + int(rng.integers(1, 3))):
            stacks.setdefault(score.shape, []).append((score, tau))
    unmatched = mixed = 0
    for solves in stacks.values():
        taus = np.array([tau for _, tau in solves])
        src = _da_seed(np.stack([score for score, _ in solves]), taus).tolist()
        for row, (score, tau) in zip(src, solves, strict=True):
            assert row == sequential_deferred_acceptance(score, tau)
            unmatched += row.count(-1)
        mixed += len(set(taus.tolist())) > 1
    assert unmatched and mixed and ties  # the cases the test is meant to reach


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
    x_far = inst.x_far.copy()
    x_far[2, 2, :] = 0.0  # BS 2's far user hears nothing: a zero far term
    # RB 1's cap binds for most sets; RB 2 allows no power at all
    inst = replace(inst, x_far=x_far, i_threshold=np.array([np.inf, 1e-10, 0.0]))
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
        p = _capped_power(_stack([inst]), sets, rbs)
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


def _assert_group_matches_oracle(group, taus) -> int:
    """solve_group gives each (instance, tau, scheme) of the group what the
    per-instance matcher and SCA give it alone, bit for bit, and so does
    sca_power_control alone. Returns the number of solves."""
    solves = 0
    for (tau, scheme), pairs in solve_group(group, taus, ["noma", "oma"]).items():
        for inst, (matching, sol) in zip(group, pairs, strict=True):
            inst = replace(inst, tau=tau)
            want = per_instance_match(inst, scheme)
            ref = per_instance_sca(want, inst, scheme)
            assert matching.bs_to_rb == want.bs_to_rb
            assert sol.powers.tobytes() == ref.powers.tobytes()
            assert sol.per_bs_rates.tobytes() == ref.per_bs_rates.tobytes()
            alone = sca_power_control(want, inst, scheme)
            assert sol.powers.tobytes() == alone.powers.tobytes()
            assert (sol.iterations, sol.converged, sol.objective_history) \
                == (ref.iterations, ref.converged, ref.objective_history)
            solves += 1
    return solves


def test_group_matches_the_per_instance_oracle():
    """Every instance of a fig5 sweep (seed 7, 16 trials, all six n, tau 2
    and 3, both schemes), a trial block's instances in one group; and random
    groups of up to 4 instances with 1-6 BSs and 1-4 RBs at up to three of
    the quotas 1-4, so a solve's sets take up to 3 padding slots, with
    binding, absent and zero caps and zero far gains; and groups of 2
    instances with 12 BSs on 1 RB at tau 12, whose sets of 8 or more members
    are summed slot by slot however many rows share a pass."""
    data = dict(preset_config("fig5").data, trials=16)
    solves = 0
    for index, n in enumerate(data["sweep"]["values"]):
        for rng, m in trial_blocks(subseed(data["seed"], index), data["trials"]):
            group = [generate_instance(n, data, 2, rng) for _ in range(m)]
            solves += _assert_group_matches_oracle(group, [2, 3])
    assert solves == 6 * 16 * 2 * 2
    rng = np.random.default_rng(99)
    for g in range(15):
        n_bs, n_rb = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        threshold = (2e-10, 0.0, np.inf, 5e-11, 1e-12)[g % 5]
        group = [random_instance(rng, n_bs, n_rb, tau=1, threshold=threshold)
                 for _ in range(int(rng.integers(1, 5)))]
        x_far = group[0].x_far.copy()
        x_far[0, 0, :] = 0.0  # BS 0's far user hears nothing
        group[0] = replace(group[0], x_far=x_far)
        taus = sorted(rng.choice(4, int(rng.integers(1, 4)), replace=False) + 1)
        _assert_group_matches_oracle(group, [int(t) for t in taus])
    rng = np.random.default_rng(5)
    for threshold in (np.inf, 5e-11):
        group = [random_instance(rng, 12, 1, tau=12, threshold=threshold)
                 for _ in range(2)]
        _assert_group_matches_oracle(group, [12])


def test_sets_never_wider_than_n_bs(monkeypatch):
    """A quota above n_bs pads no set past n_bs members: no rate-kernel call
    of a group solved at tau 5 with 3 BSs gets more than 3 slots, and every
    solve still gets its bytes alone."""
    widths = []
    rates = allocation._rates

    def record(terms, p, sigma2):
        widths.append(len(p))
        return rates(terms, p, sigma2)

    rng = np.random.default_rng(6)
    group = [random_instance(rng, 3, 2, tau=1) for _ in range(2)]
    assert _assert_group_matches_oracle(group, [1, 5]) == 8
    monkeypatch.setattr(allocation, "_rates", record)
    solve_group(group, [1, 5], ["noma", "oma"])
    assert max(widths) == 3


def test_kept_tables_stay_current(monkeypatch):
    """After every greedy step and every swap round, the tables that each
    lane keeps (_rescore) equal a fresh _rescore of every RB of every lane:
    on_rb on the RBs with room, -inf in every BS column of a full RB (and,
    in the swap phase, its total), and the leave rows of the matched BSs. On
    fig5 groups at n = 12 and 32, and on random groups with quotas above
    n_bs, with one RB, and with closed RBs (cap 0)."""
    rescore = allocation._rescore
    passes = {"greedy": 0, "first": 0, "later": 0}

    def check(tab, src, lanes, rbs, inst, tau, oma, on_rb, leave=None):
        rescore(tab, src, lanes, rbs, inst, tau, oma, on_rb, leave)
        (l_n, b_n), r_n = src.shape, tab.n_rb
        fresh_on = np.full_like(on_rb, np.nan)
        fresh_leave = None if leave is None else np.full_like(leave, np.nan)
        rescore(tab, src, *np.divmod(np.arange(l_n * r_n), r_n), inst, tau, oma,
                fresh_on, fresh_leave)
        full = np.count_nonzero(src[:, None] == np.arange(r_n)[:, None],
                                axis=2) >= tau[:, None]  # (L, R)
        assert np.isneginf(on_rb[full, :b_n]).all()
        assert on_rb[~full].tobytes() == fresh_on[~full].tobytes()
        if leave is None:
            passes["greedy"] += 1
            return
        assert on_rb[full, b_n].tobytes() == fresh_on[full, b_n].tobytes()
        assert leave[src >= 0].tobytes() == fresh_leave[src >= 0].tobytes()
        passes["first" if len(lanes) == l_n * r_n else "later"] += 1

    monkeypatch.setattr(allocation, "_rescore", check)
    data = preset_config("fig5").data
    rng = np.random.default_rng(11)
    for n in (12, 32):
        group = [generate_instance(n, data, 2, rng) for _ in range(3)]
        solve_group(group, [2, 3], ["noma", "oma"])
    for n_bs, n_rb, taus in ((2, 3, [1, 4]), (3, 1, [2, 5]), (5, 1, [3]),
                             (4, 3, [1, 2, 6])):
        group = [random_instance(rng, n_bs, n_rb, tau=1) for _ in range(2)]
        closed = np.where(np.arange(n_rb) % 2, 0.0, 2e-10)  # RBs 1, 3, ...
        group.append(replace(group[0], i_threshold=closed))
        solve_group(group, taus, ["noma", "oma"])
    assert passes["greedy"] and passes["first"] == 6 and passes["later"]


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


def test_closed_rb_is_silent():
    """On an RB whose cap is 0, the members the macro user hears get power
    and rate 0, as the matcher scores them, with no warning; an open RB
    beside it is solved as usual."""
    rng = np.random.default_rng(9)
    inst = random_instance(rng, 4, 2, tau=2, threshold=0.0)
    matching = Matching((0, 0, 1, 1), n_rb=2, tau=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scheme in ("noma", "oma"):
            m = match_rbs(inst, scheme)
            sol = sca_power_control(m, inst, scheme)
            assert min(m.bs_to_rb) >= 0  # every BS on a closed RB
            assert not sol.powers.any() and not sol.per_bs_rates.any()
            assert sol.sum_rate == 0.0 and sol.converged
            sol = sca_power_control(
                matching, replace(inst, i_threshold=np.array([0.0, np.inf])),
                scheme)
            assert not sol.powers[:2].any() and not sol.per_bs_rates[:2].any()
            assert np.all((sol.powers[2:] > 0) & (sol.powers[2:] <= inst.p_max))
            assert np.all(sol.per_bs_rates[2:] > 0)


def test_oma_baseline_consistent():
    rng = np.random.default_rng(10)
    inst = random_instance(rng, 4, 2, tau=2)
    matching = match_rbs(inst, "oma")
    direct = sca_power_control(matching, inst, "oma").sum_rate
    grouped = solve_group([inst], [inst.tau], ["oma"])[(inst.tau, "oma")]
    assert grouped[0][1].sum_rate == pytest.approx(direct)
    assert direct > 0.0


def _sca_rows(inst, scheme, extra):
    """One solve's SCA rows as _power builds them: the tables, and the sets
    of its open matched RBs under match_rbs, with extra sentinel slots
    beyond its fullest RB, their RBs and their macro gains."""
    tab = _stack([inst])
    src = np.array(match_rbs(inst, scheme).bs_to_rb)
    counts = np.bincount(src[src >= 0], minlength=inst.n_rb)
    rbs = np.flatnonzero(counts * (inst.i_threshold > 0))
    sets = _padded(src, rbs, inst.n_bs, int(counts.max(initial=1)) + extra)
    return tab, sets, rbs, tab.h_macro.take(sets * inst.n_rb + rbs)


def test_sca_padding_slots_change_no_bytes(monkeypatch):
    """_sca and _surrogate_step give a solve's rows padded with one more
    sentinel slot the bytes of its rows alone, with binding and absent caps,
    zero far gains, both schemes and at fig5 scale. A sentinel slot starts
    at its lower bound, p_max e^-60, and no update moves it; only a binding
    cap's uniform scaling of its row does. From the capped start
    of a fig5 instance, already converged, the first fixed-point update
    moves no power by 1e-15, so the surrogate stops after it."""
    sinr_calls = []
    sinr = allocation._sinr

    def count(*args):
        sinr_calls.append(1)
        return sinr(*args)

    monkeypatch.setattr(allocation, "_sinr", count)
    reached = []

    def surrogate(inst, scheme, extra):
        """The surrogate step from the capped start, sentinel slots at their
        lower bound as _sca starts them, and its fixed-point updates (two
        _sinr calls at the start, two more per extra one)."""
        tab, sets, rbs, h = _sca_rows(inst, scheme, extra)
        lo = inst.p_max * math.exp(-60.0)
        p = np.where(sets < inst.n_bs, _capped_power(tab, sets, rbs), lo)
        terms = _pair_terms(tab, sets, rbs, np.full(len(rbs), scheme == "oma"))
        sinr_calls.clear()
        q = _surrogate_step(tab, terms, h, tab.i_threshold[rbs], p,
                            np.zeros(len(rbs), dtype=np.intp),
                            np.ones(1, dtype=bool))
        # the cap's uniform scaling moves a row's padding with its members
        pad = sets == inst.n_bs
        assert np.all((q[pad] > 0) & (q[pad] <= lo))
        uncapped = pad & np.isinf(tab.i_threshold[rbs])
        assert np.all(q[uncapped] == lo)
        reached.append(uncapped.any())
        return q[:len(sets) - extra], len(sinr_calls) // 2

    data = preset_config("fig5").data
    fig5 = generate_instance(32, data, 3, np.random.default_rng(32))
    cases = [(inst, scheme) for inst, _ in _sca_cases()[::2]
             for scheme in ("noma", "oma")] + [(fig5, "noma"), (fig5, "oma")]
    for inst, scheme in cases:
        solved = []
        for extra in (0, 1):
            tab, sets, rbs, h = _sca_rows(inst, scheme, extra)
            solved.append(_sca(tab, sets, rbs, np.full(len(rbs), scheme == "oma"),
                               h, np.zeros(len(rbs), dtype=np.intp), 1)[0])
        alone, padded = solved
        assert padded.powers.tobytes() == alone.powers.tobytes()
        assert padded.per_bs_rates.tobytes() == alone.per_bs_rates.tobytes()
        assert (padded.iterations, padded.converged) == (alone.iterations,
                                                         alone.converged)
        assert np.array(padded.objective_history).tobytes() \
            == np.array(alone.objective_history).tobytes()
        (q_alone, _), (q_padded, _) = (surrogate(inst, scheme, extra)
                                       for extra in (0, 1))
        assert q_padded.tobytes() == q_alone.tobytes()
    for scheme in ("noma", "oma"):  # the converged start
        assert surrogate(fig5, scheme, 0)[1] == surrogate(fig5, scheme, 1)[1] == 1
    assert any(reached)  # the case the test is meant to reach


def _sca_cases():
    """(instance, scheme) pairs for the SLSQP comparison: random instances
    with tau 1 to 3, caps that bind and caps that do not, BSs with a zero
    far gain; and fig5-scale instances."""
    rng = np.random.default_rng(77)
    cases = []
    for k in range(12):
        tau = 1 + k % 3
        inst = random_instance(rng, int(rng.integers(tau + 1, 7)),
                               int(rng.integers(1, 4)), tau=tau,
                               threshold=np.inf if k % 2 else 1e-10)
        if k % 4 < 2:
            x_far = inst.x_far.copy()
            x_far[0, 0, :] = 0.0  # BS 0's far user hears nothing
            inst = replace(inst, x_far=x_far)
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
        oma = np.full(len(rbs), scheme == "oma")
        tab = _stack([inst])
        cand = _surrogate_step(tab, _pair_terms(tab, sets, rbs, oma), h, cap, p,
                               np.zeros(len(rbs), dtype=np.intp),
                               np.ones(1, dtype=bool))
        for col, r in enumerate(rbs.tolist()):
            members = list(matching.rb_to_bs[r])
            want = slsqp_surrogate_step(inst, r, members, p[:len(members), col],
                                        scheme)
            got = cand[:len(members), col]
            binding += bool(np.isfinite(cap[col])
                            and got @ h[:len(members), col] > 0.999 * cap[col])
            single += bool(np.any(inst.x_far[members, members, r] == 0.0))
            rate = [sum(pair_rates(inst, r, members, dict(zip(members, pw)),
                                   scheme).values()) for pw in (got, want)]
            np.testing.assert_allclose(rate[0], rate[1], rtol=1e-9, atol=0)
        sol = sca_power_control(matching, inst, scheme)
        _, rate, iterations = slsqp_sca(matching, inst, scheme)
        np.testing.assert_allclose(sol.sum_rate, rate, rtol=1e-9, atol=0)
        assert sol.iterations == iterations
    assert binding and single  # the cases the test is meant to reach
