"""Small-cell resource allocation: many-to-one RB matching under a quota,
successive-convex-approximation power control, and the OMA baseline.

Each small-cell BS serves one near/far NOMA pair. BSs are matched to RBs by
deferred acceptance followed by sum-rate-improving swaps; transmit powers on
each RB are then optimized with an iterated logarithmic lower bound
(log(1+z) >= a*log z + b, tight at the current point) that is concave in
log-power variables, solved on every RB at once by the fixed point of its KKT
conditions.

solve_group solves every (instance, tau, scheme) of a lockstep group of
instances together. The instances' padded gain tables sit side by side along
the RB axis (_stack), so a kernel row's column names its instance and its RB,
and each row carries its solve's scheme. A solve's sets are padded with the
sentinel BS, whose gains add an exact +0.0, to the group's largest tau (at
most n_bs; solo scores: one slot; SCA: its fullest RB). Each deferred
acceptance round, greedy step, swap round (a solve's DA-seeded and
greedy-seeded phases are two lanes of it) and SCA step is one pass over the
group, and each solve stops on its own, so it gets the bytes it gets alone.
The greedy and swap phases keep each lane's set scores (_rescore), and a
step or a round rescores only the RBs it changed. group_size sizes a group
so that its stacked tables fit in GROUP_BYTES and the swap phase's first
pass and an SCA pass in RATE_ROWS rows; _plus_each, which adds every BS to
each set, makes every kernel call of the matcher, cut into calls of whole
sets. An assignment is one RB index per BS, -1 if unmatched: solve_group
returns one per instance and a PowerSolution per (tau, scheme); match_rbs,
sca_power_control and solve_instance are the one-solve case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .metrics import within_budget
from .noma_core import NomaPair

# Bound on the improving-swap rounds of each matching seed.
_MAX_SWAP_ROUNDS = 10_000
# SCA's outer loop stops when an iteration gains less than _SCA_TOL of the
# total. Bounds on its loops: outer iterations, fixed-point updates per
# surrogate solve, and steps per search for an interference-cap multiplier.
_MAX_SCA_ITERS = 100
_SCA_TOL = 1e-6
_MAX_FIXED_POINT = 100
_MAX_MULTIPLIER_STEPS = 200
_TINY = np.finfo(float).tiny
_FLOOR = math.exp(-60.0)  # SCA's lowest power, as a fraction of p_max

MATCHING = ("candidate co-channel sets are scored by their sum rate at "
            "cap-scaled equal power (every member at p_max, scaled down "
            "uniformly to meet i_threshold); two seeds are each refined by "
            "swap rounds: deferred acceptance (BSs propose, each RB keeps its "
            "top tau, both sides ranking by a BS's score alone on the RB, ties "
            "to the lower index) and greedy, which keeps placing the (BS, RB) "
            "pair of largest gain while its best gain is > 0, the first "
            "maximum in row-major (BS, RB) order; each swap round scans moves "
            "into vacancies before pairwise exchanges, in row-major (BS, RB) "
            "and (BS, BS) order, the first maximum winning and an exchange "
            "only if strictly better than the best move; a round applies its "
            "winner only if it raises the total by more than 1e-12; the "
            "deferred-acceptance seed's optimum is kept unless greedy's total "
            "is better by more than 1e-12")
POWER_CONTROL = (
    "SCA from p_max scaled uniformly below each RB's cap: each outer iteration "
    "bounds every rate term below by alpha*log z + beta, tight at the current "
    "powers, and solves that surrogate on every RB by the fixed point p_j <- "
    "clip(A_j / (c_j(p) + mu*h_j), p_max*e^-60, p_max): A_j sums the alpha of "
    "BS j's terms, c_j(p) sums alpha_u*D_uj / (D_u.p + sigma2) over the terms "
    "u whose interference D_u.p BS j's power enters, and mu >= 0 is found by "
    "bisection with Newton steps on RBs whose cap binds; the fixed point stops "
    f"when no power changes by 1e-15 of itself, or after {_MAX_FIXED_POINT} "
    "updates; a candidate over its cap is scaled to 1 - 1e-12 of it and is "
    "kept on an RB only if that RB's sum rate does not fall; the outer loop "
    "stops when the total gains less than "
    + np.format_float_scientific(_SCA_TOL, trim="-", exp_digits=1)
    + f" of itself, or after {_MAX_SCA_ITERS} iterations; an RB whose cap is 0 "
    "keeps the members the macro user hears silent, at power and rate 0")

# Rows per rate-kernel call, whose fixed cost is that of about 300 rows. At
# 1 024 rows a call's arrays take 0.34 MB. 2 048 rows ran no faster on fig5
# and raised its peak RSS above the per-instance solver's. group_size keeps
# the swap phase's first pass of sets and an SCA pass within it.
RATE_ROWS = 1024
# Bytes of a lockstep group's stacked gain tables (group_size): 73 kB per
# instance at 32 BSs and 4 RBs, so 3 instances. A 512 KiB cap ran about
# 10 % faster on fig5 but raised the summed peak RSS of a 2-worker fig5 run
# by 0.6 MB more.
GROUP_BYTES = 1 << 18


def __getattr__(name):
    # The traced benchmark harness wraps unoma.allocation.minimize by name
    # (its allocation.slsqp span); nothing here calls it. This goes when the
    # harness stops naming it.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


FAIRNESS = ("Jain index over per-small-cell pair rates; unmatched (blocked) "
            "BSs count as rate 0; a trial whose rates are all 0 has fairness 1 "
            "(all shares equal)")


def jain_fairness(values):
    """Jain's index (sum x)^2 / (n sum x^2) over the last axis, a float for a
    1-D input; 1 for equal shares (all 0 included), 1/n for one. float_power
    squares as Python's ** does (x * x differs in the last place at times)."""
    x = np.asarray(values, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ValueError("need at least one value")
    if np.any(x < 0):
        raise ValueError("values must be nonnegative")
    ssq = (x * x).sum(axis=-1)
    index = np.divide(np.float_power(x.sum(axis=-1), 2), x.shape[-1] * ssq,
                      out=np.ones_like(ssq), where=ssq > 0)  # all 0: 1
    return float(index) if x.ndim == 1 else index


class _Tables(NamedTuple):
    """The gains of a group of instances, padded with a sentinel BS, index
    n_bs, whose gains are all 0, and side by side along the RB axis: instance
    i's RB r is column i * n_rb + r. The own gains are the link tensors'
    diagonals, which the cross tables set to 0. A sentinel slot or a BS's own
    slot in a co-channel set then adds an exact +0.0 to every sum, so no mask
    is needed. The scalars are shared by every instance of the group."""

    g_near: np.ndarray  # (B + 1, C)
    g_far: np.ndarray  # (B + 1, C)
    h_macro: np.ndarray  # (B + 1, C)
    x_near: np.ndarray  # (B + 1, B + 1, C)
    x_far: np.ndarray  # (B + 1, B + 1, C)
    i_threshold: np.ndarray  # (C,)
    n_rb: int
    p_max: float
    sigma2: float
    pair: NomaPair


@dataclass(frozen=True)
class AllocationInstance:
    """One resource-allocation problem over small-cell BSs and RBs.

    x_near/x_far: (B, B, R) link gains, [tx BS, rx BS's user, RB];
    x[b, b, r] is BS b's own link.
    h_macro: (B, R) gain from each BS to the protected macro user per RB.
    i_threshold: (R,) received-interference cap at the macro user (watts);
    an RB whose cap is 0 is closed: a set on it that the macro user hears
    stays silent.
    """

    x_near: np.ndarray
    x_far: np.ndarray
    h_macro: np.ndarray
    i_threshold: np.ndarray
    tau: int
    p_max: float
    sigma2: float
    pair: NomaPair  # every BS's power split

    def __post_init__(self):
        b, r = np.shape(self.h_macro)
        if np.shape(self.x_near) != (b, b, r) or np.shape(self.x_far) != (b, b, r):
            raise ValueError("link-gain arrays must have shape (B, B, R)")
        if np.shape(self.i_threshold) != (r,):
            raise ValueError("i_threshold must have shape (R,)")
        if not np.all(np.asarray(self.i_threshold) >= 0):
            raise ValueError("i_threshold must be >= 0")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be > 0")
        if self.p_max <= 0:
            raise ValueError("p_max must be > 0")
        for arr in (self.x_near, self.x_far, self.h_macro):
            if np.any(np.asarray(arr) < 0):
                raise ValueError("gains must be >= 0")

    @property
    def n_bs(self) -> int:
        return self.h_macro.shape[0]

    @property
    def n_rb(self) -> int:
        return self.h_macro.shape[1]


def _stack(instances) -> _Tables:
    """The _Tables of instances that share n_bs, n_rb, p_max, sigma2 and
    pair, built in place."""
    first = instances[0]
    b_n, r_n = first.n_bs, first.n_rb
    shared = (b_n, r_n, first.p_max, first.sigma2, first.pair)
    if any((inst.n_bs, inst.n_rb, inst.p_max, inst.sigma2, inst.pair) != shared
           for inst in instances):
        raise ValueError("a group's instances must share n_bs, n_rb, p_max, "
                         "sigma2 and pair")
    c_n = len(instances) * r_n
    x_near = np.zeros((b_n + 1, b_n + 1, c_n))
    x_far = np.zeros((b_n + 1, b_n + 1, c_n))
    h_macro = np.zeros((b_n + 1, c_n))
    for i, inst in enumerate(instances):
        cols = slice(i * r_n, (i + 1) * r_n)
        x_near[:b_n, :b_n, cols] = inst.x_near
        x_far[:b_n, :b_n, cols] = inst.x_far
        h_macro[:b_n, cols] = inst.h_macro
    own = np.arange(b_n + 1)
    g_near, g_far = x_near[own, own], x_far[own, own]
    x_near[own, own] = 0.0
    x_far[own, own] = 0.0
    return _Tables(g_near, g_far, h_macro, x_near, x_far,
                   np.concatenate([inst.i_threshold for inst in instances]),
                   r_n, first.p_max, first.sigma2, first.pair)


def group_size(n_bs: int, n_rb: int, solves: int) -> int:
    """Instances per lockstep group, each solved solves times: as many as
    keep their stacked tables (_stack) within GROUP_BYTES and the swap
    phase's first pass (two lanes per solve, one set per RB) within
    RATE_ROWS, so also its later rounds and an SCA pass (at most one row per
    RB of each solve); at least one. A lane's kept scores (_rescore) are
    (n_rb + n_bs) (n_bs + 1) floats. within_budget refuses one instance's
    tables over the memory budget."""
    table_bytes = 8 * n_rb * ((n_bs + 1) * (2 * n_bs + 5) + 1)
    within_budget(table_bytes, "stacking one instance's gain tables")
    return max(1, min(GROUP_BYTES // table_bytes, RATE_ROWS // (2 * solves * n_rb)))


class _Term(NamedTuple):
    """One rate term, the far or the near user's, of every member of every
    co-channel set, slot-major. At powers p (k, n) member i's SINR is

        share p gain / (own p gain + sum_j p[j] cross[j] + sigma2),

    own being 0 where it is None, and its rate is weight log2(1 + SINR);
    cross[j] is the gain from member j to member i's user. weight, share and
    own are per row, set by the row's scheme."""

    weight: np.ndarray  # (n,)
    share: np.ndarray  # (n,) power share of the user's signal
    gain: np.ndarray  # (k, n)
    cross: np.ndarray  # (k, k, n) [tx slot, rx slot, row]
    own: np.ndarray | None = None  # (n,) own power share heard as noise


def _is_oma(scheme: str) -> bool:
    if scheme not in ("noma", "oma"):
        raise ValueError(f"unknown scheme {scheme!r}")
    return scheme == "oma"


def _pair_terms(tab: _Tables, sets, cols, oma):
    """The (far, near) rate terms of slot-major co-channel sets (k, n), BS
    indices padded with the sentinel index n_bs, on the table columns cols
    (n,), oma (n,) flagging the OMA rows. A zero gain gives a term of
    log2(1) = 0, so the sentinel needs no case."""
    b1, c_n = tab.h_macro.shape
    own = sets * c_n + cols  # flat index into the (B + 1, C) gains
    cross = (sets[:, None] * b1 + sets[None]) * c_n + cols  # [tx, rx, row]
    # NOMA: the far user decodes its share treating the near user's as
    # noise; the near user cancels the far share first (SIC). OMA: equal
    # time sharing, each user gets half the slot at full power and hears no
    # own share (an exact 0.0 p gain).
    a_m, a_n = tab.pair.a_m, tab.pair.a_n
    weight, far_share, near_share, heard = np.array(
        [[1.0, 0.5], [a_m, 1.0], [a_n, 1.0], [a_n, 0.0]])[:, oma.astype(np.intp)]
    return (_Term(weight, far_share, tab.g_far.take(own), tab.x_far.take(cross),
                  own=heard),
            _Term(weight, near_share, tab.g_near.take(own), tab.x_near.take(cross)))


def _sum_in_order(x: np.ndarray) -> np.ndarray:
    """x summed over its first axis (set slots, or a lane's RBs) one entry at
    a time, in order. numpy's .sum(axis=0) sums a single column of 8 or more
    entries pairwise, so a row's bits would depend on the rows beside it."""
    total = np.zeros(x.shape[1:])
    for row in x:
        total += row
    return total


def _sinr(term: _Term, p: np.ndarray, sigma2: float):
    """(SINR, its denominator) of a term at slot-major powers p (k, n).
    Interference is summed one member slot at a time, in the rows' member
    order."""
    den = np.zeros(term.gain.shape)
    for j in range(len(p)):
        den += p[j] * term.cross[j]
    if term.own is not None:
        den += term.own * p * term.gain
    den += sigma2
    return term.share * p * term.gain / den, den


def _rates(terms, p: np.ndarray, sigma2: float):
    """(pair sum rates (k, n), set totals (n,)) of the (far, near) terms at
    slot-major powers p; a silent member's rate is 0."""
    far, near = (term.weight * np.log2(1.0 + _sinr(term, p, sigma2)[0])
                 for term in terms)
    rates = np.where(p > 0, far + near, 0.0)
    return rates, _sum_in_order(rates)


def rb_rates(tab: _Tables, sets, cols, powers, oma):
    """Pair sum rate of every member of every co-channel set.

    tab: a group's _Tables. sets: (k, n) BS indices, slot-major, one
    co-channel set per column, padded with the sentinel index n_bs; cols:
    (n,) the table column (instance and RB) of each set; powers: (k, n) the
    transmit power of each member; oma: (n,) whether each set is OMA.
    Slot-major arrays keep numpy's inner loops n long. Returns (rates (k, n),
    totals (n,)).
    """
    return _rates(_pair_terms(tab, sets, cols, oma), powers, tab.sigma2)


def _capped_power(tab: _Tables, sets, cols) -> np.ndarray:
    """Cap-scaled equal power, one per column of the slot-major sets (k, n):
    every member at p_max, scaled down uniformly so that the set's load at
    the macro user stays below i_threshold: 0 on a closed RB, whose cap is 0.
    It scores candidate sets during matching (the true powers are only known
    after SCA) and is where SCA starts."""
    c_n = tab.h_macro.shape[1]
    load = tab.p_max * _sum_in_order(tab.h_macro.take(sets * c_n + cols))
    t = tab.i_threshold[cols]
    over = load > t
    p = np.full(len(cols), tab.p_max)
    p[over] = tab.p_max * (t[over] / load[over]) * (1.0 - 1e-9)
    return p


def _plus_each(tab: _Tables, sets, cols, oma) -> np.ndarray:
    """(n, n_bs + 1) table of the totals at cap-scaled equal power of the
    slot-major sets (width, n) on the columns cols (n,) under the schemes oma
    (n,) with each BS added; the last column (the sentinel) is each set's own
    total. A full set drops its largest member to make room: those entries
    are never read. Every kernel call of the matcher is made here; one holds
    the rows of as many whole sets as RATE_ROWS allows, at least one."""
    width, n = sets.shape
    b1 = tab.h_macro.shape[0]
    out = np.empty((n, b1))
    step = max(1, RATE_ROWS // b1)  # sets per kernel call
    for first in range(0, n, step):
        part = sets[:, first:first + step]
        rows = np.empty((part.shape[1], b1, width + 1), dtype=np.intp)
        rows[:, :, :width] = part.T[:, None, :]
        rows[:, :, width] = np.arange(b1)
        rows.sort(axis=2)
        rows = np.ascontiguousarray(rows[:, :, :width].reshape(-1, width).T)
        row_cols = np.repeat(cols[first:first + step], b1)
        p = np.broadcast_to(_capped_power(tab, rows, row_cols), rows.shape)
        out[first:first + step] = rb_rates(
            tab, rows, row_cols, p, np.repeat(oma[first:first + step], b1)
        )[1].reshape(-1, b1)
    return out


def _da_seed(score: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Deferred acceptance on every solve at once: solve s's BSs propose and
    its RBs keep their top-tau[s] proposers, both sides ranking by score[s]
    (B, R), best first, ties to the lower index. Returns the assignments
    (S, B): one RB index per BS, -1 for unmatched.

    Ordered by score, then BS, then RB, the pairs of a BS's row or an RB's
    column follow that side's ranking, so the preferences have no cycle and
    the stable matching, the one deferred acceptance finds, is unique. Each
    round every solve places its first open pair in that order (BS free, RB
    with room: the row-major argmax of its masked scores), and that is
    stable: a pair b prefers to its own, or any of an unmatched b, came up
    while b was free, so its RB was full of pairs that came earlier."""
    s_n, b_n, r_n = score.shape
    src = np.full((s_n, b_n), -1)
    room = np.repeat(tau[:, None], r_n, axis=1)  # (S, R) places left
    live = np.arange(s_n)
    while len(live):
        open_ = (src[live, :, None] < 0) & (room[live, None] > 0)
        pick = np.where(open_, score[live], -np.inf).reshape(len(live), -1).argmax(1)
        placing = open_.reshape(len(live), -1)[np.arange(len(live)), pick]
        live, (b, r) = live[placing], np.divmod(pick[placing], r_n)
        src[live, b] = r
        room[live, r] -= 1
    return src


def _padded(src, rbs, n_bs: int, width: int) -> np.ndarray:
    """Co-channel sets of the RBs rbs under the assignment src (one RB index
    per BS, -1 for unmatched; or one assignment per RB, (len(rbs), n_bs)),
    slot-major: a C-contiguous (width, len(rbs)) array of each set's members
    in increasing order padded with the sentinel index n_bs."""
    cols = np.where(src == np.reshape(rbs, (-1, 1)), np.arange(n_bs), n_bs)
    cols.sort(axis=1)
    if n_bs < width:
        cols = np.pad(cols, ((0, 0), (0, width - n_bs)), constant_values=n_bs)
    return np.ascontiguousarray(cols[:, :width].T)


def _rescore(tab: _Tables, src, lanes, rbs, inst, tau, oma, on_rb, leave=None):
    """Score the RBs rbs (n,) of lanes (n,) in one _plus_each pass, and no
    other kernel call, into the tables each lane keeps: lane l has the
    assignment src[l] of instance inst[l] at quota tau[l] under scheme
    oma[l]. on_rb[l, r] (L, R, B + 1): r's set with each BS added, its own
    total last, -inf in each BS column of a full RB. leave[l, b] (L, B,
    B + 1), b on one of the RBs: its set without b with each BS added (last:
    b gone alone) minus the RB's total, read where b is added back, the row
    of the RB's own set. Greedy passes no leave, reading neither these rows
    nor full totals."""
    b_n = src.shape[1]
    held = src[lanes] == rbs[:, None]  # (n, B): each RB's members
    full = np.count_nonzero(held, axis=1) >= tau[lanes]
    sets = _padded(src[lanes], rbs, b_n, min(int(tau.max()), b_n))
    cols = inst[lanes] * tab.n_rb + rbs
    pair, mb = np.nonzero(held if leave is not None else held[:0])
    without = sets[:, pair]  # each member's set without it
    without[without == mb] = b_n
    opened = np.flatnonzero(~full)
    scored = np.concatenate([opened, pair])
    tot = _plus_each(tab, np.concatenate([sets[:, opened], without], axis=1),
                     cols[scored], oma[lanes[scored]])
    on_rb[lanes[opened], rbs[opened]] = tot[:len(opened)]
    on_rb[lanes[full], rbs[full], :b_n] = -np.inf
    if leave is not None:
        own = tot[len(opened) + np.arange(len(pair)), mb]
        on_rb[lanes[pair], rbs[pair], b_n] = own
        leave[lanes[pair], mb] = tot[len(opened):] - own[:, None]


def _greedy_seed(tab: _Tables, solo, inst, tau, oma) -> np.ndarray:
    """Every solve's greedy seed, in lockstep. Solve s, instance inst[s] at
    quota tau[s] under scheme oma[s], repeatedly places the (BS, RB) pair
    with the largest marginal gain, the first in row-major (BS, RB) order on
    ties, until no gain is positive. The gains come from each solve's on_rb
    table (_rescore), solo (S, R, B + 1) at first, the empty sets' _plus_each
    table; each step rescores the RB each live solve filled. Returns the
    assignments (S, B), as _da_seed's."""
    b_n, on_rb = solo.shape[2] - 1, solo.copy()
    src = np.full((len(inst), b_n), -1)
    live = np.arange(len(inst))
    while len(live):
        # gain[l, b, r]: total of r's set with b added minus its total; -inf
        # once b is placed or r is full
        gain = np.where(src[live, :, None] < 0, (on_rb[live, :, :b_n]
                        - on_rb[live, :, b_n:]).transpose(0, 2, 1), -np.inf)
        b, r = np.divmod(gain.reshape(len(live), -1).argmax(axis=1), tab.n_rb)
        placed = gain[np.arange(len(live)), b, r] > 0.0
        live, b, r = live[placed], b[placed], r[placed]
        src[live, b] = r
        _rescore(tab, src, live, r, inst, tau, oma, on_rb)
    return src


def _swap_phase(tab: _Tables, src, inst, tau, oma):
    """Best-improvement moves into vacancies and pairwise exchanges, on every
    lane in lockstep: lane l refines the assignment src[l] of instance
    inst[l] at quota tau[l] under scheme oma[l] and stops on its own. Its
    _rescore tables score every RB once, then the RBs each round changed. A
    round takes a lane's best move, the first maximum in row-major (BS, RB)
    order, and best exchange, one side possibly unmatched, the first in
    row-major (BS, BS) order; it applies the exchange if strictly better than
    the move and gaining more than 1e-12, else the move if that does.
    Returns (the final assignments (L, B), each lane's final total)."""
    (l_n, b_n), r_n = src.shape, tab.n_rb
    src, totals, live = src.copy(), np.zeros(l_n), np.arange(l_n)
    on_rb, leave = np.empty((l_n, r_n, b_n + 1)), np.empty((l_n, b_n, b_n + 1))
    lanes, rbs = np.divmod(np.arange(l_n * r_n), r_n)
    upper = np.triu(np.ones((b_n, b_n), dtype=bool), 1)
    for done in range(_MAX_SWAP_ROUNDS + 1):
        _rescore(tab, src, lanes, rbs, inst, tau, oma, on_rb, leave)
        n, cur = len(live), on_rb[live, :, b_n]
        ml, mb = np.nonzero(src[live] >= 0)  # matched (live lane, BS) pairs
        mr, out = src[live[ml], mb], leave[live[ml], mb]
        move = on_rb[live, :, :b_n].transpose(0, 2, 1) - cur[:, None]
        move[ml, mb] += out[:, b_n:]
        move[ml, mb, mr] = -np.inf
        # swap[l, b1, b2]: b1's leave with b2 joining plus b2's with b1 joining
        swap = np.zeros((n, b_n, b_n))
        swap[ml, mb] = out[:, :b_n]
        swap[ml, :, mb] += out[:, :b_n]
        swap[~upper | (src[live, :, None] == src[live, None])] = -np.inf
        move, swap = move.reshape(n, -1), swap.reshape(n, -1)
        best_move, best_swap = move.argmax(axis=1), swap.argmax(axis=1)
        gain_move = move[np.arange(n), best_move]
        gain_swap = swap[np.arange(n), best_swap]
        exchange = gain_swap > np.where(gain_move > 1e-12, gain_move, 1e-12)
        go = (exchange | (gain_move > 1e-12)) & (done < _MAX_SWAP_ROUNDS)
        totals[live[~go]] = _sum_in_order(cur[~go].T)
        (b1, b2), lx = np.divmod(best_swap[go & exchange], b_n), live[go & exchange]
        r1, r2 = src[lx, b1], src[lx, b2]
        src[lx, b1], src[lx, b2] = r2, r1
        (b, r), lm = np.divmod(best_move[go & ~exchange], r_n), live[go & ~exchange]
        left, src[lm, b] = src[lm, b], r
        lanes, rbs = np.concatenate([lx, lx, lm, lm]), np.concatenate([r1, r2, left, r])
        lanes, rbs = lanes[rbs >= 0], rbs[rbs >= 0]  # an unmatched side has no RB
        live = live[go]
        if not len(live):
            break
    return src, totals


def _match(tab: _Tables, inst, tau, oma) -> np.ndarray:
    """Every solve's matching, in lockstep: solve s matches instance inst[s]
    at quota tau[s] under scheme oma[s]. Two seeds (deferred acceptance and
    marginal-gain greedy), each refined by rate-improving swaps until no
    single move (into a vacancy) or pairwise exchange improves the total; the
    better of the two local optima is kept. Candidate co-channel sets are
    scored at cap-scaled equal powers, every phase from _plus_each tables:
    DA's preferences and greedy's first gains from solo, every BS alone on
    every RB of each solve, then the tables _rescore keeps. Returns the
    assignments (S, B)."""
    b_n, r_n = tab.h_macro.shape[0] - 1, tab.n_rb
    if b_n == 0:
        return np.full((len(inst), 0), -1)
    cols = (inst[:, None] * r_n + np.arange(r_n)).ravel()
    empty = np.full((1, len(cols)), b_n)  # wider, it would add only +0.0s
    solo = _plus_each(tab, empty, cols, np.repeat(oma, r_n)).reshape(-1, r_n, b_n + 1)
    seeds = np.concatenate([_da_seed(solo[:, :, :b_n].transpose(0, 2, 1), tau),
                            _greedy_seed(tab, solo, inst, tau, oma)])
    src, totals = _swap_phase(tab, seeds, np.tile(inst, 2), np.tile(tau, 2),
                              np.tile(oma, 2))
    s_n = len(inst)
    # the DA seed's optimum unless greedy's is better by more than 1e-12
    greedy = totals[s_n:] > totals[:s_n] + 1e-12
    return np.where(greedy[:, None], src[s_n:], src[:s_n])


def match_rbs(instance: AllocationInstance, scheme: str = "noma") -> np.ndarray:
    """The assignment (B,) of one instance (_match)."""
    return _match(_stack([instance]), np.array([0]), np.array([instance.tau]),
                  np.array([_is_oma(scheme)]))[0]


class PowerSolution(NamedTuple):
    """Power control of S solves, one row each (sca_power_control: row 0)."""

    powers: np.ndarray  # (S, B) watts, 0 for unmatched BSs
    per_bs_rates: np.ndarray  # (S, B) bits/s/Hz
    sum_rate: np.ndarray  # (S,)
    iterations: np.ndarray  # (S,)
    converged: np.ndarray  # (S,)
    objective_history: np.ndarray  # (S, I) total after each outer iteration


def _clipped_power(a, c, mu, h, lo: float, p_max: float):
    """The fixed-point update clip(a / x, lo, p_max) at x = c + mu h, and x.
    x is floored at _TINY: a / _TINY stays finite (a < 2) and clips to
    p_max."""
    x = np.maximum(c + mu * h, _TINY)
    return np.minimum(np.maximum(a / x, lo), p_max), x


def _cap_multiplier(a, c, h, cap, lo: float, p_max: float, solve):
    """The multiplier mu (n,) at which h.p(mu) = cap on rows whose cap binds,
    p(mu) = _clipped_power(a, c, mu, ...) being non-increasing in mu.
    Bisection on the bracket [0, sum_j a_j / cap], at whose top h.p <= sum_j
    a_j / mu = cap. Each step evaluates h.p at mu and narrows the bracket
    there; the next mu is the Newton step from mu where that falls strictly
    inside the bracket, else the bracket's midpoint. A solve's rows (solve
    names each row's) stop when none of its rows' mu moves or each of their
    brackets is a few ulps wide."""
    mu, mu_lo = np.zeros(len(cap)), np.zeros(len(cap))
    mu_hi = _sum_in_order(a) / cap
    going = np.ones(int(solve.max()) + 1, dtype=bool)
    for _ in range(_MAX_MULTIPLIER_STEPS):
        p, x = _clipped_power(a, c, mu, h, lo, p_max)
        excess = _sum_in_order(h * p) - cap
        over = excess > 0
        mu_lo = np.where(over, mu, mu_lo)
        mu_hi = np.where(over, mu_hi, mu)
        # -d(h.p)/dmu: only the powers strictly between their bounds move
        slope = _sum_in_order(np.where((p > lo) & (p < p_max), h * h * p / x, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = mu + excess / slope
        inside = ((step > mu_lo) & (step < mu_hi)) | (step == mu)
        step = np.where(inside, step, 0.5 * (mu_lo + mu_hi))
        moving = (step != mu) & (mu_hi - mu_lo > 4 * np.spacing(mu_hi))
        going &= np.bincount(solve[moving], minlength=len(going)) > 0
        if not going.any():
            break
        mu = np.where(going[solve], step, mu)
    return mu


def _surrogate_step(tab: _Tables, terms, h, cap, p, solve, going):
    """One SCA step on every row (RB) of the solves that going (S,) flags,
    all at once, from slot-major powers p (k, n); every other row keeps p.
    terms are the rows' (far, near) pair from _pair_terms, h (k, n) their
    macro gains and solve (n,) names each row's solve.

    Maximizes the tight lower bound log(1 + z) >= alpha log z + beta of the
    rows' rates at p (alpha = weight z0 / (1 + z0) at the current SINR z0),
    which is concave in log powers, subject to p_max e^-60 <= p <= p_max and
    the row's macro load h.p <= cap. Its KKT conditions give the fixed point

        p_j = clip(A_j / (c_j(p) + mu h_j), p_max e^-60, p_max),

    A_j the sum of the alpha of the terms member j owns, c_j(p) the sum of
    alpha_u D_uj / (D_u.p + sigma2) over the terms u that member j's power
    enters with coefficient D_uj, and mu >= 0 the row's cap multiplier
    (_cap_multiplier) on the rows whose cap binds. A_j = 0 sends p_j to its
    lower bound and c_j + mu h_j = 0 to p_max, so a sentinel slot (A_j = c_j
    = h_j = 0) stays at the lower bound, where _sca starts it. A solve's rows
    stop updating after the first update in which none of their powers
    changes by 1e-15 of itself. The candidate is then scaled down uniformly
    to 1 - 1e-12 of its cap on a row whose load still exceeds it.
    """
    p_max, sigma2 = tab.p_max, tab.sigma2
    lo = p_max * _FLOOR
    sinrs = [_sinr(term, p, sigma2) for term in terms]
    alphas = [term.weight * z / (1.0 + z) for term, (z, _) in zip(terms, sinrs)]
    dens = [den for _, den in sinrs]
    a = alphas[0] + alphas[1]

    q = p
    rows_going = going[solve]
    for _ in range(_MAX_FIXED_POINT):
        c = 0.0
        for term, alpha, den in zip(terms, alphas, dens):
            ratio = alpha / den
            c = c + _sum_in_order((term.cross * ratio).swapaxes(0, 1))  # rx slots
            if term.own is not None:
                c = c + ratio * term.own * term.gain
        new = _clipped_power(a, c, 0.0, h, lo, p_max)[0]
        binds = np.flatnonzero((_sum_in_order(h * new) > cap) & rows_going)
        if len(binds):
            a_b, c_b, h_b = a[:, binds], c[:, binds], h[:, binds]
            mu = _cap_multiplier(a_b, c_b, h_b, cap[binds], lo, p_max, solve[binds])
            new[:, binds] = _clipped_power(a_b, c_b, mu, h_b, lo, p_max)[0]
        moved = (np.abs(new - q) > 1e-15 * q).any(axis=0)
        going = going & (np.bincount(solve[moved], minlength=len(going)) > 0)
        q = np.where(rows_going, new, q)
        rows_going = going[solve]
        if not going.any():
            break
        dens = [_sinr(term, q, sigma2)[1] for term in terms]
    load = _sum_in_order(h * q)
    over = load > cap
    q[:, over] *= (cap[over] / load[over]) * (1.0 - 1e-12)
    return q


def _sca(tab: _Tables, sets, cols, oma, h, solve, s_n: int) -> PowerSolution:
    """SCA on s_n solves in one pass over their rows: the slot-major sets
    (width, n), columns, macro gains h and scheme flags of each solve's open
    matched RBs, solve (n,) naming each row's solve (a solve's rows in RB
    order). Members start at _capped_power, sentinel slots at their fixed
    point p_max e^-60 (_surrogate_step). Every live solve takes one
    _surrogate_step per outer iteration; a finished solve's rows are frozen.
    A row keeps its candidate only if its sum rate does not fall. A solve's
    total is summed over its rows in RB order (np.bincount adds them in row
    order), and it stops on its own when an iteration gains less than
    _SCA_TOL of it. Returns the s_n solves' PowerSolution, from the loop's
    arrays; a history row repeats its total past its solve's iterations."""
    b_n = tab.h_macro.shape[0] - 1  # the sentinel
    cap = tab.i_threshold[cols]
    p = np.where(sets < b_n, _capped_power(tab, sets, cols), tab.p_max * _FLOOR)
    terms = _pair_terms(tab, sets, cols, oma)
    rates, totals = _rates(terms, p, tab.sigma2)

    prev = np.bincount(solve, totals, minlength=s_n)
    live = np.ones(s_n, dtype=bool)  # a solve with no row stops after one
    iterations = np.zeros(s_n, dtype=int)
    history = []  # every solve's total after each outer iteration
    while live.any() and len(history) < _MAX_SCA_ITERS:
        cand = _surrogate_step(tab, terms, h, cap, p, solve, live)
        cand_rates, cand_totals = _rates(terms, cand, tab.sigma2)
        keep = (cand_totals >= totals) & live[solve]
        p = np.where(keep, cand, p)
        rates = np.where(keep, cand_rates, rates)
        totals = np.where(keep, cand_totals, totals)
        total = np.bincount(solve, totals, minlength=s_n)
        history.append(total)
        iterations += live
        live &= ~(total - prev < _SCA_TOL * np.maximum(1.0, np.abs(total)))
        prev = total

    powers, per_bs = np.zeros((2, s_n, b_n + 1))
    powers[solve, sets], per_bs[solve, sets] = p, rates
    per_bs = per_bs[:, :b_n]
    return PowerSolution(powers[:, :b_n], per_bs, per_bs.sum(axis=1), iterations,
                         ~live, np.reshape(history, (-1, s_n)).T)


def _power(tab: _Tables, src, inst, oma) -> PowerSolution:
    """The PowerSolution of every solve from one _sca pass, row s that of
    solve s: instance inst[s] with the assignment src[s] under scheme oma[s].
    Its sets are its matched RBs', padded to the fullest RB of any solve; a
    closed RB (cap 0, a member heard by the macro user) is left out, so its
    members keep power and rate 0, as _capped_power scores them."""
    (s_n, b_n), r_n = src.shape, tab.n_rb
    counts = np.bincount((np.arange(s_n)[:, None] * r_n + src)[src >= 0],
                         minlength=s_n * r_n).reshape(s_n, r_n)
    solve, rbs = np.nonzero(counts)
    sets = _padded(src[solve], rbs, b_n, int(counts.max(initial=1)))
    cols = inst[solve] * r_n + rbs
    h = tab.h_macro.take(sets * tab.h_macro.shape[1] + cols)
    shut = (tab.i_threshold[cols] == 0) & np.any(h > 0, axis=0)
    solve, sets, cols, h = solve[~shut], sets[:, ~shut], cols[~shut], h[:, ~shut]
    return _sca(tab, sets, cols, oma[solve], h, solve, s_n)


def sca_power_control(src, instance: AllocationInstance,
                      scheme: str = "noma") -> PowerSolution:
    """Sum-rate power control of one instance's assignment src (B,) on every
    matched RB at once, via the iterated concave lower bound (_power).
    ValueError unless src has one integer entry per BS, each an RB index or
    -1, and no RB holds more than tau BSs.

    Powers start at _capped_power. Each outer iteration re-linearizes and
    solves the surrogate on every RB (_surrogate_step); an RB's candidate is
    kept only if its true sum rate does not decrease, so the reported
    objective history is non-decreasing by construction. The members of a
    closed RB (cap 0, a member heard by the macro user) get power and rate
    0, as _capped_power scores them. Returns row 0 of _power's PowerSolution.
    """
    src, r_n, tau = np.asarray(src), instance.n_rb, instance.tau
    if (src.dtype.kind != "i" or src.shape != (instance.n_bs,)
            or np.any((src < -1) | (src >= r_n))
            or np.any(np.bincount(src[src >= 0], minlength=r_n) > tau)):
        raise ValueError(f"an assignment is one integer RB index in -1..{r_n - 1} "
                         f"per BS, {instance.n_bs} of them, at most {tau} per RB")
    return PowerSolution(*(field[0] for field in _power(
        _stack([instance]), src[None], np.array([0]), np.array([_is_oma(scheme)]))))


def solve_instance(instance: AllocationInstance):
    """The NOMA pipeline on one instance: match RBs, then optimize powers.
    Returns (the assignment (B,), PowerSolution)."""
    src = match_rbs(instance, "noma")
    return src, sca_power_control(src, instance, "noma")


def solve_group(instances, taus, schemes) -> dict:
    """Match and power-control every (instance, tau, scheme) of a lockstep
    group, all in one _match and one _power: instances sharing n_bs, n_rb,
    p_max, sigma2 and pair, each at every quota in taus (its own tau is not
    read), under every scheme in schemes. Each solve gets what match_rbs and
    sca_power_control give it alone. Returns {(tau, scheme): (assignments
    (I, B), as _match's, and PowerSolution), row i instance i's solve}."""
    tab, i_n = _stack(instances), len(instances)
    # the solves read only tab: a list the caller passed without keeping it
    # is freed here, and with it the group's gain arrays
    del instances
    keys = [(t, scheme) for scheme in schemes for t in taus]
    inst = np.repeat(np.arange(i_n), len(keys))
    tau, oma = np.tile([[t, _is_oma(scheme)] for t, scheme in keys], (i_n, 1)).T
    src = _match(tab, inst, tau, oma)
    sol, k = _power(tab, src, inst, oma), len(keys)
    return {key: (src[j::k], PowerSolution(*(field[j::k] for field in sol)))
            for j, key in enumerate(keys)}
