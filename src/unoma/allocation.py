"""Small-cell resource allocation: many-to-one RB matching under a quota,
successive-convex-approximation power control, and the OMA baseline.

Each small-cell BS serves one near/far NOMA pair. BSs are matched to RBs by
deferred acceptance followed by sum-rate-improving swaps; transmit powers on
each RB are then optimized with an iterated logarithmic lower bound
(log(1+z) >= a*log z + b, tight at the current point) that is concave in
log-power variables, solved on every RB at once by the fixed point of its KKT
conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

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


def __getattr__(name):
    # The traced benchmark harness wraps unoma.allocation.minimize by name
    # (its allocation.slsqp span); nothing here calls it. This goes when the
    # harness stops naming it.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def jain_fairness(values) -> float:
    """Jain's index (sum x)^2 / (n sum x^2); 1 for equal shares (all 0
    included), 1/n for one."""
    x = np.asarray(list(values), dtype=float)
    if x.size < 1:
        raise ValueError("need at least one value")
    if np.any(x < 0):
        raise ValueError("values must be nonnegative")
    ssq = float(np.sum(x * x))
    if ssq == 0.0:
        return 1.0  # every share is 0, so all are equal
    return float(np.sum(x)) ** 2 / (x.size * ssq)


class _Tables(NamedTuple):
    """An instance's gains padded with a sentinel BS, index n_bs, whose gains
    are all 0. The own gains are the link tensors' diagonals, which the cross
    tables set to 0. A sentinel slot or a BS's own slot in a co-channel set
    then adds an exact +0.0 to every sum, so no mask is needed."""

    g_near: np.ndarray  # (B + 1, R)
    g_far: np.ndarray  # (B + 1, R)
    h_macro: np.ndarray  # (B + 1, R)
    x_near: np.ndarray  # (B + 1, B + 1, R)
    x_far: np.ndarray  # (B + 1, B + 1, R)


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

    @cached_property
    def _tables(self) -> _Tables:
        """The rate kernel's padded gains, built on first use and kept: an
        instance's gain arrays are not to be changed in place."""
        b_n, r_n = self.n_bs, self.n_rb

        def pad(arr):
            out = np.zeros((b_n + 1,) * (arr.ndim - 1) + (r_n,))
            out[(slice(b_n),) * (arr.ndim - 1)] = arr
            return out

        x_near, x_far = pad(self.x_near), pad(self.x_far)
        own = np.arange(b_n + 1)
        g_near, g_far = x_near[own, own], x_far[own, own]
        x_near[own, own] = 0.0
        x_far[own, own] = 0.0
        return _Tables(g_near, g_far, pad(self.h_macro), x_near, x_far)


class _Term(NamedTuple):
    """One rate term, the far or the near user's, of every member of every
    co-channel set, slot-major. At powers p (k, n) member i's SINR is

        share p gain / (own p gain + sum_j p[j] cross[j] + sigma2),

    own being 0 where it is None, and its rate is weight log2(1 + SINR);
    cross[j] is the gain from member j to member i's user."""

    weight: float
    share: float  # power share of the user's signal
    gain: np.ndarray  # (k, n)
    cross: np.ndarray  # (k, k, n) [tx slot, rx slot, row]
    own: float | None = None  # own power share heard as noise


def _pair_terms(instance: AllocationInstance, sets, rbs, scheme: str):
    """The (far, near) rate terms of slot-major co-channel sets (k, n), BS
    indices padded with the sentinel index n_bs, on RBs rbs (n,). A zero
    gain gives a term of log2(1) = 0, so the sentinel needs no case."""
    if scheme not in ("noma", "oma"):
        raise ValueError(f"unknown scheme {scheme!r}")
    tab, b_n, r_n = instance._tables, instance.n_bs, instance.n_rb
    own = sets * r_n + rbs  # flat index into the (B + 1, R) gains
    cross = (sets[:, None] * (b_n + 1) + sets[None]) * r_n + rbs  # [tx, rx, row]
    x_far, x_near = tab.x_far.take(cross), tab.x_near.take(cross)
    g_far, g_near = tab.g_far.take(own), tab.g_near.take(own)
    if scheme == "noma":
        # the far user decodes its share treating the near user's as noise;
        # the near user cancels the far share first (SIC)
        a_m, a_n = instance.pair.a_m, instance.pair.a_n
        return (_Term(1.0, a_m, g_far, x_far, own=a_n),
                _Term(1.0, a_n, g_near, x_near))
    # equal time sharing: each user gets half the slot at full power
    return (_Term(0.5, 1.0, g_far, x_far), _Term(0.5, 1.0, g_near, x_near))


def _sinr(term: _Term, p: np.ndarray, sigma2: float):
    """(SINR, its denominator) of a term at slot-major powers p (k, n).
    Interference is summed one member slot at a time, in the rows' member
    order."""
    interference = np.zeros(term.gain.shape)
    for j in range(len(p)):
        interference = interference + p[j] * term.cross[j]
    if term.own is not None:
        interference = term.own * p * term.gain + interference
    den = interference + sigma2
    return term.share * p * term.gain / den, den


def _rates(terms, p: np.ndarray, sigma2: float):
    """(pair sum rates (k, n), set totals (n,)) of the (far, near) terms at
    slot-major powers p; a silent member's rate is 0. Totals are summed one
    member slot at a time."""
    far, near = (term.weight * np.log2(1.0 + _sinr(term, p, sigma2)[0])
                 for term in terms)
    rates = np.where(p > 0, far + near, 0.0)
    totals = np.zeros(p.shape[1])
    for row in rates:
        totals = totals + row
    return rates, totals


def rb_rates(instance: AllocationInstance, sets, rbs, powers, scheme: str):
    """Pair sum rate of every member of every co-channel set.

    sets: (k, n) BS indices, slot-major, one RB's co-channel set per column,
    padded with the sentinel index n_bs; rbs: (n,) the RB of each column;
    powers: (k, n) the transmit power of each member. Slot-major arrays keep
    numpy's inner loops n long. Returns (rates (k, n), totals (n,)).
    """
    return _rates(_pair_terms(instance, sets, rbs, scheme), powers,
                  instance.sigma2)


def _capped_power(instance: AllocationInstance, sets, rbs) -> np.ndarray:
    """Cap-scaled equal power, one per column of the slot-major sets (k, n):
    every member at p_max, scaled down uniformly so that the set's load at
    the macro user stays below i_threshold: 0 on a closed RB, whose cap is 0.
    It scores candidate sets during matching (the true powers are only known
    after SCA) and is where SCA starts."""
    h = np.zeros(len(rbs))
    for slot in sets:
        h = h + instance._tables.h_macro.take(slot * instance.n_rb + rbs)
    load = instance.p_max * h
    t = instance.i_threshold[rbs]
    over = load > t
    p = np.full(len(rbs), instance.p_max)
    p[over] = instance.p_max * (t[over] / load[over]) * (1.0 - 1e-9)
    return p


@dataclass(frozen=True)
class Matching:
    """Many-to-one assignment of BSs to RBs under the quota."""

    bs_to_rb: tuple  # B entries, RB index or -1 for unmatched
    n_rb: int
    tau: int

    def __post_init__(self):
        if any(not -1 <= r < self.n_rb for r in self.bs_to_rb):
            raise ValueError(f"RB index outside -1..{self.n_rb - 1}")
        for r, members in enumerate(self.rb_to_bs):
            if len(members) > self.tau:
                raise ValueError(f"RB {r} exceeds quota {self.tau}")

    @property
    def rb_to_bs(self) -> tuple:
        """R tuples of BS indices, each sorted."""
        return tuple(tuple(b for b, rb in enumerate(self.bs_to_rb) if rb == r)
                     for r in range(self.n_rb))


def _da_seed(score: np.ndarray, tau: int) -> np.ndarray:
    """Deferred acceptance: BSs propose, RBs keep their top-tau proposers.
    Both sides rank by score (B, R), best first, ties to the lower index.
    Every free BS proposes at once each round; preferences being strict on
    both sides, that gives the BS-optimal stable matching, as proposing one
    at a time does. Returns the assignment: one RB index per BS, -1 for
    unmatched."""
    b_n, r_n = score.shape
    bs_prefs = np.argsort(-score, axis=1, kind="stable")
    rb_prefs = np.argsort(-score.T, axis=1, kind="stable")
    rb_rank = np.argsort(rb_prefs, axis=1)  # rb_rank[r, b]: b's place on r's list
    src = np.full(b_n, -1)
    pointer = np.zeros(b_n, dtype=np.intp)
    while len(free := np.flatnonzero((src < 0) & (pointer < r_n))):
        src[free] = bs_prefs[free, pointer[free]]
        pointer[free] += 1
        held = np.flatnonzero(src >= 0)
        held = held[np.lexsort((rb_rank[src[held], held], src[held]))]
        rbs = src[held]
        # each holder's place among its RB's holders, best first
        place = np.arange(len(held)) - np.searchsorted(rbs, rbs)
        src[held[place >= tau]] = -1
    return src


def _padded(src, rbs, n_bs: int, width: int) -> np.ndarray:
    """Co-channel sets of the RBs rbs under the assignment src (one RB index
    per BS, -1 for unmatched), slot-major: a C-contiguous (width, len(rbs))
    array of each set's members in increasing order padded with the sentinel
    index n_bs."""
    cols = np.where(src == np.reshape(rbs, (-1, 1)), np.arange(n_bs), n_bs)
    cols.sort(axis=1)
    if n_bs < width:
        cols = np.pad(cols, ((0, 0), (0, width - n_bs)), constant_values=n_bs)
    return np.ascontiguousarray(cols[:, :width].T)


def _greedy_seed(instance: AllocationInstance, solo, plus_each) -> np.ndarray:
    """Repeatedly place the (BS, RB) pair with the largest marginal gain, the
    first in row-major (BS, RB) order on ties. The gains start from solo, the
    plus_each table of the empty sets; only the column of the RB that changed
    is rescored. Returns the assignment, as _da_seed does."""
    b_n, r_n, tau = instance.n_bs, instance.n_rb, instance.tau
    src = np.full(b_n, -1)
    # gain[b, r]: total of r's set with b added minus its total; -inf once b
    # is placed or r is full
    gain = (solo[:, :b_n] - solo[:, b_n:]).T.copy()
    while True:
        b, r = divmod(int(np.argmax(gain)), r_n)
        if not gain[b, r] > 0.0:
            break
        src[b] = r
        gain[b] = -np.inf
        if np.count_nonzero(src == r) < tau:
            rbs = np.array([r])
            tot = plus_each(_padded(src, rbs, b_n, tau), rbs)[0]
            gain[:, r] = np.where(src < 0, tot[:b_n] - tot[b_n], -np.inf)
        else:
            gain[:, r] = -np.inf
    return src


def _swap_phase(instance: AllocationInstance, src, plus_each):
    """Best-improvement moves into vacancies and pairwise exchanges, one side
    of an exchange possibly unmatched. Each round scores every move and every
    exchange from one plus_each table; the best move is the first maximum in
    row-major (BS, RB) order, and an exchange, the first maximum in row-major
    (BS, BS) order, wins only if strictly better. Returns (src, total of the
    final matching)."""
    b_n, r_n, tau = instance.n_bs, instance.n_rb, instance.tau
    all_rbs = np.arange(r_n)
    upper = np.triu(np.ones((b_n, b_n), dtype=bool), 1)
    for done in range(_MAX_SWAP_ROUNDS + 1):
        matched = np.flatnonzero(src >= 0)
        sets = _padded(src, all_rbs, b_n, tau)
        without = sets[:, src[matched]]  # each matched BS's set without it
        without[without == matched] = b_n
        tot = plus_each(np.concatenate([sets, without], axis=1),
                        np.concatenate([all_rbs, src[matched]]))
        cur = tot[:r_n, b_n]
        # leave[m, b]: change on m's RB when m leaves it and b joins; the
        # sentinel column b = n_bs is m leaving alone; 0 for unmatched m
        leave = np.zeros((b_n, b_n + 1))
        leave[matched] = tot[r_n:] - cur[src[matched], None]
        move = (tot[:r_n, :b_n].T - cur) + leave[:, b_n:]
        move[matched, src[matched]] = -np.inf
        move[:, np.bincount(src[matched], minlength=r_n) >= tau] = -np.inf
        swap = leave[:, :b_n] + leave[:, :b_n].T
        swap[~upper | (src[:, None] == src)] = -np.inf

        b, r = divmod(int(np.argmax(move)), r_n)
        b1, b2 = divmod(int(np.argmax(swap)), b_n)
        exchange = swap[b1, b2] > max(1e-12, move[b, r])
        if not (exchange or move[b, r] > 1e-12) or done == _MAX_SWAP_ROUNDS:
            return src, sum(cur.tolist())
        if exchange:
            src[[b1, b2]] = src[[b2, b1]]
        else:
            src[b] = r


def match_rbs(instance: AllocationInstance, scheme: str = "noma") -> Matching:
    """Two seeds (deferred acceptance and marginal-gain greedy), each refined
    by rate-improving swaps until no single move (into a vacancy) or pairwise
    exchange improves the total; the better of the two local optima is kept.
    Candidate co-channel sets are scored at cap-scaled equal powers, every
    phase from plus_each tables: DA's preferences and greedy's first gains
    from solo, every BS alone on every RB."""
    b_n, r_n, tau = instance.n_bs, instance.n_rb, instance.tau
    if b_n == 0:
        return Matching((), r_n, tau)

    def plus_each(sets, rbs):
        """(n, n_bs + 1) table of the totals of the slot-major sets (tau, n)
        with each BS added; the last column (the sentinel) is each set's own
        total. A full set drops its largest member to make room: those
        entries are never read."""
        n = len(rbs)
        rows = np.empty((n, b_n + 1, tau + 1), dtype=np.intp)
        rows[:, :, :tau] = sets.T[:, None, :]
        rows[:, :, tau] = np.arange(b_n + 1)
        rows.sort(axis=2)
        rows = np.ascontiguousarray(rows[:, :, :tau].reshape(-1, tau).T)
        rbs = np.repeat(rbs, b_n + 1)
        p = _capped_power(instance, rows, rbs)
        totals = rb_rates(instance, rows, rbs, np.broadcast_to(p, rows.shape),
                          scheme)[1]
        return totals.reshape(n, b_n + 1)

    all_rbs = np.arange(r_n)
    solo = plus_each(_padded(np.full(b_n, -1), all_rbs, b_n, tau), all_rbs)
    best_src, best_total = None, -math.inf
    for seed in (_da_seed(solo[:, :b_n].T, tau),
                 _greedy_seed(instance, solo, plus_each)):
        src, total = _swap_phase(instance, seed, plus_each)
        if total > best_total + 1e-12:
            best_src, best_total = src, total
    return Matching(tuple(best_src.tolist()), r_n, tau)


@dataclass(frozen=True)
class PowerSolution:
    powers: np.ndarray  # (B,) watts, 0 for unmatched BSs
    per_bs_rates: np.ndarray  # (B,) bits/s/Hz
    sum_rate: float
    iterations: int
    converged: bool
    objective_history: tuple  # total sum rate after each outer iteration


def _clipped_power(a, c, mu, h, lo: float, p_max: float):
    """The fixed-point update clip(a / x, lo, p_max) at x = c + mu h, and x.
    x is floored at _TINY: a / _TINY stays finite (a < 2) and clips to
    p_max."""
    x = np.maximum(c + mu * h, _TINY)
    return np.minimum(np.maximum(a / x, lo), p_max), x


def _cap_multiplier(a, c, h, cap, binds, lo: float, p_max: float):
    """The multiplier mu (n,) at which h.p(mu) = cap on the rows binds, p(mu)
    = _clipped_power(a, c, mu, ...) being non-increasing in mu; 0 on the
    other rows. Bisection on the bracket [0, sum_j a_j / cap], at whose top
    h.p <= sum_j a_j / mu = cap. Each step evaluates h.p at mu and narrows
    the bracket there; the next mu is the Newton step from mu where that
    falls strictly inside the bracket, else the bracket's midpoint. Stops
    when no row's mu moves or every bracket is a few ulps wide."""
    mu, mu_lo, mu_hi = np.zeros(len(cap)), np.zeros(len(cap)), np.zeros(len(cap))
    mu_hi[binds] = a[:, binds].sum(axis=0) / cap[binds]
    for _ in range(_MAX_MULTIPLIER_STEPS):
        p, x = _clipped_power(a, c, mu, h, lo, p_max)
        excess = (h * p).sum(axis=0) - cap
        over = excess > 0
        mu_lo = np.where(over, mu, mu_lo)
        mu_hi = np.where(over, mu_hi, mu)
        # -d(h.p)/dmu: only the powers strictly between their bounds move
        slope = np.where((p > lo) & (p < p_max), h * h * p / x, 0.0).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = mu + excess / slope
        inside = ((step > mu_lo) & (step < mu_hi)) | (step == mu)
        step = np.where(inside, step, 0.5 * (mu_lo + mu_hi))
        if not ((step != mu) & (mu_hi - mu_lo > 4 * np.spacing(mu_hi))).any():
            break
        mu = step
    return mu


def _surrogate_step(instance: AllocationInstance, terms, h, cap, p):
    """One SCA step on every row (RB) at once, from slot-major powers p (k, n),
    terms being the rows' (far, near) pair from _pair_terms.

    Maximizes the tight lower bound log(1 + z) >= alpha log z + beta of the
    rows' rates at p (alpha = weight z0 / (1 + z0) at the current SINR z0),
    which is concave in log powers, subject to p_max e^-60 <= p <= p_max and
    the row's macro load h.p <= cap. Its KKT conditions give the fixed point

        p_j = clip(A_j / (c_j(p) + mu h_j), p_max e^-60, p_max),

    A_j the sum of the alpha of the terms member j owns, c_j(p) the sum of
    alpha_u D_uj / (D_u.p + sigma2) over the terms u that member j's power
    enters with coefficient D_uj, and mu >= 0 the row's cap multiplier
    (_cap_multiplier) on the rows whose cap binds. A_j = 0 sends p_j to its
    lower bound and c_j + mu h_j = 0 to p_max. The update stops when no
    power changes by 1e-15 of itself. The candidate is then scaled down
    uniformly to 1 - 1e-12 of its cap on a row whose load still exceeds it.
    """
    p_max, sigma2 = instance.p_max, instance.sigma2
    lo = p_max * math.exp(-60.0)
    sinrs = [_sinr(term, p, sigma2) for term in terms]
    alphas = [term.weight * z / (1.0 + z) for term, (z, _) in zip(terms, sinrs)]
    dens = [den for _, den in sinrs]
    a = alphas[0] + alphas[1]

    q = p
    for _ in range(_MAX_FIXED_POINT):
        c = 0.0
        for term, alpha, den in zip(terms, alphas, dens):
            ratio = alpha / den
            c = c + (term.cross * ratio).sum(axis=1)
            if term.own is not None:
                c = c + ratio * term.own * term.gain
        new = _clipped_power(a, c, 0.0, h, lo, p_max)[0]
        binds = np.flatnonzero((h * new).sum(axis=0) > cap)
        if len(binds):
            mu = _cap_multiplier(a, c, h, cap, binds, lo, p_max)
            new = _clipped_power(a, c, mu, h, lo, p_max)[0]
        done = not (np.abs(new - q) > 1e-15 * q).any()
        q = new
        if done:
            break
        dens = [_sinr(term, q, sigma2)[1] for term in terms]
    load = (h * q).sum(axis=0)
    over = load > cap
    q[:, over] *= (cap[over] / load[over]) * (1.0 - 1e-12)
    return q


def sca_power_control(matching: Matching, instance: AllocationInstance,
                      scheme: str = "noma") -> PowerSolution:
    """Sum-rate power control on every matched RB at once, via the iterated
    concave lower bound.

    Powers start at _capped_power. Each outer iteration re-linearizes and
    solves the surrogate on every RB (_surrogate_step); an RB's candidate is
    kept only if its true sum rate does not decrease, so the reported
    objective history is non-decreasing by construction. The members of a
    closed RB (cap 0, a member heard by the macro user) get power and rate
    0, as _capped_power scores them.
    """
    b_n, r_n = instance.n_bs, instance.n_rb
    src = np.asarray(matching.bs_to_rb, dtype=np.intp)
    counts = np.bincount(src[src >= 0], minlength=r_n)
    rbs = np.flatnonzero(counts)
    sets = _padded(src, rbs, b_n, int(counts.max(initial=1)))
    h = instance._tables.h_macro.take(sets * r_n + rbs)
    cap = instance.i_threshold[rbs]
    closed = (cap == 0) & np.any(h > 0, axis=0)
    if closed.any():  # left out of the solve: their members keep power 0
        rbs, sets, h, cap = (a[..., ~closed] for a in (rbs, sets, h, cap))
    p = np.repeat(_capped_power(instance, sets, rbs)[None], len(sets), axis=0)
    terms = _pair_terms(instance, sets, rbs, scheme)
    rates, totals = _rates(terms, p, instance.sigma2)

    history = []
    iterations = 0
    converged = not len(rbs)
    prev = sum(totals.tolist())
    for it in range(_MAX_SCA_ITERS):
        iterations = it + 1
        cand = _surrogate_step(instance, terms, h, cap, p)
        cand_rates, cand_totals = _rates(terms, cand, instance.sigma2)
        keep = cand_totals >= totals
        p = np.where(keep, cand, p)
        rates = np.where(keep, cand_rates, rates)
        totals = np.where(keep, cand_totals, totals)
        total = sum(totals.tolist())
        history.append(total)
        if total - prev < _SCA_TOL * max(1.0, abs(total)):
            converged = True
            break
        prev = total

    # the sentinel's entries, index b_n, are dropped
    powers, per_bs = np.zeros(b_n + 1), np.zeros(b_n + 1)
    powers[sets], per_bs[sets] = p, rates
    powers, per_bs = powers[:b_n], per_bs[:b_n]
    return PowerSolution(powers=powers, per_bs_rates=per_bs,
                         sum_rate=float(per_bs.sum()), iterations=iterations,
                         converged=converged,
                         objective_history=tuple(history))


def solve_instance(instance: AllocationInstance, scheme: str = "noma"):
    """Full pipeline: match RBs, then optimize powers. Returns
    (matching, PowerSolution)."""
    matching = match_rbs(instance, scheme)
    solution = sca_power_control(matching, instance, scheme)
    return matching, solution

