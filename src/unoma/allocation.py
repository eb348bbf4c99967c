"""Small-cell resource allocation: many-to-one RB matching under a quota,
successive-convex-approximation power control, and the OMA baseline.

Each small-cell BS serves one near/far NOMA pair. BSs are matched to RBs by
deferred acceptance followed by sum-rate-improving swaps; transmit powers on
each RB are then optimized with an iterated logarithmic lower bound
(log(1+z) >= a*log z + b, tight at the current point) that is concave in
log-power variables.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

# Bound on the improving-swap rounds of each matching seed.
_MAX_SWAP_ROUNDS = 10_000


class InfeasibleError(ValueError):
    """Raised when no positive power satisfies the constraints."""

    def __init__(self, message: str, constraint: str):
        super().__init__(message)
        self.constraint = constraint


def jain_fairness(values) -> float:
    """Jain's index (sum x)^2 / (n sum x^2); 1 for equal shares, 1/n for one."""
    x = np.asarray(list(values), dtype=float)
    if x.size < 1:
        raise ValueError("need at least one value")
    if np.any(x < 0):
        raise ValueError("values must be nonnegative")
    ssq = float(np.sum(x * x))
    if ssq == 0.0:
        raise ValueError("all-zero input")
    return float(np.sum(x)) ** 2 / (x.size * ssq)


class _Tables(NamedTuple):
    """An instance's gains padded with a sentinel BS, index n_bs, whose gains,
    cross gains and macro gain are all 0, and with the cross-gain diagonal set
    to 0. A sentinel slot or a BS's own slot in a co-channel set then adds an
    exact +0.0 to every sum, so no mask is needed."""

    g_near: np.ndarray  # (B + 1, R)
    g_far: np.ndarray  # (B + 1, R)
    h_macro: np.ndarray  # (B + 1, R)
    x_near: np.ndarray  # (B + 1, B + 1, R)
    x_far: np.ndarray  # (B + 1, B + 1, R)
    a_m: np.ndarray  # (B + 1,)
    a_n: np.ndarray  # (B + 1,)


@dataclass(frozen=True)
class AllocationInstance:
    """One resource-allocation problem over small-cell BSs and RBs.

    g_near/g_far: (B, R) own-link gains per BS and RB.
    x_near/x_far: (B, B, R) cross gains, [tx BS, rx BS's user, RB].
    h_macro: (B, R) gain from each BS to the protected macro user per RB.
    i_threshold: (R,) received-interference cap at the macro user (watts).
    """

    g_near: np.ndarray
    g_far: np.ndarray
    x_near: np.ndarray
    x_far: np.ndarray
    h_macro: np.ndarray
    i_threshold: np.ndarray
    tau: int
    p_max: float
    sigma2: float
    pairs: tuple

    def __post_init__(self):
        b, r = np.shape(self.g_near)
        if np.shape(self.g_far) != (b, r) or np.shape(self.h_macro) != (b, r):
            raise ValueError("g_far/h_macro must match g_near shape (B, R)")
        if np.shape(self.x_near) != (b, b, r) or np.shape(self.x_far) != (b, b, r):
            raise ValueError("cross-gain arrays must have shape (B, B, R)")
        if np.shape(self.i_threshold) != (r,):
            raise ValueError("i_threshold must have shape (R,)")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be > 0")
        if self.p_max <= 0:
            raise ValueError("p_max must be > 0")
        if len(self.pairs) != b:
            raise ValueError("one NomaPair per BS required")
        for arr in (self.g_near, self.g_far, self.x_near, self.x_far, self.h_macro):
            if np.any(np.asarray(arr) < 0):
                raise ValueError("gains must be >= 0")

    @property
    def n_bs(self) -> int:
        return self.g_near.shape[0]

    @property
    def n_rb(self) -> int:
        return self.g_near.shape[1]

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
        x_near[np.arange(b_n), np.arange(b_n)] = 0.0
        x_far[np.arange(b_n), np.arange(b_n)] = 0.0
        a_m = np.array([pair.a_m for pair in self.pairs] + [0.0])
        a_n = np.array([pair.a_n for pair in self.pairs] + [0.0])
        return _Tables(pad(self.g_near), pad(self.g_far), pad(self.h_macro),
                       x_near, x_far, a_m, a_n)


def _set_rates(instance: AllocationInstance, sets, rbs, powers, scheme: str):
    """Pair sum rate of every member of every co-channel set.

    sets: (n, k) BS indices, one RB's co-channel set per row, padded with the
    sentinel index n_bs; rbs: (n,) the RB of each row; powers: (n, k) the
    transmit power of each member. A BS with g_far == 0 serves a single user
    (no pair): full power, full slot, in both schemes. Interference and the
    set totals are summed one member slot at a time, in the rows' member
    order. Returns (rates (n, k), totals (n,)).
    """
    if scheme not in ("noma", "oma"):
        raise ValueError(f"unknown scheme {scheme!r}")
    # slot-major (k, n) arrays keep numpy's inner loops n long
    sets, p = np.ascontiguousarray(sets.T), np.ascontiguousarray(powers.T)
    tab, b_n, r_n = instance._tables, instance.n_bs, instance.n_rb
    own = sets * r_n + rbs  # flat index into the (B + 1, R) gains
    cross = (sets[:, None] * (b_n + 1) + sets[None]) * r_n + rbs  # [tx, rx, row]
    x_far, x_near = tab.x_far.take(cross), tab.x_near.take(cross)
    i_far = np.zeros(sets.shape)
    i_near = np.zeros(sets.shape)
    for j in range(len(sets)):
        i_far = i_far + p[j] * x_far[j]
        i_near = i_near + p[j] * x_near[j]
    g_far, g_near = tab.g_far.take(own), tab.g_near.take(own)
    s2 = instance.sigma2
    single = g_far == 0.0
    if scheme == "noma":
        # the far user decodes its share treating the near user's as noise;
        # the near user cancels the far share first (SIC). A single user
        # takes the near term at a_n = 1; its far term is log2(1) = 0.
        a_m, a_n = tab.a_m[sets], np.where(single, 1.0, tab.a_n[sets])
        rates = (np.log2(1.0 + a_m * p * g_far / (a_n * p * g_far + i_far + s2))
                 + np.log2(1.0 + a_n * p * g_near / (i_near + s2)))
    else:
        # equal time sharing: each user gets half the slot at full power; a
        # single user gets the whole slot, its far term being log2(1) = 0
        rates = (0.5 * np.log2(1.0 + p * g_far / (i_far + s2))
                 + np.where(single, 1.0, 0.5)
                 * np.log2(1.0 + p * g_near / (i_near + s2)))
    rates = np.where(p > 0, rates, 0.0)
    totals = np.zeros(len(rbs))
    for rate in rates:
        totals = totals + rate
    return rates.T, totals


def rb_rates(instance: AllocationInstance, rb: int, bs_list, powers,
             scheme: str = "noma"):
    """Per-BS pair sum rates on one RB for the given co-channel set.

    powers is indexable by global BS index. A BS with g_far == 0 serves a
    single user (no pair): full power, full slot, in both schemes.
    Returns (total, {bs: rate}).
    """
    members = list(bs_list)
    sets = np.array(members, dtype=np.intp).reshape(1, -1)
    p = np.array([powers[b] for b in members], dtype=float).reshape(1, -1)
    rates, totals = _set_rates(instance, sets, np.array([rb]), p, scheme)
    return float(totals[0]), dict(zip(members, rates[0].tolist()))


def _capped_totals(instance: AllocationInstance, sets, rbs, scheme: str):
    """Set totals at cap-scaled equal power, the power proxy that scores
    candidate co-channel sets during matching (the true powers are only known
    after SCA): every member at p_max, scaled down uniformly so that the set's
    load at the macro user stays below i_threshold."""
    h = np.zeros(len(rbs))
    for slot in sets.T:
        h = h + instance._tables.h_macro.take(slot * instance.n_rb + rbs)
    load = instance.p_max * h
    t = instance.i_threshold[rbs]
    over = (load > 0) & np.isfinite(t) & (load > t)
    p = np.full(len(rbs), instance.p_max)
    p[over] = np.where(t[over] <= 0, 0.0,
                       instance.p_max * (t[over] / load[over]) * (1.0 - 1e-9))
    powers = np.repeat(p[:, None], sets.shape[1], axis=1)
    return _set_rates(instance, sets, rbs, powers, scheme)[1]


@dataclass(frozen=True)
class Matching:
    """Many-to-one assignment of BSs to RBs under the quota."""

    rb_to_bs: tuple  # R tuples of BS indices, each sorted
    bs_to_rb: tuple  # B entries, RB index or None
    tau: int

    def __post_init__(self):
        for r, members in enumerate(self.rb_to_bs):
            if len(members) > self.tau:
                raise ValueError(f"RB {r} exceeds quota {self.tau}")
            for b in members:
                if self.bs_to_rb[b] != r:
                    raise ValueError("rb_to_bs and bs_to_rb disagree")
        matched = [b for b, r in enumerate(self.bs_to_rb) if r is not None]
        if sorted(b for ms in self.rb_to_bs for b in ms) != matched:
            raise ValueError("rb_to_bs and bs_to_rb disagree")


def build_preferences(instance: AllocationInstance, scheme: str = "noma"):
    """Rate-based preference lists: each side ranks by the pair sum rate the BS
    would achieve alone on the RB (cap-scaled power); ties broken by lower
    index."""
    b_n, r_n = instance.n_bs, instance.n_rb
    bs, rb = np.divmod(np.arange(b_n * r_n), r_n)
    score = _capped_totals(instance, bs[:, None], rb, scheme).reshape(b_n, r_n)
    bs_prefs = np.argsort(-score, axis=1, kind="stable").tolist()
    rb_prefs = np.argsort(-score.T, axis=1, kind="stable").tolist()
    return bs_prefs, rb_prefs


def _da_seed(instance: AllocationInstance, scheme: str):
    """Deferred acceptance: BSs propose, RBs keep their top-tau proposers."""
    b_n, r_n = instance.n_bs, instance.n_rb
    bs_prefs, rb_prefs = build_preferences(instance, scheme)
    rb_rank = [{b: i for i, b in enumerate(rb_prefs[r])} for r in range(r_n)]
    assign: list = [None] * b_n
    holders: list = [[] for _ in range(r_n)]
    pointer = [0] * b_n
    free = list(range(b_n))
    while free:
        b = free.pop(0)
        if pointer[b] >= r_n:
            continue
        r = bs_prefs[b][pointer[b]]
        pointer[b] += 1
        holders[r].append(b)
        holders[r].sort(key=lambda x: rb_rank[r][x])
        if len(holders[r]) > instance.tau:
            rejected = holders[r].pop()
            if rejected != b or pointer[b] < r_n:
                free.append(rejected)
            assign[rejected] = None
        if b in holders[r]:
            assign[b] = r
    return assign, [set(ms) for ms in holders]


def _padded(occ, n_bs: int, tau: int) -> np.ndarray:
    """Co-channel sets as a (len(occ), tau) array of sorted members padded
    with the sentinel index n_bs."""
    out = np.full((len(occ), tau), n_bs, dtype=np.intp)
    for i, members in enumerate(occ):
        out[i, :len(members)] = sorted(members)
    return out


def _greedy_seed(instance: AllocationInstance, plus_each):
    """Repeatedly place the (BS, RB) pair with the largest marginal gain, the
    first in row-major (BS, RB) order on ties. Only the column of the RB that
    changed is rescored."""
    b_n, r_n, tau = instance.n_bs, instance.n_rb, instance.tau
    assign: list = [None] * b_n
    occ = [set() for _ in range(r_n)]
    gain = np.empty((b_n, r_n))  # gain[b, r]: total(occ[r] | {b}) - total(occ[r])
    closed = np.zeros((b_n, r_n), dtype=bool)  # b placed or r full

    def rescore(rbs):
        tot = plus_each(_padded([occ[r] for r in rbs], b_n, tau), np.array(rbs))
        gain[:, rbs] = (tot[:, :b_n] - tot[:, b_n:]).T

    rescore(list(range(r_n)))
    while True:
        masked = np.where(closed, -np.inf, gain)
        b, r = divmod(int(np.argmax(masked)), r_n)
        if not masked[b, r] > 0.0:
            break
        occ[r].add(b)
        assign[b] = r
        closed[b, :] = True
        if len(occ[r]) < tau:
            rescore([r])
        else:
            closed[:, r] = True
    return assign, occ


def _swap_phase(instance: AllocationInstance, assign, occ, plus_each):
    """Best-improvement moves into vacancies and pairwise exchanges, one side
    of an exchange possibly unmatched. Each round scores every move and every
    exchange from one plus_each table; the best move is the first maximum in
    row-major (BS, RB) order, and an exchange, the first maximum in row-major
    (BS, BS) order, wins only if strictly better. Returns (assign, occ, total
    of the final matching)."""
    b_n, r_n, tau = instance.n_bs, instance.n_rb, instance.tau
    upper = np.triu(np.ones((b_n, b_n), dtype=bool), 1)
    for done in range(_MAX_SWAP_ROUNDS + 1):
        src = np.array([-1 if r is None else r for r in assign])
        matched = np.flatnonzero(src >= 0)
        occ_arr = _padded(occ, b_n, tau)
        without = occ_arr[src[matched]]  # each matched BS's set without it
        without[without == matched[:, None]] = b_n
        tot = plus_each(np.concatenate([occ_arr, without]),
                        np.concatenate([np.arange(r_n), src[matched]]))
        cur = tot[:r_n, b_n]
        # leave[m, b]: change on m's RB when m leaves it and b joins; the
        # sentinel column b = n_bs is m leaving alone; 0 for unmatched m
        leave = np.zeros((b_n, b_n + 1))
        leave[matched] = tot[r_n:] - cur[src[matched], None]
        move = (tot[:r_n, :b_n].T - cur) + leave[:, b_n:]
        move[matched, src[matched]] = -np.inf
        move[:, [len(ms) >= tau for ms in occ]] = -np.inf
        swap = leave[:, :b_n] + leave[:, :b_n].T
        swap[~upper | (src[:, None] == src)] = -np.inf

        best_delta, best_action = 1e-12, None
        b, r = divmod(int(np.argmax(move)), r_n)
        if move[b, r] > best_delta:
            best_delta, best_action = move[b, r], ("move", b, r)
        b1, b2 = divmod(int(np.argmax(swap)), b_n)
        if swap[b1, b2] > best_delta:
            best_action = ("swap", b1, b2)
        if best_action is None or done == _MAX_SWAP_ROUNDS:
            return assign, occ, sum(cur.tolist())
        if best_action[0] == "move":
            _, b, r = best_action
            if assign[b] is not None:
                occ[assign[b]].discard(b)
            occ[r].add(b)
            assign[b] = r
        else:
            _, b1, b2 = best_action
            r1, r2 = assign[b1], assign[b2]
            if r1 is not None:
                occ[r1].discard(b1)
                occ[r1].add(b2)
            if r2 is not None:
                occ[r2].discard(b2)
                occ[r2].add(b1)
            assign[b1], assign[b2] = r2, r1


def match_rbs(instance: AllocationInstance, scheme: str = "noma") -> Matching:
    """Two seeds (deferred acceptance and marginal-gain greedy), each refined
    by rate-improving swaps until no single move (into a vacancy) or pairwise
    exchange improves the total; the better of the two local optima is kept.
    Candidate co-channel sets are scored at cap-scaled equal powers."""
    if instance.tau < 1:
        raise ValueError("tau must be >= 1")
    b_n, r_n = instance.n_bs, instance.n_rb
    if b_n == 0:
        return Matching(tuple(() for _ in range(r_n)), (), instance.tau)

    def plus_each(sets, rbs):
        """(len(sets), n_bs + 1) table of set totals with each BS added; the
        last column (the sentinel) is each set's own total. A full set drops
        its largest member to make room: those entries are never read."""
        k, tau = sets.shape
        rows = np.empty((k, b_n + 1, tau + 1), dtype=np.intp)
        rows[:, :, :tau] = sets[:, None, :]
        rows[:, :, tau] = np.arange(b_n + 1)
        rows.sort(axis=2)
        totals = _capped_totals(instance, rows[:, :, :tau].reshape(-1, tau),
                                np.repeat(rbs, b_n + 1), scheme)
        return totals.reshape(k, b_n + 1)

    best_assign, best_occ, best_total = None, None, -math.inf
    for seed in (_da_seed(instance, scheme),
                 _greedy_seed(instance, plus_each)):
        assign, occ, total = _swap_phase(instance, seed[0], seed[1], plus_each)
        if total > best_total + 1e-12:
            best_assign, best_occ, best_total = assign, occ, total

    rb_to_bs = tuple(tuple(sorted(best_occ[r])) for r in range(r_n))
    return Matching(rb_to_bs, tuple(best_assign), instance.tau)


@dataclass(frozen=True)
class PowerSolution:
    powers: np.ndarray  # (B,) watts, 0 for unmatched BSs
    per_bs_rates: np.ndarray  # (B,) bits/s/Hz
    sum_rate: float
    iterations: int
    converged: bool
    scheme: str
    objective_history: tuple  # total sum rate after each outer iteration


def _rb_users(instance: AllocationInstance, rb: int, members, scheme: str):
    """Rate terms on one RB: (weight, owner local idx, numerator gain,
    denominator coefficient vector over members, sigma2)."""
    s = len(members)
    users = []
    for i, b in enumerate(members):
        pair = instance.pairs[b]
        xf = np.array([instance.x_far[b2, b, rb] if b2 != b else 0.0
                       for b2 in members])
        xn = np.array([instance.x_near[b2, b, rb] if b2 != b else 0.0
                       for b2 in members])
        if instance.g_far[b, rb] == 0.0:
            users.append((1.0, i, instance.g_near[b, rb], xn))
        elif scheme == "noma":
            den_far = xf.copy()
            den_far[i] += pair.a_n * instance.g_far[b, rb]
            users.append((1.0, i, pair.a_m * instance.g_far[b, rb], den_far))
            users.append((1.0, i, pair.a_n * instance.g_near[b, rb], xn))
        else:
            users.append((0.5, i, instance.g_far[b, rb], xf))
            users.append((0.5, i, instance.g_near[b, rb], xn))
    return [u for u in users if u[2] > 0]


def _rb_objective(users, p: np.ndarray, sigma2: float) -> float:
    total = 0.0
    for w, i, num, den in users:
        total += w * math.log2(1.0 + num * p[i] / (den @ p + sigma2))
    return total


def _solve_surrogate(users, p0: np.ndarray, sigma2: float, p_max: float,
                     h: np.ndarray, threshold: float) -> np.ndarray:
    """One SCA step: maximize the tight logarithmic lower bound in log powers."""
    s = len(p0)
    alphas = []
    for w, i, num, den in users:
        z0 = num * p0[i] / (den @ p0 + sigma2)
        alphas.append(w * z0 / (1.0 + z0))
    alphas = np.asarray(alphas)

    def neg_f(q):
        p = np.exp(q)
        val = 0.0
        grad = np.zeros(s)
        for a, (w, i, num, den) in zip(alphas, users):
            d = den @ p + sigma2
            val += a * (q[i] + math.log(num) - math.log(d))
            grad[i] += a
            grad -= a * den * p / d
        return -val, -grad

    q0 = np.log(p0)
    bounds = [(math.log(p_max) - 60.0, math.log(p_max))] * s
    constraints = []
    cap_active = np.isfinite(threshold) and np.any(h > 0)
    if cap_active:
        constraints.append({
            "type": "ineq",
            "fun": lambda q: threshold - np.exp(q) @ h,
            "jac": lambda q: -np.exp(q) * h,
        })
    with warnings.catch_warnings():
        # SLSQP emits a benign warning when a trial step touches the bounds
        warnings.simplefilter("ignore", RuntimeWarning)
        res = minimize(neg_f, q0, jac=True, method="SLSQP", bounds=bounds,
                       constraints=constraints,
                       options={"maxiter": 100, "ftol": 1e-12})
    p = np.minimum(np.exp(res.x), p_max)
    if cap_active and p @ h > threshold:
        p = p * (threshold / (p @ h)) * (1.0 - 1e-12)
    return p


def sca_power_control(matching: Matching, instance: AllocationInstance,
                      scheme: str = "noma", max_iters: int = 100,
                      tol: float = 1e-6) -> PowerSolution:
    """Sum-rate power control per RB via the iterated concave lower bound.

    Each outer iteration re-linearizes and solves the surrogate on every RB; a
    candidate is kept only if the true objective does not decrease, so the
    reported objective history is non-decreasing by construction.
    """
    b_n = instance.n_bs
    powers = np.zeros(b_n)
    rb_state = []
    for r, members in enumerate(matching.rb_to_bs):
        if not members:
            continue
        members = list(members)
        h = np.array([instance.h_macro[b, r] for b in members])
        threshold = float(instance.i_threshold[r])
        if threshold < 0 or (threshold == 0 and np.any(h > 0)):
            raise InfeasibleError(
                f"no positive power meets the interference cap on RB {r}",
                constraint=f"i_threshold[{r}]")
        p0 = np.full(len(members), instance.p_max)
        load = p0 @ h
        if np.isfinite(threshold) and load > threshold:
            p0 *= (threshold / load) * (1.0 - 1e-9)
        users = _rb_users(instance, r, members, scheme)
        rb_state.append({"rb": r, "members": members, "users": users,
                         "h": h, "threshold": threshold, "p": p0})

    history = []
    iterations = 0
    converged = False
    prev = sum(_rb_objective(st["users"], st["p"], instance.sigma2)
               for st in rb_state)
    for it in range(max_iters):
        iterations = it + 1
        for st in rb_state:
            if not st["users"]:
                continue
            cand = _solve_surrogate(st["users"], st["p"], instance.sigma2,
                                    instance.p_max, st["h"], st["threshold"])
            if (_rb_objective(st["users"], cand, instance.sigma2)
                    >= _rb_objective(st["users"], st["p"], instance.sigma2)):
                st["p"] = cand
        total = sum(_rb_objective(st["users"], st["p"], instance.sigma2)
                    for st in rb_state)
        history.append(total)
        if total - prev < tol * max(1.0, abs(total)):
            converged = True
            break
        prev = total
    if not rb_state:
        converged = True

    for st in rb_state:
        for i, b in enumerate(st["members"]):
            powers[b] = st["p"][i]
    per_bs = np.zeros(b_n)
    for r, members in enumerate(matching.rb_to_bs):
        if members:
            _, rates = rb_rates(instance, r, list(members), powers, scheme)
            for b, rate in rates.items():
                per_bs[b] = rate
    return PowerSolution(powers=powers, per_bs_rates=per_bs,
                         sum_rate=float(per_bs.sum()), iterations=iterations,
                         converged=converged, scheme=scheme,
                         objective_history=tuple(history))


def solve_instance(instance: AllocationInstance, scheme: str = "noma"):
    """Full pipeline: match RBs, then optimize powers. Returns
    (matching, PowerSolution)."""
    matching = match_rbs(instance, scheme)
    solution = sca_power_control(matching, instance, scheme)
    return matching, solution

