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


def rb_rates(instance: AllocationInstance, rb: int, bs_list, powers,
             scheme: str = "noma"):
    """Per-BS pair sum rates on one RB for the given co-channel set.

    powers is indexable by global BS index. A BS with g_far == 0 serves a
    single user (no pair): full power, full slot, in both schemes.
    Returns (total, {bs: rate}).
    """
    rates = {}
    s2 = instance.sigma2
    for b in bs_list:
        p = powers[b]
        if p <= 0:
            rates[b] = 0.0
            continue
        i_far = sum(powers[b2] * instance.x_far[b2, b, rb]
                    for b2 in bs_list if b2 != b)
        i_near = sum(powers[b2] * instance.x_near[b2, b, rb]
                     for b2 in bs_list if b2 != b)
        g_far, g_near = instance.g_far[b, rb], instance.g_near[b, rb]
        if g_far == 0.0:
            rates[b] = math.log2(1.0 + p * g_near / (i_near + s2))
        elif scheme == "noma":
            # the far user decodes its share treating the near user's as
            # noise; the near user cancels the far share first (SIC)
            pair = instance.pairs[b]
            rates[b] = (math.log2(1.0 + pair.a_m * p * g_far
                                  / (pair.a_n * p * g_far + i_far + s2))
                        + math.log2(1.0 + pair.a_n * p * g_near / (i_near + s2)))
        elif scheme == "oma":
            # equal time sharing: each user gets half the slot at full power
            rates[b] = (0.5 * math.log2(1.0 + p * g_far / (i_far + s2))
                        + 0.5 * math.log2(1.0 + p * g_near / (i_near + s2)))
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
    return sum(rates.values()), rates


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


def capped_equal_powers(instance: AllocationInstance, rb: int, members) -> dict:
    """Equal per-BS power, scaled down uniformly to meet the interference cap.

    Used as the power proxy when scoring candidate co-channel sets during
    matching (the true powers are only known after SCA)."""
    p = instance.p_max
    load = p * sum(instance.h_macro[b, rb] for b in members)
    t = float(instance.i_threshold[rb])
    if load > 0 and np.isfinite(t) and load > t:
        p = 0.0 if t <= 0 else p * (t / load) * (1.0 - 1e-9)
    return {b: p for b in members}


def build_preferences(instance: AllocationInstance, scheme: str = "noma"):
    """Rate-based preference lists: each side ranks by the pair sum rate the BS
    would achieve alone on the RB (cap-scaled power); ties broken by lower
    index."""
    b_n, r_n = instance.n_bs, instance.n_rb
    score = np.zeros((b_n, r_n))
    for b in range(b_n):
        for r in range(r_n):
            powers = capped_equal_powers(instance, r, [b])
            if powers[b] <= 0:
                continue
            score[b, r] = rb_rates(instance, r, [b], powers, scheme)[0]
    bs_prefs = [sorted(range(r_n), key=lambda r: (-score[b, r], r))
                for b in range(b_n)]
    rb_prefs = [sorted(range(b_n), key=lambda b: (-score[b, r], b))
                for r in range(r_n)]
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


def _greedy_seed(instance: AllocationInstance, rb_total):
    """Repeatedly place the (BS, RB) pair with the largest marginal gain."""
    b_n, r_n = instance.n_bs, instance.n_rb
    assign: list = [None] * b_n
    occ = [set() for _ in range(r_n)]
    unplaced = set(range(b_n))
    while unplaced:
        best_gain, best = 0.0, None
        for b in sorted(unplaced):
            for r in range(r_n):
                if len(occ[r]) >= instance.tau:
                    continue
                gain = rb_total(r, occ[r] | {b}) - rb_total(r, occ[r])
                if gain > best_gain:
                    best_gain, best = gain, (b, r)
        if best is None:
            break
        b, r = best
        occ[r].add(b)
        assign[b] = r
        unplaced.discard(b)
    return assign, occ


def _swap_phase(instance: AllocationInstance, assign, occ, rb_total):
    """Best-improvement moves into vacancies and pairwise exchanges."""
    b_n, r_n = instance.n_bs, instance.n_rb
    for _ in range(_MAX_SWAP_ROUNDS):
        best_delta, best_action = 1e-12, None
        for b in range(b_n):
            src = assign[b]
            for r in range(r_n):
                if r == src or len(occ[r]) >= instance.tau:
                    continue
                delta = rb_total(r, occ[r] | {b}) - rb_total(r, occ[r])
                if src is not None:
                    delta += rb_total(src, occ[src] - {b}) - rb_total(src, occ[src])
                if delta > best_delta:
                    best_delta, best_action = delta, ("move", b, r)
        # pairwise exchanges (one side may be unmatched)
        for b1 in range(b_n):
            for b2 in range(b1 + 1, b_n):
                r1, r2 = assign[b1], assign[b2]
                if r1 == r2:
                    continue
                delta = 0.0
                if r1 is not None:
                    new1 = (occ[r1] - {b1}) | {b2}
                    delta += rb_total(r1, new1) - rb_total(r1, occ[r1])
                if r2 is not None:
                    new2 = (occ[r2] - {b2}) | {b1}
                    delta += rb_total(r2, new2) - rb_total(r2, occ[r2])
                if delta > best_delta:
                    best_delta, best_action = delta, ("swap", b1, b2)
        if best_action is None:
            break
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
    return assign, occ


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

    cache: dict = {}

    def rb_total(r, members) -> float:
        key = (r, tuple(sorted(members)))
        if key not in cache:
            if not key[1]:
                cache[key] = 0.0
            else:
                powers = capped_equal_powers(instance, r, key[1])
                cache[key] = rb_rates(instance, r, key[1], powers, scheme)[0]
        return cache[key]

    best_assign, best_occ, best_total = None, None, -math.inf
    for seed in (_da_seed(instance, scheme),
                 _greedy_seed(instance, rb_total)):
        assign, occ = _swap_phase(instance, seed[0], seed[1], rb_total)
        total = sum(rb_total(r, occ[r]) for r in range(r_n))
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

