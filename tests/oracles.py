"""Independent oracles used by the test suite: brute-force enumeration for
detection, scalar pair rates, exhaustive search and a per-RB SLSQP power
control for allocation, a per-BS loop for the small-cell drop, and a
per-drop loop for user association. Deliberately naive."""

import itertools
import math
import warnings
from itertools import combinations, product

import numpy as np

from unoma.allocation import AllocationInstance
from unoma.geometry import db_to_linear, dbm_to_watts
from unoma.noma_core import NomaPair


def enumerate_codeword_sums(codebook):
    """All joint symbol combos and their noiseless received vectors."""
    n, q, k = codebook.codewords.shape
    combos = np.array(list(itertools.product(range(q), repeat=n)), dtype=int)
    sums = np.zeros((len(combos), k), dtype=complex)
    for layer in range(n):
        sums += codebook.codewords[layer, combos[:, layer], :]
    return combos, sums


def exact_posteriors(y, codebook, noise_var):
    """Exact per-layer posterior marginals and joint-MAP decisions by
    enumerating all Q^N hypotheses (flat prior)."""
    n, q, _ = codebook.codewords.shape
    combos, sums = enumerate_codeword_sums(codebook)
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    marginals = np.zeros((len(y), n, q))
    map_dec = np.zeros((len(y), n), dtype=int)
    # |y - s|^2 = |y|^2 - 2 Re(y s*) + |s|^2, and |y|^2 is the same for
    # every hypothesis, so it drops out of the posteriors and the MAP choice.
    energy = np.sum(np.abs(sums) ** 2, axis=1)
    # hypothesis -> (layer, symbol) indicator: a product with it sums the
    # joint posterior over every hypothesis that gives a layer that symbol
    member = (combos[:, :, None] == np.arange(q)).reshape(len(combos), n * q)
    member = member.astype(float)
    chunk = max(1, 2 * 10**6 // max(1, len(combos)))
    for start in range(0, len(y), chunk):
        yc = y[start:start + chunk]
        ll = (2.0 * (yc @ sums.conj().T).real - energy) / noise_var
        map_dec[start:start + chunk] = combos[np.argmax(ll, axis=1)]
        joint = np.exp(ll - ll.max(axis=1, keepdims=True))
        marginals[start:start + chunk] = (joint @ member).reshape(-1, n, q)
    return marginals / marginals.sum(axis=2, keepdims=True), map_dec


def random_instance(rng, n_bs, n_rb, tau, p_max=0.2, sigma2=1e-9,
                    threshold=2e-10, a_m=0.6, a_n=0.4):
    """Random allocation instance with gain scales matching the presets."""
    g_near = rng.exponential(1.0, (n_bs, n_rb)) * 1e-6
    g_far = g_near * rng.uniform(0.05, 0.8, (n_bs, n_rb))
    x_near = rng.exponential(1.0, (n_bs, n_bs, n_rb)) * 1e-8
    x_far = rng.exponential(1.0, (n_bs, n_bs, n_rb)) * 1e-8
    for i in range(n_bs):
        x_near[i, i, :] = 0.0
        x_far[i, i, :] = 0.0
    h_macro = rng.exponential(1.0, (n_bs, n_rb)) * 1e-9
    return AllocationInstance(
        g_near=g_near, g_far=g_far, x_near=x_near, x_far=x_far,
        h_macro=h_macro, i_threshold=np.full(n_rb, threshold),
        tau=tau, p_max=p_max, sigma2=sigma2, pair=NomaPair(a_m, a_n))


def reference_instance(n_small, data, tau, rng):
    """engine.generate_instance drawn BS by BS: each BS's two users from
    their own two radii and two angles, sorted by a stable argsort of their
    distances, and each gain from its own distance floor and path loss."""
    alpha, n_rb = data["alpha"], data["n_rb"]

    def disc(n, radius, center):
        r = radius * np.sqrt(rng.random(n))
        theta = 2.0 * math.pi * rng.random(n)
        return np.column_stack([r * np.cos(theta), r * np.sin(theta)]) + center

    bs_pos = disc(n_small, data["region_radius_m"], np.zeros(2))
    macro_user = disc(1, data["region_radius_m"], np.zeros(2))[0]
    user_pos = np.zeros((n_small, 2, 2))
    for b in range(n_small):
        two = disc(2, data["user_ring_radius_m"], bs_pos[b])
        d = np.maximum(np.linalg.norm(two - bs_pos[b], axis=1), 1.0)
        user_pos[b] = two[np.argsort(d, kind="stable")]  # [near, far]

    def gains(tx_points, rx_points):
        d = np.maximum(np.linalg.norm(
            tx_points[:, None, :] - rx_points[None, :, :], axis=2), 1.0)
        fad = rng.exponential(1.0, (len(tx_points), len(rx_points), n_rb))
        return fad * (d ** (-alpha))[:, :, None]

    x_near = gains(bs_pos, user_pos[:, 0, :])
    x_far = gains(bs_pos, user_pos[:, 1, :])
    own = np.arange(n_small)
    h_macro = gains(bs_pos, macro_user[None, :])[:, 0, :]
    d_macro = max(float(np.linalg.norm(macro_user)), 1.0)
    signal = dbm_to_watts(data["macro_power_dbm"]) * d_macro ** (-alpha)
    threshold = signal / db_to_linear(data["protection_ratio_db"])
    return AllocationInstance(
        g_near=x_near[own, own], g_far=x_far[own, own], x_near=x_near,
        x_far=x_far, h_macro=h_macro, i_threshold=np.full(n_rb, threshold),
        tau=tau, p_max=dbm_to_watts(data["small_power_dbm"]),
        sigma2=data["sigma2_w"], pair=NomaPair(data["a_m"], data["a_n"]))


def pair_rates(instance, rb, members, powers, scheme="noma"):
    """{BS: pair sum rate} on one RB, one member and one interferer at a time.

    NOMA: the far user decodes its a_m share treating the near user's a_n
    share as noise; the near user cancels the far share first (SIC). OMA:
    each user gets half the slot at full power. A BS with g_far == 0 serves
    one user alone over the whole slot. powers maps BS -> watts."""
    s2 = instance.sigma2
    rates = {}
    for b in members:
        p = powers[b]
        i_far = i_near = 0.0
        for other in members:
            if other != b:
                i_far += powers[other] * instance.x_far[other, b, rb]
                i_near += powers[other] * instance.x_near[other, b, rb]
        g_far, g_near = instance.g_far[b, rb], instance.g_near[b, rb]
        a_m, a_n = instance.pair.a_m, instance.pair.a_n
        if p <= 0:
            rates[b] = 0.0
        elif g_far == 0:
            rates[b] = math.log2(1 + p * g_near / (i_near + s2))
        elif scheme == "noma":
            sinr_far = a_m * p * g_far / (a_n * p * g_far + i_far + s2)
            sinr_near = a_n * p * g_near / (i_near + s2)
            rates[b] = math.log2(1 + sinr_far) + math.log2(1 + sinr_near)
        else:
            rates[b] = (math.log2(1 + p * g_far / (i_far + s2)) / 2
                        + math.log2(1 + p * g_near / (i_near + s2)) / 2)
    return rates


def capped_equal_power(instance, rb, members):
    """The matcher's power proxy: p_max for every member, scaled down just
    below the point where the set's load at the macro user meets
    i_threshold[rb] (0 when that threshold is not positive)."""
    load = instance.p_max * sum(instance.h_macro[b, rb] for b in members)
    t = instance.i_threshold[rb]
    if load <= 0 or not np.isfinite(t) or load <= t:
        return instance.p_max
    return 0.0 if t <= 0 else instance.p_max * (t / load) * (1 - 1e-9)


def exhaustive_optimum(instance, scheme="noma", levels=50):
    """Best sum rate over all quota-feasible matchings and a power grid with
    `levels` levels per BS. RBs decouple, so each RB subset is optimized
    independently and matchings combine the cached per-RB optima."""
    n_bs, n_rb = instance.n_bs, instance.n_rb
    grid = instance.p_max * np.arange(1, levels + 1) / levels
    best_rb = {}
    for r in range(n_rb):
        for size in range(1, min(instance.tau, n_bs) + 1):
            for sub in combinations(range(n_bs), size):
                h = np.array([instance.h_macro[b, r] for b in sub])
                best = 0.0
                for pw in product(grid, repeat=size):
                    if np.dot(pw, h) > instance.i_threshold[r]:
                        continue
                    rates = pair_rates(instance, r, sub, dict(zip(sub, pw)),
                                       scheme)
                    best = max(best, sum(rates.values()))
                best_rb[(r, sub)] = best
    optimum = 0.0
    for assign in product(list(range(n_rb)) + [None], repeat=n_bs):
        occ = {}
        for b, r in enumerate(assign):
            if r is not None:
                occ.setdefault(r, []).append(b)
        if any(len(v) > instance.tau for v in occ.values()):
            continue
        total = sum(best_rb[(r, tuple(v))] for r, v in occ.items())
        optimum = max(optimum, total)
    return optimum


def sca_terms(instance, rb, members, scheme="noma"):
    """Rate terms on one RB as (weight, owner's local index, numerator gain,
    denominator coefficients over members): each term's rate is
    weight * log2(1 + num p[i] / (den . p + sigma2)). Terms with a zero
    numerator are left out."""
    terms, pair = [], instance.pair
    for i, b in enumerate(members):
        xf = np.array([instance.x_far[b2, b, rb] if b2 != b else 0.0
                       for b2 in members])
        xn = np.array([instance.x_near[b2, b, rb] if b2 != b else 0.0
                       for b2 in members])
        if instance.g_far[b, rb] == 0.0:
            terms.append((1.0, i, instance.g_near[b, rb], xn))
        elif scheme == "noma":
            den_far = xf.copy()
            den_far[i] += pair.a_n * instance.g_far[b, rb]
            terms.append((1.0, i, pair.a_m * instance.g_far[b, rb], den_far))
            terms.append((1.0, i, pair.a_n * instance.g_near[b, rb], xn))
        else:
            terms.append((0.5, i, instance.g_far[b, rb], xf))
            terms.append((0.5, i, instance.g_near[b, rb], xn))
    return [t for t in terms if t[2] > 0]


def sca_objective(terms, p, sigma2):
    return sum(w * math.log2(1.0 + num * p[i] / (den @ p + sigma2))
               for w, i, num, den in terms)


def slsqp_surrogate_step(instance, rb, members, p0, scheme="noma"):
    """One SCA step on one RB by scipy's SLSQP: maximize the logarithmic
    lower bound sum_u alpha_u (log num_u + q_i - log(den_u . e^q + sigma2)),
    tight at p0, over log powers q in [log p_max - 60, log p_max] under the
    RB's interference cap; the result is clipped to p_max and scaled to
    1 - 1e-12 of the cap if it exceeds it."""
    from scipy.optimize import minimize

    terms = sca_terms(instance, rb, members, scheme)
    sigma2, p_max = instance.sigma2, instance.p_max
    h = np.array([instance.h_macro[b, rb] for b in members])
    threshold = float(instance.i_threshold[rb])
    alphas = []
    for w, i, num, den in terms:
        z0 = num * p0[i] / (den @ p0 + sigma2)
        alphas.append(w * z0 / (1.0 + z0))

    def neg_f(q):
        p = np.exp(q)
        val = 0.0
        grad = np.zeros(len(q))
        for a, (w, i, num, den) in zip(alphas, terms):
            d = den @ p + sigma2
            val += a * (q[i] + math.log(num) - math.log(d))
            grad[i] += a
            grad -= a * den * p / d
        return -val, -grad

    bounds = [(math.log(p_max) - 60.0, math.log(p_max))] * len(members)
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
        res = minimize(neg_f, np.log(p0), jac=True, method="SLSQP",
                       bounds=bounds, constraints=constraints,
                       options={"maxiter": 100, "ftol": 1e-12})
    p = np.minimum(np.exp(res.x), p_max)
    if cap_active and p @ h > threshold:
        p = p * (threshold / (p @ h)) * (1.0 - 1e-12)
    return p


def slsqp_sca(matching, instance, scheme="noma", max_iters=100, tol=1e-6):
    """SCA one RB at a time with slsqp_surrogate_step: start at p_max scaled
    below each RB's cap, keep an RB's candidate only if its sum rate does not
    fall, stop when the total gains less than tol (relative). Returns
    ({BS: power}, sum rate, outer iterations)."""
    state = []
    for r, members in enumerate(matching.rb_to_bs):
        if not members:
            continue
        members = list(members)
        p = np.full(len(members), capped_equal_power(instance, r, members))
        state.append((r, members, sca_terms(instance, r, members, scheme), p))
    sigma2 = instance.sigma2
    prev = sum(sca_objective(t, p, sigma2) for _, _, t, p in state)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        for k, (r, members, terms, p) in enumerate(state):
            if not terms:
                continue
            cand = slsqp_surrogate_step(instance, r, members, p, scheme)
            if sca_objective(terms, cand, sigma2) >= sca_objective(terms, p, sigma2):
                state[k] = (r, members, terms, cand)
        total = sum(sca_objective(t, p, sigma2) for _, _, t, p in state)
        if total - prev < tol * max(1.0, abs(total)):
            break
        prev = total
    powers = {b: pw for _, members, _, p in state for b, pw in zip(members, p)}
    rate = sum(sum(pair_rates(instance, r, members, powers, scheme).values())
               for r, members, _, _ in state)
    return powers, rate, iterations


def sequential_deferred_acceptance(score, tau):
    """BS-proposing deferred acceptance, both sides ranking by score (B, R),
    best first, ties to the lower index; one proposal at a time from a queue
    of free BSs; each RB holds its tau best proposers so far. Returns one RB
    index per BS, -1 for unmatched."""
    score = np.asarray(score).tolist()
    n_bs, n_rb = len(score), len(score[0])
    bs_prefs = [sorted(range(n_rb), key=lambda r: -row[r]) for row in score]
    holders = [[] for _ in range(n_rb)]
    proposals = [0] * n_bs
    free = list(range(n_bs))
    while free:
        b = free.pop(0)
        if proposals[b] == n_rb:
            continue
        r = bs_prefs[b][proposals[b]]
        proposals[b] += 1
        holders[r] = sorted(holders[r] + [b], key=lambda m: (-score[m][r], m))
        if len(holders[r]) > tau:
            free.append(holders[r].pop())
    src = [-1] * n_bs
    for r, members in enumerate(holders):
        for b in members:
            src[b] = r
    return src


def all_swap_deltas(instance, matching, scheme="noma"):
    """Sum-rate deltas of every single move-to-vacancy and pairwise exchange
    from the given matching (exhaustive stability check), scored with the
    same cap-scaled equal-power proxy the matcher uses."""
    n_bs, n_rb = instance.n_bs, instance.n_rb
    assign = [None if r < 0 else r for r in matching.bs_to_rb]
    occ = [set(ms) for ms in matching.rb_to_bs]

    def total(occ_sets):
        out = 0.0
        for r, ms in enumerate(occ_sets):
            powers = dict.fromkeys(ms, capped_equal_power(instance, r, ms))
            out += sum(pair_rates(instance, r, ms, powers, scheme).values())
        return out

    base = total(occ)
    deltas = []
    for b in range(n_bs):
        for r in range(n_rb):
            if assign[b] == r or len(occ[r]) >= instance.tau:
                continue
            new = [set(s) for s in occ]
            if assign[b] is not None:
                new[assign[b]].discard(b)
            new[r].add(b)
            deltas.append(total(new) - base)
    for b1 in range(n_bs):
        for b2 in range(b1 + 1, n_bs):
            r1, r2 = assign[b1], assign[b2]
            if r1 == r2:
                continue
            new = [set(s) for s in occ]
            if r1 is not None:
                new[r1].discard(b1)
                new[r1].add(b2)
            if r2 is not None:
                new[r2].discard(b2)
                new[r2].add(b1)
            deltas.append(total(new) - base)
    return deltas


def associate_drops(probes, snapshot):
    """Per drop of a NetworkSnapshot, (tier index, BS index within the tier's
    drop) of the largest average received power P G max(d, 1 m)^-alpha at
    that drop's probe, one drop, tier and BS at a time; ties go to the
    earlier tier, then the lower index; (-1, -1) for a drop without a BS."""
    winners = []
    offsets = [0] * len(snapshot.tiers)
    for drop, (px, py) in enumerate(probes):
        best, best_p = (-1, -1), -math.inf
        for k, tier in enumerate(snapshot.tiers):
            watts = 10.0 ** ((tier.tx_power_dbm - 30.0) / 10.0)
            n = int(snapshot.bs_counts[k][drop])
            for j in range(n):
                x, y = snapshot.bs_positions[k][offsets[k] + j]
                d = max(math.hypot(x - px, y - py), 1.0)
                p = watts * tier.array_gain * d ** -tier.path_loss_exponent
                if p > best_p:
                    best, best_p = (k, j), p
            offsets[k] += n
        winners.append(best)
    return winners
