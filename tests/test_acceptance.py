"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (also echoed in the terminal summary) for
its criterion:
 1. association-probability trends on the fig4 preset
 2. fairness / sum-rate trends on the fig5 preset
 3. MPA exactness on all cycle-free spreading matrices (K <= 3, N <= 4)
 4. MPA within 1.1x of brute-force MAP SER on the cyclic SCMA 4x6 factor graph
 5. uplink SIC polymatroid sum-rate identity
 6. matching + SCA within 95% of exhaustive optimum on small instances
 7. SCA monotonicity and constraint feasibility
 8. byte-identical CSV output across repeat runs and worker counts
 9. PPP chi-square goodness of fit and Jain extremal cases
"""

import csv
import itertools
import math
from collections import defaultdict

import numpy as np
import pytest
from scipy import stats

from conftest import ACCEPTANCE_LINES
from oracles import exact_posteriors, exhaustive_optimum, random_instance
from unoma.allocation import jain_fairness, solve_instance
from unoma.config import preset_config
from unoma.engine import run_experiment
from unoma.geometry import Region, sample_ppp
from unoma.noma_core import (
    SicLink,
    SpreadingMatrix,
    build_matrix,
    default_codebook,
    mpa_detect_batch,
    sic_decode_uplink,
    symbol_error_rate,
)


def _check(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{status}] {description}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _run_preset(name, tmp_path_factory):
    """Run a preset three times: workers=1 twice and workers=4 once."""
    config = preset_config(name)
    runs = []
    for label, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path_factory.mktemp(f"{name}_{label}")
        csv_path, _, _ = run_experiment(config, out, workers=workers)
        runs.append(csv_path)
    return runs


@pytest.fixture(scope="module")
def fig4_runs(tmp_path_factory):
    return _run_preset("fig4", tmp_path_factory)


@pytest.fixture(scope="module")
def fig5_runs(tmp_path_factory):
    return _run_preset("fig5", tmp_path_factory)


# ---------------------------------------------------------------------------
# 1. fig4 association-probability trends
# ---------------------------------------------------------------------------


def test_criterion_1_fig4_trends(fig4_runs):
    rows = _read_csv(fig4_runs[0])
    by_point = defaultdict(dict)
    for row in rows:
        by_point[float(row["sweep_value"])][row["tier_id"]] = \
            float(row["probability"])
    values = sorted(by_point)
    trials = min(int(row["trials"]) for row in rows)
    macro = [by_point[v]["macro"] for v in values]
    ok_points = len(values) >= 6 and trials >= 20000
    ok_macro = all(macro[i + 1] <= macro[i] + 1e-12 for i in range(len(values) - 1))
    ok_femto = all(by_point[v]["femto"] > by_point[v]["pico"] for v in values)
    ok_sum = all(abs(sum(by_point[v].values()) - 1.0) <= 1e-9 for v in values)
    _check(1, "fig4 association trends", ok_points and ok_macro and ok_femto
           and ok_sum,
           f"{len(values)} points x {trials} trials, macro "
           f"{macro[0]:.3f}->{macro[-1]:.3f}, monotone={ok_macro}, "
           f"femto>pico={ok_femto}, sum-to-1={ok_sum}")


# ---------------------------------------------------------------------------
# 2. fig5 fairness / sum-rate trends
# ---------------------------------------------------------------------------


def test_criterion_2_fig5_trends(fig5_runs):
    rows = _read_csv(fig5_runs[0])
    series = defaultdict(dict)  # (tau, scheme) -> {n: (metric, ci, ...)}
    for row in rows:
        key = (int(row["tau"]), row["scheme"])
        series[key][int(row["n_small_cells"])] = (
            float(row["fairness"]), float(row["fairness_ci"]),
            float(row["sum_rate"]))
    points = sorted({n for s in series.values() for n in s})
    trials = min(int(row["trials"]) for row in rows)
    taus = sorted({k[0] for k in series})

    ok_mono = True
    for s in series.values():
        for a, b in zip(points, points[1:]):
            # non-increasing mean fairness, allowing CI overlap
            if s[b][0] > s[a][0] + s[a][1] + s[b][1]:
                ok_mono = False
    ok_tau = all(series[(3, sch)][n][0] >= series[(2, sch)][n][0] - 1e-9
                 for sch in ("NOMA", "OMA") for n in points)
    ok_scheme = all(series[(tau, "NOMA")][n][2] >= series[(tau, "OMA")][n][2]
                    for tau in taus for n in points)
    _check(2, "fig5 fairness and sum-rate trends",
           trials >= 100 and ok_mono and ok_tau and ok_scheme,
           f"{len(points)} points x {trials} instances, "
           f"fairness-monotone={ok_mono}, tau3>=tau2={ok_tau}, "
           f"NOMA>=OMA={ok_scheme}")


# ---------------------------------------------------------------------------
# 3. MPA exactness on every cycle-free matrix
# ---------------------------------------------------------------------------


def _acyclic(occ) -> bool:
    k, n = occ.shape
    parent = list(range(k + n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ki in range(k):
        for li in range(n):
            if occ[ki, li]:
                a, b = find(ki), find(k + li)
                if a == b:
                    return False
                parent[a] = b
    return True


def _all_cycle_free_matrices(max_k=3, max_n=4):
    out = []
    for k in range(1, max_k + 1):
        cols = [c for c in itertools.product((0, 1), repeat=k) if any(c)]
        for n in range(1, max_n + 1):
            for combo in itertools.combinations_with_replacement(cols, n):
                occ = np.array(combo, dtype=np.uint8).T
                if not _acyclic(occ):
                    continue
                if k > 1 and n > 1 and occ.all():
                    continue
                out.append(SpreadingMatrix("pdma", occ, occ.astype(complex)))
    return out


def test_criterion_3_mpa_exact_on_trees():
    rng = np.random.default_rng(2024)
    matrices = _all_cycle_free_matrices()
    noise_var = 0.5
    worst = 0.0
    for matrix in matrices:
        for q in (2, 4):
            cb = default_codebook(matrix, q)
            n, k = matrix.n_layers, matrix.n_rbs
            truth = rng.integers(0, q, size=(1000, n))
            y = np.zeros((1000, k), dtype=complex)
            for layer in range(n):
                y += cb.codewords[layer, truth[:, layer], :]
            y += (rng.normal(size=(1000, k)) + 1j * rng.normal(size=(1000, k))) \
                * math.sqrt(noise_var / 2.0)
            marg, _, _ = mpa_detect_batch(y, matrix, cb, noise_var,
                                          max_iters=25, tol=1e-13)
            exact, _ = exact_posteriors(y, cb, noise_var)
            worst = max(worst, float(np.max(np.abs(marg - exact))))
    _check(3, "MPA exact on cycle-free factor graphs", worst <= 1e-9,
           f"{len(matrices)} matrices x Q in (2,4) x 1000 draws, "
           f"max marginal diff {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. MPA near-optimality on the cyclic SCMA 4x6 graph
# ---------------------------------------------------------------------------


def test_criterion_4_mpa_near_map():
    rng = np.random.default_rng(99)
    matrix = build_matrix("scma", 4, 6, {"column_weight": 2})
    cb = default_codebook(matrix, 4)
    trials = 100_000
    # 8 dB per-RB aggregate received SNR: 6 unit-energy layers over 4 RBs
    snr_lin = 10.0 ** 0.8
    noise_var = (6.0 / 4.0) / snr_lin
    truth = rng.integers(0, 4, size=(trials, 6))
    y = np.zeros((trials, 4), dtype=complex)
    for layer in range(6):
        y += cb.codewords[layer, truth[:, layer], :]
    y += (rng.normal(size=(trials, 4)) + 1j * rng.normal(size=(trials, 4))) \
        * math.sqrt(noise_var / 2.0)
    _, hard, _ = mpa_detect_batch(y, matrix, cb, noise_var)
    _, map_dec = exact_posteriors(y, cb, noise_var)
    ser_mpa = symbol_error_rate(hard, truth)
    ser_map = symbol_error_rate(map_dec, truth)
    ratio = ser_mpa / ser_map
    _check(4, "MPA SER within 1.1x of brute-force MAP", ratio <= 1.1,
           f"SCMA 4x6, Q=4, {trials} trials: MPA {ser_mpa:.4f}, "
           f"MAP {ser_map:.4f}, ratio {ratio:.3f}")


# ---------------------------------------------------------------------------
# 5. uplink SIC polymatroid identity
# ---------------------------------------------------------------------------


def test_criterion_5_polymatroid_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        p_n, p_f = rng.uniform(1e-3, 10.0, 2)
        g_n, g_f = rng.exponential(1.0, 2) + 1e-9
        s2 = rng.uniform(1e-3, 2.0)
        _, _, sinr_n, sinr_f = sic_decode_uplink(
            0.0, SicLink(p_n, g_n), SicLink(p_f, g_f), s2,
            np.array([1.0 + 0j, -1.0 + 0j]))
        lhs = math.log2(1 + sinr_n) + math.log2(1 + sinr_f)
        rhs = math.log2(1 + (p_n * g_n + p_f * g_f) / s2)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    _check(5, "SIC polymatroid sum-rate identity", worst <= 1e-12,
           f"1000 random instances, max relative deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. allocation near-optimality vs exhaustive search
# ---------------------------------------------------------------------------


def test_criterion_6_allocation_near_optimal():
    rng = np.random.default_rng(31)
    worst = math.inf
    for _ in range(50):
        n_bs = int(rng.integers(2, 5))
        n_rb = int(rng.integers(2, 4))
        tau = int(rng.integers(1, 3))
        inst = random_instance(rng, n_bs, n_rb, tau=tau)
        _, sol = solve_instance(inst)
        opt = exhaustive_optimum(inst, levels=50)
        worst = min(worst, sol.sum_rate / opt)
    _check(6, "matching+SCA >= 95% of exhaustive optimum", worst >= 0.95,
           f"50 instances (<=4 BSs, <=3 RBs, 50-level grid), "
           f"worst ratio {worst:.4f}")


# ---------------------------------------------------------------------------
# 7. SCA monotonicity and feasibility
# ---------------------------------------------------------------------------


def test_criterion_7_sca_monotone_feasible():
    rng = np.random.default_rng(55)
    ok = True
    worst_drop = 0.0
    for _ in range(100):
        n_bs = int(rng.integers(2, 6))
        n_rb = int(rng.integers(1, 4))
        tau = int(rng.integers(1, 4))
        inst = random_instance(rng, n_bs, n_rb, tau=tau)
        matching, sol = solve_instance(inst)
        hist = np.asarray(sol.objective_history)
        if len(hist) > 1:
            drop = float(np.max(hist[:-1] - hist[1:]))
            worst_drop = max(worst_drop, drop)
            if drop > 1e-9 * max(1.0, float(np.max(np.abs(hist)))):
                ok = False
        if np.any(sol.powers > inst.p_max * (1 + 1e-9)):
            ok = False
        for r, members in enumerate(np.flatnonzero(matching == rb)
                                    for rb in range(inst.n_rb)):
            load = sum(sol.powers[b] * inst.h_macro[b, r] for b in members)
            if load > inst.i_threshold[r] * (1 + 1e-9):
                ok = False
    _check(7, "SCA monotone objective and feasible solution", ok,
           f"100 instances, worst objective drop {worst_drop:.2e}")


# ---------------------------------------------------------------------------
# 8. determinism across runs and worker counts
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(fig4_runs, fig5_runs):
    ok = True
    detail = []
    for name, runs in (("fig4", fig4_runs), ("fig5", fig5_runs)):
        blobs = [p.read_bytes() for p in runs]
        same = blobs[0] == blobs[1] == blobs[2]
        ok = ok and same
        detail.append(f"{name}: w1==w1'=={'w4' if same else 'w4 MISMATCH'}")
    _check(8, "byte-identical CSV across runs and workers {1,4}", ok,
           "; ".join(detail))


# ---------------------------------------------------------------------------
# 9. statistical hygiene
# ---------------------------------------------------------------------------


def _ppp_chi_square(lam: float, n_draws: int, seed: int) -> float:
    region = Region(math.sqrt(lam / math.pi))  # area = lam, density 1
    rng = np.random.default_rng(seed)
    counts = np.array([len(sample_ppp(1.0, region, rng))
                       for _ in range(n_draws)])
    # bins with expected count >= 5, tail mass merged into the last bin
    upper = int(stats.poisson.ppf(1 - 1e-6, lam)) + 1
    pmf = stats.poisson.pmf(np.arange(upper), lam)
    pmf = np.append(pmf, 1.0 - pmf.sum())  # tail mass for counts >= upper
    bin_of, probs, acc = [], [], 0.0
    for p in pmf:
        acc += p
        bin_of.append(len(probs))
        if acc * n_draws >= 5.0:
            probs.append(acc)
            acc = 0.0
    if acc > 0.0:  # leftover tail merged into the last bin
        probs[-1] += acc
    bin_of = np.minimum(np.asarray(bin_of), len(probs) - 1)
    bins = bin_of[np.minimum(counts, upper)]
    observed = np.bincount(bins, minlength=len(probs))
    expected = np.asarray(probs) * n_draws
    _, p_value = stats.chisquare(observed, expected)
    return p_value


def test_criterion_9_statistical_hygiene():
    p_values = {lam: _ppp_chi_square(lam, 20_000, seed=1234)
                for lam in (0.5, 5.0, 50.0)}
    ok_gof = all(p > 0.01 for p in p_values.values())
    ok_jain = (jain_fairness([1.0] * 7) == 1.0
               and jain_fairness([3.0, 0.0, 0.0, 0.0]) == 0.25
               and jain_fairness([0.0] * 7 + [2.0]) == 1.0 / 8.0)
    _check(9, "PPP chi-square GOF at 1% and Jain extremal cases",
           ok_gof and ok_jain,
           "p-values " + ", ".join(f"lam={k:g}: {v:.3f}"
                                   for k, v in p_values.items())
           + f"; jain extremal exact={ok_jain}")
