"""Statistical correctness gate for the CSVs the benchmark's sweeps write.

Outputs are checked for agreement with reference values recorded at high
trial counts (reference.json, written by make_reference.py), not against
stored bytes, so a change that legitimately alters an RNG stream is judged on
agreement. Every tolerance is Z standard errors, with the variance taken from
the reference, so that a run with few trials is not judged by its own noisy
spread. At Z = 5 a correct program fails a single check with probability
below 1e-6 under the normal approximation.

Standard library only: run.py imports this module without numpy.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

Z = 5.0
Z_95 = 1.959963984540054  # the simulator's CI half-widths are Z_95 * se
REFERENCE = Path(__file__).with_name("reference.json")


def parse(csv_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def load_reference(path=REFERENCE) -> dict:
    with open(path) as fh:
        ref = json.load(fh)
    return {kind: {"trials": entry["trials"], "rows": parse(entry["csv"])}
            for kind, entry in ref.items()}


def _same(a: str, b: str) -> bool:
    return math.isclose(float(a), float(b), rel_tol=1e-8, abs_tol=1e-12)


def _check_trials(rows, trials, problems):
    bad = [r for r in rows if int(r["trials"]) != trials]
    if bad:
        problems.append(f"{len(bad)} rows report trials != {trials}")


def check_association(rows, trials, ref) -> list[str]:
    """Per point: probabilities sum to 1; each tier's probability agrees with
    the reference within Z binomial standard errors."""
    problems = []
    _check_trials(rows, trials, problems)
    if len(rows) != len(ref["rows"]):
        return problems + [f"{len(rows)} rows, reference has {len(ref['rows'])}"]
    sums: dict = {}
    for row, rr in zip(rows, ref["rows"]):
        where = f"density {row['sweep_value']} tier {row['tier_id']}"
        if row["tier_id"] != rr["tier_id"] or not _same(row["sweep_value"],
                                                          rr["sweep_value"]):
            problems.append(f"{where}: row does not match the reference layout")
            continue
        p, p_ref = float(row["probability"]), float(rr["probability"])
        sums[row["sweep_value"]] = sums.get(row["sweep_value"], 0.0) + p
        var_ref = p_ref * (1.0 - p_ref)
        se = math.sqrt(var_ref / trials + var_ref / ref["trials"])
        if not abs(p - p_ref) <= Z * se:
            problems.append(f"{where}: probability {p} vs reference {p_ref} "
                            f"(tolerance {Z * se:.4g})")
    for value, total in sums.items():
        if abs(total - 1.0) > 1e-6:
            problems.append(f"density {value}: probabilities sum to {total}")
    return problems


def check_allocation(rows, trials, ref) -> list[str]:
    """Rates finite and >= 0, fairness in [1/n, 1], and per (tau, scheme) the
    sum rate pooled over all n agrees with the reference. Fairness is not
    compared: it moves in jumps when a BS goes unmatched, so its tails are far
    from normal and a correct program would fail a Z-score check."""
    problems = []
    _check_trials(rows, trials, problems)
    keys = [(r["n_small_cells"], r["tau"], r["scheme"]) for r in rows]
    ref_by_key = {(r["n_small_cells"], r["tau"], r["scheme"]): r
                  for r in ref["rows"]}
    if sorted(keys) != sorted(ref_by_key):
        return problems + ["(n, tau, scheme) rows differ from the reference"]
    pooled: dict = {}
    for key, row in zip(keys, rows):
        n = int(key[0])
        rate, fair = float(row["sum_rate"]), float(row["fairness"])
        if not (math.isfinite(rate) and rate >= 0.0):
            problems.append(f"{key}: sum rate {rate} is not finite and >= 0")
        if not (math.isfinite(fair) and 1.0 / n - 1e-9 <= fair <= 1.0 + 1e-9):
            problems.append(f"{key}: fairness {fair} is outside [1/{n}, 1]")
        rr = ref_by_key[key]
        # per-instance std of the reference, recovered from its CI
        sd = float(rr["sum_rate_ci"]) * math.sqrt(ref["trials"]) / Z_95
        acc = pooled.setdefault((key[1], key[2]), [0.0, 0.0])
        acc[0] += rate - float(rr["sum_rate"])
        acc[1] += sd * sd * (1.0 / trials + 1.0 / ref["trials"])
    for (tau, scheme), (diff, var) in sorted(pooled.items()):
        if not abs(diff) <= Z * math.sqrt(var):
            problems.append(f"tau {tau} {scheme} sum rate: pooled difference "
                            f"{diff:.4g} from reference exceeds {Z} se "
                            f"({math.sqrt(var):.4g})")
    return problems


def check_link(rows, trials, ref) -> list[str]:
    """SER does not increase with SNR and agrees with the reference. The
    variance bound p(1-p)/vectors holds however errors correlate across the
    layers of one vector."""
    problems = []
    _check_trials(rows, trials, problems)
    if len(rows) != len(ref["rows"]) or not all(
            _same(r["snr_db"], rr["snr_db"]) for r, rr in zip(rows, ref["rows"])):
        return problems + ["SNR points differ from the reference"]
    sers = [float(r["ser"]) for r in rows]
    for lo, hi, row in zip(sers, sers[1:], rows[1:]):
        if hi > lo:
            problems.append(f"SER rises to {hi} at {row['snr_db']} dB from {lo}")
    for row, rr in zip(rows, ref["rows"]):
        ser, ser_ref = float(row["ser"]), float(rr["ser"])
        var_ref = ser_ref * (1.0 - ser_ref)
        se = math.sqrt(var_ref / trials + var_ref / ref["trials"])
        if not abs(ser - ser_ref) <= Z * se:
            problems.append(f"{row['snr_db']} dB: SER {ser} vs reference "
                            f"{ser_ref} (tolerance {Z * se:.4g})")
    return problems


CHECKS = {
    "association_sweep": check_association,
    "allocation_sweep": check_allocation,
    "link_level": check_link,
}


def check(kind: str, csv_text: str, trials: int, reference: dict) -> list[str]:
    """All problems found in one sweep's CSV; empty when it passes."""
    return CHECKS[kind](parse(csv_text), trials, reference[kind])


def quality(kind: str, csv_text: str) -> dict:
    """Result-quality figures of one CSV: means over the NOMA rows of an
    allocation sweep, mean SER over the SNR points of a link-level sweep."""
    rows = parse(csv_text)
    if kind == "allocation_sweep":
        noma = [r for r in rows if r["scheme"] == "NOMA"]
        return {f"{col}_mean": sum(float(r[col]) for r in noma) / len(noma)
                for col in ("sum_rate", "fairness")}
    if kind == "link_level":
        return {"ser_mean": sum(float(r["ser"]) for r in rows) / len(rows)}
    return {}
