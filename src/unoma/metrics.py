"""Statistical aggregation and CSV output."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Z_95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SweepSeries:
    """Aggregated metric per sweep value: mean, sample std, 95% CI half-width."""

    values: tuple
    mean: tuple
    std: tuple
    ci_half: tuple
    trials: tuple


def aggregate(samples) -> SweepSeries:
    """Group (key, value) pairs by key and compute mean / std / normal 95% CI.

    Values inside a group are sorted before summation so the result is
    independent of input order (bit-reproducible under concurrent merges).
    """
    groups: dict = {}
    for key, value in samples:
        groups.setdefault(key, []).append(float(value))
    if not groups:
        raise ValueError("no samples to aggregate")
    keys = sorted(groups)
    means, stds, cis, ns = [], [], [], []
    for k in keys:
        vals = np.sort(np.asarray(groups[k], dtype=float))
        n = len(vals)
        m = float(np.sum(vals) / n)
        s = float(np.sqrt(np.sum((vals - m) ** 2) / (n - 1))) if n > 1 else 0.0
        means.append(m)
        stds.append(s)
        cis.append(Z_95 * s / math.sqrt(n))
        ns.append(n)
    return SweepSeries(tuple(keys), tuple(means), tuple(stds), tuple(cis), tuple(ns))


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.9g}"
    return str(x)


def write_csv(path, header, rows) -> None:
    """Write rows with a fixed column order and 9-significant-digit floats."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row length does not match header")
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
