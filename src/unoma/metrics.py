"""Run-wide rules: seeding of Monte-Carlo trials and the memory budget;
statistical aggregation and CSV output."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

# Trials per generator. It fixes every stream, so processing chunks are whole
# numbers of blocks, and retuning one changes speed and memory, not results.
# Association draws and associates one block per array pass; in assoc-fig4,
# 256 drops per pass ran about 10 % faster but raised peak RSS by 1.2 MB.
TRIAL_BLOCK = 128

SEEDING = ("sweep point i's sub-seed is the first 8 bytes of SHA-256 of "
           "the JSON list [master seed, i], mod 2^63; its trials are drawn "
           f"{TRIAL_BLOCK} at a time (TRIAL_BLOCK), block b from "
           "numpy.random.SeedSequence([point sub-seed, b]), in trial order; "
           "a link-level experiment has one spreading matrix (MUSA sequences), "
           "from numpy.random.SeedSequence(master seed, spawn_key=(1,))")


def subseed(master_seed: int, index: int) -> int:
    """Sweep point's sub-seed: hash of (master seed, point index)."""
    canonical = json.dumps([master_seed, index], separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def point_rng(seed: int, block: int | None = None) -> np.random.Generator:
    """The one seeding rule. Block b of a sweep point's trials draws from
    SeedSequence([point sub-seed, b]); a link-level experiment's one spreading
    matrix (block None: MUSA sequences), from SeedSequence(master seed,
    spawn_key=(1,)). The spawn key keeps it off block 0's stream, which
    SeedSequence(s), SeedSequence([s]) and SeedSequence([s, 0]) all give."""
    if block is None:
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    return np.random.default_rng(np.random.SeedSequence([seed, block]))


def trial_blocks(point_seed: int, trials: int):
    """Yield (generator, trials in the block) for each TRIAL_BLOCK trials of
    a sweep point, in trial order; the last block may be partial."""
    for block, start in enumerate(range(0, trials, TRIAL_BLOCK)):
        yield point_rng(point_seed, block), min(TRIAL_BLOCK, trials - start)


# Bound, in bytes, on every memory estimate of a run; a config whose estimate
# exceeds it is refused before anything is drawn.
MEMORY_BUDGET = 2**30


def within_budget(need: int, what: str) -> None:
    """ValueError if need, the bytes an estimate gives for what, exceeds
    MEMORY_BUDGET, which is read at each call."""
    if need > MEMORY_BUDGET:
        raise ValueError(f"{what} needs {need} B, over the {MEMORY_BUDGET} B budget")


def mean_ci(values) -> tuple[float, float]:
    """Mean and normal 95% CI half-width of the samples. They are sorted
    before summation, so the result does not depend on their order
    (bit-reproducible under concurrent merges)."""
    vals = np.sort(np.asarray(values, dtype=float))
    n = len(vals)
    if n == 0:
        raise ValueError("no samples to aggregate")
    m = float(np.sum(vals) / n)
    s = float(np.sqrt(np.sum((vals - m) ** 2) / (n - 1))) if n > 1 else 0.0
    return m, Z_95 * s / math.sqrt(n)


def _fmt(x) -> str:
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
