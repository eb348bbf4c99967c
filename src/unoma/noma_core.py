"""Unified NOMA core: sparse spreading matrices, codebooks, uplink SIC, and
MPA detection.

The spreading matrix is a K x N binary occupancy pattern (rows = resource
blocks, columns = users/layers) with complex coefficients on the occupied
entries. PD-NOMA, SCMA, PDMA and MUSA are all expressed on it and detected by
sum-product message passing on the factor graph the matrix induces.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Keys each scheme's matrix construction reads from its params.
MATRIX_PARAMS = {
    "pd-noma": (),
    "scma": ("column_weight",),
    "pdma": ("patterns",),
    "musa": ("pool_size", "alphabet", "column_weight"),
}
SCHEMES = tuple(MATRIX_PARAMS)


# ---------------------------------------------------------------------------
# Spreading matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpreadingMatrix:
    scheme: str
    occupancy: np.ndarray  # (K, N) in {0, 1}
    coefficients: np.ndarray  # (K, N) complex, zero exactly where occupancy is 0

    def __post_init__(self):
        occ = np.asarray(self.occupancy)
        coef = np.asarray(self.coefficients)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if occ.ndim != 2 or occ.shape != coef.shape:
            raise ValueError("occupancy and coefficients must be matching 2-D arrays")
        if not np.isin(occ, (0, 1)).all():
            raise ValueError("occupancy entries must be 0 or 1")
        if np.any((occ == 0) & (np.abs(coef) > 0)):
            raise ValueError("coefficients must be zero where occupancy is 0")
        k, n = occ.shape
        col_w = occ.sum(axis=0)
        if np.any(col_w == 0):
            raise ValueError("every column must occupy at least one RB")
        if self.scheme == "pd-noma" and k != 1:
            raise ValueError("PD-NOMA uses a single-row matrix (K = 1)")
        if self.scheme == "scma" and len(set(col_w.tolist())) != 1:
            raise ValueError("SCMA requires equal column weights")
        if k > 1 and n > 1 and np.all(occ == 1):
            raise ValueError("multi-RB matrices must be sparse (some zero entries)")

    @property
    def n_rbs(self) -> int:
        return self.occupancy.shape[0]

    @property
    def n_layers(self) -> int:
        return self.occupancy.shape[1]


def _whole(value, name: str) -> int:
    """An integer matrix parameter. A bool, or a number with a fractional
    part, is refused rather than truncated."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral)
                    or float(value).is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def build_matrix(scheme: str, k: int, n: int, params: dict | None = None,
                 rng: np.random.Generator | None = None) -> SpreadingMatrix:
    """Construct a scheme-consistent K x N spreading matrix."""
    params = dict(params or {})
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    unknown = sorted(set(params) - set(MATRIX_PARAMS[scheme]))
    if unknown:
        raise ValueError(f"unknown {scheme} matrix parameter(s) {unknown}; "
                         f"allowed: {list(MATRIX_PARAMS[scheme])}")
    if k < 1 or n < 1:
        raise ValueError("need K >= 1 and N >= 1")
    if scheme == "pd-noma":
        occ = np.ones((k, n), dtype=np.uint8)
        return SpreadingMatrix(scheme, occ, occ.astype(complex))
    if scheme == "scma":
        d_v = _whole(params.get("column_weight", 2), "column_weight")
        if not 1 <= d_v <= k:
            raise ValueError(f"column_weight must be in [1, K], got {d_v}")
        # the first N supports only: listing all C(K, d_v) grows without bound
        supports = list(itertools.islice(itertools.combinations(range(k), d_v), n))
        if len(supports) < n:
            raise ValueError(
                f"C({k},{d_v}) = {math.comb(k, d_v)} distinct columns < N = {n}")
        occ = np.zeros((k, n), dtype=np.uint8)
        for col, sup in enumerate(supports):
            occ[list(sup), col] = 1
        return SpreadingMatrix(scheme, occ, occ.astype(complex))
    if scheme == "pdma":
        patterns = params.get("patterns")
        if patterns is None:
            raise ValueError("PDMA requires a 'patterns' list of K-length columns")
        pats = [tuple(_whole(v, "PDMA pattern entry") for v in p)
                for p in patterns]
        if len(pats) != n:
            raise ValueError(f"expected {n} patterns, got {len(pats)}")
        if any(len(p) != k for p in pats):
            raise ValueError("each PDMA pattern must have length K")
        if len(set(pats)) != n:
            raise ValueError("PDMA patterns must be pairwise distinct")
        occ = np.asarray(pats, dtype=np.uint8).T
        return SpreadingMatrix(scheme, occ, occ.astype(complex))
    # musa
    if rng is None:
        raise ValueError("MUSA construction needs an rng")
    pool_size = _whole(params.get("pool_size", n), "pool_size")
    if pool_size < n:
        raise ValueError("MUSA pool_size must be >= N")
    alphabet = params.get("alphabet", _DEFAULT_MUSA_ALPHABET)
    weight = params.get("column_weight")
    if weight is not None:
        weight = _whole(weight, "column_weight")
    sequences, _ = musa_pool(pool_size, k, alphabet, rng, weight=weight,
                             max_row_weight=(n - 1 if (k > 1 and n > 1) else None))
    coef = sequences[:n].T.astype(complex)
    occ = (np.abs(coef) > 0).astype(np.uint8)
    return SpreadingMatrix(scheme, occ, coef)


# ---------------------------------------------------------------------------
# MUSA sequence pools
# ---------------------------------------------------------------------------

_DEFAULT_MUSA_ALPHABET = tuple((a + 1j * b) / 2.0
                               for a in (-1.0, 1.0) for b in (-1.0, 1.0))

# Candidate pools drawn by the random search in musa_pool.
_MUSA_CANDIDATES = 64


def _alphabet_entry(entry) -> complex:
    """One alphabet value: a number, or an [re, im] pair since JSON has no
    complex type."""
    if isinstance(entry, (list, tuple)) and len(entry) == 2 \
            and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                    for v in entry):
        return complex(entry[0], entry[1])
    if isinstance(entry, numbers.Complex) and not isinstance(entry, bool):
        return complex(entry)
    raise ValueError(f"alphabet entry {entry!r} is neither a number "
                     "nor an [re, im] pair")


def max_cross_correlation(sequences: np.ndarray) -> float:
    """Max |<s_i, s_j>| over all pairs of unit-norm sequences; 0 for a single one."""
    seqs = np.atleast_2d(sequences)
    if len(seqs) < 2:
        return 0.0
    gram = np.abs(seqs @ seqs.conj().T)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def musa_pool(pool_size: int, k: int, alphabet, rng: np.random.Generator,
              weight: int | None = None, max_row_weight: int | None = None):
    """Build a pool of unit-norm spreading sequences with low cross-correlation.

    Sequences take values from `alphabet` (numbers or [re, im] pairs) on a
    random support of the given weight (default: full length). Of
    _MUSA_CANDIDATES random pools, the one minimizing the maximum pairwise
    absolute cross-correlation is kept. Returns
    (sequences array of shape (pool_size, k), max cross-correlation).
    """
    values = [_alphabet_entry(a) for a in alphabet]
    if not values:
        raise ValueError("alphabet must be non-empty")
    for v in values:  # K entries of v, squared as np.linalg.norm squares them
        if not 0.0 < k * (v.real * v.real + v.imag * v.imag) < math.inf:
            raise ValueError(f"alphabet {list(alphabet)!r}: entry {v!r} must "
                             f"be finite and give a {k}-entry sequence a norm "
                             "that neither overflows to inf nor underflows to 0")
    alphabet = np.asarray(values, dtype=complex)
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    w = k if weight is None else int(weight)
    if not 1 <= w <= k:
        raise ValueError(f"weight must be in [1, K], got {w}")
    if max_row_weight is not None and pool_size * w > k * max_row_weight:
        raise ValueError(
            f"{pool_size} sequences of column_weight {w} fill {pool_size * w} "
            f"row slots, more than the {k} rows x {max_row_weight} the "
            "row-weight cap allows: lower column_weight or pool_size")

    def draw_pool():
        seqs = np.zeros((pool_size, k), dtype=complex)
        row_load = np.zeros(k, dtype=int)
        for i in range(pool_size):
            if max_row_weight is None:
                sup = rng.choice(k, size=w, replace=False)
            else:
                allowed = np.flatnonzero(row_load < max_row_weight)
                if len(allowed) < w:
                    return None
                # favor lightly loaded rows so the occupancy stays sparse
                order = allowed[np.argsort(row_load[allowed], kind="stable")]
                pick = order[: max(w, min(len(order), 2 * w))]
                sup = rng.permutation(pick)[:w]
            row_load[sup] += 1
            vals = alphabet[rng.integers(0, len(alphabet), size=w)]
            seqs[i, sup] = vals
            seqs[i] /= np.linalg.norm(seqs[i])
        return seqs

    best, best_x = None, math.inf
    for _ in range(_MUSA_CANDIDATES):
        seqs = draw_pool()
        if seqs is None:
            continue
        x = max_cross_correlation(seqs)
        if x < best_x:
            best, best_x = seqs, x
        if best_x == 0.0 and pool_size > 1:
            break
    if best is None:
        raise ValueError("could not draw a pool satisfying the row-weight cap")
    return best, (0.0 if pool_size == 1 else best_x)


# ---------------------------------------------------------------------------
# Codebooks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Codebook:
    """Per-layer map from Q input symbols to K-dimensional complex codewords."""

    codewords: np.ndarray  # (N, Q, K)

    def __post_init__(self):
        cw = np.asarray(self.codewords)
        if cw.ndim != 3:
            raise ValueError("codewords must have shape (N, Q, K)")
        energy = np.mean(np.sum(np.abs(cw) ** 2, axis=2), axis=1)
        if not np.allclose(energy, 1.0, atol=1e-9):
            raise ValueError("average codeword energy must be 1 per layer")

    @property
    def n_layers(self) -> int:
        return self.codewords.shape[0]

    @property
    def q(self) -> int:
        return self.codewords.shape[1]

    @property
    def n_rbs(self) -> int:
        return self.codewords.shape[2]


def default_codebook(matrix: SpreadingMatrix, q: int) -> Codebook:
    """PSK symbols spread onto each column with a per-layer phase rotation.

    Layer l uses symbols exp(j(2*pi*q/Q + theta_l)) with theta_l = 2*pi*l/(N*Q),
    scaled so each codeword has unit energy.
    """
    if q not in (2, 4, 8):
        raise ValueError(f"symbol alphabet size must be in (2, 4, 8), got {q}")
    k, n = matrix.occupancy.shape
    cw = np.zeros((n, q, k), dtype=complex)
    for layer in range(n):
        col = matrix.coefficients[:, layer]
        amp = col / np.linalg.norm(col)
        theta = 2.0 * math.pi * layer / (n * q)
        for sym in range(q):
            s = np.exp(1j * (2.0 * math.pi * sym / q + theta))
            cw[layer, sym] = amp * s
    return Codebook(cw)


# ---------------------------------------------------------------------------
# SIC
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NomaPair:
    """Power split of the near/far user pair a BS serves."""

    a_m: float  # far-user share
    a_n: float  # near-user share

    def __post_init__(self):
        if abs(self.a_m + self.a_n - 1.0) > 1e-12:
            raise ValueError(f"a_m + a_n must be 1, got {self.a_m + self.a_n}")
        if not 0.0 < self.a_n < self.a_m < 1.0:
            raise ValueError(f"need 0 < a_n < a_m < 1, got ({self.a_m}, {self.a_n})")


def nearest_symbol(y: complex, constellation: np.ndarray):
    """Hard decision; ties broken by lowest symbol index."""
    idx = int(np.argmin(np.abs(np.asarray(constellation) - y)))
    return idx, complex(constellation[idx])


@dataclass(frozen=True)
class SicLink:
    """One uplink user as seen at the BS: transmit power and channel power gain."""

    tx_power: float
    gain: float

    def __post_init__(self):
        if self.tx_power < 0 or self.gain < 0:
            raise ValueError("power and gain must be >= 0")

    @property
    def rx_power(self) -> float:
        return self.tx_power * self.gain


def sic_decode_uplink(y: complex, near_link: SicLink, far_link: SicLink,
                      noise_var: float, constellation: np.ndarray,
                      true_near_symbol: complex | None = None):
    """Uplink SIC: decode the nearby user first, subtract, decode the distant one.

    Returns (near_symbol, far_symbol, near_sinr, far_sinr). When
    true_near_symbol is given the subtraction is perfect (default SIC
    assumption); otherwise the actual near decision is subtracted.
    """
    if noise_var <= 0:
        raise ValueError("noise_var must be > 0")
    p_n, p_f = near_link.rx_power, far_link.rx_power
    sinr_near = p_n / (p_f + noise_var)
    sinr_far = p_f / noise_var
    amp_n, amp_f = math.sqrt(p_n), math.sqrt(p_f)
    _, s_near = nearest_symbol(y / amp_n if amp_n > 0 else y, constellation)
    cancel = true_near_symbol if true_near_symbol is not None else s_near
    residual = y - amp_n * cancel
    _, s_far = nearest_symbol(residual / amp_f if amp_f > 0 else residual,
                              constellation)
    return s_near, s_far, sinr_near, sinr_far


# ---------------------------------------------------------------------------
# MPA detection
# ---------------------------------------------------------------------------

# Vectors detected together. A fixed size bounds memory whatever the batch
# size, and since each vector stops on its own, results do not depend on where
# the chunk boundaries fall.
MPA_CHUNK = 4096
# Bound on the largest per-RB likelihood tensor of one chunk, in bytes; a
# link-level config that would exceed it is rejected by validation.
MPA_MEMORY_BUDGET = 2**30

_TINY = np.finfo(float).tiny


def mpa_chunk_bytes(matrix: SpreadingMatrix, q: int) -> int:
    """Peak bytes of the likelihood tensor of one MPA chunk on the densest
    RB: a complex difference and its modulus, 24 B, per joint symbol of the
    RB's d layers (Q^d) and vector (MPA_CHUNK)."""
    degree = int(matrix.occupancy.sum(axis=1).max())
    return q ** degree * MPA_CHUNK * 24


def _check_supports(matrix: SpreadingMatrix, codebook: Codebook) -> None:
    if codebook.codewords.shape[0] != matrix.n_layers \
            or codebook.codewords.shape[2] != matrix.n_rbs:
        raise ValueError("codebook dimensions inconsistent with matrix")
    occ = matrix.occupancy.astype(bool)
    used = np.any(np.abs(codebook.codewords) > 0, axis=1)  # (N, K)
    if np.any(used & ~occ.T):
        raise ValueError("codeword support outside the column support")


def _log_normalize(x: np.ndarray) -> np.ndarray:
    """Shift log-messages along axis 1 (symbols) so their exponentials sum to
    one."""
    x = x - x.max(axis=1, keepdims=True)
    return x - np.log(np.exp(x).sum(axis=1, keepdims=True))


def mpa_detect_batch(received: np.ndarray, matrix: SpreadingMatrix,
                     codebook: Codebook, noise_var: float, max_iters: int = 8,
                     tol: float = 1e-6):
    """Sum-product MPA on a batch of received vectors.

    received has shape (B, K). Returns (marginals (B, N, Q), hard decisions
    (B, N), iterations used). Messages flow between RB (function) nodes and
    layer (variable) nodes and are kept as log-probabilities. Each RB's
    channel likelihoods exp(-|y - s|^2 / noise_var) over the joint symbols of
    its layers are computed once per chunk, and each outgoing message is their
    contraction with the other layers' incoming messages. Stop rule, per
    vector: its messages freeze after the first iteration in which its
    largest message change is below tol, or after max_iters; the returned
    iterations is the maximum over vectors. Vectors are processed in chunks
    of MPA_CHUNK, and a vector's result does not depend on its batch-mates.
    """
    if noise_var <= 0:
        raise ValueError("noise_var must be > 0")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    _check_supports(matrix, codebook)
    y = np.atleast_2d(np.asarray(received, dtype=complex))
    b, k = y.shape
    n, q = codebook.n_layers, codebook.q
    if k != matrix.n_rbs:
        raise ValueError("received vector length must equal K")

    occ = matrix.occupancy.astype(bool)
    rbs = [ki for ki in range(k) if occ[ki].any()]
    rows = [np.flatnonzero(occ[ki]) for ki in rbs]
    # Edges are numbered RB by RB; row_edges[r] holds RB r's edges in layer
    # order, layer_edges[li] layer li's edges in RB order.
    row_edges, layer_edges, n_edges = [], [[] for _ in range(n)], 0
    for layers in rows:
        row_edges.append(range(n_edges, n_edges + len(layers)))
        for li in layers:
            layer_edges[li].append(n_edges)
            n_edges += 1
    # Per RB: the noiseless received value of every joint symbol of its
    # layers (first layer slowest), and for each layer the einsum that
    # contracts the likelihoods with every other layer's message.
    row_sums, row_subs = [], []
    for ki, layers in zip(rbs, rows):
        axes = "abcdefghijklmnopqrstuvwxy"[:len(layers)]
        row_sums.append(sum(np.ix_(*codebook.codewords[layers, :, ki])).ravel())
        row_subs.append([",".join([axes + "z"] + [a + "z" for a in axes if a != ax])
                         + f"->{ax}z" for ax in axes])

    def detect(yc: np.ndarray):
        """Marginals (len(yc), N, Q) and iterations for one chunk. Arrays
        put the vector axis last, so that every operation runs along it."""
        bc = len(yc)
        if bc == 1:
            # einsum drops a length-1 vector axis and then sums in another
            # order; a lone vector is detected as a pair to keep its bits.
            marg, its = detect(np.repeat(yc, 2, axis=0))
            return marg[:1], its
        likelihood = []
        for ki, layers, sums in zip(rbs, rows, row_sums):
            ll = -np.abs(yc[None, :, ki] - sums[:, None]) ** 2 / noise_var
            p = np.exp(ll - ll.max(axis=0))
            likelihood.append(p.reshape((q,) * len(layers) + (bc,)))
        mv = np.full((n_edges, q, bc), -math.log(q))  # variable -> function
        mf = np.zeros((n_edges, q, bc))  # function -> variable
        live = np.ones(bc, dtype=bool)
        for it in range(max_iters):
            # function (RB) node update
            pv = np.exp(mv)
            new_mf = np.empty_like(mf)
            for p, edges, subs in zip(likelihood, row_edges, row_subs):
                for e, sub in zip(edges, subs):
                    s = np.einsum(sub, p, *(pv[o] for o in edges if o != e))
                    new_mf[e] = np.log(np.maximum(s, _TINY))
            new_mf = _log_normalize(new_mf)
            # variable (layer) node update
            new_mv = np.zeros_like(mv)
            for edges in layer_edges:
                for e in edges:
                    for o in edges:
                        if o != e:
                            new_mv[e] += new_mf[o]
            new_mv = _log_normalize(new_mv)
            change = np.maximum(np.abs(new_mf - mf).max(axis=(0, 1)),
                                np.abs(new_mv - mv).max(axis=(0, 1)))
            mf = np.where(live, new_mf, mf)
            mv = np.where(live, new_mv, mv)
            live &= change >= tol
            if not live.any():
                break
        log_marg = np.zeros((n, q, bc))
        for li, edges in enumerate(layer_edges):
            for e in edges:
                log_marg[li] += mf[e]
        marg = np.exp(log_marg - log_marg.max(axis=1, keepdims=True))
        marg /= marg.sum(axis=1, keepdims=True)
        return np.moveaxis(marg, 2, 0), it + 1

    marginals = np.empty((b, n, q))
    iterations = 0
    for start in range(0, b, MPA_CHUNK):
        chunk = slice(start, start + MPA_CHUNK)
        marginals[chunk], its = detect(y[chunk])
        iterations = max(iterations, its)
    return marginals, np.argmax(marginals, axis=2), iterations


def symbol_error_rate(decisions: np.ndarray, truth: np.ndarray) -> float:
    decisions = np.asarray(decisions)
    truth = np.asarray(truth)
    return float(np.mean(decisions != truth))
