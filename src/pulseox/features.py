"""The time-series feature catalog and feature selection.

Features are computed per fixed-length window over the four channels (red,
ir, accel_mag, gyro_mag). Each feature is a total function: degenerate inputs
(zero variance, rank-deficient AR design) map to 0, never NaN, because the
classifier downstream requires complete rows.

Selection is two-stage: a per-feature Mann-Whitney U test against the binary
reliability target, then Benjamini-Hochberg step-up control of the false
discovery rate across the catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import signal as _sps
from scipy import stats as _spstats

from .errors import CatalogMismatch, SingleClass
from .signal_io import FrameSeries, blocks

CHANNELS = ("red", "ir", "accel_mag", "gyro_mag")


@dataclass(frozen=True)
class FeatureSpec:
    """One catalog entry: a named statistic of one channel.

    ``params`` is stored as a sorted tuple of (key, value) pairs so specs are
    hashable and their identifier strings are deterministic.
    """

    channel: str
    name: str
    params: tuple = ()

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    @property
    def param_dict(self):
        return dict(self.params)

    @property
    def spec_id(self) -> str:
        parts = [self.channel, self.name]
        parts += [f"{k}_{v}" for k, v in self.params]
        return "__".join(parts)

    @classmethod
    def from_id(cls, spec_id: str) -> "FeatureSpec":
        parts = spec_id.split("__")
        channel, name = parts[0], parts[1]
        params = []
        for p in parts[2:]:
            k, v = p.rsplit("_", 1)
            try:
                v = int(v)
            except ValueError:
                try:
                    v = float(v)
                except ValueError:
                    pass
            params.append((k, v))
        return cls(channel, name, tuple(params))


# --- batched feature primitives; X has shape (n_windows, window_len) ---------


def _mean(X, p):
    return X.mean(axis=1)


def _sum_values(X, p):
    return X.sum(axis=1)


def _std(X, p):
    return X.std(axis=1)


def _minimum(X, p):
    return X.min(axis=1)


def _maximum(X, p):
    return X.max(axis=1)


def _abs_energy(X, p):
    return np.sum(X * X, axis=1)


def _longest_strike_below_mean(X, p):
    below = X < X.mean(axis=1, keepdims=True)
    c = np.cumsum(below, axis=1)
    resets = np.where(below, 0, c)
    run = c - np.maximum.accumulate(resets, axis=1)
    return run.max(axis=1).astype(float)


def _autocorrelation(X, p):
    lag = int(p["lag"])
    n = X.shape[1]
    if lag >= n:  # no pair of samples lag apart
        return np.zeros(len(X))
    mu = X.mean(axis=1, keepdims=True)
    x0 = X - mu
    var = np.mean(x0 * x0, axis=1)
    if lag == 0:
        num = np.mean(x0 * x0, axis=1)
    else:
        num = np.sum(x0[:, : n - lag] * x0[:, lag:], axis=1) / (n - lag)
    out = np.zeros(len(X))
    nz = var > 0
    out[nz] = num[nz] / var[nz]
    return out


def _cid_ce(X, p):
    # complexity estimate on the zero-mean unit-variance standardization
    mu = X.mean(axis=1, keepdims=True)
    sd = X.std(axis=1, keepdims=True)
    out = np.zeros(len(X))
    nz = sd[:, 0] > 0
    if nz.any():
        z = (X[nz] - mu[nz]) / sd[nz]
        d = np.diff(z, axis=1)
        out[nz] = np.sqrt(np.sum(d * d, axis=1))
    return out


def _ar_coefficient(X, p):
    """OLS fit of an AR(k) model; coeff 0 is the intercept, j the lag-j weight.

    Rank-deficient designs return 0 for the requested coefficient.

    The fit stays a batched SVD, and only the requested column of the
    pseudo-inverse is contracted. A centered QR would be several times faster
    but moves the coefficients by about 3e-11 relative on high-DC windows.
    Trained models split on AR features (16 of the 293 splits of the
    benchmark's model at its default seed), so their bytes and the recorded
    output digests of ``perfbench`` would change with it.
    """
    j = int(p["coeff"])
    k = int(p["k"])
    n, w = X.shape
    if j > k or w <= k:
        return np.zeros(n)
    # design [1, x_{t-1}, ..., x_{t-k}] predicting x_t for t = k..w-1, built
    # lag-major so every row write is contiguous; the SVD reads its transpose
    At = np.empty((n, k + 1, w - k))
    At[:, 0] = 1.0
    for lag in range(1, k + 1):
        At[:, lag] = X[:, k - lag : w - lag]
    A = At.transpose(0, 2, 1)
    y = X[:, k:]
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    tol = s[:, :1] * max(A.shape[1], A.shape[2]) * np.finfo(float).eps
    full_rank = (s > tol).all(axis=1)
    s_safe = np.where(s > tol, s, 1.0)
    out = np.einsum("nk,nk,nik,ni->n", Vt[:, :, j], 1.0 / s_safe, U, y)
    out[~full_rank] = 0.0
    return out


def _spkt_welch_density(X, p):
    """Welch PSD at one frequency-bin index: Hann window, single full segment.

    Frequencies are in cycles/sample (fs = 1); the bin index, not the physical
    frequency, is the contract.
    """
    c = int(p["coeff"])
    n = X.shape[1]
    _, pxx = _sps.welch(
        X, fs=1.0, window="hann", nperseg=n, noverlap=0, detrend="constant", axis=1
    )
    if c >= pxx.shape[1]:
        return np.zeros(len(X))
    return pxx[:, c]


def _fft_coefficient(X, p):
    c = int(p["coeff"])
    attr = p["attr"]
    F = np.fft.rfft(X, axis=1)
    if c >= F.shape[1]:
        return np.zeros(len(X))
    col = F[:, c]
    if attr == "real":
        return col.real.copy()
    if attr == "abs":
        return np.abs(col)
    raise ValueError(f"unknown fft attr {attr!r}")


_FEATURE_FUNCS = {
    "mean": _mean,
    "sum_values": _sum_values,
    "std": _std,
    "minimum": _minimum,
    "maximum": _maximum,
    "abs_energy": _abs_energy,
    "longest_strike_below_mean": _longest_strike_below_mean,
    "autocorrelation": _autocorrelation,
    "cid_ce": _cid_ce,
    "ar_coefficient": _ar_coefficient,
    "spkt_welch_density": _spkt_welch_density,
    "fft_coefficient": _fft_coefficient,
}


def compute_feature_batch(spec: FeatureSpec, X) -> np.ndarray:
    """``spec`` on every row of ``X``, the (n_windows, window_len) matrix of
    ``spec.channel``."""
    return _FEATURE_FUNCS[spec.name](X, spec.param_dict)


def build_catalog(channels=CHANNELS) -> list:
    """The default feature catalog: the ranked statistic set instantiated over
    every channel, plus a baseline descriptive set per channel."""
    catalog = []
    for ch in channels:
        catalog.append(FeatureSpec(ch, "longest_strike_below_mean"))
        for lag in range(4, 10):
            catalog.append(FeatureSpec(ch, "autocorrelation", (("lag", lag),)))
        catalog.append(FeatureSpec(ch, "cid_ce"))
        catalog.append(FeatureSpec(ch, "ar_coefficient", (("coeff", 0), ("k", 10))))
        catalog.append(FeatureSpec(ch, "spkt_welch_density", (("coeff", 2),)))
        catalog.append(FeatureSpec(ch, "fft_coefficient", (("attr", "real"), ("coeff", 0))))
        catalog.append(FeatureSpec(ch, "fft_coefficient", (("attr", "abs"), ("coeff", 0))))
        catalog.append(FeatureSpec(ch, "mean"))
        catalog.append(FeatureSpec(ch, "sum_values"))
        catalog.append(FeatureSpec(ch, "std"))
        catalog.append(FeatureSpec(ch, "minimum"))
        catalog.append(FeatureSpec(ch, "maximum"))
        catalog.append(FeatureSpec(ch, "abs_energy"))
    return catalog


def extract_matrix(series: FrameSeries, starts, window_len: int, catalog, columns=None) -> np.ndarray:
    """Feature matrix with one row per window, columns in catalog order.

    ``starts`` holds the first sample of each window of ``window_len``
    samples. Only the catalog ``columns`` given (all by default) are
    computed; the others are NaN. Windows are gathered from the stream one
    channel and one block of ``BLOCK_WINDOWS`` at a time.
    """
    if not catalog:
        raise CatalogMismatch("catalog must be nonempty")
    by_channel = {}
    for j in sorted(range(len(catalog)) if columns is None else columns):
        by_channel.setdefault(catalog[j].channel, []).append(j)
    X = np.full((len(starts), len(catalog)), np.nan)
    for b in blocks(len(starts)):
        for channel, cols in by_channel.items():
            W = series.rows(channel, starts[b], window_len)
            for j in cols:
                X[b, j] = compute_feature_batch(catalog[j], W)
    return X


# --- significance testing and selection --------------------------------------

EXACT_MW_MAX_N = 12


def _u_statistic(ranks, mask0, n0):
    r0 = ranks[mask0].sum()
    return r0 - n0 * (n0 + 1) / 2.0


def mann_whitney_p(values, labels) -> float:
    """Two-sided p-value of the Mann-Whitney U test of a real feature
    against a binary target.

    Exact enumeration of all label assignments when the pooled sample size is
    at most 12; otherwise a tie-corrected normal approximation with continuity
    correction.
    """
    x = np.asarray(values, dtype=float)
    y = np.asarray(labels)
    if set(np.unique(y)) - {0, 1}:
        raise ValueError("labels must be binary 0/1")
    n0 = int(np.sum(y == 0))
    n1 = int(np.sum(y == 1))
    if n0 == 0 or n1 == 0:
        raise SingleClass("both classes must be nonempty")
    n = n0 + n1
    ranks = _spstats.rankdata(x, method="average")
    u0 = _u_statistic(ranks, y == 0, n0)
    u1 = n0 * n1 - u0
    u_min = min(u0, u1)

    if n <= EXACT_MW_MAX_N:
        total = 0
        lo = 0
        hi = 0
        idx = np.arange(n)
        for comb in combinations(idx, n0):
            mask = np.zeros(n, dtype=bool)
            mask[list(comb)] = True
            u = _u_statistic(ranks, mask, n0)
            total += 1
            if u <= u_min + 1e-12:
                lo += 1
            if u >= n0 * n1 - u_min - 1e-12:
                hi += 1
        return min(1.0, (lo + hi) / total)

    mu = n0 * n1 / 2.0
    _, counts = np.unique(x, return_counts=True)
    tie_term = np.sum(counts.astype(float) ** 3 - counts)
    var = n0 * n1 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return 1.0
    z = (u_min - mu + 0.5) / math.sqrt(var)
    return min(1.0, 2.0 * _spstats.norm.cdf(z))


@dataclass
class SelectionResult:
    p_values: dict                  # FeatureSpec -> p
    kept: list                      # FeatureSpec, catalog order
    fdr_q: float

    def to_json_dict(self):
        return {
            "q": self.fdr_q,
            "kept": [s.spec_id for s in self.kept],
            "p_values": {s.spec_id: p for s, p in sorted(self.p_values.items(), key=lambda kv: kv[0].spec_id)},
        }


def benjamini_hochberg(p_values: dict, q: float) -> SelectionResult:
    """Step-up FDR control: keep every feature with p <= p_(i*) where i* is
    the largest rank i with p_(i) <= i*q/m. Ties in p keep together."""
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    specs = list(p_values.keys())
    ps = np.array([p_values[s] for s in specs], dtype=float)
    m = len(ps)
    order = np.argsort(ps, kind="mergesort")
    thresholds = (np.arange(1, m + 1) * q) / m
    passing = np.flatnonzero(ps[order] <= thresholds)
    if len(passing) == 0:
        kept = []
    else:
        p_star = ps[order[passing[-1]]]
        kept = [s for s, p in zip(specs, ps) if p <= p_star]
    return SelectionResult(p_values=dict(p_values), kept=kept, fdr_q=q)


def select_features(X, y, catalog, q: float = 0.05) -> SelectionResult:
    """Mann-Whitney p-value per catalog column, then BH selection."""
    p_values = {}
    for j, spec in enumerate(catalog):
        p_values[spec] = mann_whitney_p(X[:, j], y)
    return benjamini_hochberg(p_values, q)
