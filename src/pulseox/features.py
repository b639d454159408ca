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

from . import signal_io
from .errors import SingleClass

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


# --- extraction ----------------------------------------------------------------


def _channel_features(W, specs, out):
    """Write the non-AR features of one channel's windows ``W``, one window
    per row, into ``out``: ``specs`` holds ``(column, FeatureSpec)`` pairs.

    Each window's mean, centered samples, variance and standard deviation
    are computed once and shared by every family; its ``rfft`` is computed
    only when an ``fft_coefficient`` is requested, and that of its
    Hann-windowed centered samples only when a ``spkt_welch_density`` is.
    The shared values have the bits of ``W.mean(axis=1)`` and
    ``W.std(axis=1)``, and every row is computed on its own, so no column
    depends on which others are requested or on the rows beside it.
    """
    n, w = W.shape
    mu = W.mean(axis=1)
    x0 = W - mu[:, None]
    var = np.mean(x0 * x0, axis=1)
    sd = np.sqrt(var)
    F = P = None
    for j, spec in specs:
        name, p = spec.name, spec.param_dict
        if name == "mean":
            out[:, j] = mu
        elif name == "sum_values":
            out[:, j] = W.sum(axis=1)
        elif name == "std":
            out[:, j] = sd
        elif name == "minimum":
            out[:, j] = W.min(axis=1)
        elif name == "maximum":
            out[:, j] = W.max(axis=1)
        elif name == "abs_energy":
            out[:, j] = np.sum(W * W, axis=1)
        elif name == "longest_strike_below_mean":  # exact counts, in int32 and in place
            below = W < mu[:, None]
            c = np.cumsum(below, axis=1, dtype=np.int32)
            m = np.where(below, 0, c)  # then the count at the last sample not below the mean
            np.maximum.accumulate(m, axis=1, out=m)
            out[:, j] = np.subtract(c, m, out=c).max(axis=1)
            del below, c, m
        elif name == "autocorrelation":
            lag = int(p["lag"])
            out[:, j] = 0.0  # also where no pair of samples is lag apart
            if lag < w:
                num = np.sum(x0[:, : w - lag] * x0[:, lag:], axis=1) / (w - lag)
                np.divide(num, var, out=out[:, j], where=var > 0)
        elif name == "cid_ce":
            # complexity estimate on the zero-mean unit-variance standardization
            d = np.diff(np.divide(x0, sd[:, None], out=np.zeros_like(x0), where=sd[:, None] > 0), axis=1)
            out[:, j] = np.sqrt(np.sum(d * d, axis=1))
            del d
        elif name == "spkt_welch_density":
            if P is None:
                P = np.fft.rfft(x0 * _hann(w), axis=1)
            c = int(p["coeff"])
            col = P[:, c] if c < P.shape[1] else np.zeros(n)
            out[:, j] = col.real**2 + col.imag**2
            if 0 < c < w - w // 2:  # every bin but DC and the unpaired Nyquist bin of an even w
                out[:, j] *= 2
        elif name == "fft_coefficient":
            if p["attr"] not in ("real", "abs"):
                raise ValueError(f"unknown fft attr {p['attr']!r}")
            if F is None:
                F = np.fft.rfft(W, axis=1)
            c = int(p["coeff"])
            col = F[:, c] if c < F.shape[1] else np.zeros(n)
            out[:, j] = col.real if p["attr"] == "real" else np.abs(col)
        else:
            raise ValueError(f"unknown feature {name!r}")


def _hann(n):
    """The Hann window of the ``spkt_welch_density`` feature: with it, twice
    ``|rfft(x0 * _hann(n))[c]|^2`` off DC and the unpaired Nyquist bin is
    ``scipy.signal.welch(X, fs=1, window="hann", nperseg=n, noverlap=0,
    detrend="constant", axis=1)[1][:, c]`` of scipy 1.17 bit for bit: the
    Welch PSD at one frequency-bin index, from one segment of the whole
    window. Frequencies are in cycles/sample (fs = 1); the bin index, not
    the physical frequency, is the contract.

    The window is the periodic Hann window as ``get_window`` builds it,
    scaled by the norm that ``ShortTimeFFT.fac_psd`` takes with Python's
    builtin ``sum`` (a sequential sum, whose bits differ from numpy's
    pairwise one).
    """
    h = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1))[:-1]
    return h * (1 / np.sqrt(sum(h**2)))


def _ar_fit(X, j, k, out):
    """Coefficient ``j`` of the OLS fit of an AR(k) model to each row of
    ``X``, written into ``out``: coefficient 0 is the intercept, ``j`` the
    lag-``j`` weight. A rank-deficient design gives 0, and ``out`` keeps
    its values when the AR(k) design has no column ``j`` or no row.

    The fit stays a batched SVD, and only the requested column of the
    pseudo-inverse is contracted. A centered QR would be several times faster
    but moves the coefficients by about 3e-11 relative on high-DC windows.
    Trained models split on AR features (16 of the 293 splits of the
    benchmark's model at its default seed), so their bytes and the recorded
    output digests of ``perfbench`` would change with it.

    Rows are fitted 128 at a time, which bounds the design matrices and SVD
    factors to about 2 MB at windows of 100 samples; each row's fit reads
    only that row, so the batch changes no bit.
    """
    n, w = X.shape
    if j > k or w <= k:
        return
    for r in range(0, n, 128):
        rows = slice(r, r + 128)
        # design [1, x_{t-1}, ..., x_{t-k}] predicting x_t for t = k..w-1, built
        # lag-major so every row write is contiguous; the SVD reads its transpose
        At = np.empty((len(X[rows]), k + 1, w - k))
        At[:, 0] = 1.0
        for lag in range(1, k + 1):
            At[:, lag] = X[rows, k - lag : w - lag]
        A = At.transpose(0, 2, 1)
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        tol = s[:, :1] * max(A.shape[1], A.shape[2]) * np.finfo(float).eps
        full_rank = (s > tol).all(axis=1)
        s_safe = np.where(s > tol, s, 1.0)
        np.einsum("nk,nk,nik,ni->n", Vt[:, :, j], 1.0 / s_safe, U, X[rows, k:], out=out[rows])
        out[rows][~full_rank] = 0.0


def build_catalog() -> list:
    """The feature catalog: the ranked statistic set instantiated over every
    channel, plus a baseline descriptive set per channel. A model file names
    its features by ``spec_id``, and ``gbdt.load`` reads each one back by
    lookup in this list, so no other feature id loads."""
    catalog = []
    for ch in CHANNELS:
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


def extract_matrix(series: signal_io.FrameSeries, starts, window_len: int, catalog, columns=None) -> np.ndarray:
    """Feature matrix of ``catalog``, one row per window, columns in catalog
    order: every column, or only those in ``columns`` and NaN in the others.

    ``starts`` holds the first sample of each window of ``window_len``
    samples. Windows are gathered from the stream one channel and one block
    of ``BLOCK_WINDOWS`` at a time: one kernel call per channel gives its
    non-AR columns, and every AR column is fitted for every row. Each
    window's features read only that window, so no bit depends on the
    blocks, on the other rows or on the other columns.
    """
    by_channel, ar = {}, []  # channel -> its (column, spec) pairs of the non-AR families
    for j in range(len(catalog)) if columns is None else sorted(columns):
        spec = catalog[j]
        if spec.name == "ar_coefficient":
            ar.append((j, spec))
        else:
            by_channel.setdefault(spec.channel, []).append((j, spec))
    X = np.full((len(starts), len(catalog)), np.nan)
    for b in signal_io.blocks(len(starts)):
        for channel, specs in by_channel.items():
            _channel_features(series.rows(channel, starts[b], window_len), specs, X[b])
        for j, spec in ar:
            out = np.zeros(len(starts[b]))
            _ar_fit(series.rows(spec.channel, starts[b], window_len), int(spec.param_dict["coeff"]), int(spec.param_dict["k"]), out)
            X[b, j] = out
    return X


# --- significance testing and selection --------------------------------------

EXACT_MW_MAX_N = 12


def _u_statistic(ranks, mask0, n0):
    r0 = ranks[mask0].sum()
    return r0 - n0 * (n0 + 1) / 2.0


def _midranks(x):
    """The 1-based ranks of ``x`` with each run of tied values at the mean of
    its positions, and the length of each run. The ranks are exact
    half-integers, so they are ``scipy.stats.rankdata(x, method="average")``
    bit for bit."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    edges = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1], [True])))
    lo, hi = edges[:-1], edges[1:]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((lo + hi - 1) / 2 + 1, hi - lo)
    return ranks, hi - lo


# Cephes ``ndtr`` (S. L. Moshier, 1989), the normal tail of scipy 1.17's
# ``scipy.special.ndtr``, on Python floats in Cephes' order of operations:
# ``math.exp`` is libm's ``exp``, as in Cephes, where ``np.exp`` may round
# otherwise, and ``math.erf``/``math.erfc`` are other approximations. The
# Q, S and U tables start with the leading 1 that Cephes' ``p1evl`` implies;
# ``1.0 * x`` is ``x``, so Horner's rule over them has ``p1evl``'s bits.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.70710678118654752440


def _polevl(x, coef):
    """Horner's rule over ``coef``, highest power first (Cephes ``polevl``)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    """Cephes ``erf`` for ``|x| <= 1``, the T/U rational function. Cephes
    takes ``-erf(-x)`` below 0, which has the same bits."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x):
    """Cephes ``erfc`` for ``x >= 0``: the P/Q tables below 8, the R/S
    tables above, and 0 where ``exp(-x * x)`` would underflow."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    if x < 8.0:
        return math.exp(z) * _polevl(x, _ERFC_P) / _polevl(x, _ERFC_Q)
    return math.exp(z) * _polevl(x, _ERFC_R) / _polevl(x, _ERFC_S)


def _ndtr(a: float) -> float:
    """The standard normal CDF at ``a``, with the bits of ``scipy.special.ndtr``."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(abs(x))
    return 1.0 - y if x > 0 else y


def mann_whitney_p(values, labels) -> float:
    """Two-sided p-value of the Mann-Whitney U test of a real feature
    against a binary target.

    Exact enumeration of all label assignments when the pooled sample size is
    at most 12, with ties at their midranks (scipy's exact test ignores
    ties). Otherwise the normal approximation with the tie-corrected variance
    and the continuity correction, computed in the steps of
    ``scipy.stats.mannwhitneyu(x0, x1, method="asymptotic",
    use_continuity=True)`` of scipy 1.17 and equal to it bit for bit. Its
    normal tail is :func:`_ndtr`, a port of Cephes ``ndtr``, the code behind
    ``scipy.special.ndtr``, which the tests hold it to bit for bit.
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
    ranks, ties = _midranks(x)
    u0 = _u_statistic(ranks, y == 0, n0)
    if n > EXACT_MW_MAX_N:
        tie_term = np.sum(ties.astype(float) ** 3 - ties)
        var = n0 * n1 / 12 * ((n + 1) - tie_term / (n * (n - 1)))
        if var <= 0:  # every value tied
            return 1.0
        z = (max(u0, n0 * n1 - u0) - n0 * n1 / 2 - 0.5) / np.sqrt(var)
        return min(1.0, 2 * _ndtr(float(-z)))

    u_min = min(u0, n0 * n1 - u0)
    total = 0
    lo = 0
    hi = 0
    for comb in combinations(range(n), n0):
        mask = np.zeros(n, dtype=bool)
        mask[list(comb)] = True
        u = _u_statistic(ranks, mask, n0)
        total += 1
        if u <= u_min + 1e-12:
            lo += 1
        if u >= n0 * n1 - u_min - 1e-12:
            hi += 1
    return min(1.0, (lo + hi) / total)


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
