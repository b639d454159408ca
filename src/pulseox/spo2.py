"""Ratio-of-ratios SpO2 estimation.

Two extraction algorithms operate on fixed-length windows of the red and
infrared channels:

* ``baseline`` computes the ratio of ratios on every window with no filtering.
* ``enhanced`` additionally detrends both channels and rejects windows whose
  inter-channel Pearson correlation falls below a threshold; uncorrelated
  channels indicate noise rather than pulse.

AC is defined as the RMS of the least-squares linearly detrended window and DC
as the window mean. The RMS definition is robust to single-sample spikes,
unlike peak-to-peak. The linear map ``spo2 = y0 - m * R`` is the calibration
contract; constants are configuration, nominally supplied per sensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewPairs, WindowTooShort
from .signal_io import FrameSeries, blocks, write_csv

MIN_WINDOW = 8

GATE_CORR_REJECTED = "corr_rejected"
GATE_CLAMPED = "out_of_range_clamped"
GATE_DC_INVALID = "dc_invalid"

#: Gate flags by bit: a gate code holds 1 for dc_invalid, 2 for corr_rejected,
#: 4 for out_of_range_clamped.
_GATES = (GATE_DC_INVALID, GATE_CORR_REJECTED, GATE_CLAMPED)
#: The ``gates`` CSV cell of each gate code: its flag names, sorted, ``|``-joined.
_GATE_TEXT = ["|".join(sorted(g for bit, g in enumerate(_GATES) if code >> bit & 1)) for code in range(8)]


@dataclass(frozen=True)
class CalibrationCurve:
    """First-order fit mapping ratio R to a percentage: spo2 = y0 - m * R."""

    y0: float = 110.0
    m: float = 25.0

    def __post_init__(self):
        if not (math.isfinite(self.y0) and math.isfinite(self.m)):
            raise ValueError(f"calibration y0 and m must be finite, got y0={self.y0}, m={self.m}")
        if self.m <= 0:
            raise ValueError("calibration slope m must be positive")


@dataclass(frozen=True)
class EnhancedConfig:
    corr_threshold: float = 0.4

    def __post_init__(self):
        if not -1.0 <= self.corr_threshold <= 1.0:
            raise ValueError("corr_threshold must lie in [-1, 1]")


@dataclass
class Spo2Estimates:
    """Readings as columns, one entry per window: window-end timestamp, ratio,
    calibrated percentage and gate code (1 ``dc_invalid``, 2 ``corr_rejected``,
    4 ``out_of_range_clamped``).

    ``ratio_r`` and ``spo2_pct`` are NaN where a gate flag suppressed the value
    (``corr_rejected`` or ``dc_invalid``).
    """

    t_ms: np.ndarray
    ratio_r: np.ndarray
    spo2_pct: np.ndarray
    gates: np.ndarray
    algorithm: str

    def __len__(self):
        return len(self.t_ms)

    def flagged(self, gate: str) -> np.ndarray:
        """Mask of the entries that carry ``gate``."""
        return (self.gates >> _GATES.index(gate) & 1).astype(bool)

    @property
    def valid(self) -> np.ndarray:
        """Mask of the entries that carry a reading (no suppressing flag)."""
        return ~(self.flagged(GATE_DC_INVALID) | self.flagged(GATE_CORR_REJECTED))


def calibrate(ratio, calib: CalibrationCurve):
    """Vectorized clamped calibration of ratios.

    Returns ``(spo2_pct, clamped)``: ``y0 - m * ratio`` clipped to [0, 100],
    and whether the clip changed each value. NaN ratios stay NaN, unflagged.
    """
    with np.errstate(invalid="ignore"):
        raw = calib.y0 - calib.m * np.asarray(ratio, dtype=float)
        return np.clip(raw, 0.0, 100.0), (raw < 0.0) | (raw > 100.0)


@dataclass
class WindowStats:
    """Vectorized per-window statistics over the two optical channels."""

    t_ms: np.ndarray        # window-end timestamps
    start_idx: np.ndarray
    dc_red: np.ndarray
    dc_ir: np.ndarray
    ac_red: np.ndarray
    ac_ir: np.ndarray
    ratio: np.ndarray       # NaN where dc invalid or ir degenerate
    corr: np.ndarray        # Pearson r of detrended channels, NaN if undefined
    dc_invalid: np.ndarray  # bool: gap in window, dc <= 0, or ir.ac == 0

    def __len__(self):
        return len(self.t_ms)


def _slopes(series: FrameSeries, name: str, starts, window_len: int, k0: np.ndarray) -> np.ndarray:
    """Least-squares slope of each window of one channel, gaps read as 0.

    The product is one BLAS dgemv over all the windows at once: its sums
    depend on how many rows it sees and on the BLAS thread count, so splitting
    it into blocks would move ratio/corr bits, and with them the recorded
    output digests. It stays whole-matrix, one channel at a time, until a
    digest epoch swaps in a row-independent product.
    """
    x = series.rows(name, starts, window_len)
    for b in blocks(len(x)):
        np.nan_to_num(x[b], copy=False)
    return x @ k0 / np.dot(k0, k0)


def matrix_stats(series: FrameSeries, starts, window_len: int, t_end, has_gap) -> WindowStats:
    """Per-window AC/DC, ratio, and correlation of the windows of
    ``window_len`` samples at ``starts``, which end at ``t_end``.

    A window is ``dc_invalid``, with a NaN ratio, when it holds a gap
    (``has_gap``), when a channel's DC is not positive, or when the infrared
    AC is zero. AC is the RMS of the window, gaps read as 0, less its
    least-squares line. After the slopes, windows are walked
    ``BLOCK_WINDOWS`` at a time into per-window sums.
    """
    n, w = len(starts), window_len
    k = np.arange(w, dtype=float)
    k0 = k - k.mean()
    slope = {ch: _slopes(series, ch, starts, w, k0) for ch in ("red", "ir")}
    dc = {ch: np.empty(n) for ch in slope}
    sq_sum = {ch: np.empty(n) for ch in slope}
    cross = np.empty(n)
    for b in blocks(n):
        detrended = {}
        for ch in slope:
            x = series.rows(ch, starts[b], w)
            dc[ch][b] = x.mean(axis=1)
            np.nan_to_num(x, copy=False)
            x -= x.mean(axis=1)[:, None]
            x -= slope[ch][b, None] * k0
            detrended[ch] = x
        cross[b] = np.sum(detrended["red"] * detrended["ir"], axis=1)
        for ch, x in detrended.items():
            x *= x
            sq_sum[ch][b] = x.sum(axis=1)

    dc_red, dc_ir = dc["red"], dc["ir"]
    ac_red, ac_ir = np.sqrt(sq_sum["red"] / w), np.sqrt(sq_sum["ir"] / w)
    bad = has_gap | ~(dc_red > 0) | ~(dc_ir > 0) | (ac_ir == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (ac_red / dc_red) / (ac_ir / dc_ir)
        denom = np.sqrt(sq_sum["red"] * sq_sum["ir"])
        corr = cross / denom
    ratio[bad] = np.nan
    corr[denom == 0] = np.nan
    corr[has_gap] = np.nan

    return WindowStats(
        t_ms=np.asarray(t_end, dtype=np.int64),
        start_idx=np.asarray(starts),
        dc_red=dc_red,
        dc_ir=dc_ir,
        ac_red=ac_red,
        ac_ir=ac_ir,
        ratio=ratio,
        corr=corr,
        dc_invalid=bad,
    )


def window_stats(series: FrameSeries, window_len: int = 100, step: int = 1) -> WindowStats:
    """Per-window statistics over every complete window of a stream; windows
    holding a gap slot are kept and flagged ``dc_invalid``."""
    if window_len < MIN_WINDOW:
        raise WindowTooShort(f"window_len must be >= {MIN_WINDOW}")
    starts, t_end, has_gap = series.windows(window_len, step)
    return matrix_stats(series, starts, window_len, t_end, has_gap)


def corr_pass(stats: WindowStats, cfg: EnhancedConfig) -> np.ndarray:
    """The correlation gate alone; the undefined (NaN) correlation of a flat or
    gapped window fails it."""
    with np.errstate(invalid="ignore"):
        return stats.corr >= cfg.corr_threshold


def gate_pass(stats: WindowStats, cfg: EnhancedConfig) -> np.ndarray:
    """Windows that carry an enhanced reading: correlation gate and valid DC."""
    return corr_pass(stats, cfg) & ~stats.dc_invalid


def estimates_from_stats(stats: WindowStats, calib, algorithm, reject=False, emit=None) -> Spo2Estimates:
    """The readings of every window, or of the ``emit`` windows when given.

    ``dc_invalid`` and ``reject`` (flagged ``corr_rejected``) windows carry no
    value; the others carry the clamped calibration of their ratio.
    """
    suppressed = stats.dc_invalid | reject
    pct, clamped = calibrate(stats.ratio, calib)
    code = stats.dc_invalid + 2 * reject + 4 * (clamped & ~suppressed)
    ratio = np.where(suppressed, np.nan, stats.ratio)
    pct[suppressed] = np.nan
    rows = slice(None) if emit is None else emit
    return Spo2Estimates(stats.t_ms[rows], ratio[rows], pct[rows], code[rows], algorithm)


def baseline_spo2(series, calib: CalibrationCurve, window_len: int = 100, step: int = 1):
    """Ratio of ratios on every complete window, no filtering.

    Windows containing gap markers (or a non-positive DC) are emitted with the
    ``dc_invalid`` flag and no value; degenerate windows are flagged, not fatal.
    """
    stats = window_stats(series, window_len, step)
    return estimates_from_stats(stats, calib, "baseline")


def enhanced_spo2(
    series,
    calib: CalibrationCurve,
    cfg: EnhancedConfig = EnhancedConfig(),
    window_len: int = 100,
    step: int = 1,
):
    """Correlation-gated ratio of ratios.

    Both channels are leveled by least-squares linear detrend; windows whose
    detrended channels correlate below ``cfg.corr_threshold`` are flagged
    ``corr_rejected`` and emit no value. Zero-variance windows have undefined
    correlation and are likewise rejected: a flat trace carries no pulse.
    """
    stats = window_stats(series, window_len, step)
    return estimates_from_stats(stats, calib, "enhanced", reject=~corr_pass(stats, cfg))


def recalibrate(paired, fit_fraction: float = 0.5):
    """Estimate a constant device bias from the leading part of a session.

    ``paired`` is a sequence of ``(reference_pct, device_pct)``. The offset is
    the mean of (reference - device) over the first ``fit_fraction`` of pairs.
    Returns ``(offset, residual_mad)`` where ``residual_mad`` is the mean
    absolute difference between reference and bias-corrected device readings
    over the held-out remainder (NaN when nothing is held out).
    """
    pairs = np.asarray(paired, dtype=float)
    if len(pairs) < 10:
        raise TooFewPairs(f"need >= 10 pairs, got {len(pairs)}")
    if not 0 < fit_fraction <= 1:
        raise ValueError("fit_fraction must lie in (0, 1]")
    n_fit = max(1, int(round(fit_fraction * len(pairs))))
    ref, dev = pairs[:, 0], pairs[:, 1]
    offset = float(np.mean(ref[:n_fit] - dev[:n_fit]))
    if n_fit < len(pairs):
        residual = float(np.mean(np.abs(ref[n_fit:] - (dev[n_fit:] + offset))))
    else:
        residual = float("nan")
    return offset, residual


def apply_offset(calib: CalibrationCurve, offset: float) -> CalibrationCurve:
    """Shift the calibration intercept by a recalibration offset."""
    return CalibrationCurve(y0=calib.y0 + offset, m=calib.m)


def estimates_to_csv(path, est: Spo2Estimates):
    gates = [_GATE_TEXT[c] for c in est.gates.tolist()]
    cols = (est.t_ms.tolist(), [est.algorithm] * len(est), est.ratio_r.tolist(), est.spo2_pct.tolist(), gates)
    write_csv(path, ["t_ms", "algorithm", "ratio_r", "spo2_pct", "gates"], zip(*cols))
