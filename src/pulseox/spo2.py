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
from .signal_io import FrameSeries, write_csv

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


def _detrend(x: np.ndarray) -> np.ndarray:
    """Remove the least-squares line from each row of a (n, w) matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    w = x.shape[1]
    k = np.arange(w, dtype=float)
    k0 = k - k.mean()
    denom = np.dot(k0, k0)
    # BLAS dgemv: its sums vary with the BLAS thread count (ratio/corr by <= 1.1e-16 at 1 vs 2 threads).
    slope = x @ k0 / denom
    mean = x.mean(axis=1)
    return x - mean[:, None] - slope[:, None] * k0[None, :]


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


def matrix_stats(red, ir, t_ms, start_idx=None, has_gap=None) -> WindowStats:
    """Per-window AC/DC, ratio, and correlation from (n, w) channel matrices,
    one window per row.

    A window is ``dc_invalid``, with a NaN ratio, when it holds a gap, when a
    channel's DC is not positive, or when the infrared AC is zero.
    """
    red = np.atleast_2d(np.asarray(red, dtype=float))
    ir = np.atleast_2d(np.asarray(ir, dtype=float))
    if start_idx is None:
        start_idx = np.arange(len(red))
    if has_gap is None:
        has_gap = np.isnan(red).any(axis=1) | np.isnan(ir).any(axis=1)

    dc_red = red.mean(axis=1)
    dc_ir = ir.mean(axis=1)
    red_d = _detrend(np.nan_to_num(red))
    ir_d = _detrend(np.nan_to_num(ir))
    ac_red = np.sqrt(np.mean(red_d**2, axis=1))
    ac_ir = np.sqrt(np.mean(ir_d**2, axis=1))

    bad = has_gap | ~(dc_red > 0) | ~(dc_ir > 0) | (ac_ir == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (ac_red / dc_red) / (ac_ir / dc_ir)
        denom = np.sqrt(np.sum(red_d**2, axis=1) * np.sum(ir_d**2, axis=1))
        corr = np.sum(red_d * ir_d, axis=1) / denom
    ratio[bad] = np.nan
    corr[denom == 0] = np.nan
    corr[has_gap] = np.nan

    return WindowStats(
        t_ms=np.asarray(t_ms, dtype=np.int64),
        start_idx=np.asarray(start_idx),
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
    starts, idx, t_end, has_gap = series.windows(window_len, step)
    return matrix_stats(series.red[idx], series.ir[idx], t_end, start_idx=starts, has_gap=has_gap)


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
