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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TooFewPairs, WindowTooShort
from .signal_io import FrameSeries, blocks

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


def matrix_stats(series: FrameSeries, starts, window_len: int, t_end, has_gap) -> WindowStats:
    """Per-window AC/DC, ratio, and correlation of the windows of
    ``window_len`` samples at ``starts``, which end at ``t_end``.

    A window is ``dc_invalid``, with a NaN ratio, when it holds a gap
    (``has_gap``), when a channel's DC is not positive, or when the infrared
    AC is zero. AC is the RMS of the window, NaN read as 0 and +-inf as the
    largest floats (a channel holding one is scrubbed once), less its
    least-squares line. The slopes are one dgemv per channel: blocks of other
    than a multiple of 8 rows change their bits on one OpenBLAS thread. The
    rest walks ``BLOCK_WINDOWS`` windows at a time; a window's one mean
    centers it and is its DC, unless it holds a non-finite sample (a gap's
    NaN): that DC is the mean of its raw ``FrameSeries.rows``.
    """
    n, w = len(starts), window_len
    if n == 0:  # allocate nothing window-sized: a window may outrun any stream
        empty = np.empty(0)
        return WindowStats(np.asarray(t_end, dtype=np.int64), np.asarray(starts), *[empty] * 6, np.zeros(0, dtype=bool))
    k = np.arange(w, dtype=float)
    k0 = k - k.mean()
    view, slope, raw = {}, {}, {}
    for ch in ("red", "ir"):
        x = series.channel(ch)
        finite = np.isfinite(x)
        scrubbed = x if finite.all() else np.nan_to_num(x)
        view[ch] = sliding_window_view(scrubbed, w) if len(x) >= w else np.empty((0, w))
        slope[ch] = view[ch][starts] @ k0 / np.dot(k0, k0)
        nonfinite_before = np.concatenate(([0], np.cumsum(~finite)))
        raw[ch] = np.flatnonzero(nonfinite_before[starts + w] > nonfinite_before[starts])
    dc = {ch: np.empty(n) for ch in slope}
    sq_sum = {ch: np.empty(n) for ch in slope}
    cross = np.empty(n)
    for b in blocks(n):
        detrended = {}
        for ch in slope:
            x = view[ch][starts[b]]
            dc[ch][b] = x.mean(axis=1)
            x -= dc[ch][b, None]
            x -= slope[ch][b, None] * k0
            detrended[ch] = x
        cross[b] = np.sum(detrended["red"] * detrended["ir"], axis=1)
        for ch, x in detrended.items():
            x *= x
            sq_sum[ch][b] = x.sum(axis=1)
    for ch, rows in raw.items():
        for b in blocks(len(rows)):
            dc[ch][rows[b]] = series.rows(ch, starts[rows[b]], w).mean(axis=1)

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


def enhanced_spo2(series, calib: CalibrationCurve, window_len: int = 100, step: int = 1):
    """Correlation-gated ratio of ratios.

    Both channels are leveled by least-squares linear detrend; windows whose
    detrended channels correlate below ``EnhancedConfig().corr_threshold``
    are flagged ``corr_rejected`` and emit no value. Zero-variance windows
    have undefined correlation and are likewise rejected: a flat trace
    carries no pulse.
    """
    stats = window_stats(series, window_len, step)
    return estimates_from_stats(stats, calib, "enhanced", reject=~corr_pass(stats, EnhancedConfig()))


def recalibrate(paired):
    """Estimate a constant device bias from the first half of a session.

    ``paired`` is a sequence of at least 10 ``(reference_pct, device_pct)``.
    The offset is the mean of (reference - device) over the first half of
    the pairs, ``round(n / 2)`` of them. Returns ``(offset, residual_mad)``
    where ``residual_mad`` is the mean absolute difference between reference
    and bias-corrected device readings over the held-out second half.
    """
    pairs = np.asarray(paired, dtype=float)
    if len(pairs) < 10:
        raise TooFewPairs(f"need >= 10 pairs, got {len(pairs)}")
    n_fit = round(len(pairs) / 2)
    ref, dev = pairs[:, 0], pairs[:, 1]
    offset = float(np.mean(ref[:n_fit] - dev[:n_fit]))
    return offset, float(np.mean(np.abs(ref[n_fit:] - (dev[n_fit:] + offset))))


def apply_offset(calib: CalibrationCurve, offset: float) -> CalibrationCurve:
    """Shift the calibration intercept by a recalibration offset."""
    return CalibrationCurve(y0=calib.y0 + offset, m=calib.m)


def estimates_to_csv(path, est: Spo2Estimates):
    """Write readings as CSV, one row per reading, in the bytes of
    ``csv.writer(lineterminator="\\n")``: the algorithm and gate cells need no
    quoting, and every number is written as its ``repr``, as ``csv`` writes it."""
    alg = est.algorithm
    assert not any(c in cell for cell in (alg, *_GATE_TEXT) for c in ',"\r\n'), f"{alg!r} needs quoting"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t_ms,algorithm,ratio_r,spo2_pct,gates\n")
        for b in blocks(len(est)):
            cells = zip(est.t_ms[b].tolist(), est.ratio_r[b].tolist(), est.spo2_pct[b].tolist(), est.gates[b].tolist())
            fh.write("".join([f"{t!r},{alg},{r!r},{p!r},{_GATE_TEXT[g]}\n" for t, r, p, g in cells]))
