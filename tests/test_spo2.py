import csv
import math
import tracemalloc

import numpy as np
import pytest

from naive_features import naive_pearson
from pulseox import pipeline, signal_io, spo2, synth
from pulseox.errors import TooFewPairs, WindowTooShort
from pulseox.signal_io import FrameSeries, StreamMeta
from pulseox.spo2 import (
    GATE_CLAMPED,
    GATE_CORR_REJECTED,
    CalibrationCurve,
    EnhancedConfig,
)


def sine_series(n=300, dc=1000.0, amp=10.0, flip_red=False):
    k = np.arange(n)
    s = np.sin(2 * np.pi * 5 * k / 100)
    red = dc + (-amp if flip_red else amp) * s
    ir = dc + amp * s
    z = np.zeros(n)
    return FrameSeries(40 * k, red, ir, z, z)


def stats_of_rows(red, ir):
    """``window_stats`` of a stream laid out as the rows of ``red`` and ``ir``
    end to end, one window per row."""
    red, ir = np.atleast_2d(red).astype(float), np.atleast_2d(ir).astype(float)
    z = np.zeros(red.size)
    return spo2.window_stats(FrameSeries(40 * np.arange(red.size), red.ravel(), ir.ravel(), z, z), red.shape[1], red.shape[1])


def one_row(red, ir=None):
    """The statistics of a single window; ``ir`` defaults to a unit-amplitude
    sinusoid at DC 1000. One row keeps the sums exact: the slope's matrix
    product may sum a row differently at another row position."""
    if ir is None:
        ir = 1000.0 + math.sqrt(2) * np.sin(2 * np.pi * 5 * np.arange(len(red)) / len(red))
    return stats_of_rows(red, ir)


class TestExtractAcDc:
    """AC and DC of one channel window, as ``matrix_stats`` computes them."""

    def test_constant(self):
        st = one_row([5.0] * 20)
        assert st.ac_red[0] == 0.0
        assert st.dc_red[0] == 5.0

    def test_ramp(self):
        st = one_row(np.arange(100.0))
        assert st.dc_red[0] == pytest.approx(49.5, abs=1e-12)
        assert st.ac_red[0] == pytest.approx(0.0, abs=1e-9)

    def test_sinusoid(self):
        # integer periods, symmetric about the window center so the
        # least-squares line is exactly zero and only the RMS remains
        x = 10.0 + np.cos(2 * np.pi * 5 * (np.arange(100) - 49.5) / 100)
        st = one_row(x)
        assert st.dc_red[0] == pytest.approx(10.0, abs=1e-12)
        assert st.ac_red[0] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        # direct recomputation of the RMS of the detrended samples
        slope, intercept = np.polyfit(np.arange(100), x, 1)
        resid = x - (slope * np.arange(100) + intercept)
        assert st.ac_red[0] == pytest.approx(math.sqrt(np.mean(resid**2)), abs=1e-12)

    def test_errors(self):
        z = np.zeros(20)
        with pytest.raises(WindowTooShort):
            spo2.window_stats(FrameSeries(40 * np.arange(20), z + 1.0, z + 1.0, z, z), 7)
        st = one_row([-5.0] * 20)
        assert st.dc_invalid[0] and math.isnan(st.ratio[0])


class TestComputeR:
    """The ratio of ratios of one window, as ``matrix_stats`` computes it."""

    def test_identical(self):
        x = 100.0 + 0.5 * math.sqrt(2) * np.sin(2 * np.pi * 3 * np.arange(100) / 100)
        assert one_row(x, x).ratio[0] == 1.0

    def test_two_to_one(self):
        s = np.sin(2 * np.pi * 3 * np.arange(100) / 100)
        assert one_row(100.0 + 2.0 * s, 100.0 + s).ratio[0] == pytest.approx(2.0)

    def test_degenerate_ir(self):
        st = one_row(100.0 + np.sin(np.arange(100.0)), [100.0] * 100)
        assert st.ac_ir[0] == 0.0
        assert st.dc_invalid[0] and math.isnan(st.ratio[0])

    def test_synth_embeds_target_ratio(self):
        # target ratio 0.5 <=> saturation y0 - 0.5 m = 97.5 under defaults
        cfg = synth.SynthConfig(duration_s=8.0, target_spo2_pct=97.5, seed=1)
        frames, truth = synth.gen_ppg(cfg)
        assert np.allclose(truth.implied_r, 0.5)
        stats = spo2.window_stats(frames, 100, 100)
        assert len(stats) == 2
        np.testing.assert_allclose(stats.ratio, 0.5, atol=0.01)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(900, 1100, 100)
            r1 = one_row(x).ratio[0]
            r2 = one_row(3.7 * x).ratio[0]
            assert abs(r2 / r1 - 1.0) <= 1e-9

    def test_offset_covariance(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(900, 1100, 100)
        base = one_row(x)
        shifted = one_row(x + 250.0)
        assert shifted.ac_red[0] == pytest.approx(base.ac_red[0], rel=1e-9)
        assert shifted.dc_red[0] == pytest.approx(base.dc_red[0] + 250.0)
        r1, r2 = base.ratio[0], shifted.ratio[0]
        assert r2 == pytest.approx(r1 * base.dc_red[0] / shifted.dc_red[0], rel=1e-12)


class TestSpo2FromR:
    """The clamped calibration of a ratio, ``spo2.calibrate``."""

    calib = CalibrationCurve(y0=110.0, m=25.0)

    def test_no_clamp(self):
        pct, clamped = spo2.calibrate(0.4, self.calib)
        assert pct == 100.0
        assert not clamped

    def test_clamped(self):
        pct, clamped = spo2.calibrate(0.2, self.calib)
        assert pct == 100.0
        assert clamped

    def test_arithmetic(self):
        pct, clamped = spo2.calibrate(0.56, self.calib)
        assert pct == pytest.approx(96.0)
        assert not clamped

    def test_monotone_nonincreasing(self):
        vals, _ = spo2.calibrate(np.linspace(0.0, 5.0, 200), self.calib)
        assert (np.diff(vals) <= 0).all()


class TestBaseline:
    def test_clean_synth_recovery(self):
        cfg = synth.SynthConfig(duration_s=60.0, target_spo2_pct=97.0, seed=2)
        frames, _ = synth.gen_ppg(cfg)
        est = spo2.baseline_spo2(frames, CalibrationCurve(), step=25)
        assert len(est) > 0
        assert (np.abs(est.spo2_pct - 97.0) <= 0.5).all()

    def test_short_trace_empty(self):
        s = sine_series(n=50)
        assert len(spo2.baseline_spo2(s, CalibrationCurve())) == 0

    def test_step_equals_window(self):
        s = sine_series(n=300)
        assert len(spo2.baseline_spo2(s, CalibrationCurve(), 100, 100)) == 3


class TestEnhanced:
    def test_identical_waveform_kept(self):
        ests = spo2.enhanced_spo2(sine_series(), CalibrationCurve(), step=100)
        assert len(ests) == 3 and ests.valid.all()

    def test_anticorrelated_rejected(self):
        ests = spo2.enhanced_spo2(sine_series(flip_red=True), CalibrationCurve(), step=100)
        assert len(ests) == 3 and ests.flagged(GATE_CORR_REJECTED).all()

    def test_zero_variance_rejected(self):
        z = np.zeros(100)
        s = FrameSeries(40 * np.arange(100), np.full(100, 7.0), np.full(100, 9.0), z, z)
        ests = spo2.enhanced_spo2(s, CalibrationCurve())
        assert len(ests) == 1 and ests.flagged(GATE_CORR_REJECTED).all()

    def test_white_noise_rejection_rate(self):
        # independent channels: |r| > 0.4 at n=100 is vanishingly unlikely
        rng = np.random.default_rng(0)
        red = 1000.0 + rng.standard_normal((1000, 100))
        ir = 1000.0 + rng.standard_normal((1000, 100))
        stats = stats_of_rows(red, ir)
        rejected = ~(stats.corr >= EnhancedConfig().corr_threshold)
        assert rejected.mean() >= 0.95

    def test_subset_of_baseline(self):
        cfg = synth.SynthConfig(
            duration_s=60.0,
            seed=3,
            noise_sigma=0.001,
            artifacts=(synth.ArtifactSegment(20.0, 10.0, "motion", 1.5),),
        )
        frames, _ = synth.gen_ppg(cfg)
        base = spo2.baseline_spo2(frames, CalibrationCurve(), step=10)
        enh = spo2.enhanced_spo2(frames, CalibrationCurve(), step=10)
        base_by_t = dict(zip(base.t_ms[base.valid].tolist(), base.spo2_pct[base.valid].tolist()))
        enh_emitted = list(zip(enh.t_ms[enh.valid].tolist(), enh.spo2_pct[enh.valid].tolist()))
        assert 0 < len(enh_emitted) < len(base_by_t)
        for t, pct in enh_emitted:
            assert t in base_by_t
            assert pct == base_by_t[t]

    def test_pearson_matches_naive(self):
        rng = np.random.default_rng(11)
        red = rng.uniform(900, 1100, (20, 100))
        ir = rng.uniform(900, 1100, (20, 100))
        stats = stats_of_rows(red, ir)
        k = np.arange(100)
        for i in range(20):
            rd = red[i] - np.polyval(np.polyfit(k, red[i], 1), k)
            id_ = ir[i] - np.polyval(np.polyfit(k, ir[i], 1), k)
            assert abs(stats.corr[i] - naive_pearson(list(rd), list(id_))) <= 1e-12


def reference_rows(stats, calib, algorithm, reject, emit):
    """One CSV row per window, cell by cell, as the per-window estimate
    objects wrote them: ``float(...)`` cells and sorted ``|``-joined flags."""
    rows = []
    for i in range(len(stats)):
        if not emit[i]:
            continue
        gates = set()
        if stats.dc_invalid[i]:
            gates.add(spo2.GATE_DC_INVALID)
        if reject[i]:
            gates.add(GATE_CORR_REJECTED)
        if gates:
            ratio = pct = math.nan
        else:
            ratio = float(stats.ratio[i])
            raw = calib.y0 - calib.m * ratio
            pct = raw if math.isnan(raw) else min(100.0, max(0.0, raw))
            if pct != raw and not math.isnan(raw):
                gates.add(GATE_CLAMPED)
        rows.append([int(stats.t_ms[i]), algorithm, float(ratio), float(pct), "|".join(sorted(gates))])
    return rows


class TestEstimatesCsv:
    def stats(self):
        # ok, gapped, rejected, gapped and rejected, clamped at 0, clamped at
        # 100, NaN ratio, ok, rejected and would clamp, ok
        ratio = np.array([0.5, np.nan, 0.6, np.nan, 6.0, 0.1, np.nan, 0.52, 5.0, 0.4])
        corr = np.array([0.9, np.nan, 0.1, np.nan, 0.8, 0.95, 0.7, 0.5, -0.3, 0.41])
        dc_invalid = np.array([0, 1, 0, 1, 0, 0, 0, 0, 0, 0], dtype=bool)
        n = len(ratio)
        ones = np.ones(n)
        return spo2.WindowStats(40 * np.arange(n) + 3960, np.arange(n), ones, ones, ones, ones, ratio, corr, dc_invalid)

    C, D, R = GATE_CLAMPED, spo2.GATE_DC_INVALID, GATE_CORR_REJECTED

    @pytest.mark.parametrize(
        "algorithm, gates",
        [
            ("baseline", ["", D, "", D, C, C, "", "", C, ""]),
            ("enhanced", ["", f"{R}|{D}", R, f"{R}|{D}", C, C, "", "", R, ""]),
            ("pruned", ["", C, C, "", ""]),
        ],
    )
    def test_bytes_match_per_window_rows(self, tmp_path, algorithm, gates):
        stats = self.stats()
        calib = CalibrationCurve()
        cfg = EnhancedConfig()
        every = np.ones(len(stats), dtype=bool)
        reject = np.zeros(len(stats), dtype=bool)
        if algorithm == "baseline":
            emit = every
            est = spo2.estimates_from_stats(stats, calib, algorithm)
        elif algorithm == "enhanced":
            reject, emit = ~spo2.corr_pass(stats, cfg), every
            est = spo2.estimates_from_stats(stats, calib, algorithm, reject=reject)
        else:
            emit = spo2.gate_pass(stats, cfg) & (np.arange(len(stats)) != 7)  # a classifier veto on window 7
            est = spo2.estimates_from_stats(stats, calib, algorithm, emit=emit)
        rows = reference_rows(stats, calib, algorithm, reject, emit)
        assert [r[4] for r in rows] == gates
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["t_ms", "algorithm", "ratio_r", "spo2_pct", "gates"])
            w.writerows(rows)
        out = tmp_path / "out.csv"
        spo2.estimates_to_csv(out, est)
        assert out.read_bytes() == ref.read_bytes()


class TestRecalibrate:
    def test_constant_offset_removed(self):
        ref = np.linspace(95.0, 98.0, 40)
        dev = ref + 1.46
        offset, residual = spo2.recalibrate(list(zip(ref, dev)))
        assert offset == pytest.approx(-1.46, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_identity(self):
        ref = np.linspace(95.0, 98.0, 40)
        offset, _ = spo2.recalibrate(list(zip(ref, ref)))
        assert offset == 0.0

    def test_noisy_offset_concentrates(self):
        rng = np.random.default_rng(4)
        ref = np.full(600, 97.0)
        dev = ref + rng.normal(1.0, 0.1, 600)
        offset, _ = spo2.recalibrate(list(zip(ref, dev)))
        assert abs(-offset - 1.0) <= 0.05

    def test_too_few(self):
        with pytest.raises(TooFewPairs):
            spo2.recalibrate([(97.0, 97.0)] * 9)

    def test_apply_offset(self):
        c = spo2.apply_offset(CalibrationCurve(), -1.46)
        assert c.y0 == pytest.approx(108.54)
        assert c.m == 25.0


STAT_FIELDS = ("t_ms", "start_idx", "dc_red", "dc_ir", "ac_red", "ac_ir", "ratio", "corr", "dc_invalid")


def index_matrix_stats(series, starts, window_len):
    """The window statistics as the (n, w) index-matrix gather computed them:
    every window gathered by ``series.red[idx]``, gaps read as 0 by
    ``np.nan_to_num``, and ``x - mean - slope * k0`` with one whole-matrix
    product for the slopes. The reference for ``spo2.matrix_stats``."""
    idx = starts[:, None] + np.arange(window_len)
    red, ir = series.red[idx], series.ir[idx]
    k = np.arange(window_len, dtype=float)
    k0 = k - k.mean()

    def detrend(x):
        x = np.nan_to_num(x)
        slope = x @ k0 / np.dot(k0, k0)
        return x - x.mean(axis=1)[:, None] - slope[:, None] * k0[None, :]

    red_d, ir_d = detrend(red), detrend(ir)
    dc_red, dc_ir = red.mean(axis=1), ir.mean(axis=1)
    ac_red, ac_ir = np.sqrt(np.mean(red_d**2, axis=1)), np.sqrt(np.mean(ir_d**2, axis=1))
    has_gap = series.gap[idx].any(axis=1)
    bad = has_gap | ~(dc_red > 0) | ~(dc_ir > 0) | (ac_ir == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (ac_red / dc_red) / (ac_ir / dc_ir)
        denom = np.sqrt(np.sum(red_d**2, axis=1) * np.sum(ir_d**2, axis=1))
        corr = np.sum(red_d * ir_d, axis=1) / denom
    ratio[bad] = np.nan
    corr[denom == 0] = np.nan
    corr[has_gap] = np.nan
    t_ms = series.t_ms[starts + window_len - 1]
    return dict(t_ms=t_ms, start_idx=starts, dc_red=dc_red, dc_ir=dc_ir, ac_red=ac_red, ac_ir=ac_ir,
                ratio=ratio, corr=corr, dc_invalid=bad)


class TestStatsFromStarts:
    """``matrix_stats`` reads windows from their starts and walks them in
    blocks of ``BLOCK_WINDOWS``, with the bits of the index-matrix gather."""

    @pytest.fixture(scope="class")
    def stream(self):
        # the synthetic DC (5e4 red, 6e4 ir), contact loss that flattens both
        # optical channels to 0, and dropped samples that become gap slots
        arts = (
            synth.ArtifactSegment(20.0, 6.0, "contact_loss"),
            synth.ArtifactSegment(45.0, 8.0, "motion", 1.5),
            synth.ArtifactSegment(70.0, 5.0, "ambient_spike", 1.5),
        )
        frames, _ = synth.gen_ppg(synth.SynthConfig(duration_s=90.0, noise_sigma=0.001, seed=4, artifacts=arts))
        keep = np.ones(len(frames), dtype=bool)
        keep[[300, 1000, 1001, 1900]] = False
        cols = (frames.t_ms, frames.red, frames.ir, frames.accel_mag, frames.gyro_mag)
        series = signal_io.regularize(FrameSeries(*(c[keep] for c in cols)), StreamMeta())
        assert series.gap.sum() == 4 and np.nanmean(series.red) > 4e4
        return series

    @pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "all"])
    @pytest.mark.parametrize("step", [1, 3])
    def test_bit_identical_to_index_matrix_gather(self, stream, monkeypatch, block, step):
        starts = np.arange(0, len(stream) - 99, step)
        monkeypatch.setattr(signal_io, "BLOCK_WINDOWS", block or len(starts))
        everything = spo2.window_stats(stream, 100, step)
        want = index_matrix_stats(stream, starts, 100)
        gapped = want["dc_invalid"] & np.isnan(want["dc_red"])
        flat = want["dc_invalid"] & (want["dc_red"] == 0)
        assert gapped.any() and flat.any() and not want["dc_invalid"].all()
        gap_free = pipeline._gap_free_stats(stream, 100, step)
        want_gap_free = index_matrix_stats(stream, starts[~gapped], 100)
        for name in STAT_FIELDS:
            assert getattr(everything, name).tobytes() == np.asarray(want[name]).tobytes(), name
            assert getattr(gap_free, name).tobytes() == np.asarray(want_gap_free[name]).tobytes(), name

    def test_working_memory_is_one_slope_matrix(self):
        """Between 4 and 16 blocks of windows, the traced peak of the
        statistics grows by one channel's (n, w) slope matrix and a few
        vectors per window, not by the matrices of every step."""
        rng = np.random.default_rng(3)
        w = 100
        peaks = []
        for n_blocks in (4, 16):
            n = n_blocks * signal_io.BLOCK_WINDOWS + w - 1
            z = np.zeros(n)
            series = FrameSeries(40 * np.arange(n), rng.uniform(5.0e4, 5.1e4, n), rng.uniform(6.0e4, 6.1e4, n), z, z)
            tracemalloc.start()
            try:
                spo2.window_stats(series, w, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        more_windows = 12 * signal_io.BLOCK_WINDOWS
        assert peaks[1] - peaks[0] <= more_windows * (w + 16) * 8, (peaks, more_windows * w * 8)
