"""Property tests of the windowing core and the clamped calibration."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pulseox import features, spo2
from pulseox.signal_io import FrameSeries


@st.composite
def gapped_streams(draw):
    n = draw(st.integers(0, 160))
    window_len = draw(st.integers(8, 48))
    step = draw(st.integers(1, 16))
    gaps = sorted(draw(st.sets(st.integers(0, n - 1), max_size=6))) if n else []
    k = np.arange(n)
    # nonlinear in every window, so a gap is the only reason for dc_invalid
    red = 1000.0 + 20.0 * np.sin(0.9 * k)
    ir = 1200.0 + 15.0 * np.sin(0.7 * k + 0.3)
    gap = np.zeros(n, dtype=bool)
    gap[gaps] = True
    red[gap] = ir[gap] = np.nan
    z = np.zeros(n)
    return FrameSeries(40 * k + 7, red, ir, z, z, gap), window_len, step


@settings(deadline=None)
@given(gapped_streams())
def test_window_stream_is_the_gap_free_part_of_window_stats(case):
    series, window_len, step = case
    stats = spo2.window_stats(series, window_len, step)
    ws = features.window_stream(series, features.WindowConfig(window_len, step))

    starts = np.arange(0, max(len(series) - window_len + 1, 0), step)
    np.testing.assert_array_equal(stats.start_idx, starts)
    np.testing.assert_array_equal(stats.t_ms, series.t_ms[starts + window_len - 1])
    gapped = np.array([series.gap[s : s + window_len].any() for s in starts], dtype=bool)
    np.testing.assert_array_equal(stats.dc_invalid, gapped)

    np.testing.assert_array_equal(ws.start_idx, stats.start_idx[~gapped])
    np.testing.assert_array_equal(ws.t_ms, stats.t_ms[~gapped])
    for c in features.CHANNELS:
        assert ws.channels[c].shape == (len(ws), window_len)


@settings(deadline=None)
@given(
    st.lists(st.floats(-10.0, 10.0), max_size=20),
    st.floats(50.0, 150.0),
    st.floats(0.1, 100.0),
)
def test_calibrate_is_the_scalar_clamp(ratios, y0, m):
    pct, clamped = spo2.calibrate(np.array(ratios, dtype=float), spo2.CalibrationCurve(y0, m))
    for r, p, c in zip(ratios, pct.tolist(), clamped.tolist()):
        raw = y0 - m * r
        expected = min(100.0, max(0.0, raw))
        assert p == expected
        assert c == (expected != raw)
