"""Property tests of the windowing core, the clamped calibration and the
presorted split search."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pulseox import features, gbdt, spo2
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


def per_node_sort_split(X, g, h, params, row_idx):
    """The split search that sorts every feature again at each node, with the
    soft threshold written out case by case: the reference for the presorted
    search."""
    def score(G, H):
        a = params.reg_alpha
        t = np.where(G > a, G - a, np.where(G < -a, G + a, 0.0))
        return t * t / (H + params.reg_lambda)

    gs, hs = g[row_idx], h[row_idx]
    G, H = gs.sum(), hs.sum()
    parent = float(score(G, H))
    best = None
    for f in range(X.shape[1]):
        vals = X[row_idx, f]
        order = np.argsort(vals, kind="mergesort")
        v = vals[order]
        GL = np.cumsum(gs[order])[:-1]
        HL = np.cumsum(hs[order])[:-1]
        valid = (v[:-1] < v[1:]) & (HL >= params.min_child_weight) & (H - HL >= params.min_child_weight)
        if not valid.any():
            continue
        gain = 0.5 * (score(GL, HL) + score(G - GL, H - HL) - parent)
        gain[~valid] = -np.inf
        k = int(np.argmax(gain))
        if gain[k] > 0 and (best is None or gain[k] > best[0]):
            best = (float(gain[k]), f, float((v[k] + v[k + 1]) / 2.0))
    return None if best is None else (best[1], best[2], best[0])


@st.composite
def split_problems(draw):
    n = draw(st.integers(1, 60))
    n_features = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        X = rng.integers(0, draw(st.integers(1, 6)), (n, n_features)).astype(float)  # many ties
    else:
        X = rng.normal(0.0, 1.0, (n, n_features))
    g = rng.uniform(-1.0, 1.0, n)
    h = rng.uniform(1e-3, 0.25, n)
    rows = np.flatnonzero(rng.random(n) < draw(st.floats(0.2, 1.0)))
    if len(rows) == 0:
        rows = np.array([int(rng.integers(n))])
    params = gbdt.GbdtParams(
        min_child_weight=draw(st.sampled_from([0.0, 0.1, 0.5, 2.0])),
        reg_alpha=draw(st.sampled_from([0.0, 0.05, 0.3])),
        reg_lambda=draw(st.sampled_from([0.0, 1.0])),
    )
    return X, g, h, params, rows


@settings(deadline=None, max_examples=300)
@given(split_problems())
def test_presorted_split_search_matches_per_node_sort(problem):
    X, g, h, params, rows = problem
    assert gbdt.best_split(X, g, h, params, rows) == per_node_sort_split(X, g, h, params, rows)
