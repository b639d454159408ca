"""Property tests of the stream parser, the windowing core, the clamped
calibration, the Mann-Whitney midranks and the presorted split search."""

import csv
import math
import pathlib
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pulseox import features, gbdt, pipeline, signal_io, spo2
from pulseox.errors import MalformedHeader, NonMonotonicBeyondTolerance
from pulseox.signal_io import FrameSeries


def row_by_row_parse(path, kind):
    """The parser that validates, sorts and de-duplicates one Python row at a
    time and takes each motion magnitude with ``math.sqrt``: the reference
    for the columnar :func:`signal_io.parse_stream`."""
    expected = signal_io.WRIST_HEADER if kind == "wrist" else signal_io.FINGERTIP_HEADER
    rows = []
    dropped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedHeader(f"{path}: empty file")
        if [h.strip() for h in header] != expected:
            raise MalformedHeader(f"{path}: expected header {expected}, got {header}")
        for raw in reader:
            if len(raw) != len(expected):
                dropped += 1
                continue
            try:
                t = int(raw[0])
                vals = [float(v) for v in raw[1:]]
            except ValueError:
                dropped += 1
                continue
            if vals[0] < 0 or vals[1] < 0 or not all(math.isfinite(v) for v in vals):
                dropped += 1
                continue
            rows.append((t, vals))

    out_of_order = sum(1 for a, b in zip(rows, rows[1:]) if b[0] < a[0])
    if rows and out_of_order > signal_io.ORDER_TOLERANCE * len(rows):
        raise NonMonotonicBeyondTolerance(f"{path}: {out_of_order}/{len(rows)} rows out of order")

    records = []
    for i in sorted(range(len(rows)), key=lambda i: (rows[i][0], i)):
        t, vals = rows[i]
        rec = (t, *vals) if kind == "wrist" else (t, *vals, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        if records and records[-1][0] == t:
            records[-1] = rec
        else:
            records.append(rec)

    n = len(records)
    t = np.fromiter((r[0] for r in records), dtype=np.int64, count=n)
    red = np.fromiter((r[1] for r in records), dtype=float, count=n)
    ir = np.fromiter((r[2] for r in records), dtype=float, count=n)
    acc = np.fromiter((math.sqrt(r[3] * r[3] + r[4] * r[4] + r[5] * r[5]) for r in records), dtype=float, count=n)
    gyr = np.fromiter((math.sqrt(r[6] * r[6] + r[7] * r[7] + r[8] * r[8]) for r in records), dtype=float, count=n)
    meta = signal_io.load_meta(path, default_site="fingertip" if kind == "fingertip" else "wrist_top")
    return FrameSeries(t, red, ir, acc, gyr), meta, dropped


BAD_CELLS = ["x", "", "nan", "inf", "-inf", "1e400", "-5.0"]


@st.composite
def messy_stream_files(draw):
    """A wrist or fingertip capture with malformed rows, negative and
    non-finite values, padded and duplicate timestamps, and disorder below
    and above the 1% tolerance."""
    kind = draw(st.sampled_from(["wrist", "fingertip"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(0, 300))
    p_bad = draw(st.sampled_from([0.0, 0.02, 0.2]))
    n_cols = len(signal_io.WRIST_HEADER if kind == "wrist" else signal_io.FINGERTIP_HEADER)
    t = 40 * np.arange(n) + rng.integers(-8, 9, n)
    dup = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    t[1:][dup[1:]] = t[:-1][dup[1:]]
    for _ in range(rng.poisson(1.0)):  # an adjacent swap, or a late repeat of an earlier timestamp
        if n > 5:
            i = int(rng.integers(5, n))
            if rng.random() < 0.5:
                t[[i - 1, i]] = t[[i, i - 1]]
            else:
                t[i] = t[i - int(rng.integers(2, 6))]
    lines = [",".join(signal_io.WRIST_HEADER if kind == "wrist" else signal_io.FINGERTIP_HEADER)]
    if draw(st.booleans()):
        lines[0] = lines[0].replace(",", ", ")
    for i in range(n):
        cells = [str(t[i])] + [repr(float(v)) for v in rng.normal(3e4, 2e4, n_cols - 1)]
        if kind == "wrist":
            cells[3:] = [repr(float(v)) for v in rng.normal(0.0, 2.0, 6)]
        if rng.random() < p_bad:
            what = rng.integers(4)
            if what == 0:
                cells = cells[:-1] if rng.random() < 0.5 else cells + ["0"]
            elif what == 1:
                cells[int(rng.integers(n_cols))] = BAD_CELLS[int(rng.integers(len(BAD_CELLS)))]
            elif what == 2:
                cells[0] = f" {cells[0]} " if rng.random() < 0.5 else cells[0] + ".0"
            else:
                cells[1 + int(rng.integers(2))] = "-0.0" if rng.random() < 0.3 else "-1.5"
        lines.append(",".join(cells))
    if rng.random() < 0.05:
        lines[0] = "time,red,ir"
    return kind, "\n".join(lines) + "\n"


def parse_outcome(parse, path, kind):
    try:
        return parse(path, kind)
    except Exception as e:  # the outcome under test is the exception type
        return type(e)


@settings(deadline=None, max_examples=200)
@given(messy_stream_files())
def test_columnar_parse_matches_row_by_row_parse(case):
    kind, text = case
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "s.csv"
        path.write_text(text, encoding="utf-8")
        got = parse_outcome(signal_io.parse_stream, path, kind)
        want = parse_outcome(row_by_row_parse, path, kind)
    if isinstance(want, type) or isinstance(got, type):
        assert got == want
        return
    (frames, meta, dropped), (ref, ref_meta, ref_dropped) = got, want
    assert (meta, dropped) == (ref_meta, ref_dropped)
    for name in ("t_ms", "red", "ir", "accel_mag", "gyro_mag", "gap"):
        a, b = getattr(frames, name), getattr(ref, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


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
@given(
    st.lists(st.booleans(), max_size=200),
    st.integers(1, 60),
    st.integers(1, 16),
)
def test_windows_from_starts_match_the_index_matrix(gap, window_len, step):
    """``has_gap`` from the prefix sum of gaps, and the windows ``rows``
    gathers, equal what an (n, w) index matrix reads."""
    n = len(gap)
    k = np.arange(n, dtype=float)
    series = FrameSeries(40 * np.arange(n), 1000.0 + k, 2000.0 - k, k % 7, k % 3, gap)
    starts, t_end, has_gap = series.windows(window_len, step)
    idx = starts[:, None] + np.arange(window_len)
    np.testing.assert_array_equal(has_gap, series.gap[idx].any(axis=1))
    np.testing.assert_array_equal(t_end, series.t_ms[idx[:, -1]] if len(idx) else [])
    for name in features.CHANNELS:
        got = series.rows(name, starts, window_len)
        assert got.shape == idx.shape and got.flags.c_contiguous
        np.testing.assert_array_equal(got, series.channel(name)[idx])


@settings(deadline=None)
@given(gapped_streams())
def test_gap_free_stats_are_the_gap_free_part_of_window_stats(case):
    series, window_len, step = case
    stats = spo2.window_stats(series, window_len, step)
    gap_free = pipeline._gap_free_stats(series, window_len, step)

    starts = np.arange(0, max(len(series) - window_len + 1, 0), step)
    np.testing.assert_array_equal(stats.start_idx, starts)
    np.testing.assert_array_equal(stats.t_ms, series.t_ms[starts + window_len - 1])
    gapped = np.array([series.gap[s : s + window_len].any() for s in starts], dtype=bool)
    np.testing.assert_array_equal(stats.dc_invalid, gapped)

    np.testing.assert_array_equal(gap_free.start_idx, stats.start_idx[~gapped])
    np.testing.assert_array_equal(gap_free.t_ms, stats.t_ms[~gapped])


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


def loop_midranks(pooled):
    """Midranks by a Python walk over the runs of equal sorted values: the
    reference for the ``scipy.stats.rankdata`` ranks of the Mann-Whitney test."""
    order = np.argsort(pooled, kind="mergesort")
    ranks = np.empty(len(pooled))
    sorted_vals = pooled[order]
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@st.composite
def tied_samples(draw):
    """A feature column drawn from at most four values, so most entries tie,
    with binary labels of both classes; sizes span the exact test (n <= 12)
    and the normal approximation."""
    n = draw(st.integers(2, 40))
    levels = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
    x = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda v: 0 < sum(v) < len(v)))
    return np.array(x), np.array(y)


@settings(deadline=None, max_examples=300)
@given(tied_samples())
def test_mann_whitney_midranks_match_the_loop(case):
    x, y = case
    np.testing.assert_array_equal(features._spstats.rankdata(x, method="average"), loop_midranks(x))
    with mock.patch.object(features._spstats, "rankdata", lambda v, method: loop_midranks(v)):
        want = features.mann_whitney_p(x, y)
    assert features.mann_whitney_p(x, y) == want


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


#: Largest sample value drawn: a 24-bit ADC count. The catalog is finite on
#: physical signals only; near 1e300 ``abs_energy`` (a sum of squares) already
#: overflows to inf, so the bound is the sensor's range, not a float limit.
ADC_MAX = float(2**24)
WINDOW_SHAPES = ("zero", "constant", "contact_loss", "random")


@st.composite
def shaped_windows(draw):
    """``(series, w)``: back-to-back windows of ``w`` samples of a
    four-channel stream, each channel of each window zero, constant, random
    with a drop to 0 inside (contact loss), or random in [0, ADC_MAX]."""
    w = draw(st.integers(8, 120))
    n = draw(st.integers(1, 4))
    value = st.floats(0.0, ADC_MAX)
    channels = []
    for _ in features.CHANNELS:
        rows = []
        for _ in range(n):
            shape = draw(st.sampled_from(WINDOW_SHAPES))
            if shape == "zero":
                x = np.zeros(w)
            elif shape == "constant":
                x = np.full(w, draw(value))
            else:
                x = np.array(draw(st.lists(value, min_size=w, max_size=w)))
            if shape == "contact_loss":
                a = draw(st.integers(1, w - 1))
                b = draw(st.integers(a + 1, w))
                x[a:b] = 0.0
            rows.append(x)
        channels.append(np.concatenate(rows))
    return FrameSeries(40 * np.arange(n * w), *channels), w


@settings(deadline=None, max_examples=300)
@given(shaped_windows())
def test_every_catalog_feature_is_finite_on_degenerate_and_physical_windows(case):
    series, w = case
    starts, _, _ = series.windows(w, w)
    X = features.extract_matrix(series, starts, w, features.build_catalog())
    assert X.shape == (len(starts), 72)
    assert np.isfinite(X).all(), [s.spec_id for s, ok in zip(features.build_catalog(), np.isfinite(X).all(axis=0)) if not ok]
