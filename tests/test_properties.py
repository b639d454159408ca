"""Property tests of the stream parser, the windowing core, the clamped
calibration, the Mann-Whitney midranks, the presorted split search, the leaf
weight, the model file, the logit bounds and the timestamp regularizer."""

import csv
import math
import pathlib
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulseox import features, gbdt, pipeline, signal_io, spo2
from pulseox.errors import CorruptFile, EmptyStream, MalformedHeader, NonMonotonicBeyondTolerance
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
                if not -(2**63) <= t < 2**63 or vals[0] < 0 or vals[1] < 0 or not all(math.isfinite(v) for v in vals):
                    dropped += 1
                    continue
                rows.append((t, vals))
        except csv.Error as e:
            raise CorruptFile(f"{path}: line {reader.line_num}: {e}") from e

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

#: Cells that ``np.loadtxt`` and Python's ``int``/``float``/``csv`` might read
#: apart: signs, padding, underscores, Unicode digits and spaces, quotes,
#: comment marks, NaN spellings, float-shaped and out-of-int64 timestamps.
#: ``np.loadtxt`` reads ``1\u01fe`` as the integer 472 and skips ``\x1c``
#: around a number; ``int`` rejects both.
HOSTILE_T = [
    "+5", "007", "5.0", "1e3", str(2**63), str(-(2**63) - 1), str(2**63 - 1), str(-(2**63)),
    "1_000", "\u0663", "1\u01fe", "\xa09", "\t12\t", '"15"', "#3", "", " -0 ", "\x1c7",
]
HOSTILE_VALUES = [
    "NaN", "-Infinity", "+5", "007", "1_000.5", "\u0661\u0662", "\xa05.5", "\t6\t", '"7.5"', '"1,5"',
    '"2\n5"', "", "1e3", "5.0", "#1", "\x1c8", "-0.0", "5e-324", "1e16", "1e22",
]
#: Whole lines between the rows: blank, a comment, spaces.
HOSTILE_LINES = ["", "", "# note", "  "]


@st.composite
def messy_stream_files(draw):
    """A wrist or fingertip capture with malformed rows, negative and
    non-finite values, padded and duplicate timestamps, disorder below and
    above the 1% tolerance, hostile cells and lines, trailing commas, and
    LF, CRLF or lone-CR line endings; sometimes only a header, and sometimes
    one hostile cell or line in an otherwise clean file."""
    kind = draw(st.sampled_from(["wrist", "fingertip"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(0, 300)) if rng.random() > 0.05 else 0
    one_hostile = draw(st.booleans())
    p_bad = 0.0 if one_hostile else draw(st.sampled_from([0.0, 0.02, 0.2]))
    p_hostile = 0.0 if one_hostile else draw(st.sampled_from([0.0, 0.01, 0.1]))
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
        if rng.random() < p_hostile:
            j = int(rng.integers(len(cells)))
            pool = HOSTILE_VALUES if j else HOSTILE_T
            cells[j] = pool[int(rng.integers(len(pool)))]
        lines.append(",".join(cells) + ("," if rng.random() < p_hostile / 4 else ""))
        if rng.random() < p_hostile / 2:
            lines.append(HOSTILE_LINES[int(rng.integers(len(HOSTILE_LINES)))])
    if one_hostile and n:
        i = 1 + int(rng.integers(n))
        cells = lines[i].split(",")
        j = int(rng.integers(n_cols))
        cells[j] = draw(st.sampled_from(HOSTILE_VALUES if j else HOSTILE_T))
        lines[i] = ",".join(cells)
        if draw(st.booleans()):  # or a hostile line, or a trailing comma, instead
            lines[i] = draw(st.sampled_from(HOSTILE_LINES + [lines[i - 1] + ","]))
    if rng.random() < 0.05:
        lines[0] = "time,red,ir"
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    trailing_blank = end if rng.random() < p_hostile * 2 else ""
    return kind, end.join(lines) + end + trailing_blank


def parse_outcome(parse, path, kind):
    try:
        return parse(path, kind)
    except Exception as e:  # the outcome under test is the exception type
        return type(e)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@settings(deadline=None, max_examples=300)
@given(messy_stream_files())
def test_columnar_parse_matches_row_by_row_parse(case):
    """``parse_stream`` equals the row-by-row reference on every file, and
    whenever its ``np.loadtxt`` pass returns rows, they are the ``csv`` loop's
    to the bit."""
    kind, text = case
    expected = signal_io.WRIST_HEADER if kind == "wrist" else signal_io.FINGERTIP_HEADER
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "s.csv"
        path.write_bytes(text.encode("utf-8"))
        got = parse_outcome(signal_io.parse_stream, path, kind)
        want = parse_outcome(row_by_row_parse, path, kind)
        fast = signal_io._columns(text, expected)
        if fast is not None:
            t, values, dropped = signal_io._rows(text, expected, path)
            assert fast[2] == dropped
            assert_same_bits(fast[0], t)
            assert_same_bits(fast[1], values)
    if isinstance(want, type) or isinstance(got, type):
        assert got == want
        return
    (frames, meta, dropped), (ref, ref_meta, ref_dropped) = got, want
    assert (meta, dropped) == (ref_meta, ref_dropped)
    for name in ("t_ms", "red", "ir", "accel_mag", "gyro_mag", "gap"):
        assert_same_bits(getattr(frames, name), getattr(ref, name))


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
    gap_free = pipeline._gap_free_stats(series, window_len)

    starts = np.arange(0, max(len(series) - window_len + 1, 0), step)
    np.testing.assert_array_equal(stats.start_idx, starts)
    np.testing.assert_array_equal(stats.t_ms, series.t_ms[starts + window_len - 1])
    gapped = np.array([series.gap[s : s + window_len].any() for s in starts], dtype=bool)
    np.testing.assert_array_equal(stats.dc_invalid, gapped)

    # the gap-free windows at ``step`` are the step-1 ones that start at a multiple of it
    on_step = gap_free.start_idx % step == 0
    np.testing.assert_array_equal(gap_free.start_idx[on_step], stats.start_idx[~gapped])
    np.testing.assert_array_equal(gap_free.t_ms[on_step], stats.t_ms[~gapped])


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
    """Midranks by a Python walk over the runs of equal sorted values: a
    reference for the numpy midranks of the Mann-Whitney test."""
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
    from scipy.stats import rankdata

    x, y = case
    ranks, ties = features._midranks(x)
    np.testing.assert_array_equal(ranks, loop_midranks(x))
    np.testing.assert_array_equal(ranks, rankdata(x, method="average"))
    np.testing.assert_array_equal(ties, np.unique(x, return_counts=True)[1])
    with mock.patch.object(features, "_midranks", lambda v: (loop_midranks(v), np.unique(v, return_counts=True)[1])):
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
    order = gbdt._restrict(gbdt._presort(X), rows, len(X))  # as ``train`` passes it
    assert gbdt.best_split(X, g, h, params, rows, order) == per_node_sort_split(X, g, h, params, rows)


def case_by_case_soft_threshold(g, alpha):
    """The soft threshold written out case by case: the reference for the
    clip identity of ``leaf_weight``."""
    if g > alpha:
        return g - alpha
    if g < -alpha:
        return g + alpha
    return 0.0


@st.composite
def leaf_sums(draw):
    """``(G, H, params)``: a gradient sum (a float, as ``_build_tree`` passes
    it) anywhere in the finite floats, at a signed zero or at +-alpha, with a
    hessian sum and the penalties; a JSON config may give alpha as an
    integer."""
    alpha = draw(st.floats(0.0, 1e6) | st.integers(0, 3) | st.sampled_from([0.0, 0.3]))
    G = draw(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([float(alpha), -float(alpha), 0.0, -0.0]))
    H = draw(st.floats(1e-3, 1e3))
    return G, H, gbdt.GbdtParams(reg_alpha=alpha, reg_lambda=draw(st.sampled_from([0.0, 1.0])))


@settings(deadline=None, max_examples=1000)
@given(leaf_sums())
def test_leaf_weight_is_the_case_by_case_soft_threshold_bit_for_bit(case):
    G, H, params = case
    want = -case_by_case_soft_threshold(G, params.reg_alpha) / (H + params.reg_lambda)
    assert struct.pack("<d", gbdt.leaf_weight(G, H, params)) == struct.pack("<d", want)


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


FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def model_trees(draw, n_features, max_depth=4, leaf=FINITE):
    """One tree as a preorder node list: each split names its children, which
    come after it; depth at most ``max_depth``."""
    nodes = []

    def grow(depth):
        if depth == max_depth or draw(st.booleans()):
            nodes.append({"leaf": draw(leaf)})
            return
        node = {
            "default": draw(st.sampled_from(["left", "right"])),
            "feature": draw(st.integers(0, n_features - 1)),
            "threshold": draw(FINITE),
        }
        nodes.append(node)
        node["left"] = len(nodes)
        grow(depth + 1)
        node["right"] = len(nodes)
        grow(depth + 1)

    grow(0)
    return nodes


@st.composite
def models(draw):
    """A model over the first catalog entries, with rows to predict whose
    values sit on the thresholds, off them and at NaN."""
    catalog = features.build_catalog()[: draw(st.integers(1, 6))]
    trees = draw(st.lists(model_trees(len(catalog)), max_size=5))
    model = gbdt.GbdtModel(trees, draw(FINITE), gbdt.GbdtParams(), catalog)
    thresholds = [n["threshold"] for t in trees for n in t if "threshold" in n]
    value = st.sampled_from(thresholds) | FINITE | st.just(math.nan) if thresholds else FINITE | st.just(math.nan)
    X = np.array(draw(st.lists(st.lists(value, min_size=len(catalog), max_size=len(catalog)), min_size=1, max_size=8)))
    return model, X


@st.composite
def open_column_cases(draw):
    """A model of trees of depth at most 3 with leaves up to 1e3, a set of
    open columns, rows ``X``, the same rows with every open column redrawn
    (a value or NaN), and a decision threshold: one of [0, 1], an edge of
    it, or a row's exact probability or one of its float neighbours."""
    catalog = features.build_catalog()[: draw(st.integers(1, 5))]
    trees = draw(st.lists(model_trees(len(catalog), 3, st.floats(-1e3, 1e3)), min_size=1, max_size=6))
    model = gbdt.GbdtModel(trees, draw(st.floats(-50, 50)), gbdt.GbdtParams(), catalog)
    open_cols = frozenset(draw(st.sets(st.integers(0, len(catalog) - 1))))
    thresholds = [n["threshold"] for t in trees for n in t if "threshold" in n]
    value = (st.sampled_from(thresholds) if thresholds else FINITE) | FINITE | st.just(math.nan)
    X = np.array(draw(st.lists(st.lists(value, min_size=len(catalog), max_size=len(catalog)), min_size=1, max_size=8)))
    X2 = X.copy()
    for j in open_cols:
        X2[:, j] = draw(st.lists(value, min_size=len(X), max_size=len(X)))
    p = model.predict_proba_batch(X2)[draw(st.integers(0, len(X) - 1))]
    exact = st.sampled_from([p, math.nextafter(p, 0.0), math.nextafter(p, 1.0)])
    q = draw(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0, 5e-324, 1 - 2**-53]) | exact)
    return model, open_cols, X, X2, q


@settings(deadline=None, max_examples=300)
@given(open_column_cases())
def test_logit_bounds_hold_the_logit_and_decide_as_the_prediction(case):
    """The bounds hold the logit of every row that agrees with ``X`` off the
    open columns, bit for bit, and a row that ``decide`` settles emits as its
    prediction does; with no open column the bounds are the logits."""
    model, open_cols, X, X2, q = case
    bounds = model.logit_bounds(X, open_cols)
    lo, hi = bounds[0], bounds[-1]
    for rows in (X, X2):
        z = model.predict_logit_batch(rows)
        assert (lo <= z).all() and (z <= hi).all()
    np.testing.assert_array_equal(model.logit_bounds(X2)[0], model.predict_logit_batch(X2))
    positive, negative = model.decide(X, q, open_cols)
    emit = model.predict_proba_batch(X2) >= q
    assert not (positive & negative).any()
    assert emit[positive].all() and not emit[negative].any()


def saved_and_loaded(model):
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "model.json"
        gbdt.save(model, path)
        return gbdt.load(path)


@settings(deadline=None)
@given(models())
def test_model_save_load_round_trips_trees_and_predictions(case):
    model, X = case
    loaded = saved_and_loaded(model)
    assert loaded.trees == model.trees
    assert loaded.base_logit == model.base_logit
    assert loaded.feature_catalog == model.feature_catalog
    np.testing.assert_array_equal(loaded.predict_logit_batch(X), model.predict_logit_batch(X))


@settings(deadline=None)
@given(models(), st.data())
def test_model_child_pointing_backward_or_out_of_range_is_corrupt(case, data):
    model, _ = case
    splits = [(t, i) for t, tree in enumerate(model.trees) for i, n in enumerate(tree) if "leaf" not in n]
    if not splits:
        return
    t, i = data.draw(st.sampled_from(splits))
    tree = model.trees[t]
    side = data.draw(st.sampled_from(["left", "right"]))
    tree[i][side] = data.draw(st.integers(-3, i) | st.integers(len(tree), len(tree) + 3))
    with pytest.raises(CorruptFile):
        saved_and_loaded(model)


PERIODS_MS = (10.0, 20.0, 40.0, 80.0)  # 100, 50, 25 and 12.5 Hz, each an exact number of ms


@st.composite
def jittered_streams(draw):
    """``(series, rate)``: a stream sampled near ``rate`` whose steps are
    jittered, repeated (duplicate timestamps) or several periods long (gaps),
    with some rows already marked as gaps; every row's values are unique."""
    period = draw(st.sampled_from(PERIODS_MS))
    step = st.integers(int(0.6 * period), int(1.4 * period)) | st.just(0) | st.integers(2 * int(period), 6 * int(period))
    steps = draw(st.lists(step, min_size=1, max_size=80))
    t = draw(st.integers(0, 10_000)) + np.concatenate(([0], np.cumsum(steps)))
    k = np.arange(len(t), dtype=float)
    gap = np.array(draw(st.lists(st.booleans(), min_size=len(t), max_size=len(t))))
    gap &= draw(st.booleans())  # half of the streams have no gap rows
    red, ir, acc, gyr = k, 1e5 + k, 2e5 + k, 3e5 + k
    for ch in (red, ir, acc, gyr):
        ch[gap] = np.nan
    return FrameSeries(t, red, ir, acc, gyr, gap), 1000.0 / period


@settings(deadline=None, max_examples=200)
@given(jittered_streams())
def test_regularize_picks_real_samples_on_a_uniform_grid(case):
    """The grid is uniform at 1/rate from the first to the last real sample;
    a slot is a gap exactly when no real sample lies within half a period,
    and every other slot holds the values of a nearest real sample."""
    series, rate = case
    src = np.flatnonzero(~series.gap)
    if len(src) < 2:
        return
    period = 1000.0 / rate
    src_t = series.t_ms[src].astype(float)
    n_slots = round((src_t[-1] - src_t[0]) / period) + 1
    meta = signal_io.StreamMeta(nominal_rate_hz=rate)
    if n_slots > signal_io.MAX_SLOTS_PER_ROW * len(src):
        with pytest.raises(EmptyStream):
            signal_io.regularize(series, meta)
        return
    out = signal_io.regularize(series, meta)
    grid = src_t[0] + period * np.arange(n_slots)
    assert len(out) == n_slots
    np.testing.assert_array_equal(out.t_ms, np.rint(grid).astype(np.int64))
    for slot, g in enumerate(grid):
        dist = np.abs(src_t - g)
        values = [out.channel(ch)[slot] for ch in features.CHANNELS]
        if dist.min() > period / 2:
            assert out.gap[slot] and all(math.isnan(v) for v in values)
            continue
        assert not out.gap[slot]
        row = int(values[0])  # red holds the source row index
        assert row in src and dist[src == row][0] == dist.min()
        assert values == [series.channel(ch)[row] for ch in features.CHANNELS]
