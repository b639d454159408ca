import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import signal as sps_signal
from scipy import special
from scipy import stats as sps

from naive_features import naive_feature
from pulseox import features, gbdt, signal_io, synth
from pulseox.errors import SingleClass
from pulseox.features import CHANNELS, FeatureSpec, build_catalog
from pulseox.gbdt import GbdtModel, GbdtParams
from pulseox.signal_io import FrameSeries
from pulseox.synth import ArtifactSegment, SynthConfig


def make_series(n, gap_at=()):
    rng = np.random.default_rng(0)
    red = rng.uniform(900, 1100, n)
    ir = rng.uniform(900, 1100, n)
    acc = rng.uniform(0.9, 1.1, n)
    gyr = rng.uniform(0.05, 0.15, n)
    gap = np.zeros(n, dtype=bool)
    for i in gap_at:
        gap[i] = True
        red[i] = ir[i] = acc[i] = gyr[i] = np.nan
    return FrameSeries(40 * np.arange(n), red, ir, acc, gyr, gap)


def random_window(rng, n=100):
    return {c: rng.uniform(-3, 3, n) + rng.uniform(-5, 5) for c in CHANNELS}


def gap_free_windows(series, window_len, step):
    """``(starts, idx)`` of the windows of ``series`` that hold no gap slot:
    their first samples, and their sample indices one row per window."""
    starts, _, has_gap = series.windows(window_len, step)
    starts = starts[~has_gap]
    return starts, starts[:, None] + np.arange(window_len)


def extract_rows(channels, catalog):
    """``extract_matrix`` of ``catalog`` over windows given as rows:
    ``channels`` maps every channel to an (n, w) matrix, one window per row,
    or is one such matrix for all four. The rows of each channel are laid
    end to end in one ``FrameSeries``, whose windows start at 0, w, 2w, ..."""
    if not isinstance(channels, dict):
        channels = dict.fromkeys(CHANNELS, channels)
    n, w = np.shape(channels["red"])
    series = FrameSeries(40 * np.arange(n * w), *(np.ravel(channels[c]) for c in CHANNELS))
    return features.extract_matrix(series, w * np.arange(n), w, catalog)


def compute_feature(spec, window):
    return float(extract_rows(np.asarray(window[spec.channel], dtype=float)[None, :], [spec])[0, 0])


class TestWindowStream:
    def test_nonoverlapping_count(self):
        starts, _ = gap_free_windows(make_series(300), 100, 100)
        assert len(starts) == 3

    def test_sliding_count(self):
        starts, _ = gap_free_windows(make_series(300), 100, 1)
        assert len(starts) == 201

    def test_gap_excludes_window(self):
        starts, _ = gap_free_windows(make_series(300, gap_at=(150,)), 100, 100)
        assert list(starts) == [0, 200]

    def test_nonoverlapping_partitions_indices(self):
        _, idx = gap_free_windows(make_series(300), 100, 100)
        assert sorted(idx.ravel().tolist()) == list(range(300))


class TestComputeFeature:
    def window_of(self, x):
        return {c: np.asarray(x, dtype=float) for c in CHANNELS}

    def test_fft_bin0_is_sum(self):
        spec = FeatureSpec("red", "fft_coefficient", (("attr", "real"), ("coeff", 0)))
        assert compute_feature(spec, self.window_of([1, 2, 3, 4])) == pytest.approx(10.0)

    def test_autocorr_alternating(self):
        spec = FeatureSpec("red", "autocorrelation", (("lag", 1),))
        x = [1.0, -1.0] * 8
        assert compute_feature(spec, self.window_of(x)) == pytest.approx(-1.0)

    @pytest.mark.parametrize("w", [8, 9])
    def test_autocorr_lag_past_window_is_zero(self, w):
        # the catalog's lag 9 has no pair of samples in a window of 8 or 9
        spec = FeatureSpec("red", "autocorrelation", (("lag", 9),))
        x = np.sin(np.arange(w, dtype=float))
        assert compute_feature(spec, self.window_of(x)) == 0.0

    def test_longest_strike(self):
        spec = FeatureSpec("ir", "longest_strike_below_mean")
        assert compute_feature(spec, self.window_of([0, 0, 0, 10])) == 3.0

    def test_cid_ce_constant(self):
        spec = FeatureSpec("ir", "cid_ce")
        assert compute_feature(spec, self.window_of([4.0] * 10)) == 0.0

    def test_catalog_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        catalog = build_catalog()
        for _ in range(20):
            w = random_window(rng)
            for spec in catalog:
                got = compute_feature(spec, w)
                want = naive_feature(spec, w)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), spec.spec_id

    def test_autocorr_lag0_is_one(self):
        # at lag 0 the numerator is the variance, bit for bit
        rng = np.random.default_rng(6)
        spec = FeatureSpec("red", "autocorrelation", (("lag", 0),))
        for _ in range(5):
            w = random_window(rng)
            assert compute_feature(spec, w) == 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        w = random_window(rng)
        w2 = {c: 3.0 * v + 11.0 for c, v in w.items()}
        for spec in (
            FeatureSpec("red", "autocorrelation", (("lag", 5),)),
            FeatureSpec("red", "cid_ce"),
        ):
            a = compute_feature(spec, w)
            b = compute_feature(spec, w2)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
        mean = FeatureSpec("red", "mean")
        assert compute_feature(mean, {"red": w["red"] + 11.0}) == pytest.approx(
            compute_feature(mean, w) + 11.0
        )


def full_pinv_ar(X, k):
    """Every AR(k) coefficient from the whole pseudo-inverse contraction: the
    reference for the one-column contraction of ``_ar_fit``."""
    n, w = X.shape
    A = np.empty((n, w - k, k + 1))
    A[:, :, 0] = 1.0
    for lag in range(1, k + 1):
        A[:, :, lag] = X[:, k - lag : w - lag]
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    tol = s[:, :1] * max(A.shape[1], A.shape[2]) * np.finfo(float).eps
    s_safe = np.where(s > tol, s, 1.0)
    coeffs = np.einsum("nkj,nk,nik,ni->nj", Vt, 1.0 / s_safe, U, X[:, k:])
    coeffs[~(s > tol).all(axis=1)] = 0.0
    return coeffs


def contact_loss_wrist(window_len=100, step=2):
    """``(frames, idx, flat)``: the step-``step`` windows of ``window_len``
    samples of a wrist stream at the synthetic DC (5e4 red, 6e4 ir) whose
    contact loss flattens both optical channels to 0, and which of them are
    flat, i.e. rank-deficient AR designs."""
    arts = (
        ArtifactSegment(8.0, 6.0, "contact_loss"),
        ArtifactSegment(18.0, 4.0, "motion"),
        ArtifactSegment(24.0, 3.0, "ambient_spike"),
    )
    frames, _ = synth.gen_ppg(SynthConfig(duration_s=32.0, noise_sigma=0.001, seed=4, artifacts=arts))
    _, idx = gap_free_windows(frames, window_len, step)
    flat = (frames.red[idx] == 0).all(axis=1)
    assert 0 < flat.sum() < len(idx)
    return frames, idx, flat


def contact_loss_stream():
    """A 170 s wrist stream at the synthetic DC (5e4 red, 6e4 ir) whose
    contact loss flattens both optical channels to 0; it has more step-1
    windows of 100 samples than one 4,096-window block holds."""
    arts = (
        ArtifactSegment(20.0, 8.0, "contact_loss"),
        ArtifactSegment(60.0, 8.0, "motion", 1.5),
        ArtifactSegment(120.0, 5.0, "ambient_spike", 1.5),
    )
    return synth.gen_ppg(SynthConfig(duration_s=170.0, noise_sigma=0.001, seed=4, artifacts=arts))[0]


class TestWelchDensity:
    @pytest.mark.parametrize("n", [8, 9, 50, 99, 100, 128])
    def test_bit_identical_to_scipy_welch_on_wrist_stream(self, n):
        """One Hann segment of the whole window, as ``scipy.signal.welch``
        computes it, on high-DC windows with contact loss; past the last bin
        (``n // 2``) the feature is 0, and an empty window matrix gives an
        empty column."""
        frames, idx, _ = contact_loss_wrist(n, 3)
        bins = (0, 1, 2, n // 2, n // 2 + 1)
        catalog = [FeatureSpec("red", "spkt_welch_density", (("coeff", c),)) for c in bins]
        for X in [frames.channel(ch)[idx] for ch in CHANNELS] + [np.empty((0, n))]:
            pxx = sps_signal.welch(X, fs=1, window="hann", nperseg=n, noverlap=0, detrend="constant", axis=1)[1]
            got = extract_rows(X, catalog)
            assert got.shape == (len(X), len(bins))
            for i, c in enumerate(bins):
                want = pxx[:, c] if c <= n // 2 else np.zeros(len(X))
                np.testing.assert_array_equal(got[:, i], want, err_msg=f"n {n} bin {c}")


def ar_spec(j, k=10):
    return FeatureSpec("red", "ar_coefficient", (("coeff", j), ("k", k)))


def extracted_ar(x, starts, window_len, j, k=10):
    """Coefficient ``j`` of the AR(``k``) fits of the windows of
    ``window_len`` samples of ``x`` at ``starts``, by ``extract_matrix``."""
    series = FrameSeries(40 * np.arange(len(x)), x, x, x, x)
    return features.extract_matrix(series, starts, window_len, [ar_spec(j, k)])[:, 0]


class TestArCoefficient:
    def test_bit_identical_to_full_contraction_on_wrist_stream(self):
        """AR columns give the full pseudo-inverse contraction bit for bit."""
        frames, idx, flat = contact_loss_wrist()
        k = 10
        for ch in CHANNELS:
            X = frames.channel(ch)[idx]
            want = full_pinv_ar(X, k)
            for j in range(k + 1):
                got = extracted_ar(frames.channel(ch), idx[:, 0], idx.shape[1], j, k)
                np.testing.assert_array_equal(got, want[:, j], err_msg=f"{ch} coeff {j}")
                if ch in ("red", "ir"):
                    assert (got[flat] == 0).all()


SUBSETS = ["none", "one_flat", "every_third", "flat", "flat_edges", "random", "all"]


class TestArSubset:
    """AR fits of any subset of the windows have the bits of the fits of
    all of them; each window's fit reads only that window."""

    @pytest.fixture(scope="class")
    def case(self):
        return contact_loss_wrist()

    @staticmethod
    def subset(name, flat):
        """A boolean row mask of the contact-loss windows: the flat
        (rank-deficient) runs and their edges are in several."""
        n = len(flat)
        edges = np.flatnonzero(np.diff(flat.astype(int))) + [[0], [1]]
        masks = {
            "none": np.zeros(n, dtype=bool),
            "one_flat": np.arange(n) == np.flatnonzero(flat)[0],
            "every_third": np.arange(n) % 3 == 1,
            "flat": flat,
            "flat_edges": np.isin(np.arange(n), edges),
            "random": np.random.default_rng(5).random(n) < 0.3,
            "all": np.ones(n, dtype=bool),
        }
        return masks[name]

    @pytest.mark.parametrize("name", SUBSETS)
    def test_subset_has_the_bits_of_the_full_fit(self, case, name):
        frames, idx, flat = case
        rows = self.subset(name, flat)
        for ch in CHANNELS:
            X = frames.channel(ch)[idx]
            for j in (0, 1, 10):
                full, part = np.zeros(len(X)), np.zeros(int(rows.sum()))
                features._ar_fit(X, j, 10, full)
                features._ar_fit(np.ascontiguousarray(X[rows]), j, 10, part)
                assert part.tobytes() == full[rows].tobytes(), (ch, j)
                if ch in ("red", "ir"):
                    assert (full[flat] == 0).all() and (full[~flat] != 0).any()

    @pytest.fixture(scope="class")
    def full(self, case):
        frames, idx, _ = case
        return features.extract_matrix(frames, idx[:, 0], 100, build_catalog())

    @pytest.mark.parametrize("picked", ["non_ar", "ar", "mixed"])
    @pytest.mark.parametrize("name", SUBSETS)
    def test_extract_matrix_of_rows_and_columns(self, case, full, monkeypatch, name, picked):
        """``extract_matrix`` of a subset of the windows and of the columns,
        in blocks of 64 windows, has the bits of those rows and columns of
        the full matrix, which is one block, and NaN in the other columns."""
        frames, idx, flat = case
        rows = self.subset(name, flat)
        catalog = build_catalog()
        is_ar = np.array([spec.name == "ar_coefficient" for spec in catalog])
        columns = {"non_ar": np.flatnonzero(~is_ar), "ar": np.flatnonzero(is_ar), "mixed": np.array([0, 8, 17, 26, 40, 53, 62, 71])}[picked]
        assert len(idx) > 4 * 64 and (picked != "mixed" or 0 < is_ar[columns].sum() < len(columns))
        monkeypatch.setattr(signal_io, "BLOCK_WINDOWS", 64)
        X = features.extract_matrix(frames, idx[rows, 0], 100, catalog, columns)
        assert X.shape == (rows.sum(), len(catalog))
        assert X[:, columns].tobytes() == full[rows][:, columns].tobytes()
        assert np.isnan(np.delete(X, columns, axis=1)).all()


# column sets of ``extract_matrix`` by a predicate on (column, spec): a mix,
# one family alone on every channel, and one family alone per channel
ONE_PER_CHANNEL = {
    "red": ("autocorrelation", (("lag", 6),)),
    "ir": ("fft_coefficient", (("attr", "abs"), ("coeff", 0))),
    "accel_mag": ("spkt_welch_density", (("coeff", 2),)),
    "gyro_mag": ("std", ()),
}
COLUMN_SETS = {
    "mixed": lambda j, spec: j in (0, 17, 40, 71),
    "autocorrelation_lag_6": lambda j, spec: spec.name == "autocorrelation" and spec.param_dict["lag"] == 6,
    "fft_abs": lambda j, spec: spec.name == "fft_coefficient" and spec.param_dict["attr"] == "abs",
    "spkt_welch_density": lambda j, spec: spec.name == "spkt_welch_density",
    "std": lambda j, spec: spec.name == "std",
    "one_family_per_channel": lambda j, spec: (spec.name, spec.params) == ONE_PER_CHANNEL[spec.channel],
}


class TestCatalogAndMatrix:
    def test_catalog_size_and_uniqueness(self):
        catalog = build_catalog()
        assert len(catalog) == 18 * 4
        assert len({s.spec_id for s in catalog}) == len(catalog)

    def test_catalog_round_trips_through_a_model_file(self, tmp_path):
        """A model file names every catalog feature by its id, and loading
        maps each id back to its catalog entry."""
        catalog = build_catalog()
        split = {"default": "left", "feature": len(catalog) - 1, "left": 1, "right": 2, "threshold": 0.5}
        model = GbdtModel([[split, {"leaf": 1.0}, {"leaf": -1.0}]], 0.0, GbdtParams(), catalog)
        gbdt.save(model, tmp_path / "model.json")
        assert json.loads((tmp_path / "model.json").read_text())["catalog"] == [s.spec_id for s in catalog]
        back = gbdt.load(tmp_path / "model.json")
        assert back.feature_catalog == catalog
        assert back.trees == model.trees

    def test_empty_matrix(self):
        series = make_series(50)
        starts, _ = gap_free_windows(series, 100, 1)
        X = features.extract_matrix(series, starts, 100, build_catalog())
        assert X.shape == (0, 72)

    def test_single_window_small_catalog(self):
        catalog = [s for s in build_catalog() if s.channel == "ir"][:15]
        series = make_series(100)
        starts, _ = gap_free_windows(series, 100, 100)
        X = features.extract_matrix(series, starts, 100, catalog)
        assert X.shape == (1, 15)

    def test_deterministic(self):
        series = make_series(400)
        starts, _ = gap_free_windows(series, 100, 50)
        catalog = build_catalog()
        X1 = features.extract_matrix(series, starts, 100, catalog)
        X2 = features.extract_matrix(series, starts, 100, catalog)
        np.testing.assert_array_equal(X1, X2)

    @pytest.fixture(scope="class")
    def full_matrices(self):
        """``{name: (series, starts, full matrix)}`` of three streams: uniform
        noise, the high-DC stream with contact loss, and a gapped one."""
        streams = {
            "uniform": (make_series(400), 50),
            "high_dc_contact_loss": (contact_loss_stream(), 1),
            "gapped": (make_series(400, gap_at=(150, 151, 390)), 1),
        }
        out = {}
        for name, (series, step) in streams.items():
            starts, _ = gap_free_windows(series, 100, step)
            out[name] = series, starts, features.extract_matrix(series, starts, 100, build_catalog())
        return out

    @pytest.mark.parametrize("stream", ["uniform", "high_dc_contact_loss", "gapped"])
    @pytest.mark.parametrize("picked", list(COLUMN_SETS))
    def test_columns_computes_only_those(self, full_matrices, stream, picked):
        """A subset of the columns has the bits of the full matrix: the
        values shared between families depend on no other column."""
        series, starts, full = full_matrices[stream]
        catalog = build_catalog()
        columns = [j for j, spec in enumerate(catalog) if COLUMN_SETS[picked](j, spec)]
        X = features.extract_matrix(series, starts, 100, catalog, set(columns))
        rest = [j for j in range(len(catalog)) if j not in columns]
        assert columns and len(X) > 0
        np.testing.assert_array_equal(X[:, columns], full[:, columns])
        assert np.isfinite(full).all() and np.isnan(X[:, rest]).all()


class TestBlocks:
    """``extract_matrix`` walks the windows in blocks of ``BLOCK_WINDOWS``."""

    @pytest.fixture(scope="class")
    def case(self):
        frames = contact_loss_stream()
        starts, idx = gap_free_windows(frames, 100, 1)
        assert len(idx) > 4096 and 0 < (frames.red[idx] == 0).all(axis=1).sum() < len(idx)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(signal_io, "BLOCK_WINDOWS", len(idx))
            one_block = features.extract_matrix(frames, starts, 100, build_catalog())
        return frames, starts, one_block

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_block_size_changes_no_bit(self, case, monkeypatch, block):
        frames, starts, one_block = case
        # one feature call per window per column is slow, so blocks of one
        # window see every fifth window; each is still computed alone
        rows = slice(None, None, 5 if block == 1 else 1)
        monkeypatch.setattr(signal_io, "BLOCK_WINDOWS", block)
        X = features.extract_matrix(frames, starts[rows], 100, build_catalog())
        for j, spec in enumerate(build_catalog()):
            np.testing.assert_array_equal(X[:, j], one_block[rows, j], err_msg=spec.spec_id)

    def test_working_memory_does_not_grow_with_windows(self):
        """Peak traced memory besides the output matrix is one block's worth,
        the same for 4 and 16 blocks of windows."""
        rng = np.random.default_rng(2)
        overhead = []
        for blocks in (4, 16):
            n = blocks * signal_io.BLOCK_WINDOWS + 99
            chans = (rng.uniform(5.0e4, 5.1e4, n), rng.uniform(6.0e4, 6.1e4, n), rng.uniform(0.9, 1.1, n), rng.uniform(0, 0.2, n))
            series = FrameSeries(40 * np.arange(n), *chans, np.zeros(n, dtype=bool))
            starts, _ = gap_free_windows(series, 100, 1)
            tracemalloc.start()
            try:
                X = features.extract_matrix(series, starts, 100, build_catalog())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            overhead.append(peak - X.nbytes)
        assert abs(overhead[1] - overhead[0]) < 1e6, overhead

    def test_kernel_peak_on_one_channel_block(self):
        """The per-channel kernel's traced peak on one block of 512 red
        windows of 100 samples with all 17 non-AR columns stays under 1.95 MB:
        the longest-strike counts are int32, computed in place, and each
        family's temporaries go before the next column (2.14 MB with int64
        counts kept to the end of the block)."""
        frames, _ = synth.gen_ppg(SynthConfig(duration_s=60.0, noise_sigma=0.0008, seed=3))
        W = frames.rows("red", np.arange(signal_io.BLOCK_WINDOWS), 100)
        catalog = build_catalog()
        specs = [(j, s) for j, s in enumerate(catalog) if s.channel == "red" and s.name != "ar_coefficient"]
        out = np.full((len(W), len(catalog)), np.nan)
        assert len(specs) == 17
        tracemalloc.start()
        try:
            features._channel_features(W, specs, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.95e6, peak


class TestMannWhitney:
    def test_exact_small(self):
        p = features.mann_whitney_p([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        assert p == pytest.approx(1 / 3)

    def test_all_tied(self):
        p = features.mann_whitney_p([5.0] * 8, [0, 1] * 4)
        assert p == 1.0

    def test_large_separation(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(0, 1, 200), rng.normal(5, 1, 200)])
        y = np.concatenate([np.zeros(200, int), np.ones(200, int)])
        assert features.mann_whitney_p(x, y) < 1e-10

    def test_matches_scipy_normal_approx(self):
        # without ties the p-value has the bits of scipy's normal approximation
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(0, 1, 60)
            y = (rng.random(60) < 0.5).astype(int)
            if y.sum() in (0, 60):
                continue
            ref = sps.mannwhitneyu(x[y == 0], x[y == 1], alternative="two-sided", method="asymptotic")
            assert features.mann_whitney_p(x, y) == float(ref.pvalue)

    def test_matches_tie_corrected_normal_approx(self):
        # above 12 samples, heavy ties included, the p-value has the bits of
        # scipy's tie-corrected normal approximation with continuity correction
        rng = np.random.default_rng(2)
        for n in (13, 60, 445):
            ties = (rng.integers(0, 4, n).astype(float), np.round(rng.normal(5e4, 1, n), 1), np.full(n, 5.0))
            for x in (rng.normal(0, 1, n), *ties):
                y = (rng.random(n) < 0.3).astype(int)
                y[:2] = (0, 1)
                ref = sps.mannwhitneyu(x[y == 0], x[y == 1], alternative="two-sided", method="asymptotic", use_continuity=True)
                assert features.mann_whitney_p(x, y) == float(ref.pvalue)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            features.mann_whitney_p([1.0, 2.0], [1, 1])


class TestNdtr:
    """``features._ndtr`` has the bits of ``scipy.special.ndtr``."""

    @staticmethod
    def assert_bits_equal(a):
        a = np.asarray(a, dtype=float)
        got = np.array([features._ndtr(v) for v in a.tolist()])
        want = special.ndtr(a)
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert not len(bad), f"{len(bad)} of {len(a)} differ, first at {a[bad[0]]!r}: {got[bad[0]]!r} != {want[bad[0]]!r}"

    def test_random_inputs(self):
        rng = np.random.default_rng(20)
        n = 100_000
        self.assert_bits_equal(np.concatenate([rng.normal(0, 3, n), rng.uniform(-40, 5, n), -np.abs(rng.standard_cauchy(n))]))

    @pytest.mark.parametrize(
        "lo, hi",
        [(-1.5, -0.5), (-11.4, -11.2), (-38.6, -37.4), (-53.2, -52.9)],
        ids=["erf_edge", "erfc_tables_edge", "underflow_edge", "uthresh_edge"],
    )
    def test_dense_sweep(self, lo, hi):
        """Across ``|x| = sqrt(1/2)`` and ``|x| = 1`` (erf against erfc),
        ``|x| = 8`` (the P/Q against the R/S tables), ``x * x = MAXLOG``, where
        the tail drops to 0, and Cephes' ``UTHRESH`` (``|x| = 37.52``)."""
        self.assert_bits_equal(np.linspace(lo, hi, 100_001))

    def test_special_values_and_branch_neighbours(self):
        """The floats next to ``a = 1``, ``sqrt(2)`` and ``8 sqrt(2)``, where
        ``|x| = |a| sqrt(1/2)`` crosses each branch edge."""
        edges = [s * b for b in (1.0, math.sqrt(2), 8 * math.sqrt(2)) for s in (1.0, -1.0)]
        near = [e for b in edges for e in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))]
        self.assert_bits_equal([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308, *near])


class TestBenjaminiHochberg:
    def specs(self, n):
        return [FeatureSpec("red", f"f{i}") for i in range(n)]

    def test_all_ones_rejected(self):
        s = self.specs(4)
        res = features.benjamini_hochberg(dict(zip(s, [1.0] * 4)), 0.05)
        assert res.kept == []

    def test_step_up_keeps_all(self):
        s = self.specs(4)
        res = features.benjamini_hochberg(dict(zip(s, [0.005, 0.01, 0.03, 0.04])), 0.05)
        assert set(res.kept) == set(s)

    def test_single_small_p_kept(self):
        s = self.specs(1)
        res = features.benjamini_hochberg({s[0]: 0.04}, 0.05)
        assert res.kept == s

    def test_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = self.specs(20)
            p = rng.random(20)
            kept1 = set(features.benjamini_hochberg(dict(zip(s, p)), 0.05).kept)
            j = rng.integers(20)
            p2 = p.copy()
            p2[j] *= rng.random()
            kept2 = set(features.benjamini_hochberg(dict(zip(s, p2)), 0.05).kept)
            assert kept1 <= kept2
