import tracemalloc

import numpy as np
import pytest

from naive_features import naive_feature
from pulseox import features, signal_io, synth
from pulseox.errors import SingleClass
from pulseox.features import CHANNELS, FeatureSpec, build_catalog
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


def compute_feature(spec, window):
    return float(features.compute_feature_batch(spec, np.asarray(window[spec.channel], dtype=float)[None, :])[0])


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
        rng = np.random.default_rng(6)
        spec = FeatureSpec("red", "autocorrelation", (("lag", 0),))
        for _ in range(5):
            w = random_window(rng)
            assert compute_feature(spec, w) == pytest.approx(1.0, abs=1e-12)

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
    reference for the one-column contraction of ``_ar_coefficient``."""
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


class TestArCoefficient:
    def test_bit_identical_to_full_contraction_on_wrist_stream(self):
        # a wrist stream at the synthetic DC (5e4 red, 6e4 ir) whose contact
        # loss flattens both optical channels to 0: rank-deficient designs
        arts = (
            ArtifactSegment(8.0, 6.0, "contact_loss"),
            ArtifactSegment(18.0, 4.0, "motion"),
            ArtifactSegment(24.0, 3.0, "ambient_spike"),
        )
        frames, _ = synth.gen_ppg(SynthConfig(duration_s=32.0, noise_sigma=0.001, seed=4, artifacts=arts))
        _, idx = gap_free_windows(frames, 100, 2)
        k = 10
        flat = (frames.red[idx] == 0).all(axis=1)
        assert 0 < flat.sum() < len(idx)
        for ch in CHANNELS:
            X = frames.channel(ch)[idx]
            want = full_pinv_ar(X, k)
            for j in range(k + 1):
                got = features._ar_coefficient(X, {"coeff": j, "k": k})
                np.testing.assert_array_equal(got, want[:, j], err_msg=f"{ch} coeff {j}")
                if ch in ("red", "ir"):
                    assert (got[flat] == 0).all()


class TestCatalogAndMatrix:
    def test_catalog_size_and_uniqueness(self):
        catalog = build_catalog()
        assert len(catalog) == 18 * 4
        assert len({s.spec_id for s in catalog}) == len(catalog)

    def test_spec_id_roundtrip(self):
        for spec in build_catalog():
            assert FeatureSpec.from_id(spec.spec_id) == spec

    def test_empty_matrix(self):
        series = make_series(50)
        starts, _ = gap_free_windows(series, 100, 1)
        X = features.extract_matrix(series, starts, 100, build_catalog())
        assert X.shape == (0, 72)

    def test_single_window_small_catalog(self):
        catalog = build_catalog(channels=("ir",))[:15]
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

    def test_columns_computes_only_those(self):
        series = make_series(400)
        starts, _ = gap_free_windows(series, 100, 50)
        catalog = build_catalog()
        columns = {0, 17, 40, 71}
        X = features.extract_matrix(series, starts, 100, catalog, columns)
        full = features.extract_matrix(series, starts, 100, catalog)
        rest = [j for j in range(len(catalog)) if j not in columns]
        np.testing.assert_array_equal(X[:, sorted(columns)], full[:, sorted(columns)])
        assert np.isnan(X[:, rest]).all() and np.isfinite(full).all()


class TestBlocks:
    """``extract_matrix`` walks the windows in blocks of ``BLOCK_WINDOWS``."""

    @pytest.fixture(scope="class")
    def case(self):
        # step-1 windows of a wrist stream at the synthetic DC (5e4 red, 6e4
        # ir) whose contact loss flattens both optical channels to 0, more of
        # them than one 4,096-window block holds
        arts = (
            ArtifactSegment(20.0, 8.0, "contact_loss"),
            ArtifactSegment(60.0, 8.0, "motion", 1.5),
            ArtifactSegment(120.0, 5.0, "ambient_spike", 1.5),
        )
        frames, _ = synth.gen_ppg(SynthConfig(duration_s=170.0, noise_sigma=0.001, seed=4, artifacts=arts))
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
        from scipy import stats as sps

        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(0, 1, 60)
            y = (rng.random(60) < 0.5).astype(int)
            if y.sum() in (0, 60):
                continue
            got = features.mann_whitney_p(x, y)
            ref = sps.mannwhitneyu(
                x[y == 0], x[y == 1], alternative="two-sided", method="asymptotic"
            ).pvalue
            assert got == pytest.approx(ref, abs=1e-9)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            features.mann_whitney_p([1.0, 2.0], [1, 1])


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
