import numpy as np
import pytest

from naive_features import naive_feature
from pulseox import features, synth
from pulseox.errors import SingleClass
from pulseox.features import CHANNELS, FeatureSpec, WindowConfig, build_catalog
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


class TestWindowStream:
    def test_nonoverlapping_count(self):
        ws = features.window_stream(make_series(300), WindowConfig(100, 100))
        assert len(ws) == 3

    def test_sliding_count(self):
        ws = features.window_stream(make_series(300), WindowConfig(100, 1))
        assert len(ws) == 201

    def test_gap_excludes_window(self):
        ws = features.window_stream(make_series(300, gap_at=(150,)), WindowConfig(100, 100))
        assert list(ws.start_idx) == [0, 200]

    def test_nonoverlapping_partitions_indices(self):
        ws = features.window_stream(make_series(300), WindowConfig(100, 100))
        covered = sorted(i for s in ws.start_idx for i in range(s, s + 100))
        assert covered == list(range(300))


class TestComputeFeature:
    def window_of(self, x):
        return {c: np.asarray(x, dtype=float) for c in CHANNELS}

    def test_fft_bin0_is_sum(self):
        spec = FeatureSpec("red", "fft_coefficient", (("attr", "real"), ("coeff", 0)))
        assert features.compute_feature(spec, self.window_of([1, 2, 3, 4])) == pytest.approx(10.0)

    def test_autocorr_alternating(self):
        spec = FeatureSpec("red", "autocorrelation", (("lag", 1),))
        x = [1.0, -1.0] * 8
        assert features.compute_feature(spec, self.window_of(x)) == pytest.approx(-1.0)

    def test_longest_strike(self):
        spec = FeatureSpec("ir", "longest_strike_below_mean")
        assert features.compute_feature(spec, self.window_of([0, 0, 0, 10])) == 3.0

    def test_cid_ce_constant(self):
        spec = FeatureSpec("ir", "cid_ce")
        assert features.compute_feature(spec, self.window_of([4.0] * 10)) == 0.0

    def test_catalog_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        catalog = build_catalog()
        for _ in range(20):
            w = random_window(rng)
            for spec in catalog:
                got = features.compute_feature(spec, w)
                want = naive_feature(spec, w)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), spec.spec_id

    def test_autocorr_lag0_is_one(self):
        rng = np.random.default_rng(6)
        spec = FeatureSpec("red", "autocorrelation", (("lag", 0),))
        for _ in range(5):
            w = random_window(rng)
            assert features.compute_feature(spec, w) == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        w = random_window(rng)
        w2 = {c: 3.0 * v + 11.0 for c, v in w.items()}
        for spec in (
            FeatureSpec("red", "autocorrelation", (("lag", 5),)),
            FeatureSpec("red", "cid_ce"),
        ):
            a = features.compute_feature(spec, w)
            b = features.compute_feature(spec, w2)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
        mean = FeatureSpec("red", "mean")
        assert features.compute_feature(mean, {"red": w["red"] + 11.0}) == pytest.approx(
            features.compute_feature(mean, w) + 11.0
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
        ws = features.window_stream(frames, WindowConfig(100, 2))
        k = 10
        flat = (ws.channels["red"] == 0).all(axis=1)
        assert 0 < flat.sum() < len(ws)
        for ch in CHANNELS:
            X = ws.channels[ch]
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
        ws = features.window_stream(make_series(50), WindowConfig(100, 1))
        X = features.extract_matrix(ws, build_catalog())
        assert X.shape == (0, 72)

    def test_single_window_small_catalog(self):
        catalog = build_catalog(channels=("ir",))[:15]
        ws = features.window_stream(make_series(100), WindowConfig(100, 100))
        X = features.extract_matrix(ws, catalog)
        assert X.shape == (1, 15)

    def test_deterministic(self):
        ws = features.window_stream(make_series(400), WindowConfig(100, 50))
        catalog = build_catalog()
        X1 = features.extract_matrix(ws, catalog)
        X2 = features.extract_matrix(ws, catalog)
        np.testing.assert_array_equal(X1, X2)


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
