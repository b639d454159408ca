import json
import math
import tracemalloc
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest

from test_features import contact_loss_stream, extract_rows
from pulseox import features, gbdt, metrics, pipeline, signal_io, spo2, synth
from pulseox.errors import EmptyGroup, InsufficientUserData
from pulseox.features import FeatureSpec
from pulseox.gbdt import GbdtModel, GbdtParams
from pulseox.pipeline import LabelConfig, PipelineSettings
from pulseox.signal_io import FrameSeries, StreamMeta
from pulseox.spo2 import CalibrationCurve
from pulseox.synth import ArtifactSegment, SynthConfig

FAST = PipelineSettings(gbdt_params=GbdtParams(n_estimators=15, seed=0))


SOME_ARTIFACTS = (
    ArtifactSegment(30.0, 8.0, "motion", 1.5),
    ArtifactSegment(90.0, 8.0, "ambient_spike", 1.5),
    ArtifactSegment(150.0, 8.0, "motion", 1.2),
)


def make_subject(sid="u00", duration_s=240.0, seed=0, artifacts=()):
    wrist_cfg = SynthConfig(
        duration_s=duration_s, noise_sigma=0.0008, seed=seed, artifacts=artifacts
    )
    finger_cfg = replace(
        wrist_cfg, perfusion_index=0.05, noise_sigma=0.0002, artifacts=(), seed=seed + 1
    )
    wrist, _ = synth.gen_ppg(wrist_cfg)
    finger, _ = synth.gen_ppg(finger_cfg)
    return pipeline.SubjectData(sid, wrist, finger, StreamMeta(subject_id=sid))


class TestAlignStreams:
    """Wrist-to-reference alignment, as ``analyze_subject`` does it."""

    tol = LabelConfig().alignment_tolerance_ms
    grid = np.arange(0, 10_000, 1000, dtype=float)

    def align(self, wrist_t, ref_t):
        ref_t = np.asarray(ref_t, dtype=float)
        return pipeline.nearest_reference(wrist_t, ref_t, 90.0 + ref_t / 1000, self.tol)

    def test_identity_grids(self):
        np.testing.assert_array_equal(self.align(self.grid, self.grid), 90.0 + self.grid / 1000)

    def test_constant_offset_within_tolerance(self):
        np.testing.assert_array_equal(self.align(self.grid, self.grid + 200), 90.0 + (self.grid + 200) / 1000)

    def test_reference_gap_drops(self):
        ref_t = [t for t in self.grid if not 3000 <= t <= 5000]
        ref = self.align(self.grid, ref_t)
        # t in {3000, 4000, 5000} has no reference within 500 ms
        np.testing.assert_array_equal(np.isnan(ref), np.isin(self.grid, [3000, 4000, 5000]))
        np.testing.assert_array_equal(ref[~np.isnan(ref)], 90.0 + np.asarray(ref_t) / 1000)

    def test_no_overlap(self):
        ref = self.align(np.arange(0, 5000, 1000, dtype=float), np.arange(100_000, 105_000, 1000))
        assert np.isnan(ref).all()


class TestLabelWindows:
    """Reliability labels, as ``analyze_subject`` computes them."""

    cfg = LabelConfig(reliability_threshold_pct=2.0)

    def labels(self, value, reference):
        label, has_label = pipeline.reliability_labels(
            np.array([value], dtype=float), np.array([reference], dtype=float), self.cfg
        )
        assert has_label[0] == (not np.isnan(value) and not np.isnan(reference))
        return bool(label[0])

    def test_within(self):
        assert self.labels(97.0, 98.0)

    def test_outside(self):
        assert not self.labels(94.0, 98.0)

    def test_boundary_inclusive(self):
        assert self.labels(96.0, 98.0)

    def test_sign_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.uniform(90, 100, 2)
            assert self.labels(a, b) == self.labels(b, a)

    def test_missing_value_or_reference_unlabeled(self):
        assert not self.labels(float("nan"), 98.0)
        assert not self.labels(97.0, float("nan"))


class TestTrainingRows:
    def test_twelve_minute_subject_row_cap(self, cohort10):
        subjects, settings = cohort10
        X, y = pipeline.subject_training_rows(subjects[0], pipeline.analyze_subject(subjects[0], settings), settings)
        assert len(X) <= 180
        assert len(X) == len(y)

    def test_clean_subject_balance(self):
        s = make_subject(seed=3)
        X, y = pipeline.subject_training_rows(s, pipeline.analyze_subject(s, FAST), FAST)
        assert len(X) == 60  # 240 s / 4 s windows, none invalidated
        assert y.mean() > 0.9  # clean trace: almost everything reliable

    def test_calibration_prefix_row_count(self):
        s = make_subject(sid="u01", duration_s=720.0, seed=4)
        X, _ = pipeline.subject_training_rows(s, pipeline.analyze_subject(s, FAST), FAST, max_ms=600_000)
        assert len(X) == 150  # 10 min * 25 Hz / 100-sample windows


class TestLoocv:
    def test_fold_count_and_order_independence(self, cohort_small):
        subjects, settings = cohort_small
        fwd = pipeline.run_loocv(subjects, settings)
        rev = pipeline.run_loocv(list(reversed(subjects)), settings)
        assert [r.subject_id for r in fwd] == sorted(s.subject_id for s in subjects)
        assert [r.to_json_dict() for r in fwd] == [r.to_json_dict() for r in rev]
        for r in fwd:
            assert "skipped" not in r.extras
            assert r.n_emitted > 0

    def test_one_analysis_per_subject(self, cohort_small):
        """Each subject's fingertip reference and wrist statistics are
        computed once, for its training rows and its held-out evaluation."""
        subjects, settings = cohort_small
        wrists = {id(s.wrist): s.subject_id for s in subjects}
        with (
            mock.patch.object(pipeline, "reference_series", wraps=pipeline.reference_series) as reference,
            mock.patch.object(pipeline, "_gap_free_stats", wraps=pipeline._gap_free_stats) as stats,
        ):
            reports = pipeline.run_loocv(subjects, replace(settings, gbdt_params=GbdtParams(n_estimators=3)))
        assert all("skipped" not in r.extras for r in reports)
        ids = sorted(wrists.values())
        assert sorted(c.args[0].subject_id for c in reference.call_args_list) == ids
        assert sorted(wrists[id(c.args[0])] for c in stats.call_args_list) == ids

    def test_needs_two_subjects(self):
        with pytest.raises(EmptyGroup):
            pipeline.run_loocv([make_subject()], FAST)


@dataclass(frozen=True)
class CohortSplit:
    train_subjects: frozenset
    test_subjects: frozenset
    train_site: str = "wrist_top"
    test_site: str = "wrist_top"
    group_filter: str | None = None  # skin-tone tag or None


def run_group_experiment(split: CohortSplit, subjects, settings: PipelineSettings):
    """Train on the train-side subjects, evaluate every test-side subject: the
    cross-site and skin-tone experiments of acceptance criterion 9."""
    by_id = {s.subject_id: s for s in subjects}
    train = [by_id[i] for i in sorted(split.train_subjects) if i in by_id]
    test = [by_id[i] for i in sorted(split.test_subjects) if i in by_id]
    if split.group_filter:
        train = [s for s in train if s.skin_tone == split.group_filter]
    if not train or not test:
        raise EmptyGroup("both sides of the split must be nonempty")
    X, y = pipeline.build_training_set(train, settings)
    model, _ = pipeline.train_model(X, y, settings)
    reports = [pipeline.evaluate_subject(s, pipeline.analyze_subject(s, settings), model, settings) for s in test]
    for r in reports:
        r.group = f"{split.train_site}->{split.test_site}"
    return reports


class TestGroupExperiment:
    def test_single_subject_split(self, cohort_small):
        subjects, settings = cohort_small
        split = CohortSplit(
            train_subjects=frozenset({"s00", "s02"}), test_subjects=frozenset({"s01"})
        )
        reports = run_group_experiment(split, subjects, settings)
        assert len(reports) == 1
        assert reports[0].subject_id == "s01"
        assert reports[0].group == "wrist_top->wrist_top"

    def test_empty_side_rejected(self, cohort_small):
        subjects, settings = cohort_small
        split = CohortSplit(train_subjects=frozenset(), test_subjects=frozenset({"s01"}))
        with pytest.raises(EmptyGroup):
            run_group_experiment(split, subjects, settings)


class TestCalibrateUser:
    def test_zero_minutes_identical_model(self, tmp_path):
        base = [make_subject(f"b{i}", seed=10 + i, artifacts=SOME_ARTIFACTS) for i in range(2)]
        user = make_subject("u", duration_s=720.0, seed=20)
        X, y = pipeline.build_training_set(base, FAST)
        m0 = pipeline.calibrate_user(X, y, user, 0.0, FAST)
        m_base, _ = pipeline.train_model(X, y, FAST)
        gbdt.save(m0, tmp_path / "a.json")
        gbdt.save(m_base, tmp_path / "b.json")
        a = (tmp_path / "a.json").read_text()
        b = (tmp_path / "b.json").read_text()
        # identical except for the recorded training metadata
        import json

        da, db = json.loads(a), json.loads(b)
        da.pop("training_meta"), db.pop("training_meta")
        assert da == db

    def test_insufficient_user_data(self):
        base = [make_subject(f"b{i}", seed=10 + i, artifacts=SOME_ARTIFACTS) for i in range(2)]
        user = make_subject("u", duration_s=240.0, seed=21)
        X, y = pipeline.build_training_set(base, FAST)
        with pytest.raises(InsufficientUserData):
            pipeline.calibrate_user(X, y, user, 20.0, FAST)


def stub_model(always: bool) -> GbdtModel:
    return GbdtModel(
        trees=[],
        base_logit=20.0 if always else -20.0,
        params=GbdtParams(),
        feature_catalog=[FeatureSpec("red", "mean")],
    )


class TestPrune:
    def trace(self):
        cfg = SynthConfig(
            duration_s=60.0,
            noise_sigma=0.0008,
            seed=9,
            artifacts=(ArtifactSegment(20.0, 8.0, "motion", 1.5),),
        )
        frames, _ = synth.gen_ppg(cfg)
        return frames

    def test_always_positive_equals_enhanced(self):
        frames = self.trace()
        pruned = pipeline.prune(frames, stub_model(True), FAST)
        enhanced = spo2.enhanced_spo2(frames, FAST.calibration, step=1)
        assert pruned.t_ms.tolist() == enhanced.t_ms[enhanced.valid].tolist()
        assert pruned.spo2_pct.tolist() == enhanced.spo2_pct[enhanced.valid].tolist()
        assert pruned.algorithm == "pruned"

    def test_always_negative_empty(self):
        assert len(pipeline.prune(self.trace(), stub_model(False), FAST)) == 0

    def test_subset_chain(self):
        frames = self.trace()
        base = spo2.baseline_spo2(frames, FAST.calibration, step=1)
        enh = spo2.enhanced_spo2(frames, FAST.calibration, step=1)
        base_t = set(base.t_ms[base.valid].tolist())
        enh_t = set(enh.t_ms[enh.valid].tolist())
        pruned_t = set(pipeline.prune(frames, stub_model(True), FAST).t_ms.tolist())
        assert pruned_t <= enh_t <= base_t
        assert len(enh_t) < len(base_t)


def full_path_emit(series, starts, gate_pass, model, settings):
    """Features and a prediction for every gap-free window, the gate applied
    after: the reference for the gate-first ``pipeline._emit``."""
    idx = starts[:, None] + np.arange(settings.window_len)
    X = extract_rows({c: series.channel(c)[idx] for c in features.CHANNELS}, model.feature_catalog)
    return (model.predict_proba_batch(X) >= settings.decision_threshold) & gate_pass


class TestGateFirstEmit:
    @pytest.fixture(scope="class")
    def case(self):
        base = [make_subject(f"b{i}", seed=10 + i, artifacts=SOME_ARTIFACTS) for i in range(2)]
        model, _ = pipeline.train_model(*pipeline.build_training_set(base, FAST), FAST)
        arts = (
            ArtifactSegment(20.0, 6.0, "contact_loss"),
            ArtifactSegment(50.0, 8.0, "motion", 1.5),
            ArtifactSegment(80.0, 6.0, "ambient_spike", 1.5),
            ArtifactSegment(110.0, 5.0, "motion", 1.0),
        )
        user = make_subject("u", duration_s=150.0, seed=31, artifacts=arts)
        # dropped samples become gap slots, whose windows are left out
        w = user.wrist
        keep = np.ones(len(w), dtype=bool)
        keep[[900, 1901, 1902, 3000]] = False
        cols = (w.t_ms, w.red, w.ir, w.accel_mag, w.gyro_mag)
        wrist = signal_io.regularize(FrameSeries(*(c[keep] for c in cols)), user.meta)
        return pipeline.SubjectData("u", wrist, user.finger, user.meta), model

    def outputs(self, emit_fn, subject, model, out):
        """Emit masks, pruned estimate CSV and ``reports.csv`` of ``prune`` and
        ``evaluate_subject`` with ``emit_fn`` in place of ``pipeline._emit``."""
        masks = []

        def recording(*args, **kwargs):
            masks.append(emit_fn(*args, **kwargs))
            return masks[-1]

        out.mkdir()
        with mock.patch.object(pipeline, "_emit", recording):
            spo2.estimates_to_csv(out / "pruned.csv", pipeline.prune(subject.wrist, model, FAST))
            report = pipeline.evaluate_subject(subject, pipeline.analyze_subject(subject, FAST), model, FAST)
            metrics.reports_to_csv(out / "reports.csv", [report])
        return masks, (out / "pruned.csv").read_bytes(), (out / "reports.csv").read_bytes()

    def test_matches_full_path(self, case, tmp_path):
        subject, model = case
        analysis = pipeline.analyze_subject(subject, FAST)
        gate = analysis.gate_pass
        positive = full_path_emit(subject.wrist, analysis.starts, np.ones_like(gate), model, FAST)
        # the gate rejects windows the classifier trusts, and the classifier
        # rejects some gate-passing windows and keeps others
        assert subject.wrist.gap.sum() == 4 and (~gate & positive).any()
        assert (gate & positive).sum() > 100 and (gate & ~positive).sum() > 100

        lazy_masks, lazy_csv, lazy_reports = self.outputs(pipeline._emit, subject, model, tmp_path / "lazy")
        full_masks, full_csv, full_reports = self.outputs(full_path_emit, subject, model, tmp_path / "full")
        assert len(lazy_masks) == len(full_masks) == 2  # prune, then evaluate_subject
        for got, want in zip(lazy_masks, full_masks):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(lazy_masks[1], gate & positive)
        assert lazy_csv == full_csv
        assert lazy_reports == full_reports

    def test_split_set_is_what_the_trees_read(self, case, monkeypatch):
        """The case model splits on few of its catalog columns, and leaving
        out any one of them changes which windows emit at some decision
        threshold, so the lazy path matching the full path at every threshold
        shows that it computes every column the trees read."""
        subject, model = case
        split = pipeline._split_columns(model)
        assert 0 < len(split) < len(model.feature_catalog)
        analysis = pipeline.analyze_subject(subject, FAST)
        thresholds = [replace(FAST, decision_threshold=q) for q in np.linspace(0.1, 0.9, 9)]

        def masks(emit_fn):
            return np.array([emit_fn(subject.wrist, analysis.starts, analysis.gate_pass, model, s) for s in thresholds])

        want = masks(full_path_emit)
        np.testing.assert_array_equal(masks(pipeline._emit), want)
        for missed in sorted(split):
            monkeypatch.setattr(pipeline, "_split_columns", lambda m, missed=missed: split - {missed})
            assert (masks(pipeline._emit) != want).any(), model.feature_catalog[missed].spec_id

    def test_ar_columns_match_full_path_over_blocks(self, case, monkeypatch):
        """A model whose trees split on the four AR columns, each at its median
        over the gate-passing windows, emits what the full path emits when the
        AR columns are fitted block by block."""
        subject, _ = case
        analysis = pipeline.analyze_subject(subject, FAST)
        starts, gate = analysis.starts, analysis.gate_pass
        catalog = features.build_catalog()
        idx = starts[gate][:, None] + np.arange(FAST.window_len)
        split = {"default": "left", "left": 1, "right": 2}
        trees = []
        for j, spec in enumerate(catalog):
            if spec.name == "ar_coefficient":
                median = np.median(extract_rows(subject.wrist.channel(spec.channel)[idx], [spec])[:, 0])
                trees.append([dict(split, feature=j, threshold=float(median)), {"leaf": 1.0}, {"leaf": -1.0}])
        model = GbdtModel(trees, 0.0, GbdtParams(), catalog)
        monkeypatch.setattr(signal_io, "BLOCK_WINDOWS", 64)
        want = full_path_emit(subject.wrist, starts, gate, model, FAST)
        assert len(trees) == 4 and 0 < want.sum() < gate.sum() and gate.sum() > 4 * 64
        np.testing.assert_array_equal(pipeline._emit(subject.wrist, starts, gate, model, FAST), want)

    @pytest.fixture(scope="class")
    def mask_cases(self, case, tmp_path_factory):
        """``{stream: (series, analysis, model, proba)}`` for a wrist stream
        of the golden cohort (3 subjects x 120 s), the high-DC contact-loss
        stream and the gapped stream of ``case``. The model is the golden
        cohort's, with 25 trees, and one AR stump per channel at its median,
        whose leaves add up to the 30th percentile of the absolute logit of
        the gate-passing windows: at 0.5 they leave about 30 % of them
        undecided before AR (more where logits tie); ``proba`` is the prediction of every window from
        all its features."""
        cohort = tmp_path_factory.mktemp("golden_cohort")
        synth.gen_cohort(3, cohort, SynthConfig(duration_s=120.0), variation_seed=20260823)
        subjects, settings = pipeline.load_experiment(cohort / "cohort.json")
        settings = replace(settings, gbdt_params=GbdtParams(n_estimators=25))
        golden, _ = pipeline.train_model(*pipeline.build_training_set(subjects, settings), settings)
        catalog = features.build_catalog()
        full = {i: catalog.index(spec) for i, spec in enumerate(golden.feature_catalog)}
        trees = [[dict(n, feature=full[n["feature"]]) if "feature" in n else n for n in t] for t in golden.trees]
        ar = [j for j, spec in enumerate(catalog) if spec.name == "ar_coefficient"]
        split = {"default": "left", "left": 1, "right": 2}
        out = {}
        streams = {"golden": subjects[0].wrist, "high_dc_contact_loss": contact_loss_stream(), "gapped": case[0].wrist}
        for name, series in streams.items():
            analysis = pipeline.analyze_subject(pipeline.SubjectData(name, series, case[0].finger, case[0].meta), FAST)
            gate = analysis.gate_pass
            idx = analysis.starts[:, None] + np.arange(FAST.window_len)
            X = extract_rows({c: series.channel(c)[idx] for c in features.CHANNELS}, catalog)
            z = GbdtModel(trees, golden.base_logit, golden.params, catalog).predict_logit_batch(X[gate])
            w = float(np.quantile(np.abs(z), 0.3)) / len(ar)
            stumps = [[dict(split, feature=j, threshold=float(np.median(X[:, j]))), {"leaf": w}, {"leaf": -w}] for j in ar]
            model = GbdtModel(trees + stumps, golden.base_logit, golden.params, catalog)
            undecided = ~np.logical_or(*model.decide(X[gate], 0.5, set(ar)))
            assert 0.05 < undecided.mean() < 0.95 and (name != "gapped" or series.gap.any())
            out[name] = series, analysis, model, model.predict_proba_batch(X)
        return out

    @pytest.mark.parametrize("stream", ["golden", "high_dc_contact_loss", "gapped"])
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, "exact", "exact_below", "exact_above", 5e-324, 1 - 2**-53])
    def test_mask_equals_full_prediction(self, mask_cases, stream, q):
        """``_emit`` emits what a prediction from every feature emits, at the
        edges of [0, 1] and next to them, at 0.5, and at one gate-passing
        window's exact probability and its float neighbours."""
        series, analysis, model, proba = mask_cases[stream]
        gate = analysis.gate_pass
        if isinstance(q, str):
            p = float(proba[gate][np.argmin(np.abs(proba[gate] - 0.5))])
            q = {"exact": p, "exact_below": math.nextafter(p, 0.0), "exact_above": math.nextafter(p, 1.0)}[q]
        got = pipeline._emit(series, analysis.starts, gate, model, replace(FAST, decision_threshold=q))
        np.testing.assert_array_equal(got, (proba >= q) & gate)

    @pytest.mark.parametrize("q", [0.5, 0.0])
    def test_predicts_once_per_block_of_open_windows(self, mask_cases, monkeypatch, q):
        """``_emit`` predicts the windows that the bounds leave open,
        ``BLOCK_WINDOWS`` at a time, and never when none is open: every
        window passes at 0."""
        series, analysis, model, _ = mask_cases["high_dc_contact_loss"]
        starts = analysis.starts[analysis.gate_pass]
        ar = {j for j, spec in enumerate(model.feature_catalog) if spec.name == "ar_coefficient"}
        X = features.extract_matrix(series, starts, FAST.window_len, model.feature_catalog)
        n_open = int((~np.logical_or(*model.decide(X, q, ar))).sum())
        assert len(starts) > 4 * 64 and (n_open > 2 * 64 if q else n_open == 0)
        sizes, predict = [], GbdtModel.predict_proba_batch
        monkeypatch.setattr(GbdtModel, "predict_proba_batch", lambda self, X: sizes.append(len(X)) or predict(self, X))
        monkeypatch.setattr(signal_io, "BLOCK_WINDOWS", 64)
        pipeline._emit(series, analysis.starts, analysis.gate_pass, model, replace(FAST, decision_threshold=q))
        assert sizes == [64] * (n_open // 64) + [n_open % 64] * (n_open % 64 > 0)

    def test_working_memory_does_not_grow_with_windows(self):
        """Peak traced memory of ``_emit`` besides its output mask is one
        block's worth, the same for 4 and 16 blocks of gate-passing windows,
        with the whole 72-column catalog in the model, and under 6 MB. The
        AR tree's leaves outweigh the other two trees, so no window is
        decided without its AR column: every window is left open, and the
        second loop extracts all its split columns and predicts it."""
        catalog = features.build_catalog()
        split = {"default": "left", "left": 1, "right": 2}
        stumps = ((8, 5.05e4, 1.0), (22, 0.0, 0.25), (40, 0.0, 0.25))
        trees = [[dict(split, feature=j, threshold=t), {"leaf": w}, {"leaf": -w}] for j, t, w in stumps]
        model = GbdtModel(trees, 0.0, GbdtParams(), catalog)
        assert [catalog[j].name for j, _, _ in stumps] == ["ar_coefficient", "autocorrelation", "autocorrelation"]
        X = np.full((4, len(catalog)), np.nan)
        X[:, 22], X[:, 40] = [-1, -1, 1, 1], [-1, 1, -1, 1]  # each path of the non-AR trees
        assert not np.logical_or(*model.decide(X, FAST.decision_threshold, {8})).any()
        rng = np.random.default_rng(2)
        overhead = []
        for blocks in (4, 16):
            n = blocks * signal_io.BLOCK_WINDOWS + 99
            chans = (rng.uniform(5.0e4, 5.1e4, n), rng.uniform(6.0e4, 6.1e4, n), rng.uniform(0.9, 1.1, n), rng.uniform(0, 0.2, n))
            series = FrameSeries(40 * np.arange(n), *chans, np.zeros(n, dtype=bool))
            starts = np.arange(n - 99)
            gate_pass = np.ones(len(starts), dtype=bool)
            tracemalloc.start()
            try:
                emit = pipeline._emit(series, starts, gate_pass, model, FAST)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 0 < emit.sum() < len(emit)
            overhead.append(peak - emit.nbytes)
        assert abs(overhead[1] - overhead[0]) < 1e6, overhead
        assert max(overhead) < 6e6, overhead


class TestSweep:
    def test_single_value_matches_loocv(self, cohort_small):
        subjects, settings = cohort_small
        rows = pipeline.sweep("reliability_threshold", [2.0], subjects, settings)
        reports = pipeline.run_loocv(subjects, settings)
        assert len(rows) == 1
        prec, _ = metrics.aggregate([r.precision for r in reports])
        rmse_p, _ = metrics.aggregate([r.rmse_pruned for r in reports])
        assert rows[0]["precision"] == pytest.approx(prec)
        assert rows[0]["rmse_pruned"] == pytest.approx(rmse_p)

    def test_window_sweep_rows(self, cohort_small):
        subjects, settings = cohort_small
        rows = pipeline.sweep("window_len", [50, 100], subjects, settings)
        assert len(rows) == 2
        assert all(r["rmse_pruned"] is not None for r in rows)

    def test_training_row_count_nonincreasing_in_window(self, cohort_small):
        subjects, _ = cohort_small
        counts = [
            sum(int((pipeline._gap_free_stats(s.wrist, w).start_idx % w == 0).sum()) for s in subjects)
            for w in (25, 50, 100)
        ]
        assert counts[0] >= counts[1] >= counts[2]

    def test_unknown_axis(self, cohort_small):
        subjects, settings = cohort_small
        with pytest.raises(ValueError):
            pipeline.sweep("nope", [1], subjects, settings)


class TestLoadExperiment:
    def test_config_applied(self, cohort_small):
        subjects, settings = cohort_small
        assert [s.subject_id for s in subjects] == ["s00", "s01", "s02"]
        assert settings.gbdt_params.n_estimators == 25
        assert settings.gbdt_params.seed == 11  # cohort seed flows into training
        assert settings.calibration == CalibrationCurve(110.0, 25.0)
        assert settings.window_len == 100
