"""Acceptance suite: every top-level guarantee of the package, one test per
criterion, each printing a single pass/fail line on the terminal."""

import json
import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from naive_features import naive_feature
from test_features import extract_rows
from test_metrics import error_cdf
from pulseox import cli, features as feats, gbdt, metrics, pipeline, spo2, synth
from pulseox.features import FeatureSpec, build_catalog
from pulseox.gbdt import GbdtModel, GbdtParams
from pulseox.pipeline import PipelineSettings
from pulseox.signal_io import StreamMeta
from pulseox.spo2 import CalibrationCurve
from pulseox.synth import ArtifactSegment, SynthConfig


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, desc):
        with capsys.disabled():
            print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
        assert ok, f"criterion {num} failed: {desc}"

    return _announce


def test_criterion_01_spo2_recovery(announce):
    ok = True
    for hr in (50.0, 75.0, 120.0):
        frames, _ = synth.gen_ppg(
            SynthConfig(duration_s=720.0, heart_rate_bpm=hr, target_spo2_pct=97.0)
        )
        t0 = time.perf_counter()
        base = spo2.baseline_spo2(frames, CalibrationCurve(), step=1)
        enh = spo2.enhanced_spo2(frames, CalibrationCurve(), step=1)
        elapsed = time.perf_counter() - t0
        for ests in (base, enh):
            ok &= len(ests) == 17_901
            ok &= bool((ests.valid & (np.abs(ests.spo2_pct - 97.0) <= 0.5)).all())
        ok &= elapsed < 1.0
    announce(1, ok, "noise-free recovery within 0.5 pp at 50/75/120 bpm in < 1 s per trace")


def test_criterion_02_correlation_gate(announce):
    rejected = kept = 0
    n = 1000
    for seed in range(n):
        dirty, _ = synth.gen_ppg(
            SynthConfig(
                duration_s=4.0,
                noise_sigma=0.0008,
                seed=seed,
                artifacts=(ArtifactSegment(0.0, 4.0, "motion", 1.0),),
            )
        )
        clean, _ = synth.gen_ppg(
            SynthConfig(duration_s=4.0, noise_sigma=0.0008, seed=seed)
        )
        rejected += int(not spo2.window_stats(dirty, 100, 100).corr[0] >= 0.4)
        kept += int(spo2.window_stats(clean, 100, 100).corr[0] >= 0.4)
    ok = rejected / n >= 0.95 and kept / n >= 0.95
    announce(
        2,
        ok,
        f"gate rejects {rejected / n:.1%} of motion windows, keeps {kept / n:.1%} of clean ones",
    )


def test_criterion_03_feature_oracle(announce):
    rng = np.random.default_rng(20260823)
    n = 1000
    channels = {
        c: rng.uniform(-3, 3, (n, 100)) + rng.uniform(-5, 5, (n, 1))
        for c in feats.CHANNELS
    }
    catalog = build_catalog()
    fast = extract_rows(channels, catalog)  # the production path, AR pool included
    worst = 0.0
    for i in range(n):
        w = {c: channels[c][i] for c in feats.CHANNELS}
        for j, s in enumerate(catalog):
            want = naive_feature(s, w)
            err = abs(fast[i, j] - want) / max(1.0, abs(want))
            worst = max(worst, err)
    ok = worst <= 1e-9
    announce(3, ok, f"72-entry catalog matches naive oracle on {n} windows (worst rel err {worst:.1e})")


def test_criterion_04_gbdt_correctness(announce):
    params = GbdtParams()
    rng = np.random.default_rng(4)

    # (a) leaf weights vs grid search
    grid = np.arange(-10.0, 10.0 + 1e-9, 1e-3)
    ok_a = True
    for _ in range(100):
        G, H = float(rng.uniform(-5, 5)), float(rng.uniform(0, 5))
        w = gbdt.leaf_weight(G, H, params)
        obj = G * grid + 0.5 * (H + params.reg_lambda) * grid**2 + params.reg_alpha * np.abs(grid)
        ok_a &= abs(w - grid[np.argmin(obj)]) <= 1e-3

    # (b) gradients/hessians vs finite differences
    def loss(z, y):
        p = 1.0 / (1.0 + math.exp(-z))
        return -(y * math.log(p) + (1 - y) * math.log(1 - p))

    ok_b = True
    eps = 1e-5
    for z in rng.uniform(-4, 4, 20):
        for y in (0, 1):
            g, h = gbdt.logistic_grad_hess(z, y)
            ok_b &= abs(g - (loss(z + eps, y) - loss(z - eps, y)) / (2 * eps)) <= 1e-6
            ok_b &= abs(h - (loss(z + eps, y) - 2 * loss(z, y) + loss(z - eps, y)) / eps**2) <= 1e-4

    # (c) training log-loss nonincreasing at subsample=1 over all 100 rounds
    Xc = np.vstack([rng.normal(0, 1, (200, 3)), rng.normal(1, 1, (200, 3))])
    yc = np.repeat([0, 1], 200)
    model = gbdt.train(Xc, yc, GbdtParams(n_estimators=100, subsample=1.0, seed=1), build_catalog()[:3])
    hist = []
    for k in range(len(model.trees) + 1):  # the base score, then each tree in training order
        prefix = GbdtModel(model.trees[:k], model.base_logit, model.params, model.feature_catalog)
        p = np.clip(gbdt.sigmoid(prefix.predict_logit_batch(Xc)), 1e-15, 1 - 1e-15)
        hist.append(float(-np.mean(yc * np.log(p) + (1 - yc) * np.log(1 - p))))
    ok_c = len(hist) == 101 and all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    # (d) 4-point split example selects threshold 2.5
    f, thr, _ = gbdt.best_split(
        np.array([[1.0], [2.0], [3.0], [4.0]]),
        np.array([0.5, 0.5, -0.5, -0.5]),
        np.full(4, 0.25),
        GbdtParams(min_child_weight=0.0),
        np.arange(4),
        np.array([[0, 1, 2, 3]]),  # the rows in ascending feature order
    )
    ok_d = f == 0 and thr == pytest.approx(2.5)

    # (e) linearly separable set
    Xe = rng.uniform(-2, 2, (2000, 2))
    ye = (Xe.sum(axis=1) > 0).astype(int)
    Xe[ye == 1] += 0.25
    Xe[ye == 0] -= 0.25
    m = gbdt.train(Xe, ye, GbdtParams(seed=2), build_catalog()[:2])
    acc = float(np.mean((m.predict_proba_batch(Xe) >= 0.5) == (ye == 1)))
    ok_e = acc >= 0.99

    ok = ok_a and ok_b and ok_c and ok_d and ok_e
    announce(4, ok, f"leaf weights, grad/hess, monotone loss, split choice, {acc:.1%} separable accuracy")


def test_criterion_05_benjamini_hochberg(announce):
    def specs(n):
        return [FeatureSpec("red", f"f{i}") for i in range(n)]

    s4 = specs(4)
    ok = feats.benjamini_hochberg(dict(zip(s4, [1.0] * 4)), 0.05).kept == []
    ok &= set(feats.benjamini_hochberg(dict(zip(s4, [0.005, 0.01, 0.03, 0.04])), 0.05).kept) == set(s4)
    s1 = specs(1)
    ok &= feats.benjamini_hochberg({s1[0]: 0.04}, 0.05).kept == s1

    rng = np.random.default_rng(5)
    for _ in range(1000):
        s = specs(20)
        p = rng.random(20)
        kept1 = set(feats.benjamini_hochberg(dict(zip(s, p)), 0.05).kept)
        p2 = p.copy()
        j = rng.integers(20)
        p2[j] *= rng.random()
        kept2 = set(feats.benjamini_hochberg(dict(zip(s, p2)), 0.05).kept)
        ok &= kept1 <= kept2
    announce(5, ok, "step-up rule matches hand results; monotone on 1000 random p-vectors")


def test_criterion_06_metrics_exactness(announce):
    ok = metrics.precision([1, 0, 1], [1, 0, 1]) == 1.0
    ok &= metrics.precision([1, 0, 1], [0, 0, 0]) is None
    ok &= abs(metrics.precision([1, 0, 1, 0], [1, 1, 1, 0]) - 2 / 3) <= 1e-12
    ok &= metrics.rmse([(97.0, 97.0)]) == 0.0
    ok &= abs(metrics.rmse([(95.0, 98.0)]) - 3.0) <= 1e-12
    ok &= abs(metrics.rmse([(0.0, 3.0), (0.0, -4.0)]) - math.sqrt(12.5)) <= 1e-12
    ok &= abs(metrics.max_silent_interval([0, 60_000, 300_000], (0, 720_000)) - 420.0) <= 1e-12
    ok &= abs(metrics.max_silent_interval([], (0, 720_000)) - 720.0) <= 1e-12
    t = np.arange(0, 10_000, 40)
    ok &= abs(metrics.max_silent_interval(t, (0, int(t[-1]))) - 0.04) <= 1e-12
    table = error_cdf([1.0])
    ok &= table.tolist() == [[1.0, 1.0]]
    table = error_cdf([3.0, 1.0, 4.0, 2.0])
    ok &= table[1][0] == 2.0 and abs(table[1][1] - 0.5) <= 1e-12
    announce(6, ok, "precision/RMSE/silent-interval/CDF equal hand computations")


def test_criterion_07_end_to_end_direction(announce, loocv10):
    reports, settings, elapsed = loocv10
    usable = [r for r in reports if "skipped" not in r.extras]
    rb, _ = metrics.aggregate([r.rmse_baseline for r in usable])
    re_, _ = metrics.aggregate([r.rmse_enhanced for r in usable])
    rp, _ = metrics.aggregate([r.rmse_pruned for r in usable])
    prec, _ = metrics.aggregate([r.precision for r in usable])
    silent, _ = metrics.aggregate([r.max_silent_interval_s for r in usable])
    ok = len(usable) == 10
    ok &= rb > re_ > rp
    ok &= rp <= re_ / 3.0
    ok &= prec >= 0.70
    ok &= silent <= 0.25 * 720.0
    ok &= elapsed <= 300.0
    announce(
        7,
        ok,
        f"LOOCV rmse {rb:.1f} > {re_:.2f} > {rp:.2f}, precision {prec:.2f}, "
        f"silent {silent:.0f} s, {elapsed:.0f} s runtime",
    )


def _calibration_subject(sid, duration_s, seed, kinds):
    arts = []
    t = 15.0
    rng = np.random.default_rng(seed)
    while t < duration_s - 10.0:
        kind = kinds[len(arts) % len(kinds)]
        arts.append(ArtifactSegment(t, float(rng.uniform(4.0, 8.0)), kind, float(rng.uniform(1.0, 2.0))))
        t += float(rng.uniform(25.0, 40.0))
    wrist_cfg = SynthConfig(
        duration_s=duration_s, noise_sigma=0.0008, seed=seed, artifacts=tuple(arts)
    )
    finger_cfg = replace(
        wrist_cfg, perfusion_index=0.05, noise_sigma=0.0002, artifacts=(), seed=seed + 1
    )
    wrist, _ = synth.gen_ppg(wrist_cfg)
    finger, _ = synth.gen_ppg(finger_cfg)
    return pipeline.SubjectData(sid, wrist, finger, StreamMeta(subject_id=sid))


def test_criterion_08_calibration_mirroring(announce):
    # constant-bias recalibration
    ref = np.linspace(94.0, 98.0, 60)
    offset, residual = spo2.recalibrate(list(zip(ref, ref + 1.46)))
    ok = abs(offset + 1.46) <= 1e-9 and residual < 0.05

    # user calibration: base cohort has motion artifacts only; the user's
    # stream carries ambient spikes the base model never saw
    d2, d10 = [], []
    for seed in range(5):
        settings = PipelineSettings(gbdt_params=GbdtParams(n_estimators=25, seed=seed))
        base = [
            _calibration_subject(f"b{i}", 240.0, 100 * seed + 10 * i, ("motion",))
            for i in range(3)
        ]
        user = _calibration_subject("u", 720.0, 100 * seed + 77, ("ambient_spike",))
        X, y = pipeline.build_training_set(base, settings)
        analysis = pipeline.analyze_subject(user, settings)
        catalog = feats.build_catalog()
        X_full = feats.extract_matrix(user.wrist, analysis.starts, settings.window_len, catalog)
        tail = analysis.t_ms >= analysis.span_ms[0] + 600_000

        def pruned_rmse(model):
            cols = [catalog.index(s) for s in model.feature_catalog]
            positive = model.predict_proba_batch(X_full[:, cols]) >= settings.decision_threshold
            emit = positive & analysis.gate_pass & tail
            mask = emit & ~np.isnan(analysis.value) & ~np.isnan(analysis.reference)
            pairs = np.column_stack([analysis.value[mask], analysis.reference[mask]])
            return metrics.rmse(pairs) if len(pairs) else 0.0

        m_base, _ = pipeline.train_model(X, y, settings)
        m2 = pipeline.calibrate_user(X, y, user, 2.0, settings)
        m10 = pipeline.calibrate_user(X, y, user, 10.0, settings)
        rb, r2, r10 = pruned_rmse(m_base), pruned_rmse(m2), pruned_rmse(m10)
        d2.append(r2 - rb)
        d10.append(r10 - rb)
        ok &= r2 <= rb + 0.2 and r10 <= rb + 0.2
    ok &= statistics.median(d2) < 0 and statistics.median(d10) < 0
    announce(
        8,
        ok,
        f"1.46 pp bias removed; calibration deltas median {statistics.median(d2):+.2f} (2 min), "
        f"{statistics.median(d10):+.2f} pp (10 min)",
    )


def test_criterion_09_structural_subsets(announce, cohort10):
    subjects, settings = cohort10
    stub = GbdtModel(
        trees=[], base_logit=20.0, params=GbdtParams(),
        feature_catalog=[FeatureSpec("red", "mean")],
    )
    ok = True
    for subject in subjects[:2]:
        base = spo2.baseline_spo2(subject.wrist, settings.calibration, step=1)
        enh = spo2.enhanced_spo2(subject.wrist, settings.calibration, step=1)
        base_t = set(base.t_ms[base.valid].tolist())
        enh_t = set(enh.t_ms[enh.valid].tolist())
        pruned_t = set(pipeline.prune(subject.wrist, stub, settings).t_ms.tolist())
        ok &= pruned_t <= enh_t <= base_t

        # oracle-label pruning: emitting exactly the truly reliable windows
        # keeps every absolute error within the labeling threshold
        analysis = pipeline.analyze_subject(subject, settings)
        emit = analysis.gate_pass & analysis.label
        pairs = np.column_stack([analysis.value[emit], analysis.reference[emit]])
        ok &= len(pairs) > 0
        ok &= metrics.rmse(pairs) <= settings.label.reliability_threshold_pct + 1e-12
    announce(9, ok, "pruned ⊆ enhanced ⊆ baseline; oracle-label pruning RMSE ≤ 2.0 pp")


def test_criterion_10_determinism(announce, cohort_small_dir, tmp_path, capsys):
    config = str(cohort_small_dir / "cohort.json")
    a, b = tmp_path / "a", tmp_path / "b"
    ok = cli.main(["train", config, str(a)]) == 0

    # re-run from the manifest's recorded config, not the original file
    # (stream paths resolve relative to the config, so it sits by the cohort)
    manifest = json.loads((a / "manifest.json").read_text())
    replay = cohort_small_dir / "replay.json"
    replay.write_text(json.dumps(manifest["config"]))
    ok &= cli.main(["train", str(replay), str(b)]) == 0
    ok &= (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
    ok &= (a / "selection.json").read_bytes() == (b / "selection.json").read_bytes()

    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    ok &= cli.main(["evaluate", config, str(e1), "--model", str(a / "model.json")]) == 0
    ok &= cli.main(["evaluate", config, str(e2), "--model", str(b / "model.json")]) == 0
    ok &= (e1 / "reports.csv").read_bytes() == (e2 / "reports.csv").read_bytes()
    announce(10, ok, "manifest replay reproduces byte-identical models and reports")
