"""End-to-end orchestration: labeling, training, cross-validation, pruning.

The flow mirrors the measurement protocol: a wrist stream produces one
candidate reading per window; a fingertip stream processed with the enhanced
algorithm provides the reference. A window is labeled reliable when its wrist
reading lands within the reliability threshold of the time-aligned reference.
Each subject is analyzed once, a window per sample; training keeps the labeled
windows that start at a multiple of the window length, so rows do not overlap,
and inference prunes to windows the classifier trusts and the gate passes.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, replace

import numpy as np

from . import features as feats
from . import gbdt, metrics, schema, signal_io, spo2
from .errors import ConfigOutOfRange, EmptyGroup, InsufficientUserData, SingleClass


@dataclass(frozen=True)
class LabelConfig:
    reliability_threshold_pct: float = 2.0
    alignment_tolerance_ms: int = 500

    def __post_init__(self):
        if not self.reliability_threshold_pct > 0:
            raise ValueError(f"reliability threshold must be positive, got {self.reliability_threshold_pct}")
        if self.alignment_tolerance_ms < 0:
            raise ValueError(f"alignment_tolerance_ms must be nonnegative, got {self.alignment_tolerance_ms}")


@dataclass
class SubjectData:
    subject_id: str
    wrist: signal_io.FrameSeries
    finger: signal_io.FrameSeries
    meta: signal_io.StreamMeta

    @property
    def site(self):
        return self.meta.site

    @property
    def skin_tone(self):
        return self.meta.skin_tone


@dataclass
class PipelineSettings:
    window_len: int = 100
    label: LabelConfig = LabelConfig()
    gbdt_params: gbdt.GbdtParams = gbdt.GbdtParams()
    calibration: spo2.CalibrationCurve = spo2.CalibrationCurve()
    fdr_q: float = 0.05
    decision_threshold: float = 0.5

    def __post_init__(self):
        if self.window_len < spo2.MIN_WINDOW:
            raise ValueError(f"window_len must be >= {spo2.MIN_WINDOW}, got {self.window_len}")
        if not 0.0 <= self.decision_threshold <= 1.0:
            raise ValueError(f"decision_threshold must lie in [0, 1], got {self.decision_threshold}")
        if not 0.0 < self.fdr_q < 1.0:
            raise ValueError(f"fdr_q must lie in (0, 1), got {self.fdr_q}")


# --- alignment and labeling ---------------------------------------------------


def nearest_reference(wrist_t, ref_t, ref_v, tolerance_ms):
    """Nearest reference value per wrist timestamp; NaN outside tolerance."""
    out = np.full(len(wrist_t), np.nan)
    if len(ref_t) == 0:
        return out
    pick, ok = signal_io.nearest_within(ref_t, wrist_t, tolerance_ms)
    out[ok] = ref_v[pick[ok]]
    return out


def reliability_labels(value, reference, cfg: LabelConfig):
    """``(label, has_label)``: reliable iff |value - reference| <= threshold
    (inclusive); windows missing a value or a reference have no label."""
    has_label = ~np.isnan(value) & ~np.isnan(reference)
    with np.errstate(invalid="ignore"):
        label = np.abs(value - reference) <= cfg.reliability_threshold_pct
    return label & has_label, has_label


def reference_series(subject: SubjectData, settings: PipelineSettings):
    """Fingertip reference readings: enhanced algorithm, dense enough steps
    that every wrist window finds a reference within the alignment tolerance."""
    period_ms = 1000.0 / subject.meta.nominal_rate_hz
    step = max(1, int(settings.label.alignment_tolerance_ms / period_ms))
    est = spo2.enhanced_spo2(subject.finger, settings.calibration, window_len=settings.window_len, step=step)
    return est.t_ms[est.valid].astype(float), est.spo2_pct[est.valid]


@dataclass
class StreamAnalysis:
    """Per-window view of one wrist stream, a window per sample.

    Only gap-free windows appear. ``value`` is the ratio-of-ratios reading
    (NaN when DC is invalid), ``gate_pass`` the enhanced correlation gate,
    ``reference`` the aligned fingertip reading (NaN when unmatched),
    ``label`` reliability where defined (entries without value or reference
    have ``has_label`` False), and ``starts`` the index of each window's first
    sample in the wrist stream.
    """

    t_ms: np.ndarray
    value: np.ndarray
    gate_pass: np.ndarray
    reference: np.ndarray
    label: np.ndarray
    has_label: np.ndarray
    starts: np.ndarray
    span_ms: tuple


def _gap_free_stats(series, window_len):
    """The ratio-of-ratios statistics of the gap-free step-1 windows of a stream."""
    starts, t_end, has_gap = series.windows(window_len, 1)
    ok = ~has_gap
    return spo2.matrix_stats(series, starts[ok], window_len, t_end[ok], has_gap[ok])


def analyze_subject(subject: SubjectData, settings: PipelineSettings) -> StreamAnalysis:
    """The analysis of a subject that its training rows and evaluation share."""
    stats = _gap_free_stats(subject.wrist, settings.window_len)
    value, _ = spo2.calibrate(stats.ratio, settings.calibration)
    ref_t, ref_v = reference_series(subject, settings)
    reference = nearest_reference(stats.t_ms.astype(float), ref_t, ref_v, settings.label.alignment_tolerance_ms)
    label, has_label = reliability_labels(value, reference, settings.label)
    span = (int(subject.wrist.t_ms[0]), int(subject.wrist.t_ms[-1]))
    gate_pass = spo2.gate_pass(stats, spo2.EnhancedConfig())
    return StreamAnalysis(stats.t_ms, value, gate_pass, reference, label, has_label, stats.start_idx, span)


# --- training -----------------------------------------------------------------


def subject_training_rows(subject: SubjectData, analysis: StreamAnalysis, settings: PipelineSettings, max_ms=None):
    """Labeled feature rows of one subject: the windows of its ``analysis``
    that start at a multiple of the window length, so rows do not overlap.

    ``max_ms`` truncates to windows ending within the first ``max_ms`` of the
    stream (used for per-user calibration prefixes).
    """
    keep = analysis.has_label & (analysis.starts % settings.window_len == 0)
    if max_ms is not None:
        keep = keep & (analysis.t_ms <= analysis.span_ms[0] + max_ms)
    X = feats.extract_matrix(subject.wrist, analysis.starts[keep], settings.window_len, feats.build_catalog())
    y = analysis.label[keep].astype(int)
    return X, y


def build_training_set(subjects, settings: PipelineSettings):
    """Stack the labeled training rows of ``subjects`` -> (X, y)."""
    blocks = [subject_training_rows(s, analyze_subject(s, settings), settings) for s in subjects]
    X = np.vstack([b[0] for b in blocks]) if blocks else np.empty((0, len(feats.build_catalog())))
    y = np.concatenate([b[1] for b in blocks]) if blocks else np.empty(0, dtype=int)
    return X, y


def train_model(X, y, settings: PipelineSettings, training_meta=None):
    """Feature selection (Mann-Whitney + BH) followed by GBDT training.

    If selection keeps nothing, the full catalog is used; a classifier with no
    inputs is worse than one with unselected ones. No training row at all
    (no labeled window of ``window_len`` samples) is a ``SingleClass``.
    """
    if len(y) == 0:
        raise SingleClass(f"no training row: no stream holds a labeled window of {settings.window_len} samples")
    catalog = feats.build_catalog()
    selection = feats.select_features(X, y, catalog, settings.fdr_q)
    kept = selection.kept if selection.kept else catalog
    cols = [catalog.index(s) for s in kept]
    model = gbdt.train(
        X[:, cols],
        y,
        settings.gbdt_params,
        feature_catalog=kept,
        training_meta=dict(
            training_meta or {},
            label_threshold=settings.label.reliability_threshold_pct,
        ),
    )
    return model, selection


# --- inference and evaluation -------------------------------------------------


def _split_columns(model: gbdt.GbdtModel) -> set:
    """The catalog columns some tree of ``model`` splits on."""
    return {d["feature"] for t in model.trees for d in t if "leaf" not in d}


def _emit(series, starts, gate_pass, model: gbdt.GbdtModel, settings: PipelineSettings):
    """Windows that emit a reading: those that pass the correlation gate and
    that the classifier trusts. A window that fails the gate never emits, so
    only the gate-passing ``starts`` get features, and only the columns the
    trees split on are computed. The others stay NaN, so a tree that read
    one would take its default branch. The first loop computes each block's
    non-AR split columns, and ``GbdtModel.decide`` settles every window that
    no AR value can move across the threshold. The second computes every
    split column of the windows left open, ``BLOCK_WINDOWS`` at a time, and
    predicts them, so every window emits as the prediction from all its
    features says. No feature matrix of the whole stream is built."""
    q, columns, catalog = settings.decision_threshold, _split_columns(model), model.feature_catalog
    ar = {j for j, spec in enumerate(catalog) if spec.name == "ar_coefficient"}
    starts = starts[gate_pass]
    emit, negative = np.zeros(len(starts), dtype=bool), np.zeros(len(starts), dtype=bool)
    for b in signal_io.blocks(len(starts)):
        emit[b], negative[b] = model.decide(feats.extract_matrix(series, starts[b], settings.window_len, catalog, columns - ar), q, ar)
    rows = np.flatnonzero(~(emit | negative))
    for b in signal_io.blocks(len(rows)):
        X = feats.extract_matrix(series, starts[rows[b]], settings.window_len, catalog, columns)
        emit[rows[b]] = model.predict_proba_batch(X) >= q
    out = gate_pass.copy()
    out[gate_pass] = emit
    return out


def prune(series, model, settings: PipelineSettings):
    """Sliding-window pruned readings: emit the enhanced-algorithm value for
    windows that pass both the correlation gate and the classifier."""
    stats = _gap_free_stats(series, settings.window_len)
    emit = _emit(series, stats.start_idx, spo2.gate_pass(stats, spo2.EnhancedConfig()), model, settings)
    return spo2.estimates_from_stats(stats, settings.calibration, "pruned", emit=emit)


def evaluate_subject(subject: SubjectData, analysis: StreamAnalysis, model, settings: PipelineSettings):
    """The report of ``model`` on one subject."""
    emit = _emit(subject.wrist, analysis.starts, analysis.gate_pass, model, settings)

    def pair_set(mask):
        mask = mask & ~np.isnan(analysis.value) & ~np.isnan(analysis.reference)
        return np.column_stack([analysis.value[mask], analysis.reference[mask]])

    all_windows = np.ones(len(analysis.t_ms), dtype=bool)
    pruned = pair_set(emit)
    labeled = analysis.has_label
    tp, fp, tn, fn = metrics.confusion(analysis.label[labeled], emit[labeled])

    report = metrics.EvalReport(
        subject_id=subject.subject_id,
        site=subject.site,
        group=subject.skin_tone,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        precision=metrics.precision(analysis.label[labeled], emit[labeled]),
        rmse_baseline=metrics.rmse_or_none(pair_set(all_windows)),
        rmse_enhanced=metrics.rmse_or_none(pair_set(analysis.gate_pass)),
        rmse_pruned=metrics.rmse_or_none(pruned),
        max_silent_interval_s=metrics.max_silent_interval(
            analysis.t_ms[emit], analysis.span_ms
        ),
        n_emitted=int(emit.sum()),
    )
    report.extras["n_labeled"] = int(labeled.sum())
    report.extras["abs_errors_pruned"] = np.abs(pruned[:, 0] - pruned[:, 1]).tolist()
    return report


def _skipped_report(held: SubjectData, error):
    report = metrics.EvalReport(subject_id=held.subject_id, site=held.site)
    report.extras["skipped"] = f"single-class training set: {error}"
    return report


def run_loocv(subjects, settings: PipelineSettings):
    """Leave-one-subject-out: train on all others, evaluate on the hold-out.

    Each subject is analyzed once, for its training rows and its report.
    Each fold trains, then evaluates its held-out subject. A fold that
    cannot train (single-class training set) gets a diagnostic report
    instead. Reports come sorted by subject id, whatever the input order.
    """
    subjects = sorted(subjects, key=lambda s: s.subject_id)
    if len(subjects) < 2:
        raise EmptyGroup("leave-one-out needs at least 2 subjects")
    analyses = [analyze_subject(s, settings) for s in subjects]
    rows = [subject_training_rows(s, a, settings) for s, a in zip(subjects, analyses)]
    reports = []
    for i, (held, analysis) in enumerate(zip(subjects, analyses)):
        X = np.vstack([r[0] for j, r in enumerate(rows) if j != i])
        y = np.concatenate([r[1] for j, r in enumerate(rows) if j != i])
        try:
            model, _ = train_model(X, y, settings, training_meta={"held_out": held.subject_id})
        except SingleClass as e:
            reports.append(_skipped_report(held, e))
        else:
            reports.append(evaluate_subject(held, analysis, model, settings))
    return reports


def calibrate_user(base_X, base_y, user: SubjectData, minutes: float, settings: PipelineSettings):
    """Retrain from scratch with the user's training rows of the first
    ``minutes`` appended to the base training set."""
    span_ms = int(user.wrist.t_ms[-1] - user.wrist.t_ms[0])
    if span_ms < minutes * 60_000:
        raise InsufficientUserData(
            f"user stream spans {span_ms / 60000:.1f} min < {minutes} min"
        )
    if minutes > 0:
        Xu, yu = subject_training_rows(user, analyze_subject(user, settings), settings, max_ms=int(minutes * 60_000))
        X = np.vstack([base_X, Xu])
        y = np.concatenate([base_y, yu])
    else:
        X, y = base_X, base_y
    model, _ = train_model(X, y, settings, training_meta={"calibration_minutes": minutes})
    return model


def _swept(settings: PipelineSettings, axis: str, v):
    """``settings`` with the swept knob at ``v``; a value outside the knob's
    range, or a window length that is not an integer of 64 bits, is a config
    error."""
    with schema.checked(f"sweep {axis} value {v!r}: ", ConfigOutOfRange):
        if axis == "reliability_threshold":
            return replace(settings, label=replace(settings.label, reliability_threshold_pct=float(v)))
        if not float(v).is_integer():
            raise ValueError("window_len must be an integer")
        return replace(settings, window_len=schema.typed(int(v), 0, "window_len", ValueError))


def sweep(axis: str, values, subjects, settings: PipelineSettings):
    """One full leave-one-out run per value of the swept knob.

    Every value is checked before the first run. Returns rows of ``(value,
    mean precision, mean pruned RMSE, mean max silent interval, mean
    enhanced RMSE, total training rows)``, the means over the folds that
    trained (:func:`metrics.fold_means`); a value at which no fold trained is
    a ``SingleClass`` that names it.
    """
    if axis not in ("window_len", "reliability_threshold"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    swept = [_swept(settings, axis, v) for v in values]
    rows = []
    for v, s in zip(values, swept):
        reports = run_loocv(subjects, s)
        if all("skipped" in r.extras for r in reports):
            raise SingleClass(f"sweep {axis} value {v!r}: all folds failed")
        means = metrics.fold_means(reports)
        rows.append(
            {
                "value": float(v),
                "precision": means["precision"],
                "rmse_pruned": means["rmse_pruned"],
                "rmse_enhanced": means["rmse_enhanced"],
                "max_silent_s": means["max_silent_interval_s"],
                "n_labeled": sum(r.extras.get("n_labeled", 0) for r in reports),
            }
        )
    return rows


def sweep_to_csv(path, rows):
    header = ["value", "precision", "rmse_pruned", "rmse_enhanced", "max_silent_s", "n_labeled"]
    cells = ([signal_io.csv_float(r[k]) for k in header[:-1]] + [r["n_labeled"]] for r in rows)
    signal_io.write_csv(path, header, cells)


# --- experiment config ------------------------------------------------------


#: The top-level keys of an experiment config with their defaults, by which
#: :mod:`pulseox.schema` types them; ``simulate`` writes ``version``.
EXPERIMENT_FIELDS = {
    "cohort": [], "calibration": schema.defaults(spo2.CalibrationCurve), "window": {"window_len": PipelineSettings.window_len},
    "label": schema.defaults(LabelConfig), "gbdt_params": schema.defaults(gbdt.GbdtParams), "seed": gbdt.GbdtParams.seed,
    "fdr_q": PipelineSettings.fdr_q, "decision_threshold": PipelineSettings.decision_threshold, "version": 1,
}

#: The keys of a ``cohort`` entry; ``simulate`` writes ``truth_csv``.
COHORT_ENTRY_FIELDS = {"wrist_csv": "", "finger_csv": "", "subject_id": "", "truth_csv": ""}


def load_experiment(config_path):
    """Load an experiment config JSON, read by :mod:`pulseox.schema`, plus its
    cohort streams.

    Returns ``(subjects, settings)``. Stream paths are resolved relative to
    the config file's directory; stream metadata comes from the sidecars. Two
    entries with the same subject id (from the config, the sidecar or the
    file stem) are a config error.
    """
    config_path = pathlib.Path(config_path)
    cfg = schema.fields(
        schema.load(config_path, ConfigOutOfRange), EXPERIMENT_FIELDS, config_path, ConfigOutOfRange, required=("cohort",)
    )
    base = config_path.parent
    params = cfg.get("gbdt_params", {})
    if cfg.get("seed", 0) < 0:  # checked even where gbdt_params.seed overrides it
        raise ConfigOutOfRange(f"{config_path}: seed must be nonnegative, got {cfg['seed']}")
    if "seed" in cfg:
        params.setdefault("seed", cfg["seed"])
    with schema.checked(f"{config_path}: ", ConfigOutOfRange):
        settings = PipelineSettings(
            label=LabelConfig(**cfg.get("label", {})),
            gbdt_params=gbdt.GbdtParams(**params),
            calibration=spo2.CalibrationCurve(**cfg.get("calibration", {})),
            **cfg.get("window", {}),
            **{k: cfg[k] for k in ("fdr_q", "decision_threshold") if k in cfg},
        )

    if not cfg["cohort"]:
        raise ConfigOutOfRange(f"{config_path}: cohort must be a nonempty JSON list, got []")
    entries = [
        schema.fields(e, COHORT_ENTRY_FIELDS, config_path, ConfigOutOfRange, f"cohort[{i}]", ("wrist_csv", "finger_csv"))
        for i, e in enumerate(cfg["cohort"])
    ]
    subjects = {}
    for entry in entries:
        wrist_path = base / entry["wrist_csv"]
        finger_path = base / entry["finger_csv"]
        wrist, meta = signal_io.load_frames(wrist_path, "wrist")
        finger, _ = signal_io.load_frames(finger_path, "fingertip")
        sid = entry.get("subject_id", meta.subject_id or wrist_path.stem)
        if sid in subjects:
            raise ConfigOutOfRange(f"{config_path}: two cohort entries have the subject id {sid!r}")
        subjects[sid] = SubjectData(sid, wrist, finger, meta)
    return list(subjects.values()), settings
