"""End-to-end orchestration: labeling, training, cross-validation, pruning.

The flow mirrors the measurement protocol: a wrist stream produces one
candidate reading per window; a fingertip stream processed with the enhanced
algorithm provides the reference. A window is labeled reliable when its wrist
reading lands within the reliability threshold of the time-aligned reference.
Training uses non-overlapping windows so feature rows stay independent;
inference slides the window one sample at a time and prunes to windows the
classifier trusts (and which pass the correlation gate).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import features as feats
from . import gbdt, metrics, signal_io, spo2
from .errors import ConfigOutOfRange, EmptyGroup, InsufficientUserData, SingleClass


@dataclass(frozen=True)
class LabelConfig:
    reliability_threshold_pct: float = 2.0
    alignment_tolerance_ms: int = 500

    def __post_init__(self):
        if self.reliability_threshold_pct <= 0:
            raise ValueError("reliability threshold must be positive")


@dataclass(frozen=True)
class CohortSplit:
    train_subjects: frozenset
    test_subjects: frozenset
    train_site: str = "wrist_top"
    test_site: str = "wrist_top"
    group_filter: str | None = None  # skin-tone tag or None


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
    enhanced: spo2.EnhancedConfig = spo2.EnhancedConfig()
    fdr_q: float = 0.05
    decision_threshold: float = 0.5
    catalog: list = field(default_factory=feats.build_catalog)

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
    est = spo2.enhanced_spo2(subject.finger, settings.calibration, settings.enhanced, settings.window_len, step)
    return est.t_ms[est.valid].astype(float), est.spo2_pct[est.valid]


@dataclass
class StreamAnalysis:
    """Per-window view of one wrist stream at a fixed step.

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


def _gap_free_stats(series, window_len, step):
    """The ratio-of-ratios statistics of the gap-free windows of a stream."""
    starts, t_end, has_gap = series.windows(window_len, step)
    ok = ~has_gap
    return spo2.matrix_stats(series, starts[ok], window_len, t_end[ok], has_gap[ok])


def analyze_stream(subject: SubjectData, settings: PipelineSettings, step: int) -> StreamAnalysis:
    stats = _gap_free_stats(subject.wrist, settings.window_len, step)
    value, _ = spo2.calibrate(stats.ratio, settings.calibration)
    ref_t, ref_v = reference_series(subject, settings)
    reference = nearest_reference(stats.t_ms.astype(float), ref_t, ref_v, settings.label.alignment_tolerance_ms)
    label, has_label = reliability_labels(value, reference, settings.label)
    span = (int(subject.wrist.t_ms[0]), int(subject.wrist.t_ms[-1]))
    gate_pass = spo2.gate_pass(stats, settings.enhanced)
    return StreamAnalysis(stats.t_ms, value, gate_pass, reference, label, has_label, stats.start_idx, span)


# --- training -----------------------------------------------------------------


def subject_training_rows(subject: SubjectData, settings: PipelineSettings, max_ms=None):
    """Non-overlapping labeled feature rows for one subject.

    ``max_ms`` truncates to windows ending within the first ``max_ms`` of the
    stream (used for per-user calibration prefixes).
    """
    analysis = analyze_stream(subject, settings, step=settings.window_len)
    keep = analysis.has_label
    if max_ms is not None:
        keep = keep & (analysis.t_ms <= analysis.span_ms[0] + max_ms)
    X = feats.extract_matrix(subject.wrist, analysis.starts[keep], settings.window_len, settings.catalog)
    y = analysis.label[keep].astype(int)
    return X, y


def build_training_set(subjects, settings: PipelineSettings):
    """Stack non-overlapping labeled rows across subjects -> (X, y)."""
    blocks = [subject_training_rows(s, settings) for s in subjects]
    X = np.vstack([b[0] for b in blocks]) if blocks else np.empty((0, len(settings.catalog)))
    y = np.concatenate([b[1] for b in blocks]) if blocks else np.empty(0, dtype=int)
    return X, y


def train_model(X, y, settings: PipelineSettings, training_meta=None):
    """Feature selection (Mann-Whitney + BH) followed by GBDT training.

    If selection keeps nothing, the full catalog is used; a classifier with no
    inputs is worse than one with unselected ones.
    """
    selection = feats.select_features(X, y, settings.catalog, settings.fdr_q)
    kept = selection.kept if selection.kept else list(settings.catalog)
    cols = [settings.catalog.index(s) for s in kept]
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
    only the gate-passing ``starts`` get features and a prediction, and
    only the columns the trees split on are computed. The others stay NaN,
    so a tree that read one would take its default branch."""
    emit = gate_pass.copy()
    X = feats.extract_matrix(series, starts[gate_pass], settings.window_len, model.feature_catalog, _split_columns(model))
    emit[gate_pass] = model.predict_proba_batch(X) >= settings.decision_threshold
    return emit


def prune(series, model, settings: PipelineSettings):
    """Sliding-window pruned readings: emit the enhanced-algorithm value for
    windows that pass both the correlation gate and the classifier."""
    stats = _gap_free_stats(series, settings.window_len, 1)
    emit = _emit(series, stats.start_idx, spo2.gate_pass(stats, settings.enhanced), model, settings)
    return spo2.estimates_from_stats(stats, settings.calibration, "pruned", emit=emit)


def evaluate_subject(subject: SubjectData, model, settings: PipelineSettings, group="") -> metrics.EvalReport:
    analysis = analyze_stream(subject, settings, step=1)
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
        group=group or subject.skin_tone,
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


def run_loocv(subjects, settings: PipelineSettings):
    """Leave-one-subject-out: train on all others, evaluate on the hold-out.

    Folds that cannot train (single-class training set) are reported with a
    diagnostic instead of aborting the run. Reports come back sorted by
    subject id, independent of input order.
    """
    subjects = sorted(subjects, key=lambda s: s.subject_id)
    if len(subjects) < 2:
        raise EmptyGroup("leave-one-out needs at least 2 subjects")
    rows = {s.subject_id: subject_training_rows(s, settings) for s in subjects}
    reports = []
    for held in subjects:
        train_ids = [s.subject_id for s in subjects if s.subject_id != held.subject_id]
        X = np.vstack([rows[i][0] for i in train_ids])
        y = np.concatenate([rows[i][1] for i in train_ids])
        try:
            model, _ = train_model(X, y, settings, training_meta={"held_out": held.subject_id})
        except SingleClass as e:
            r = metrics.EvalReport(subject_id=held.subject_id, site=held.site)
            r.extras["skipped"] = f"single-class training set: {e}"
            reports.append(r)
            continue
        reports.append(evaluate_subject(held, model, settings))
    return reports


def run_group_experiment(split: CohortSplit, subjects, settings: PipelineSettings):
    """Train on the train-side subjects, evaluate every test-side subject."""
    by_id = {s.subject_id: s for s in subjects}
    train = [by_id[i] for i in sorted(split.train_subjects) if i in by_id]
    test = [by_id[i] for i in sorted(split.test_subjects) if i in by_id]
    if split.group_filter:
        train = [s for s in train if s.skin_tone == split.group_filter]
    if not train or not test:
        raise EmptyGroup("both sides of the split must be nonempty")
    X, y = build_training_set(train, settings)
    model, _ = train_model(X, y, settings)
    group = f"{split.train_site}->{split.test_site}"
    return [evaluate_subject(s, model, settings, group=group) for s in test]


def calibrate_user(base_X, base_y, user: SubjectData, minutes: float, settings: PipelineSettings):
    """Retrain from scratch with the user's first ``minutes`` of labeled
    non-overlapping windows appended to the base training set."""
    span_ms = int(user.wrist.t_ms[-1] - user.wrist.t_ms[0])
    if span_ms < minutes * 60_000:
        raise InsufficientUserData(
            f"user stream spans {span_ms / 60000:.1f} min < {minutes} min"
        )
    if minutes > 0:
        Xu, yu = subject_training_rows(user, settings, max_ms=int(minutes * 60_000))
        X = np.vstack([base_X, Xu])
        y = np.concatenate([base_y, yu])
    else:
        X, y = base_X, base_y
    model, _ = train_model(X, y, settings, training_meta={"calibration_minutes": minutes})
    return model


def sweep(axis: str, values, subjects, settings: PipelineSettings):
    """One full leave-one-out run per value of the swept knob.

    Returns rows of ``(value, mean precision, mean pruned RMSE, mean max
    silent interval, mean enhanced RMSE, total training rows)``.
    """
    if axis not in ("window_len", "reliability_threshold"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    for v in values:
        if axis == "window_len":
            s = replace(settings, window_len=int(v))
        else:
            s = replace(settings, label=replace(settings.label, reliability_threshold_pct=float(v)))
        reports = run_loocv(subjects, s)
        prec, _ = metrics.aggregate([r.precision for r in reports])
        rmse_p, _ = metrics.aggregate([r.rmse_pruned for r in reports])
        rmse_e, _ = metrics.aggregate([r.rmse_enhanced for r in reports])
        silent, _ = metrics.aggregate([r.max_silent_interval_s for r in reports])
        n_rows = sum(r.extras.get("n_labeled", 0) for r in reports)
        rows.append(
            {
                "value": float(v),
                "precision": prec,
                "rmse_pruned": rmse_p,
                "rmse_enhanced": rmse_e,
                "max_silent_s": silent,
                "n_labeled": n_rows,
            }
        )
    return rows


def sweep_to_csv(path, rows):
    header = ["value", "precision", "rmse_pruned", "rmse_enhanced", "max_silent_s", "n_labeled"]
    cells = ([signal_io.csv_float(r[k]) for k in header[:-1]] + [r["n_labeled"]] for r in rows)
    signal_io.write_csv(path, header, cells)


# --- experiment config --------------------------------------------------------


def load_config(path):
    """The JSON object of a config file; a missing or malformed file, or a
    document that is not an object, is a config error."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError) as e:
        raise ConfigOutOfRange(f"{path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigOutOfRange(f"{path}: the config must be a JSON object")
    return cfg


def _config_value(d, key, default, where):
    """``d[key]``, or ``default`` when absent; a value whose JSON type differs
    from the default's is a config error (an integer passes for a float)."""
    v = d.get(key, default)
    allowed = (int, float) if type(default) is float else (type(default),)
    if type(v) not in allowed:
        raise ConfigOutOfRange(f"{where}{key} must be of type {type(default).__name__}, got {v!r}")
    return v


def _reject_unknown_keys(d, allowed, config_path, kind="top-level"):
    """A key of the ``kind`` object ``d`` outside ``allowed`` is a config
    error naming it."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigOutOfRange(f"{config_path}: unknown {kind} key(s) {', '.join(unknown)}")


def _config_object(cfg, name, defaults, config_path):
    """The ``name`` object of a config, or ``{}`` when absent; a key outside
    ``defaults`` or a value of another type than its default is a config
    error."""
    d = cfg.get(name, {})
    if not isinstance(d, dict):
        raise ConfigOutOfRange(f"{config_path}: {name} must be a JSON object")
    _reject_unknown_keys(d, defaults, config_path, name)
    return {k: _config_value(d, k, defaults[k], f"{config_path}: {name}.") for k in d}


def _cohort_entries(cfg, config_path):
    """The nonempty ``cohort`` list of an experiment config. Each entry must
    be an object with string ``wrist_csv`` and ``finger_csv`` paths and may
    name a string ``subject_id``; anything else is a config error."""
    where = f"{config_path}: cohort"
    if "cohort" not in cfg:
        raise ConfigOutOfRange(f"{where} is missing")
    cohort = cfg["cohort"]
    if not isinstance(cohort, list) or not cohort:
        raise ConfigOutOfRange(f"{where} must be a nonempty JSON list, got {cohort!r}")
    for i, entry in enumerate(cohort):
        if not isinstance(entry, dict):
            raise ConfigOutOfRange(f"{where}[{i}] must be a JSON object, got {entry!r}")
        for key in ("wrist_csv", "finger_csv"):
            if key not in entry:
                raise ConfigOutOfRange(f"{where}[{i}].{key} is missing")
        for key in ("wrist_csv", "finger_csv", "subject_id"):
            _config_value(entry, key, "", f"{where}[{i}].")
    return cohort


def _field_defaults(cls):
    return {f.name: f.default for f in fields(cls)}


#: The top-level keys of an experiment config; ``simulate`` writes ``version``.
EXPERIMENT_KEYS = (
    "cohort", "calibration", "window", "label", "gbdt_params", "seed", "fdr_q", "decision_threshold", "version",
)


def load_experiment(config_path):
    """Load an experiment config JSON plus its cohort streams.

    Returns ``(subjects, settings)``. Stream paths are resolved relative to
    the config file's directory; stream metadata comes from the sidecars. A
    top-level key outside ``EXPERIMENT_KEYS`` is a config error.
    """
    config_path = pathlib.Path(config_path)
    cfg = load_config(config_path)
    base = config_path.parent
    _reject_unknown_keys(cfg, EXPERIMENT_KEYS, config_path)

    calib_d = _config_object(cfg, "calibration", _field_defaults(spo2.CalibrationCurve), config_path)
    win_d = _config_object(cfg, "window", {"window_len": PipelineSettings.window_len}, config_path)
    lab_d = _config_object(cfg, "label", _field_defaults(LabelConfig), config_path)
    params_d = _config_object(cfg, "gbdt_params", _field_defaults(gbdt.GbdtParams), config_path)
    where = f"{config_path}: "
    if "seed" in cfg:
        params_d.setdefault("seed", _config_value(cfg, "seed", gbdt.GbdtParams.seed, where))
    try:
        settings = PipelineSettings(
            label=LabelConfig(**lab_d),
            gbdt_params=gbdt.GbdtParams(**params_d),
            calibration=spo2.CalibrationCurve(**calib_d),
            fdr_q=_config_value(cfg, "fdr_q", PipelineSettings.fdr_q, where),
            decision_threshold=_config_value(cfg, "decision_threshold", PipelineSettings.decision_threshold, where),
            **win_d,
        )
    except ValueError as e:  # an out-of-range value
        raise ConfigOutOfRange(f"{where}{e}") from e

    subjects = []
    for entry in _cohort_entries(cfg, config_path):
        wrist_path = base / entry["wrist_csv"]
        finger_path = base / entry["finger_csv"]
        wrist, meta = signal_io.load_frames(wrist_path, "wrist")
        finger, _ = signal_io.load_frames(finger_path, "fingertip")
        sid = entry.get("subject_id", meta.subject_id or wrist_path.stem)
        subjects.append(SubjectData(sid, wrist, finger, meta))
    return subjects, settings
