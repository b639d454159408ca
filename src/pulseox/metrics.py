"""Evaluation quantities: precision, RMSE, longest silent interval.

Precision is the primary classifier objective: a device should emit few false
"reliable" readings even at the cost of coverage. When a classifier returns no
positives, precision is undefined and reported as absent (None) rather than 0
or 1; aggregates skip absent values and report how many were skipped.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import LengthMismatch
from .signal_io import csv_float, write_csv


@dataclass
class EvalReport:
    subject_id: str = ""
    site: str = ""
    group: str = ""
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    precision: float | None = None
    rmse_baseline: float | None = None
    rmse_enhanced: float | None = None
    rmse_pruned: float | None = None
    max_silent_interval_s: float = 0.0
    n_emitted: int = 0
    extras: dict = field(default_factory=dict)

    def to_row(self):
        return [
            self.subject_id,
            self.site,
            self.group,
            csv_float(self.precision),
            csv_float(self.rmse_baseline),
            csv_float(self.rmse_enhanced),
            csv_float(self.rmse_pruned),
            float(self.max_silent_interval_s),
            self.n_emitted,
        ]

    def to_json_dict(self):
        return asdict(self)


REPORT_CSV_HEADER = [
    "subject",
    "site",
    "group",
    "precision",
    "rmse_baseline",
    "rmse_enhanced",
    "rmse_pruned",
    "max_silent_s",
    "n_emitted",
]


def reports_to_csv(path, reports):
    write_csv(path, REPORT_CSV_HEADER, (r.to_row() for r in reports))


def confusion(labels, predictions):
    labels = np.asarray(labels, dtype=bool)
    predictions = np.asarray(predictions, dtype=bool)
    if labels.shape != predictions.shape:
        raise LengthMismatch(f"{labels.shape} vs {predictions.shape}")
    tp = int(np.sum(labels & predictions))
    fp = int(np.sum(~labels & predictions))
    tn = int(np.sum(~labels & ~predictions))
    fn = int(np.sum(labels & ~predictions))
    return tp, fp, tn, fn


def precision(labels, predictions) -> float | None:
    """tp / (tp + fp); None when the classifier returned no positives."""
    tp, fp, _, _ = confusion(labels, predictions)
    if tp + fp == 0:
        return None
    return tp / (tp + fp)


def rmse(pairs) -> float:
    """Root mean squared difference over (estimate, reference) pairs."""
    a = np.asarray(pairs, dtype=float)
    if len(a) == 0:
        raise ValueError("rmse of an empty pair set is undefined")
    d = a[:, 0] - a[:, 1]
    return float(np.sqrt(np.mean(d * d)))


def rmse_or_none(pairs):
    return None if len(pairs) == 0 else rmse(pairs)


def max_silent_interval(emitted_t_ms, span_ms) -> float:
    """Longest span (seconds) with no emission, boundaries included.

    A device silent since session start has genuinely produced nothing, so the
    gap from span start to the first emission (and last emission to span end)
    counts. An empty emission set yields the full span.
    """
    start, end = span_ms
    t = np.asarray(emitted_t_ms, dtype=float)
    if len(t) == 0:
        return (end - start) / 1000.0
    gaps = [t[0] - start, end - t[-1]]
    if len(t) > 1:
        gaps.append(float(np.max(np.diff(t))))
    return max(gaps) / 1000.0


def aggregate(values):
    """Mean over non-absent values plus skip count: ``(mean_or_none, n_skipped)``."""
    present = [v for v in values if v is not None]
    skipped = len(values) - len(present)
    if not present:
        return None, skipped
    return float(np.mean(present)), skipped


def fold_means(reports) -> dict:
    """The mean of each figure of ``reports`` over the folds that trained (a
    skipped fold holds placeholders) where it is present, and in
    ``precision_undefined`` the trained folds without a precision."""
    ok = [r for r in reports if "skipped" not in r.extras]
    keys = ("precision", "rmse_baseline", "rmse_enhanced", "rmse_pruned", "max_silent_interval_s")
    means = {k: aggregate([getattr(r, k) for r in ok])[0] for k in keys}
    means["precision_undefined"] = aggregate([r.precision for r in ok])[1]
    return means
