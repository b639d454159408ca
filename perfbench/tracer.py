"""Span tracing from outside the library, and the per-layer metrics built on it.

:meth:`Tracer.install` replaces every public function of the traced
``pulseox`` modules, and every public method of their classes, by a wrapper
that records a span. The wrappers sit on the module and class attributes, so
calls made inside a module (``extract_matrix`` -> ``compute_feature_batch``,
``_build_tree`` -> ``best_split``) are caught too. Spans are kept in memory
as columns and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from array import array

import numpy as np

MODULES = ("signal_io", "spo2", "features", "gbdt", "metrics", "pipeline")
FEATURE_FAMILIES = (
    "ar_coefficient",
    "autocorrelation",
    "spkt_welch_density",
    "fft_coefficient",
    "cid_ce",
    "longest_strike_below_mean",
    "mean",
    "sum_values",
    "std",
    "minimum",
    "maximum",
    "abs_energy",
)


def _public_callables(module):
    """(owner, attribute, qualified span name) of every public function of
    ``module`` and public method of its classes."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, f"{short}.{name}"
        elif inspect.isclass(obj):
            for meth, fn in sorted(vars(obj).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield obj, meth, f"{short}.{name}.{meth}"


class Tracer:
    """Spans of one job: name, start, end and parent, with the job's run id."""

    ROOT = "cli.main"  # the span the caller opens around each CLI call

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counts: dict = {}
        self._patches: list = []

    # --- recording ----------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0.0) + float(value)

    def _wrap(self, fn, span_name, counter):
        label = _LABELS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(label(args, kwargs) if label else span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the traced modules' public callables; undo with :meth:`uninstall`."""
        import importlib

        for short in MODULES:
            module = importlib.import_module(f"pulseox.{short}")
            for owner, attr, span_name in list(_public_callables(module)):
                fn = vars(owner)[attr]
                setattr(owner, attr, self._wrap(fn, span_name, _COUNTERS.get(span_name)))
                self._patches.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
        }

    # --- analysis -----------------------------------------------------------

    def _columns(self):
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        return name, parent, dur

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        _, parent, dur = self._columns()
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def _mask(self, names) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        name, _, _ = self._columns()
        return np.isin(name, ids)

    def _outermost(self, names) -> np.ndarray:
        """Indices of spans named ``names`` that run inside no other such span.

        Spans nest, and are recorded in start order, so a span is inside an
        earlier one exactly when it starts before the latest end so far.
        """
        idx = np.flatnonzero(self._mask(set(names)))
        end = np.asarray(self.end)[idx]
        start = np.asarray(self.start)[idx]
        latest = np.concatenate([[-np.inf], np.maximum.accumulate(end)[:-1]])
        return idx[start >= latest]

    def inclusive(self, *names) -> float:
        """Wall time inside spans named ``names``, counting nested ones once."""
        _, _, dur = self._columns()
        return float(dur[self._outermost(names)].sum())

    def inside(self, outer, inner) -> float:
        """Wall time in spans named ``inner`` that run inside spans named
        ``outer``, counting nested ones once."""
        o = self._outermost(outer)
        i = self._outermost(inner)
        if len(o) == 0 or len(i) == 0:
            return 0.0
        start, end = np.asarray(self.start), np.asarray(self.end)
        k = np.searchsorted(start[o], start[i], side="right") - 1
        ok = (k >= 0) & (end[i] <= end[o][np.maximum(k, 0)])
        return float((end[i] - start[i])[ok].sum())

    def module_self(self) -> dict:
        """Self time per module (``cli`` is the root span around each call)."""
        name, _, _ = self._columns()
        st = self.self_times()
        out = {}
        for nid, n in enumerate(self.names):
            mod = n.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + float(st[name == nid].sum())
        return out

    def fold_times(self) -> list:
        """Per LOOCV fold: from the start of ``train_model`` to the end of the
        held-out ``evaluate_subject`` (or of ``train_model`` when skipped)."""
        name, parent, _ = self._columns()
        ids = {n: i for i, n in enumerate(self.names)}
        out = []
        for r in np.flatnonzero(name == ids.get("pipeline.run_loocv", -1)):
            kids = np.flatnonzero(parent == r)
            for a, b in zip(kids, list(kids[1:]) + [None]):
                if self.names[name[a]] != "pipeline.train_model":
                    continue
                end = self.end[a]
                if b is not None and self.names[name[b]] == "pipeline.evaluate_subject":
                    end = self.end[b]
                out.append(end - self.start[a])
        return out


# --- span labels and counters -------------------------------------------------


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


_LABELS = {
    # one span name per feature family, so each family's time shows
    "features.compute_feature_batch": lambda a, k: f"features.family.{_arg(a, k, 0, 'spec').name}",
}


def _count_window_stream(t, a, k, ws):
    cfg = _arg(a, k, 1, "cfg")
    t.add("window_bytes", len(ws) * cfg.window_len * len(ws.channels) * 8)


def _count_extract(t, a, k, X):
    t.add("cells", X.size)


def _gate_pass(stats):
    from pulseox import spo2

    with np.errstate(invalid="ignore"):
        return int(((stats.corr >= spo2.EnhancedConfig().corr_threshold) & ~stats.dc_invalid).sum())


def _count_matrix_stats(t, a, k, stats):
    passing = _gate_pass(stats)
    t.add("spo2_windows", len(stats))
    t.add("spo2_pass", passing)
    if t.current() == "pipeline.prune":  # prune gives every step-1 window features
        t.add("useful_windows", len(stats))
        t.add("useful_pass", passing)


def _count_analyze(t, a, k, analysis):
    if _arg(a, k, 2, "step") == 1:  # evaluate_subject gives every such window features
        t.add("useful_windows", len(analysis.t_ms))
        t.add("useful_pass", int(analysis.gate_pass.sum()))


def _count_select(t, a, k, sel):
    t.add("selections", 1)
    t.add("kept", len(sel.kept))


def _count_train(t, a, k, model):
    t.add("train_rows", len(_arg(a, k, 0, "X")))
    t.add("trees", len(model.trees))


def _count_predict(t, a, k, p):
    t.add("predict_rows", len(p))


def _count_parse(t, a, k, result):
    records, _, dropped = result
    t.add("rows", len(records))
    t.add("rows_dropped", dropped)


def _count_regularize(t, a, k, series):
    t.add("gap_slots", int(series.gap.sum()))


def _count_csv(t, a, k, _):
    t.add("csv_bytes", os.path.getsize(_arg(a, k, 0, "path")))


def _count_loocv(t, a, k, reports):
    t.add("folds", len(reports))
    t.add("folds_skipped", sum("skipped" in r.extras for r in reports))


def _count_split(t, a, k, _):
    t.add("split_searches", 1)


_COUNTERS = {
    "features.window_stream": _count_window_stream,
    "features.extract_matrix": _count_extract,
    "features.select_features": _count_select,
    "spo2.matrix_stats": _count_matrix_stats,
    "spo2.estimates_to_csv": _count_csv,
    "pipeline.analyze_stream": _count_analyze,
    "pipeline.run_loocv": _count_loocv,
    "gbdt.train": _count_train,
    "gbdt.best_split": _count_split,
    "gbdt.GbdtModel.predict_proba_batch": _count_predict,
    "signal_io.parse_stream": _count_parse,
    "signal_io.regularize": _count_regularize,
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics of one traced job, in the units listed in
    ``BENCHMARK.json``; module self times plus ``cli.self_s`` add up to the
    time spent inside the job's root spans."""
    def c(key):
        return t.counts.get(key, 0.0)

    selfs = t.module_self()
    folds = t.fold_times()
    spo2_stats = ("spo2.window_stats", "spo2.matrix_stats")
    estimates = t.inclusive("spo2.enhanced_spo2", "spo2.baseline_spo2")
    return {
        "features.extract_s": t.inclusive("features.extract_matrix"),
        "features.cells": c("cells"),
        **{f"features.family.{f}_s": t.inclusive(f"features.family.{f}") for f in FEATURE_FAMILIES},
        "features.window_stream_s": t.inclusive("features.window_stream"),
        "features.window_bytes": c("window_bytes"),
        "features.useful_frac": _ratio(c("useful_pass"), c("useful_windows")),
        "features.select_s": t.inclusive("features.select_features"),
        "features.kept": _ratio(c("kept"), c("selections")),
        "features.self_s": selfs.get("features", 0.0),
        "gbdt.train_s": t.inclusive("gbdt.train"),
        "gbdt.train_rows": c("train_rows"),
        "gbdt.trees": c("trees"),
        "gbdt.split_search_s": t.inclusive("gbdt.best_split"),
        "gbdt.split_searches": c("split_searches"),
        "gbdt.predict_s": t.inclusive("gbdt.GbdtModel.predict_proba_batch", "gbdt.GbdtModel.predict_logit_batch"),
        "gbdt.predict_rows": c("predict_rows"),
        "gbdt.io_s": t.inclusive("gbdt.save", "gbdt.load"),
        "gbdt.self_s": selfs.get("gbdt", 0.0),
        "signal_io.parse_s": t.inclusive("signal_io.parse_stream"),
        "signal_io.rows": c("rows"),
        "signal_io.rows_dropped": c("rows_dropped"),
        "signal_io.to_frames_s": t.inclusive("signal_io.to_frames"),
        "signal_io.regularize_s": t.inclusive("signal_io.regularize"),
        "signal_io.gap_slots": c("gap_slots"),
        "signal_io.self_s": selfs.get("signal_io", 0.0),
        "spo2.window_stats_s": t.inclusive(*spo2_stats),
        "spo2.windows": c("spo2_windows"),
        "spo2.gate_pass_frac": _ratio(c("spo2_pass"), c("spo2_windows")),
        "spo2.estimates_s": estimates - t.inside(("spo2.enhanced_spo2", "spo2.baseline_spo2"), spo2_stats),
        "spo2.csv_write_s": t.inclusive("spo2.estimates_to_csv"),
        "spo2.csv_bytes": c("csv_bytes"),
        "spo2.self_s": selfs.get("spo2", 0.0),
        "pipeline.load_experiment_s": t.inclusive("pipeline.load_experiment"),
        "pipeline.training_rows_s": t.inclusive("pipeline.subject_training_rows", "pipeline.build_training_set"),
        "pipeline.reference_s": t.inclusive("pipeline.reference_series"),
        "pipeline.evaluate_subject_s": t.inclusive("pipeline.evaluate_subject"),
        "pipeline.prune_s": t.inclusive("pipeline.prune"),
        "pipeline.self_s": selfs.get("pipeline", 0.0),
        "pipeline.folds": c("folds"),
        "pipeline.folds_skipped": c("folds_skipped"),
        "pipeline.fold_s_max": max(folds, default=0.0),
        "metrics.s": selfs.get("metrics", 0.0),
        "cli.self_s": selfs.get("cli", 0.0),
    }


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one,
    best of ``repeats``."""

    def noop():
        return None

    best = float("inf")
    for _ in range(repeats):
        t = Tracer("span_cost")
        wrapped = t._wrap(noop, "noop", None)
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)


def write_spans(path, tracers):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([t.to_json() for t in tracers], fh)
        fh.write("\n")
