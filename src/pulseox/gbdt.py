"""Gradient-boosted decision trees for binary classification, from scratch.

Second-order (Newton) boosting on the logistic objective with exact greedy
splits, L1 soft-thresholded leaf weights, L2 shrinkage, a hessian-sum minimum
per child, and per-tree row subsampling without replacement. Training is
deterministic for a fixed seed.

Split search is presorted exact greedy (Chen & Guestrin 2016,
arXiv:1603.02754, section 4.1): ``train`` sorts every column once, each node
keeps its rows' slice of that order, and one pass of prefix sums over all
features at once scores every candidate threshold. The sort is stable, so
tied values stay in row order exactly as a per-node stable sort leaves them,
and the prefix sums and chosen splits are the same bits.

A tree is the list of its nodes in preorder, in memory as in ``model.json``:
a split is ``{"default", "feature", "left", "right", "threshold"}``, where
``left`` and ``right`` are the ids of its children, which come after it, and a
leaf is ``{"leaf": weight}``. A split sends ``x < threshold`` left; a NaN goes
to the ``default`` side. The split search assumes finite features, which the
feature catalog guarantees: it would score a NaN on the right of every
threshold while training sends it left.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import (
    CatalogMismatch,
    CorruptFile,
    EmptyMatrix,
    SchemaVersionMismatch,
    SingleClass,
)
from .features import FeatureSpec

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GbdtParams:
    learning_rate: float = 0.1
    n_estimators: int = 100
    max_depth: int = 3
    min_child_weight: float = 3.0
    reg_alpha: float = 0.3
    reg_lambda: float = 1.0
    subsample: float = 0.9
    objective: str = "logistic_binary"
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.subsample <= 1:
            raise ValueError("subsample must lie in (0, 1]")
        if self.min_child_weight < 0 or self.reg_alpha < 0 or self.reg_lambda < 0:
            raise ValueError("regularization terms must be nonnegative")
        if self.objective != "logistic_binary":
            raise ValueError(f"unsupported objective {self.objective!r}")


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


def logistic_grad_hess(logit, label):
    """Gradient and hessian of the log-loss at each logit: g = p - y, h = p(1-p)."""
    p = sigmoid(logit)
    return p - label, p * (1.0 - p)


def _soft_threshold(g: float, alpha: float) -> float:
    if g > alpha:
        return g - alpha
    if g < -alpha:
        return g + alpha
    return 0.0


def leaf_weight(G: float, H: float, params: GbdtParams) -> float:
    """Optimal leaf weight of the penalized second-order objective:
    minimizes G*w + (H + lambda)*w^2/2 + alpha*|w|."""
    return -_soft_threshold(G, params.reg_alpha) / (H + params.reg_lambda)


def _score(G, H, params):
    # G minus its clip to [-alpha, alpha] is the soft threshold, bit for bit
    t = G - np.clip(G, -params.reg_alpha, params.reg_alpha)
    return t * t / (H + params.reg_lambda)


def _presort(X) -> np.ndarray:
    """Row order of every column, shape (n_features, n_rows); ties stay in row
    order (stable mergesort)."""
    return np.argsort(X.T, axis=1, kind="mergesort")


def _restrict(order, rows, n_rows) -> np.ndarray:
    """``order`` with only the row ids in ``rows`` left, in the same order; every
    column keeps the same number of rows."""
    member = np.zeros(n_rows, dtype=bool)
    member[rows] = True
    return order[member[order]].reshape(len(order), -1)


def _goes_left(x, threshold, default_direction) -> np.ndarray:
    """Split rule: ``x < threshold`` goes left; a NaN goes to the default side."""
    if default_direction == "left":
        return ~(x >= threshold)
    return x < threshold


def best_split(X, g, h, params: GbdtParams, row_idx=None, order=None):
    """Exact greedy search for the best split over all features.

    Gain is half the score improvement of the penalized objective. Candidate
    thresholds are midpoints between consecutive distinct sorted values. Both
    children must satisfy the hessian-sum minimum. Ties in gain resolve to the
    lower feature id, then the lower threshold. Returns
    ``(feature_id, threshold, gain)`` or None.

    ``row_idx`` holds distinct row ids in ascending order. ``order`` is their
    per-column sorted order as :func:`_presort` restricted to them; it is
    computed here when not given.
    """
    if row_idx is None:
        row_idx = np.arange(len(g))
    if len(row_idx) == 0:
        raise EmptyMatrix("no rows to split")
    if order is None:
        order = _restrict(_presort(X), row_idx, len(X))
    n_features, m = order.shape
    if n_features == 0 or m < 2:
        return None
    G, H = g[row_idx].sum(), h[row_idx].sum()
    parent = float(_score(G, H, params))

    v = X[order, np.arange(n_features)[:, None]]
    GL = np.cumsum(g[order], axis=1)[:, :-1]
    HL = np.cumsum(h[order], axis=1)[:, :-1]
    valid = (v[:, :-1] < v[:, 1:]) & (HL >= params.min_child_weight) & (H - HL >= params.min_child_weight)
    gain = 0.5 * (_score(GL, HL, params) + _score(G - GL, H - HL, params) - parent)
    gain[~valid] = -np.inf
    # the first maximum in row-major order has the lowest feature id, then
    # the lowest threshold
    f, k = divmod(int(np.argmax(gain)), m - 1)
    if not gain[f, k] > 0:
        return None
    return f, float((v[f, k] + v[f, k + 1]) / 2.0), float(gain[f, k])


def _build_tree(X, g, h, row_idx, order, depth, params: GbdtParams, nodes) -> list:
    """Append the subtree of ``row_idx`` to the node list ``nodes`` in preorder
    and return ``nodes``."""
    split = best_split(X, g, h, params, row_idx, order) if depth < params.max_depth else None
    if split is None:
        w = leaf_weight(float(g[row_idx].sum()), float(h[row_idx].sum()), params)
        nodes.append({"leaf": params.learning_rate * w})
        return nodes
    f, thr, _ = split
    node = {"default": "left", "feature": f, "threshold": thr}
    nodes.append(node)
    go_left = _goes_left(X[row_idx, f], thr, "left")
    left, right = row_idx[go_left], row_idx[~go_left]
    node["left"] = len(nodes)
    _build_tree(X, g, h, left, _restrict(order, left, len(X)), depth + 1, params, nodes)
    node["right"] = len(nodes)
    _build_tree(X, g, h, right, _restrict(order, right, len(X)), depth + 1, params, nodes)
    return nodes


def _predict_tree_batch(nodes: list, X) -> np.ndarray:
    out = np.empty(len(X))
    stack = [(0, np.arange(len(X)))]
    while stack:
        i, idx = stack.pop()
        if len(idx) == 0:
            continue
        node = nodes[i]
        if "leaf" in node:
            out[idx] = node["leaf"]
            continue
        go_left = _goes_left(X[idx, node["feature"]], node["threshold"], node["default"])
        stack.append((node["left"], idx[go_left]))
        stack.append((node["right"], idx[~go_left]))
    return out


@dataclass
class GbdtModel:
    trees: list                               # one node list per tree, as model.json stores it
    base_logit: float
    params: GbdtParams
    feature_catalog: list                     # ordered FeatureSpec list
    training_meta: dict = field(default_factory=dict)

    def predict_logit_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or (self.feature_catalog and X.shape[1] != len(self.feature_catalog)):
            raise CatalogMismatch(
                f"expected {len(self.feature_catalog)} features, got {X.shape}"
            )
        z = np.full(len(X), self.base_logit)
        for t in self.trees:
            z += _predict_tree_batch(t, X)
        return z

    def predict_proba_batch(self, X) -> np.ndarray:
        return sigmoid(self.predict_logit_batch(X))


def train(X, y, params: GbdtParams, feature_catalog=None, training_meta=None) -> GbdtModel:
    """Fit the boosted ensemble.

    The base score is the log-odds of the training prior. Each round draws a
    seeded subsample of ceil(subsample*n) rows without replacement, computes
    gradients at the current logits, and fits one tree greedily; leaf weights
    are scaled by the learning rate at build time.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) == 0:
        raise EmptyMatrix("X must be a nonempty 2-D matrix")
    if len(X) < 2 or len(np.unique(y)) < 2:
        raise SingleClass("training requires >= 2 rows with both classes present")
    if feature_catalog is None:
        feature_catalog = []
    if feature_catalog and len(feature_catalog) != X.shape[1]:
        raise CatalogMismatch("catalog length must match feature count")

    n = len(X)
    p_bar = float(y.mean())
    base_logit = math.log(p_bar / (1.0 - p_bar))
    logits = np.full(n, base_logit)
    rng = np.random.default_rng(params.seed)
    m = int(math.ceil(params.subsample * n))
    order = _presort(X)

    trees = []
    for _ in range(params.n_estimators):
        rows = np.sort(rng.permutation(n)[:m])
        g = np.zeros(n)
        h = np.zeros(n)
        g[rows], h[rows] = logistic_grad_hess(logits[rows], y[rows])
        tree = _build_tree(X, g, h, rows, _restrict(order, rows, n), 0, params, [])
        trees.append(tree)
        logits += _predict_tree_batch(tree, X)

    meta = dict(training_meta or {})
    meta.setdefault("n_rows", n)
    return GbdtModel(trees, base_logit, params, list(feature_catalog), meta)


# --- serialization ------------------------------------------------------------


def _typed_nodes(nodes: list, n_features: int) -> list:
    """A tree's node list read from a file, with every field typed; children
    must point forward and stay in range, split features must index the
    catalog, and the default direction must be left or right."""
    if not nodes:
        raise CorruptFile("empty node list")
    typed = []
    for i, d in enumerate(nodes):
        if "leaf" in d:
            typed.append({"leaf": float(d["leaf"])})
            continue
        f, left, right = int(d["feature"]), int(d["left"]), int(d["right"])
        if not (i < left < len(nodes) and i < right < len(nodes)):
            raise CorruptFile(f"node {i}: child index out of order or range")
        if f < 0 or (n_features and f >= n_features):
            raise CorruptFile(f"node {i}: feature {f} outside the {n_features}-feature catalog")
        default = d.get("default", "left")
        if default not in ("left", "right"):
            raise CorruptFile(f"node {i}: default direction {default!r} is neither left nor right")
        threshold = float(d["threshold"])
        typed.append({"default": default, "feature": f, "left": left, "right": right, "threshold": threshold})
    return typed


def save(model: GbdtModel, path):
    doc = {
        "version": MODEL_SCHEMA_VERSION,
        "params": asdict(model.params),
        "base_logit": model.base_logit,
        "catalog": [s.spec_id for s in model.feature_catalog],
        "training_meta": model.training_meta,
        "trees": [{"nodes": t} for t in model.trees],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load(path) -> GbdtModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        version = doc["version"]
    except (json.JSONDecodeError, KeyError, UnicodeDecodeError) as e:
        raise CorruptFile(f"{path}: {e}")
    if version != MODEL_SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"{path}: schema version {version}")
    try:
        params = GbdtParams(**doc["params"])
        catalog = [FeatureSpec.from_id(s) for s in doc["catalog"]]
        trees = [_typed_nodes(t["nodes"], len(catalog)) for t in doc["trees"]]
        return GbdtModel(
            trees=trees,
            base_logit=float(doc["base_logit"]),
            params=params,
            feature_catalog=catalog,
            training_meta=doc.get("training_meta", {}),
        )
    except (CorruptFile, IndexError, KeyError, TypeError, ValueError) as e:
        raise CorruptFile(f"{path}: {e}")
