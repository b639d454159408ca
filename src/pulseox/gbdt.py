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

from . import schema
from .errors import (
    CatalogMismatch,
    ConfigOutOfRange,
    CorruptFile,
    EmptyMatrix,
    SchemaVersionMismatch,
    SingleClass,
)
from .features import build_catalog

MODEL_SCHEMA_VERSION = 1

#: The most trees a config may ask for, 100 times the default: each tree is
#: one boosting round, so a larger count would train practically forever.
MAX_ESTIMATORS = 10_000


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
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if self.n_estimators > MAX_ESTIMATORS:
            raise ValueError(f"n_estimators must be <= {MAX_ESTIMATORS}, got {self.n_estimators}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0 < self.subsample <= 1:
            raise ValueError("subsample must lie in (0, 1]")
        if self.min_child_weight < 0 or self.reg_alpha < 0 or self.reg_lambda < 0:
            raise ValueError("regularization terms must be nonnegative")
        if self.objective != "logistic_binary":
            raise ValueError(f"unsupported objective {self.objective!r}")


#: The relative margin by which a bounded probability clears the decision
#: threshold in :meth:`GbdtModel.decide`. With u = 2**-53 and numpy's ``exp``
#: allowed 4 ulps (8u), and one rounding each for the add and the divide, a
#: computed sigmoid that is not 0 is within 13u of the exact one (a quotient
#: under the smallest normal is at least 1/DBL_MAX, where rounding costs 4u).
#: Two sigmoids and the rounding of ``threshold * (1 +- margin)`` take under
#: 32u; the margin is 64u. A sigmoid of 0 is exact (``exp`` overflowed), and a
#: threshold under 1/DBL_MAX separates 0 from every other sigmoid.
DECISION_MARGIN = 2.0**-47


def sigmoid(z):
    """The logistic function; ``exp`` overflows below a logit of about -709,
    where the result takes its limit 0, so its warning is off."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


def logistic_grad_hess(logit, label):
    """Gradient and hessian of the log-loss at each logit: g = p - y, h = p(1-p)."""
    p = sigmoid(logit)
    return p - label, p * (1.0 - p)


def leaf_weight(G: float, H: float, params: GbdtParams) -> float:
    """Optimal leaf weight of the penalized second-order objective:
    minimizes G*w + (H + lambda)*w^2/2 + alpha*|w|."""
    alpha = params.reg_alpha
    return -(G - min(max(G, -alpha), alpha)) / (H + params.reg_lambda)


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


def best_split(X, g, h, params: GbdtParams, row_idx, order):
    """Exact greedy search for the best split over all features.

    Gain is half the score improvement of the penalized objective. Candidate
    thresholds are midpoints between consecutive distinct sorted values. Both
    children must satisfy the hessian-sum minimum. Ties in gain resolve to the
    lower feature id, then the lower threshold. Returns
    ``(feature_id, threshold, gain)`` or None.

    ``row_idx`` holds distinct row ids in ascending order. ``order`` is their
    per-column sorted order, :func:`_presort` of ``X`` restricted to them
    by :func:`_restrict`.
    """
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
        G, H = float(g[row_idx].sum()), float(h[row_idx].sum())
        # a zero hessian sum with reg_lambda 0 leaves the weight undefined
        w = leaf_weight(G, H, params) if H + params.reg_lambda else math.nan
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


def _predict_tree_batch(nodes: list, X, open_cols=frozenset()) -> np.ndarray:
    """The least and the greatest leaf of the tree ``nodes`` that each row of
    ``X`` reaches when every split on a column in ``open_cols`` sends it both
    ways, as rows 0 and 1 of a (2, n) array; with no open column, the one
    leaf each row reaches, as a (1, n) array."""
    out = np.full((2, len(X)), [[np.inf], [-np.inf]]) if open_cols else np.empty((1, len(X)))
    stack = [(0, np.arange(len(X)))]
    while stack:
        i, idx = stack.pop()
        if len(idx) == 0:
            continue
        node = nodes[i]
        if "leaf" in node:
            leaf = node["leaf"]
            out[:, idx] = (np.minimum(out[0, idx], leaf), np.maximum(out[1, idx], leaf)) if open_cols else leaf
            continue
        left = _goes_left(X[idx, node["feature"]], node["threshold"], node["default"])
        either = node["feature"] in open_cols
        stack.append((node["left"], idx[left | either]))
        stack.append((node["right"], idx[~left | either]))
    return out


@dataclass
class GbdtModel:
    trees: list                               # one node list per tree, as model.json stores it
    base_logit: float
    params: GbdtParams
    feature_catalog: list                     # ordered FeatureSpec list
    training_meta: dict = field(default_factory=dict)

    def logit_bounds(self, X, open_cols=frozenset()) -> np.ndarray:
        """The least and the greatest logit of each row of ``X`` over every
        value of the columns in ``open_cols``, NaN included, as rows 0 and 1
        of a (2, n) array; with no open column, the logits, as (1, n). Each
        bound adds the trees' least or greatest reachable leaves in the order
        of the logit, and rounded addition is monotone, so it holds exactly.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_catalog):
            raise CatalogMismatch(
                f"expected {len(self.feature_catalog)} features, got {X.shape}"
            )
        z = np.full((2 if open_cols else 1, len(X)), self.base_logit, dtype=float)
        for t in self.trees:
            z += _predict_tree_batch(t, X, open_cols)
        return z

    def predict_logit_batch(self, X) -> np.ndarray:
        return self.logit_bounds(X)[0]

    def predict_proba_batch(self, X) -> np.ndarray:
        return sigmoid(self.predict_logit_batch(X))

    def decide(self, X, threshold: float, open_cols) -> tuple:
        """``(positive, negative)``: the rows of ``X`` where
        ``predict_proba_batch(...) >= threshold`` holds, and those where it
        fails, whatever values the columns in ``open_cols`` take. The
        sigmoid of a row's least logit must clear ``threshold * (1 +
        DECISION_MARGIN)``, or that of its greatest stay under ``threshold *
        (1 - DECISION_MARGIN)``, at any threshold in [0, 1]."""
        p = sigmoid(self.logit_bounds(X, open_cols))
        return p[0] >= threshold * (1 + DECISION_MARGIN), p[-1] < threshold * (1 - DECISION_MARGIN)


def train(X, y, params: GbdtParams, feature_catalog, training_meta=None) -> GbdtModel:
    """Fit the boosted ensemble on ``X``, whose columns are the features of
    ``feature_catalog`` in order.

    The base score is the log-odds of the training prior. Each round draws a
    seeded subsample of ceil(subsample*n) rows without replacement, computes
    gradients at the current logits, and fits one tree greedily; leaf weights
    are scaled by the learning rate at build time. A tree with a non-finite
    leaf (a learning rate that overflows it, or ``reg_lambda`` 0 over a zero
    hessian sum) raises :class:`ConfigOutOfRange`: ``model.json`` cannot hold it.
    Boosting runs with numpy's floating-point warnings off: ``exp``
    overflows at a saturated logit, where the sigmoid still takes its limit
    0 or 1, and the other overflows and divisions by zero end in the
    non-finite leaf that this check reports.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) == 0:
        raise EmptyMatrix("X must be a nonempty 2-D matrix")
    if len(X) < 2 or len(np.unique(y)) < 2:
        raise SingleClass("training requires >= 2 rows with both classes present")
    if len(feature_catalog) != X.shape[1]:
        raise CatalogMismatch("catalog length must match feature count")

    n = len(X)
    p_bar = float(y.mean())
    base_logit = math.log(p_bar / (1.0 - p_bar))
    logits = np.full(n, base_logit)
    rng = np.random.default_rng(params.seed)
    m = int(math.ceil(params.subsample * n))
    order = _presort(X)

    trees = []
    with np.errstate(all="ignore"):
        for _ in range(params.n_estimators):
            rows = np.sort(rng.permutation(n)[:m])
            g = np.zeros(n)
            h = np.zeros(n)
            g[rows], h[rows] = logistic_grad_hess(logits[rows], y[rows])
            tree = _build_tree(X, g, h, rows, _restrict(order, rows, n), 0, params, [])
            if not all(math.isfinite(d.get("leaf", 0.0)) for d in tree):
                raise ConfigOutOfRange(
                    f"gbdt_params learning_rate={params.learning_rate!r} and reg_lambda={params.reg_lambda!r} "
                    f"give tree {len(trees)} a non-finite leaf weight: lower learning_rate or raise reg_lambda"
                )
            trees.append(tree)
            logits += _predict_tree_batch(tree, X)[0]

    meta = dict(training_meta or {})
    meta.setdefault("n_rows", n)
    return GbdtModel(trees, base_logit, params, list(feature_catalog), meta)


# --- serialization ------------------------------------------------------------


#: The top-level keys of ``model.json`` with the defaults by which
#: :mod:`pulseox.schema` types them; only ``training_meta`` may be absent.
_MODEL_FIELDS = {
    "version": MODEL_SCHEMA_VERSION, "params": schema.defaults(GbdtParams), "base_logit": 0.0, "catalog": [], "training_meta": {}, "trees": [],
}
_SPLIT_FIELDS = {"default": "left", "feature": 0, "left": 0, "right": 0, "threshold": 0.0}


def _typed_tree(tree, n_features: int, path, name) -> list:
    """The node list of ``name``, a ``{"nodes": [...]}`` tree of the model
    file at ``path``, each node read by :mod:`pulseox.schema`. The list must
    not be empty, children must point forward and stay in range, split
    features must index the catalog, and the default direction must be left
    or right."""
    nodes = schema.fields(tree, {"nodes": []}, path, CorruptFile, name, ("nodes",))["nodes"]
    if not nodes:
        raise CorruptFile(f"{path}: {name}.nodes is empty")
    typed = []
    for i, d in enumerate(nodes):
        where = f"{name}.nodes[{i}]"
        if isinstance(d, dict) and "leaf" in d:
            typed.append(schema.fields(d, {"leaf": 0.0}, path, CorruptFile, where))
            continue
        node = {"default": "left", **schema.fields(d, _SPLIT_FIELDS, path, CorruptFile, where, ("feature", "left", "right", "threshold"))}
        if not (i < node["left"] < len(nodes) and i < node["right"] < len(nodes)):
            raise CorruptFile(f"{path}: {where}: child index out of order or range")
        if not 0 <= node["feature"] < n_features:
            raise CorruptFile(f"{path}: {where}: feature {node['feature']} outside the {n_features}-feature catalog")
        if node["default"] not in ("left", "right"):
            raise CorruptFile(f"{path}: {where}: default direction {node['default']!r} is neither left nor right")
        typed.append(node)
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
    """The model file at ``path``, read by :mod:`pulseox.schema` with its
    faults as ``CorruptFile``; the catalog must be nonempty and every entry a
    spec id of :func:`build_catalog`, and a schema version other than
    ``MODEL_SCHEMA_VERSION`` is a ``SchemaVersionMismatch``."""
    doc = schema.load(path, CorruptFile)
    version = schema.typed(doc.get("version"), MODEL_SCHEMA_VERSION, f"{path}: version", CorruptFile)
    if version != MODEL_SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"{path}: schema version {version}")
    doc = schema.fields(doc, _MODEL_FIELDS, path, CorruptFile, required=("params", "base_logit", "catalog", "trees"))
    with schema.checked(f"{path}: params: ", CorruptFile):
        params = GbdtParams(**doc["params"])
    known = {s.spec_id: s for s in build_catalog()}
    for i, spec_id in enumerate(doc["catalog"]):
        if schema.typed(spec_id, "", f"{path}: catalog[{i}]", CorruptFile) not in known:
            raise CorruptFile(f"{path}: feature {spec_id!r} is not in the {len(known)}-feature catalog")
    if not doc["catalog"]:
        raise CorruptFile(f"{path}: catalog must be nonempty")
    catalog = [known[s] for s in doc["catalog"]]
    trees = [_typed_tree(t, len(catalog), path, f"trees[{k}]") for k, t in enumerate(doc["trees"])]
    return GbdtModel(trees, doc["base_logit"], params, catalog, doc.get("training_meta", {}))
