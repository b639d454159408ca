import math

import numpy as np
import pytest

from pulseox import gbdt
from pulseox.errors import CorruptFile, SchemaVersionMismatch, SingleClass
from pulseox.features import FeatureSpec, build_catalog
from pulseox.gbdt import GbdtModel, GbdtParams


def train(X, y, params):
    """``gbdt.train`` with the first catalog specs naming the columns of ``X``."""
    return gbdt.train(X, y, params, build_catalog()[: np.shape(X)[1]])


def best_split(X, g, h, params):
    """``gbdt.best_split`` over every row, with the presorted order ``train`` passes."""
    return gbdt.best_split(X, g, h, params, np.arange(len(g)), gbdt._presort(X))


def log_loss_scalar(z, y):
    p = 1.0 / (1.0 + math.exp(-z))
    return -(y * math.log(p) + (1 - y) * math.log(1 - p))


def loss_history(model, X, y):
    """Mean training log-loss after each prefix of the trees, from the base
    score alone to the full ensemble. ``predict_logit_batch`` adds the trees
    in the order ``train`` added them to its logits."""
    hist = []
    for k in range(len(model.trees) + 1):
        prefix = GbdtModel(model.trees[:k], model.base_logit, model.params, model.feature_catalog)
        p = np.clip(gbdt.sigmoid(prefix.predict_logit_batch(X)), 1e-15, 1 - 1e-15)
        hist.append(float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))))
    return hist


def separable_set(seed=0, n=2000):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (n, 2))
    y = (X.sum(axis=1) > 0).astype(int)
    X[y == 1] += 0.25
    X[y == 0] -= 0.25
    return X, y


def blobs(seed=0, n=400):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, (n // 2, 3)), rng.normal(1, 1, (n // 2, 3))])
    y = np.repeat([0, 1], n // 2)
    return X, y


class TestGradHess:
    def test_label_one(self):
        g, h = gbdt.logistic_grad_hess(0.0, 1)
        assert g == pytest.approx(-0.5)
        assert h == pytest.approx(0.25)

    def test_label_zero(self):
        g, h = gbdt.logistic_grad_hess(0.0, 0)
        assert g == pytest.approx(0.5)
        assert h == pytest.approx(0.25)

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        eps = 1e-5
        for z in rng.uniform(-4, 4, 20):
            for y in (0, 1):
                g, h = gbdt.logistic_grad_hess(z, y)
                gd = (log_loss_scalar(z + eps, y) - log_loss_scalar(z - eps, y)) / (2 * eps)
                hd = (
                    log_loss_scalar(z + eps, y)
                    - 2 * log_loss_scalar(z, y)
                    + log_loss_scalar(z - eps, y)
                ) / eps**2
                assert abs(g - gd) <= 1e-6
                assert abs(h - hd) <= 1e-4


class TestLeafWeight:
    params = GbdtParams(reg_alpha=0.3, reg_lambda=1.0)

    def test_arithmetic(self):
        assert gbdt.leaf_weight(2.0, 1.0, self.params) == pytest.approx(-0.85)

    def test_dead_zone(self):
        assert gbdt.leaf_weight(0.25, 1.0, self.params) == 0.0
        assert gbdt.leaf_weight(-0.3, 1.0, self.params) == 0.0

    def test_sign_symmetry(self):
        assert gbdt.leaf_weight(-2.0, 1.0, self.params) == pytest.approx(0.85)

    def test_grid_search_optimality(self):
        rng = np.random.default_rng(2)
        grid = np.arange(-10.0, 10.0 + 1e-9, 1e-3)
        for _ in range(20):
            G = float(rng.uniform(-5, 5))
            H = float(rng.uniform(0, 5))
            w = gbdt.leaf_weight(G, H, self.params)
            obj = (
                G * grid
                + 0.5 * (H + self.params.reg_lambda) * grid**2
                + self.params.reg_alpha * np.abs(grid)
            )
            assert abs(w - grid[np.argmin(obj)]) <= 1e-3


class TestBestSplit:
    def test_four_point_example(self):
        params = GbdtParams(min_child_weight=0.0)
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        g = np.array([0.5, 0.5, -0.5, -0.5])   # base logit 0, labels 0,0,1,1
        h = np.full(4, 0.25)
        f, thr, gain = best_split(X, g, h, params)
        assert f == 0
        assert thr == pytest.approx(2.5)
        # brute force over the 3 candidate thresholds with the closed-form gain
        def score(G, H):
            t = max(abs(G) - params.reg_alpha, 0.0) * np.sign(G)
            return t * t / (H + params.reg_lambda)

        gains = []
        for k in (1, 2, 3):
            GL, HL = g[:k].sum(), h[:k].sum()
            GR, HR = g[k:].sum(), h[k:].sum()
            gains.append(0.5 * (score(GL, HL) + score(GR, HR) - score(g.sum(), h.sum())))
        assert np.argmax(gains) == 1
        assert gain == pytest.approx(gains[1])

    def test_uniform_labels_no_split(self):
        params = GbdtParams(min_child_weight=0.0)
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        g = np.full(4, 0.5)
        h = np.full(4, 0.25)
        assert best_split(X, g, h, params) is None

    def test_tie_break_lower_feature(self):
        params = GbdtParams(min_child_weight=0.0)
        col = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([col, col])
        g = np.array([0.5, 0.5, -0.5, -0.5])
        h = np.full(4, 0.25)
        f, _, _ = best_split(X, g, h, params)
        assert f == 0

    def test_monotone_transform_invariance(self):
        params = GbdtParams(min_child_weight=0.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rng.uniform(0.1, 4.0, (40, 3))
            g = rng.normal(0, 1, 40)
            h = rng.uniform(0.1, 1.0, 40)
            r1 = best_split(X, g, h, params)
            X2 = X.copy()
            X2[:, 1] = np.exp(X2[:, 1])
            r2 = best_split(X2, g, h, params)
            assert (r1 is None) == (r2 is None)
            if r1 is None:
                continue
            f1, t1, gain1 = r1
            f2, t2, gain2 = r2
            assert f1 == f2
            assert gain1 == pytest.approx(gain2, rel=1e-9)
            np.testing.assert_array_equal(X[:, f1] < t1, X2[:, f2] < t2)


class TestTrain:
    def test_separable_accuracy(self):
        X, y = separable_set()
        model = train(X, y, GbdtParams(seed=1))
        acc = np.mean((model.predict_proba_batch(X) >= 0.5) == (y == 1))
        assert acc >= 0.99

    def test_loss_nonincreasing_full_sample(self):
        X, y = blobs()
        model = train(X, y, GbdtParams(n_estimators=30, subsample=1.0, seed=2))
        hist = loss_history(model, X, y)
        assert len(hist) == 31
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_same_seed_identical_files(self, tmp_path):
        X, y = blobs(seed=4)
        params = GbdtParams(n_estimators=10, seed=7)
        gbdt.save(train(X, y, params), tmp_path / "a.json")
        gbdt.save(train(X, y, params), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            train(np.ones((5, 2)), np.ones(5), GbdtParams())

    def test_depth_bound(self):
        X, y = blobs(seed=5)
        model = train(X, y, GbdtParams(n_estimators=10, max_depth=3, seed=0))

        def depth(nodes, i=0):
            d = nodes[i]
            return 0 if "leaf" in d else 1 + max(depth(nodes, d["left"]), depth(nodes, d["right"]))

        assert all(depth(t) <= 3 for t in model.trees)

    def test_min_child_weight_honored(self):
        # one round on the full sample: the hessian is uniform p*(1-p), so
        # leaf hessian sums can be audited by walking the tree with all rows
        X, y = blobs(seed=6)
        params = GbdtParams(n_estimators=1, subsample=1.0, min_child_weight=3.0, seed=0)
        model = train(X, y, params)
        p = 1.0 / (1.0 + math.exp(-model.base_logit))
        h = np.full(len(X), p * (1 - p))

        nodes = model.trees[0]

        def walk(i, idx):
            d = nodes[i]
            if "leaf" in d:
                assert h[idx].sum() >= params.min_child_weight - 1e-9
                return
            left = X[idx, d["feature"]] < d["threshold"]
            walk(d["left"], idx[left])
            walk(d["right"], idx[~left])

        walk(0, np.arange(len(X)))


class TestPredict:
    def test_zero_trees_balanced_prior(self):
        model = GbdtModel(trees=[], base_logit=0.0, params=GbdtParams(), feature_catalog=build_catalog()[:2])
        assert model.predict_proba_batch([[1.0, 2.0]])[0] == 0.5

    def test_hand_built_tree(self):
        tree = [
            {"default": "left", "feature": 0, "left": 1, "right": 2, "threshold": 0.5},
            {"leaf": 0.3},
            {"leaf": -0.2},
        ]
        model = GbdtModel(trees=[tree], base_logit=0.1, params=GbdtParams(), feature_catalog=build_catalog()[:1])
        p = model.predict_proba_batch([[0.0], [1.0]])
        assert p[0] == pytest.approx(1 / (1 + math.exp(-0.4)))
        assert p[1] == pytest.approx(1 / (1 + math.exp(0.1)))

    @pytest.mark.parametrize("direction, weight", [("left", 0.3), ("right", -0.2)])
    def test_nan_follows_default_direction(self, tmp_path, direction, weight):
        tree = [
            {"default": direction, "feature": 0, "left": 1, "right": 2, "threshold": 0.5},
            {"leaf": 0.3},
            {"leaf": -0.2},
        ]
        model = GbdtModel(trees=[tree], base_logit=0.0, params=GbdtParams(), feature_catalog=build_catalog()[:1])
        gbdt.save(model, tmp_path / "m.json")
        for m in (model, gbdt.load(tmp_path / "m.json")):
            z = m.predict_logit_batch(np.array([[np.nan], [0.0], [1.0], [0.5]]))
            np.testing.assert_array_equal(z, [weight, 0.3, -0.2, -0.2])

    def test_proba_in_unit_interval(self):
        X, y = blobs(seed=8)
        model = train(X, y, GbdtParams(n_estimators=10, seed=0))
        rng = np.random.default_rng(9)
        p = model.predict_proba_batch(rng.normal(0, 5, (10_000, 3)))
        assert np.all((p >= 0) & (p <= 1))


class TestSerialization:
    def trained(self):
        X, y = blobs(seed=10)
        catalog = [FeatureSpec("red", "mean"), FeatureSpec("ir", "std"), FeatureSpec("ir", "cid_ce")]
        return gbdt.train(X, y, GbdtParams(n_estimators=10, seed=3), feature_catalog=catalog), X

    def test_roundtrip_predictions(self, tmp_path):
        model, X = self.trained()
        path = tmp_path / "m.json"
        gbdt.save(model, path)
        back = gbdt.load(path)
        assert back.feature_catalog == model.feature_catalog
        assert back.params == model.params
        np.testing.assert_array_equal(
            back.predict_proba_batch(X), model.predict_proba_batch(X)
        )

    def test_save_load_save_same_bytes(self, tmp_path):
        model, _ = self.trained()
        gbdt.save(model, tmp_path / "a.json")
        back = gbdt.load(tmp_path / "a.json")
        assert back.trees == model.trees
        gbdt.save(back, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_truncated_file(self, tmp_path):
        model, _ = self.trained()
        path = tmp_path / "m.json"
        gbdt.save(model, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CorruptFile):
            gbdt.load(path)

    def test_version_bump(self, tmp_path):
        import json

        model, _ = self.trained()
        path = tmp_path / "m.json"
        gbdt.save(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionMismatch):
            gbdt.load(path)

    def test_unknown_default_direction(self, tmp_path):
        import json

        model, _ = self.trained()
        path = tmp_path / "m.json"
        gbdt.save(model, path)
        doc = json.loads(path.read_text())
        split = next(d for d in doc["trees"][0]["nodes"] if "leaf" not in d)
        split["default"] = "up"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptFile):
            gbdt.load(path)
