import math

import numpy as np
import pytest

from pulseox import metrics
from pulseox.errors import LengthMismatch


def error_cdf(abs_errors):
    """Empirical CDF of absolute errors as a sorted (error, fraction) table."""
    e = np.sort(np.asarray(abs_errors, dtype=float))
    if len(e) == 0:
        raise ValueError("error_cdf of an empty set is undefined")
    frac = np.arange(1, len(e) + 1) / len(e)
    return np.column_stack([e, frac])


class TestPrecision:
    def test_all_correct(self):
        assert metrics.precision([1, 0, 1], [1, 0, 1]) == 1.0

    def test_no_positives_absent(self):
        assert metrics.precision([1, 0, 1], [0, 0, 0]) is None

    def test_hand_count(self):
        assert metrics.precision([1, 0, 1, 0], [1, 1, 1, 0]) == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metrics.precision([1, 0], [1])

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            y = rng.integers(0, 2, 20)
            p = rng.integers(0, 2, 20)
            v = metrics.precision(y, p)
            assert v is None or 0.0 <= v <= 1.0


class TestRmse:
    def test_identical(self):
        assert metrics.rmse([(97.0, 97.0), (95.0, 95.0)]) == 0.0

    def test_single_pair(self):
        assert metrics.rmse([(95.0, 98.0)]) == pytest.approx(3.0, abs=1e-12)

    def test_hand_arithmetic(self):
        assert metrics.rmse([(0.0, 3.0), (0.0, -4.0)]) == pytest.approx(
            math.sqrt(12.5), abs=1e-12
        )

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pairs = rng.normal(0, 3, (30, 2))
            mae = float(np.mean(np.abs(pairs[:, 0] - pairs[:, 1])))
            assert metrics.rmse(pairs) >= mae - 1e-12

    def test_empty_is_none(self):
        assert metrics.rmse_or_none([]) is None
        with pytest.raises(ValueError):
            metrics.rmse([])


class TestMaxSilentInterval:
    def test_trailing_boundary(self):
        got = metrics.max_silent_interval([0, 60_000, 300_000], (0, 720_000))
        assert got == pytest.approx(420.0, abs=1e-12)

    def test_dense_emissions(self):
        t = np.arange(0, 10_000, 40)
        assert metrics.max_silent_interval(t, (0, t[-1])) == pytest.approx(0.04)

    def test_empty_full_span(self):
        assert metrics.max_silent_interval([], (0, 720_000)) == pytest.approx(720.0)

    def test_monotone_in_emissions(self):
        rng = np.random.default_rng(2)
        span = (0, 100_000)
        t = np.sort(rng.integers(0, 100_000, 5))
        prev = metrics.max_silent_interval(t, span)
        for _ in range(20):
            t = np.sort(np.append(t, rng.integers(0, 100_000)))
            cur = metrics.max_silent_interval(t, span)
            assert cur <= prev + 1e-12
            prev = cur


class TestErrorCdf:
    def test_single(self):
        np.testing.assert_array_equal(error_cdf([1.0]), [[1.0, 1.0]])

    def test_four_errors(self):
        table = error_cdf([3.0, 1.0, 4.0, 2.0])
        assert table[1][0] == 2.0
        assert table[1][1] == 0.5

    def test_matches_naive_sort_rank(self):
        rng = np.random.default_rng(3)
        errs = rng.exponential(1.0, 50)
        table = error_cdf(errs)
        ranked = sorted(errs)
        for i, (e, frac) in enumerate(table):
            assert e == ranked[i]
            assert frac == pytest.approx((i + 1) / 50, abs=1e-12)

    def test_nondecreasing_ends_at_one(self):
        rng = np.random.default_rng(4)
        table = error_cdf(rng.random(37))
        assert np.all(np.diff(table[:, 0]) >= 0)
        assert np.all(np.diff(table[:, 1]) > 0)
        assert table[-1, 1] == 1.0


class TestAggregate:
    def test_skips_absent(self):
        mean, skipped = metrics.aggregate([1.0, None, 3.0])
        assert mean == pytest.approx(2.0)
        assert skipped == 1

    def test_all_absent(self):
        assert metrics.aggregate([None, None]) == (None, 2)

    def test_fold_means_leave_out_skipped_folds(self):
        trained = [
            metrics.EvalReport(precision=0.5, rmse_pruned=1.0, max_silent_interval_s=2.0),
            metrics.EvalReport(precision=None, rmse_pruned=3.0, max_silent_interval_s=4.0),
        ]
        skipped = metrics.EvalReport()  # placeholders, silent 0.0
        skipped.extras["skipped"] = "single-class training set"
        means = metrics.fold_means([skipped, *trained])
        assert means == {
            "precision": 0.5, "rmse_baseline": None, "rmse_enhanced": None, "rmse_pruned": 2.0,
            "max_silent_interval_s": 3.0, "precision_undefined": 1,
        }


class TestReportCsv:
    def test_roundtrip_row_shape(self, tmp_path):
        import csv

        r = metrics.EvalReport(
            subject_id="s00", site="wrist_top", group="light",
            precision=0.9, rmse_baseline=10.0, rmse_enhanced=None,
            rmse_pruned=1.5, max_silent_interval_s=12.0, n_emitted=42,
        )
        path = tmp_path / "r.csv"
        metrics.reports_to_csv(path, [r])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == metrics.REPORT_CSV_HEADER
        assert rows[1][0] == "s00"
        assert rows[1][5] == ""          # absent rmse_enhanced stays blank
        assert float(rows[1][3]) == 0.9
