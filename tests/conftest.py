import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pulseox import features, pipeline, synth

COHORT_SEED = 20260823


class RecordingPool(ThreadPoolExecutor):
    """A pool of one thread that keeps every future it hands out."""

    def __init__(self):
        super().__init__(1, thread_name_prefix="test-ar")
        self.futures = []

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        self.futures.append(future)
        return future

    def block(self):
        """Occupy the thread, outside ``futures``, until the returned event is set."""
        started, release = threading.Event(), threading.Event()
        super().submit(lambda: started.set() or release.wait(60))
        assert started.wait(10)
        return release


@pytest.fixture()
def ar_workers(monkeypatch):
    """``set_workers(n)`` makes ``features`` fit AR columns on ``n`` threads:
    the caller, and a pool of ``n - 1`` threads made for this test."""
    pools = {}

    def set_workers(n):
        monkeypatch.setattr(features, "_WORKERS", n)
        if n > 1:
            pool = pools.setdefault(n, ThreadPoolExecutor(n - 1, thread_name_prefix="test-ar"))
            monkeypatch.setattr(features, "_pool", lambda: pool)

    yield set_workers
    for pool in pools.values():
        pool.shutdown(cancel_futures=True)


@pytest.fixture()
def one_thread_pool(monkeypatch):
    """A ``RecordingPool`` as the AR pool of ``features``, which then splits
    its AR fits between the caller and that one thread."""
    pool = RecordingPool()
    monkeypatch.setattr(features, "_WORKERS", 2)
    monkeypatch.setattr(features, "_pool", lambda: pool)
    yield pool
    pool.shutdown(cancel_futures=True)


@pytest.fixture(scope="session")
def cohort10_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort10")
    synth.gen_cohort(10, out, synth.SynthConfig(duration_s=720.0), variation_seed=COHORT_SEED)
    return out


@pytest.fixture(scope="session")
def cohort10(cohort10_dir):
    return pipeline.load_experiment(cohort10_dir / "cohort.json")


@pytest.fixture(scope="session")
def loocv10(cohort10):
    """(reports, settings, elapsed_seconds) for the full 10-subject LOOCV."""
    subjects, settings = cohort10
    t0 = time.perf_counter()
    reports = pipeline.run_loocv(subjects, settings)
    return reports, settings, time.perf_counter() - t0


@pytest.fixture(scope="session")
def cohort_small_dir(tmp_path_factory):
    """3 subjects x 3 minutes with a lighter classifier, for fast pipeline/CLI tests."""
    out = tmp_path_factory.mktemp("cohort_small")
    synth.gen_cohort(3, out, synth.SynthConfig(duration_s=180.0), variation_seed=11)
    cfg_path = out / "cohort.json"
    cfg = json.loads(cfg_path.read_text())
    cfg["gbdt_params"] = {"n_estimators": 25}
    cfg_path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
    return out


@pytest.fixture(scope="session")
def cohort_small(cohort_small_dir):
    return pipeline.load_experiment(cohort_small_dir / "cohort.json")
