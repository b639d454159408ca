import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pulseox import pipeline, synth

COHORT_SEED = 20260823


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
