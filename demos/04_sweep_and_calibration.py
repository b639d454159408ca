"""Hyperparameter sweeps and per-user calibration.

Scans the reliability labeling threshold over a small cohort, then shows
the two per-user adaptations: refitting the offset of the SpO2 curve
against reference pairs, and folding a user's own windows into training.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from pulseox import pipeline, spo2, synth
from pulseox.gbdt import GbdtParams
from pulseox.synth import SynthConfig

with tempfile.TemporaryDirectory() as d:
    out = Path(d) / "cohort"
    synth.gen_cohort(3, out, SynthConfig(duration_s=240.0), variation_seed=3)
    subjects, settings = pipeline.load_experiment(out / "cohort.json")
settings = replace(settings, gbdt_params=GbdtParams(n_estimators=30, seed=3))

# How strict should "reliable" be? Sweep the labeling threshold.
rows = pipeline.sweep("reliability_threshold", [1.0, 2.0, 4.0], subjects, settings)
print(f"{'threshold':>9s} {'precision':>10s} {'rmse_pruned':>12s}")
for r in rows:
    print(f"{r['value']:9.1f} {r['precision']:10.3f} {r['rmse_pruned']:12.2f}")

# Offset recalibration: a device reading a constant 1.46 pp high gets the
# bias estimated on the first half of the session and removed.
ref = np.full(60, 96.0)
pairs = list(zip(ref.tolist(), (ref + 1.46).tolist()))
offset, residual = spo2.recalibrate(pairs)
curve = spo2.apply_offset(settings.calibration, offset)
print(f"\nrecalibration offset {offset:+.2f} pp, held-out residual "
      f"{residual:.3f} pp, corrected intercept y0={curve.y0:.2f}")

# Classifier personalization: append the first minutes of a user's own
# labeled windows to the cohort training set and refit.
user = subjects[0]
others = subjects[1:]
X, y = pipeline.build_training_set(others, settings)
personal = pipeline.calibrate_user(X, y, user, 2.0, settings)
extra = personal.training_meta["n_rows"] - len(X)
print(f"personalized model trained with {extra} user windows added")
