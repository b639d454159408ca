"""Train the reliability classifier and prune a noisy stream.

End-to-end: simulate a small cohort with paired fingertip references,
run leave-one-subject-out cross-validation, then apply one fold's model
to filter a corrupted trace.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from pulseox import pipeline, spo2, synth
from pulseox.gbdt import GbdtParams
from pulseox.pipeline import PipelineSettings
from pulseox.synth import SynthConfig

with tempfile.TemporaryDirectory() as d:
    out = Path(d) / "cohort"
    synth.gen_cohort(4, out, SynthConfig(duration_s=300.0), variation_seed=7)
    subjects, settings = pipeline.load_experiment(out / "cohort.json")

# Smaller ensemble than the default 100 trees keeps the demo quick.
settings = replace(settings, gbdt_params=GbdtParams(n_estimators=40, seed=7))

reports = pipeline.run_loocv(subjects, settings)
print(f"{'subject':8s} {'baseline':>9s} {'enhanced':>9s} {'pruned':>8s} "
      f"{'precision':>10s} {'silent s':>9s}")
for r in reports:
    print(f"{r.subject_id:8s} {r.rmse_baseline:9.2f} {r.rmse_enhanced:9.2f} "
          f"{r.rmse_pruned:8.2f} {r.precision:10.2f} "
          f"{r.max_silent_interval_s:9.1f}")

# Train on everyone and prune a fresh corrupted trace with the result.
X, y = pipeline.build_training_set(subjects, settings)
model, selection = pipeline.train_model(X, y, settings)
print(f"\nfinal model keeps {len(model.feature_catalog)} features "
      f"out of {X.shape[1]}")

frames, _ = synth.gen_ppg(SynthConfig(
    duration_s=120.0, noise_sigma=0.0008, seed=99,
    artifacts=(synth.ArtifactSegment(40.0, 20.0, "motion", 1.5),),
))
enhanced = spo2.enhanced_spo2(frames, settings.calibration, step=1)
pruned = pipeline.prune(frames, model, settings)
print(f"enhanced emitted {enhanced.valid.sum()} readings, "
      f"classifier kept {len(pruned)} of them")
