"""Generate a synthetic wrist PPG trace and pull SpO2 readings out of it.

Walks the first half of the library: the signal simulator, the windowed
ratio-of-ratios extraction, and the correlation gate that separates the
baseline algorithm from the enhanced one.
"""

import numpy as np

from pulseox import spo2, synth
from pulseox.spo2 import CalibrationCurve
from pulseox.synth import ArtifactSegment, SynthConfig

# A two minute wrist capture at 25 Hz with two motion bursts and one
# ambient-light spike. The truth record tells us exactly which samples
# were corrupted.
cfg = SynthConfig(
    duration_s=120.0,
    noise_sigma=0.0008,
    seed=7,
    target_spo2_pct=97.0,
    artifacts=(
        ArtifactSegment(30.0, 8.0, "motion", 1.5),
        ArtifactSegment(60.0, 4.0, "ambient_spike", 1.5),
        ArtifactSegment(90.0, 8.0, "motion", 1.2),
    ),
)
frames, truth = synth.gen_ppg(cfg)
print(f"generated {len(frames.red)} samples, "
      f"{truth.artifact_mask.mean():.0%} inside an artifact")

calib = CalibrationCurve()  # SpO2 = 110 - 25 * R

# Baseline: emit a reading for every window with usable DC levels.
baseline = spo2.baseline_spo2(frames, calib, step=25)

# Enhanced: additionally require red/ir correlation >= 0.4 after detrending.
enhanced = spo2.enhanced_spo2(frames, calib, step=25)

# Each result holds one column entry per window; ``valid`` marks the windows
# that carry a reading.
print(f"baseline emitted {baseline.valid.sum()}/{len(baseline)} windows")
print(f"enhanced emitted {enhanced.valid.sum()}/{len(enhanced)} windows")

# Score each algorithm against the known truth.
for name, est in (("baseline", baseline), ("enhanced", enhanced)):
    idx = np.minimum((est.t_ms[est.valid] * 25) // 1000,
                     len(truth.true_spo2_pct) - 1)
    err = est.spo2_pct[est.valid] - truth.true_spo2_pct[idx]
    print(f"{name:9s} rmse {np.sqrt(np.mean(err**2)):6.2f} pp, "
          f"worst {np.abs(err).max():6.2f} pp")

# The enhanced gate drops most corrupted windows, so its RMSE is far lower;
# the ambient spike is the one artifact it cannot see (both channels move
# together), which is what the learned classifier in demo 03 is for.
