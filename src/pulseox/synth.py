"""Synthetic PPG + IMU traces with known ground truth.

The generator inverts the calibration line to embed a target saturation into
the channel amplitudes: given target percentage ``p``, the implied ratio is
``r = (y0 - p) / m`` and the red pulsatile amplitude is chosen so that
``(ac_red/dc_red)/(ac_ir/dc_ir) = r`` holds by construction. Both optical
channels share the exact same cardiac waveform, so clean windows pass the
correlation gate; artifact injection breaks that relationship in controlled,
annotated ways.

The cardiac waveform is a two-Gaussian pulse (systolic peak plus dicrotic
bump) normalized to zero mean and unit RMS over a full cycle, which makes the
perfusion index the AC/DC ratio of the infrared channel up to window effects.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigOutOfRange, IoFailure
from .signal_io import FrameSeries, StreamMeta, write_csv, write_json, write_stream
from .spo2 import CalibrationCurve

ARTIFACT_KINDS = ("motion", "ambient_spike", "contact_loss")

# systolic / dicrotic Gaussian bumps on cardiac phase in [0, 1)
_SYSTOLIC_CENTER, _SYSTOLIC_WIDTH = 0.30, 0.06
_DICROTIC_CENTER, _DICROTIC_WIDTH, _DICROTIC_GAIN = 0.62, 0.10, 0.45


@dataclass(frozen=True)
class ArtifactSegment:
    start_s: float
    duration_s: float
    kind: str
    intensity: float = 1.0

    def __post_init__(self):
        if self.kind not in ARTIFACT_KINDS:
            raise ConfigOutOfRange(f"unknown artifact kind {self.kind!r}")
        if self.duration_s <= 0 or self.intensity < 0:
            raise ConfigOutOfRange("artifact segment must have positive duration")


@dataclass
class SynthConfig:
    duration_s: float = 720.0
    rate_hz: float = 25.0
    heart_rate_bpm: float = 75.0
    target_spo2_pct: object = 97.0        # scalar or [(start_s, pct), ...]
    dc_red: float = 50000.0
    dc_ir: float = 60000.0
    perfusion_index: float = 0.02
    noise_sigma: float = 0.0              # Gaussian noise, fraction of channel DC
    artifacts: tuple = ()
    skin_tone_attenuation: float = 1.0
    timestamp_jitter_ms: float = 0.0      # jitters emitted timestamps only
    seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0 or self.rate_hz <= 0 or self.heart_rate_bpm <= 0:
            raise ConfigOutOfRange("duration, rate, and heart rate must be positive")
        if self.dc_red <= 0 or self.dc_ir <= 0:
            raise ConfigOutOfRange("dc levels must be positive")
        if not 0 < self.skin_tone_attenuation <= 1:
            raise ConfigOutOfRange("skin_tone_attenuation must lie in (0, 1]")
        if self.perfusion_index < 0 or self.noise_sigma < 0:
            raise ConfigOutOfRange("perfusion_index and noise_sigma must be >= 0")
        for pct in self._schedule_values():
            if not 70.0 <= pct <= 100.0:
                raise ConfigOutOfRange(f"target saturation {pct} outside [70, 100]")
        for seg in self.artifacts:
            if seg.start_s < 0 or seg.start_s >= self.duration_s:
                raise ConfigOutOfRange("artifact segment outside trace duration")

    def _schedule_values(self):
        if np.isscalar(self.target_spo2_pct):
            return [float(self.target_spo2_pct)]
        return [float(p) for _, p in self.target_spo2_pct]

    def spo2_at(self, t_s: np.ndarray) -> np.ndarray:
        """Piecewise-constant saturation schedule evaluated per sample."""
        if np.isscalar(self.target_spo2_pct):
            return np.full(len(t_s), float(self.target_spo2_pct))
        sched = sorted((float(s), float(p)) for s, p in self.target_spo2_pct)
        starts = np.array([s for s, _ in sched])
        vals = np.array([p for _, p in sched])
        idx = np.clip(np.searchsorted(starts, t_s, side="right") - 1, 0, len(vals) - 1)
        return vals[idx]


@dataclass
class SynthTruth:
    true_spo2_pct: np.ndarray
    artifact_mask: np.ndarray
    implied_r: np.ndarray


def _wrapped_gaussian(phase, center, width):
    out = np.zeros_like(phase)
    for shift in (-1.0, 0.0, 1.0):
        out += np.exp(-((phase - center + shift) ** 2) / (2.0 * width**2))
    return out


def pulse_waveform(phase: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-RMS cardiac pulse shape as a function of phase."""
    raw = _wrapped_gaussian(phase, _SYSTOLIC_CENTER, _SYSTOLIC_WIDTH)
    raw += _DICROTIC_GAIN * _wrapped_gaussian(phase, _DICROTIC_CENTER, _DICROTIC_WIDTH)
    grid = np.linspace(0.0, 1.0, 4096, endpoint=False)
    ref = _wrapped_gaussian(grid, _SYSTOLIC_CENTER, _SYSTOLIC_WIDTH)
    ref += _DICROTIC_GAIN * _wrapped_gaussian(grid, _DICROTIC_CENTER, _DICROTIC_WIDTH)
    mean = ref.mean()
    rms = np.sqrt(np.mean((ref - mean) ** 2))
    return (raw - mean) / rms


def gen_ppg(cfg: SynthConfig, calib: CalibrationCurve = CalibrationCurve()):
    """Generate one trace. Returns ``(frames, truth)``.

    Values are computed on the ideal sample grid; ``timestamp_jitter_ms`` only
    perturbs the emitted timestamps, so the jittered trace and its clean twin
    agree sample-for-sample after regularization.
    """
    rng = np.random.default_rng(cfg.seed)
    n = int(round(cfg.duration_s * cfg.rate_hz))
    t_s = np.arange(n) / cfg.rate_hz
    true_spo2 = cfg.spo2_at(t_s)
    implied_r = (calib.y0 - true_spo2) / calib.m

    phase = (t_s * cfg.heart_rate_bpm / 60.0) % 1.0
    s = pulse_waveform(phase)

    att = cfg.skin_tone_attenuation
    a_ir = cfg.perfusion_index * cfg.dc_ir
    a_red = implied_r * cfg.perfusion_index * cfg.dc_red
    ir = att * (cfg.dc_ir + a_ir * s)
    red = att * (cfg.dc_red + a_red * s)
    if cfg.noise_sigma > 0:
        red = red + rng.normal(0.0, cfg.noise_sigma * cfg.dc_red * att, n)
        ir = ir + rng.normal(0.0, cfg.noise_sigma * cfg.dc_ir * att, n)

    accel = 1.0 + np.abs(rng.normal(0.0, 0.02, n))
    gyro = 0.10 + np.abs(rng.normal(0.0, 0.01, n))

    t_ms = np.rint(t_s * 1000.0).astype(np.int64)
    if cfg.timestamp_jitter_ms > 0:
        jitter = rng.uniform(-cfg.timestamp_jitter_ms, cfg.timestamp_jitter_ms, n)
        t_ms = np.rint(t_s * 1000.0 + jitter).astype(np.int64)

    frames = FrameSeries(t_ms, red, ir, accel, gyro)
    truth = SynthTruth(true_spo2, np.zeros(n, dtype=bool), implied_r)
    if cfg.artifacts:
        frames, truth = inject_artifacts(frames, truth, cfg.artifacts, rng=rng)
    return frames, truth


def inject_artifacts(frames: FrameSeries, truth: SynthTruth, segments, rng=None, seed=0):
    """Overlay artifact segments on a trace; overlapping segments union.

    * ``motion``: low-frequency baseline wander plus decorrelating noise on
      the red channel only (the correlation gate needs true negatives to
      detect), with raised IMU magnitudes.
    * ``ambient_spike``: additive square pulse on both optical channels with
      independently drawn amplitudes; inter-channel correlation survives but
      the DC ratio (and any window straddling an edge) is corrupted.
    * ``contact_loss``: both optical channels collapse to the ADC floor.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    red = frames.red.copy()
    ir = frames.ir.copy()
    accel = frames.accel_mag.copy()
    gyro = frames.gyro_mag.copy()
    mask = truth.artifact_mask.copy()
    t_s = (frames.t_ms - frames.t_ms[0]) / 1000.0

    for seg in segments:
        sel = (t_s >= seg.start_s) & (t_s < seg.start_s + seg.duration_s)
        k = int(sel.sum())
        if k == 0:
            continue
        mask |= sel
        if seg.kind == "motion":
            dc_r = float(np.mean(red[sel]))
            f = rng.uniform(0.5, 2.0)
            ph = rng.uniform(0.0, 2 * np.pi)
            wander = np.sin(2 * np.pi * f * t_s[sel] + ph)
            noise = rng.standard_normal(k)
            red[sel] += seg.intensity * dc_r * 0.4 * (wander + noise)
            accel[sel] += seg.intensity * (1.5 + np.abs(rng.standard_normal(k)))
            gyro[sel] += seg.intensity * (1.0 + np.abs(rng.standard_normal(k)))
        elif seg.kind == "ambient_spike":
            amp_r = seg.intensity * rng.uniform(0.2, 0.8) * float(np.mean(red[sel]))
            amp_i = seg.intensity * rng.uniform(0.2, 0.8) * float(np.mean(ir[sel]))
            red[sel] += amp_r
            ir[sel] += amp_i
        elif seg.kind == "contact_loss":
            red[sel] = 0.0
            ir[sel] = 0.0

    red = np.maximum(red, 0.0)
    ir = np.maximum(ir, 0.0)
    out = FrameSeries(frames.t_ms, red, ir, accel, gyro, frames.gap.copy())
    return out, SynthTruth(truth.true_spo2_pct.copy(), mask, truth.implied_r.copy())


def write_truth(path, frames: FrameSeries, truth: SynthTruth):
    cols = (frames.t_ms.tolist(), truth.true_spo2_pct.tolist(), truth.artifact_mask.astype(int).tolist())
    write_csv(path, ["t_ms", "true_spo2_pct", "artifact"], zip(*cols))


def read_truth(path):
    t, pct, art = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            t.append(int(row[0]))
            pct.append(float(row[1]))
            art.append(bool(int(row[2])))
    return np.array(t, dtype=np.int64), np.array(pct), np.array(art, dtype=bool)


def _random_schedule(rng, duration_s):
    sched = [(0.0, float(rng.uniform(95.0, 99.0)))]
    t = 0.0
    while True:
        t += float(rng.uniform(90.0, 180.0))
        if t >= duration_s:
            break
        nxt = sched[-1][1] + float(rng.uniform(-2.0, 2.0))
        sched.append((t, float(np.clip(nxt, 92.0, 99.5))))
    return sched


def _random_artifacts(rng, duration_s, coverage, lead_in_s=10.0):
    """Alternating clean/artifact segments targeting a coverage fraction.

    Artifact runs are bounded (4-12 s) and clean gaps stay >= 6 s so a clean
    window always fits between artifacts; silence is driven by classifier
    behavior, not by generator pathology.
    """
    segs = []
    t = lead_in_s
    while t < duration_s - 5.0:
        dur = float(rng.uniform(4.0, 12.0))
        dur = min(dur, duration_s - t - 1.0)
        kind = rng.choice(ARTIFACT_KINDS, p=[0.5, 0.4, 0.1])
        segs.append(ArtifactSegment(t, dur, str(kind), float(rng.uniform(1.0, 2.0))))
        clean = dur * (1.0 - coverage) / max(coverage, 1e-6)
        t += dur + float(np.clip(clean + rng.uniform(-2.0, 2.0), 6.0, 120.0))
    return tuple(segs)


def gen_cohort(
    n_subjects: int,
    out_dir,
    base_cfg: SynthConfig = SynthConfig(),
    variation_seed: int = 0,
    calib: CalibrationCurve = CalibrationCurve(),
    site: str = "wrist_top",
):
    """Write a cohort of paired wrist/fingertip streams with truth sidecars.

    Per-subject heart rate, perfusion, skin tone, and artifact density are
    randomized; artifact coverage is swept across subjects so the oracle
    proportion of clean windows spans a wide range. Returns the experiment
    config dict (also written as ``cohort.json``).
    """
    import pathlib

    if n_subjects < 2:
        raise ConfigOutOfRange("cohort needs at least 2 subjects")
    out = pathlib.Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoFailure(str(e))

    coverages = np.linspace(0.15, 0.75, n_subjects)
    entries = []
    for i in range(n_subjects):
        rng = np.random.default_rng([variation_seed, i])
        subject = f"s{i:02d}"
        dark = i % 2 == 1
        tone = "dark" if dark else "light"
        att = float(rng.uniform(0.35, 0.55)) if dark else float(rng.uniform(0.9, 1.0))
        sched = _random_schedule(rng, base_cfg.duration_s)
        wrist_cfg = replace(
            base_cfg,
            heart_rate_bpm=float(rng.uniform(55.0, 110.0)),
            target_spo2_pct=sched,
            perfusion_index=float(rng.uniform(0.015, 0.03)),
            noise_sigma=0.0008,
            skin_tone_attenuation=att,
            artifacts=_random_artifacts(rng, base_cfg.duration_s, float(coverages[i])),
            seed=int(rng.integers(0, 2**31)),
        )
        finger_cfg = replace(
            wrist_cfg,
            perfusion_index=0.05,
            noise_sigma=0.0002,
            skin_tone_attenuation=1.0,
            artifacts=(),
            seed=int(rng.integers(0, 2**31)),
        )

        wrist_frames, truth = gen_ppg(wrist_cfg, calib)
        finger_frames, _ = gen_ppg(finger_cfg, calib)

        wrist_csv = out / f"wrist_{subject}.csv"
        finger_csv = out / f"finger_{subject}.csv"
        truth_csv = out / f"truth_{subject}.csv"
        write_stream(
            wrist_csv,
            wrist_frames,
            "wrist",
            StreamMeta(base_cfg.rate_hz, site, subject, tone),
        )
        write_stream(
            finger_csv,
            finger_frames,
            "fingertip",
            StreamMeta(base_cfg.rate_hz, "fingertip", subject, tone),
        )
        write_truth(truth_csv, wrist_frames, truth)
        entries.append(
            {
                "subject_id": subject,
                "wrist_csv": wrist_csv.name,
                "finger_csv": finger_csv.name,
                "truth_csv": truth_csv.name,
            }
        )

    config = {
        "version": 1,
        "seed": variation_seed,
        "calibration": {"y0": calib.y0, "m": calib.m},
        "cohort": entries,
    }
    write_json(out / "cohort.json", config)
    return config
