import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from pulseox import signal_io, spo2, synth
from pulseox.errors import ConfigOutOfRange
from pulseox.spo2 import GATE_DC_INVALID, CalibrationCurve
from pulseox.synth import ArtifactSegment, SynthConfig


def read_truth(path):
    """The ``(t_ms, true_spo2_pct, artifact)`` columns of a truth CSV that
    ``gen_cohort`` writes."""
    t, pct, art = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            t.append(int(row[0]))
            pct.append(float(row[1]))
            art.append(bool(int(row[2])))
    return np.array(t, dtype=np.int64), np.array(pct), np.array(art, dtype=bool)


class TestGenPpg:
    def test_clean_trace_recovery(self):
        frames, truth = synth.gen_ppg(SynthConfig(duration_s=60.0, target_spo2_pct=97.0))
        est = spo2.enhanced_spo2(frames, CalibrationCurve(), step=25)
        assert len(est) > 0
        assert est.valid.all()
        assert (np.abs(est.spo2_pct - 97.0) <= 0.5).all()
        assert not truth.artifact_mask.any()

    def test_zero_perfusion_degenerate(self):
        frames, _ = synth.gen_ppg(SynthConfig(duration_s=8.0, perfusion_index=0.0))
        stats = spo2.matrix_stats(frames, np.array([0]), 100, frames.t_ms[99:100], np.array([False]))
        assert stats.ac_ir[0] == 0.0
        assert stats.dc_invalid[0] and np.isnan(stats.ratio[0])

    def test_same_seed_identical(self):
        cfg = SynthConfig(duration_s=20.0, noise_sigma=0.001, seed=42)
        a, _ = synth.gen_ppg(cfg)
        b, _ = synth.gen_ppg(cfg)
        np.testing.assert_array_equal(a.red, b.red)
        np.testing.assert_array_equal(a.ir, b.ir)
        np.testing.assert_array_equal(a.accel_mag, b.accel_mag)

    def test_schedule(self):
        cfg = SynthConfig(duration_s=20.0, target_spo2_pct=[(0.0, 95.0), (10.0, 98.0)])
        _, truth = synth.gen_ppg(cfg)
        assert truth.true_spo2_pct[0] == 95.0
        assert truth.true_spo2_pct[-1] == 98.0

    def test_config_validation(self):
        with pytest.raises(ConfigOutOfRange):
            SynthConfig(target_spo2_pct=105.0)
        with pytest.raises(ConfigOutOfRange):
            SynthConfig(duration_s=10.0, artifacts=(ArtifactSegment(50.0, 2.0, "motion"),))
        with pytest.raises(ConfigOutOfRange):
            ArtifactSegment(0.0, 1.0, "sunspots")

    def test_pulse_waveform_normalized(self):
        phase = np.linspace(0.0, 1.0, 4096, endpoint=False)
        s = synth.pulse_waveform(phase)
        assert abs(s.mean()) <= 1e-9
        assert np.sqrt(np.mean(s**2)) == pytest.approx(1.0, abs=1e-9)


class TestInjectArtifacts:
    base = SynthConfig(duration_s=12.0, noise_sigma=0.0008, seed=5)

    def test_empty_spec_identity(self):
        frames, truth = synth.gen_ppg(self.base)
        out, t2 = synth.inject_artifacts(frames, truth, (), np.random.default_rng(0))
        np.testing.assert_array_equal(out.red, frames.red)
        assert not t2.artifact_mask.any()

    def test_motion_breaks_correlation(self):
        rejected = 0
        for seed in range(200):
            cfg = SynthConfig(
                duration_s=4.0,
                noise_sigma=0.0008,
                seed=seed,
                artifacts=(ArtifactSegment(0.0, 4.0, "motion", 1.0),),
            )
            frames, _ = synth.gen_ppg(cfg)
            stats = spo2.window_stats(frames, 100, 100)
            rejected += int(not stats.corr[0] >= 0.4)
        assert rejected / 200 >= 0.95

    def test_contact_loss_dc_invalid(self):
        cfg = SynthConfig(
            duration_s=12.0, seed=6, artifacts=(ArtifactSegment(4.0, 4.0, "contact_loss"),)
        )
        frames, truth = synth.gen_ppg(cfg)
        ests = spo2.baseline_spo2(frames, CalibrationCurve(), step=100)
        mid = (ests.t_ms > 4000) & (ests.t_ms <= 8000)
        assert mid.any() and ests.flagged(GATE_DC_INVALID)[mid].all()

    def test_ambient_spike_survives_gate_but_corrupts(self):
        # the square pulse hits both channels coherently: correlation survives
        # on fully covered windows, but the reading moves off the truth
        cfg = SynthConfig(
            duration_s=12.0,
            seed=7,
            artifacts=(ArtifactSegment(4.0, 4.08, "ambient_spike", 1.5),),
        )
        frames, _ = synth.gen_ppg(cfg)
        stats = spo2.window_stats(frames, 100, 100)
        covered = stats.start_idx == 100  # samples 4.0s-7.96s, inside the pulse
        i = int(np.flatnonzero(covered)[0])
        assert stats.corr[i] >= 0.4
        pct = 110.0 - 25.0 * stats.ratio[i]
        assert abs(pct - 97.0) > 2.0

    def test_gate_changes_only_inside_mask(self):
        cfg = SynthConfig(
            duration_s=30.0,
            noise_sigma=0.0008,
            seed=8,
            artifacts=(ArtifactSegment(10.0, 6.0, "motion", 1.5),),
        )
        dirty, truth = synth.gen_ppg(cfg)
        clean, _ = synth.gen_ppg(synth.replace(cfg, artifacts=()))
        s_clean = spo2.window_stats(clean, 100, 1)
        s_dirty = spo2.window_stats(dirty, 100, 1)
        differs = (s_clean.corr >= 0.4) != (s_dirty.corr >= 0.4)
        for i in np.flatnonzero(differs):
            start = s_dirty.start_idx[i]
            assert truth.artifact_mask[start : start + 100].any()


class TestCohort:
    def test_wrist_files_have_full_row_count(self, cohort10_dir):
        # 12 minutes at 25 Hz -> 18000 samples per wrist capture
        for i in range(10):
            p = cohort10_dir / f"wrist_s{i:02d}.csv"
            assert sum(1 for _ in open(p)) == 18001  # header + rows

    def test_artifact_coverage_spread(self, cohort10_dir):
        clean_fracs = []
        for i in range(10):
            _, _, art = read_truth(cohort10_dir / f"truth_s{i:02d}.csv")
            clean_fracs.append(1.0 - art.mean())
        assert max(clean_fracs) - min(clean_fracs) >= 0.30

    def test_deterministic_files(self, tmp_path):
        def digest(d):
            h = hashlib.sha256()
            for p in sorted(Path(d).iterdir()):
                h.update(p.name.encode())
                h.update(p.read_bytes())
            return h.hexdigest()

        cfg = SynthConfig(duration_s=30.0)
        synth.gen_cohort(2, tmp_path / "a", cfg, variation_seed=3)
        synth.gen_cohort(2, tmp_path / "b", cfg, variation_seed=3)
        assert digest(tmp_path / "a") == digest(tmp_path / "b")

    def test_files_roundtrip(self, tmp_path):
        synth.gen_cohort(2, tmp_path, SynthConfig(duration_s=20.0), variation_seed=4)
        frames, meta, dropped = signal_io.parse_stream(tmp_path / "wrist_s01.csv", "wrist")
        assert dropped == 0
        assert meta.subject_id == "s01"
        assert meta.skin_tone == "dark"
        assert len(frames) == 500
