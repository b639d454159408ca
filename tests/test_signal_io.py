import numpy as np
import pytest

from pulseox import signal_io, synth
from pulseox.errors import EmptyStream, MalformedHeader, NonMonotonicBeyondTolerance
from pulseox.signal_io import FrameSeries, StreamMeta


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n")


WRIST_HDR = "t_ms,red,ir,ax,ay,az,gx,gy,gz"


class TestParseStream:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "s.csv"
        write_csv(p, [WRIST_HDR, "0,1,2,0,0,0,0,0,0", "40,1,2,0,0,0,0,0,0", "80,1,2,0,0,0,0,0,0"])
        frames, meta, dropped = signal_io.parse_stream(p, "wrist")
        assert len(frames) == 3
        assert dropped == 0

    def test_non_numeric_field_dropped(self, tmp_path):
        p = tmp_path / "s.csv"
        write_csv(p, [WRIST_HDR, "0,1,2,0,0,0,0,0,0", "40,oops,2,0,0,0,0,0,0", "80,1,2,0,0,0,0,0,0"])
        frames, _, dropped = signal_io.parse_stream(p, "wrist")
        assert len(frames) == 2
        assert dropped == 1

    def test_timestamp_beyond_int64_dropped(self, tmp_path):
        p = tmp_path / "s.csv"
        write_csv(p, ["t_ms,red,ir", "0,1,2", f"{2**63},1,2", f"{-2**63 - 1},1,2", "40,1,2"])
        frames, _, dropped = signal_io.parse_stream(p, "fingertip")
        assert frames.t_ms.tolist() == [0, 40]
        assert dropped == 2

    def test_bad_header(self, tmp_path):
        p = tmp_path / "s.csv"
        write_csv(p, ["time,red,ir", "0,1,2"])
        with pytest.raises(MalformedHeader):
            signal_io.parse_stream(p, "fingertip")

    def test_duplicate_timestamp_keeps_last(self, tmp_path):
        p = tmp_path / "s.csv"
        write_csv(p, ["t_ms,red,ir", "0,1,2", "40,5,6", "40,7,8"])
        frames, _, _ = signal_io.parse_stream(p, "fingertip")
        assert frames.t_ms.tolist() == [0, 40]
        assert frames.red[1] == 7

    def test_heavily_out_of_order_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        rows = [f"{t},1,2" for t in range(0, 4000, 40)]
        rows.reverse()
        write_csv(p, ["t_ms,red,ir"] + rows)
        with pytest.raises(NonMonotonicBeyondTolerance):
            signal_io.parse_stream(p, "fingertip")

    def test_roundtrip_with_synth(self, tmp_path):
        frames, _ = synth.gen_ppg(synth.SynthConfig(duration_s=20, seed=3, noise_sigma=0.001))
        p = tmp_path / "w.csv"
        signal_io.write_stream(p, frames, "wrist", StreamMeta(subject_id="x"))
        back, meta, dropped = signal_io.parse_stream(p, "wrist")
        assert dropped == 0
        assert meta.subject_id == "x"
        np.testing.assert_array_equal(back.t_ms, frames.t_ms)
        np.testing.assert_array_equal(back.red, frames.red)
        np.testing.assert_array_equal(back.ir, frames.ir)
        np.testing.assert_array_equal(back.accel_mag, frames.accel_mag)
        np.testing.assert_array_equal(back.gyro_mag, frames.gyro_mag)


class TestToFrames:
    """Motion magnitudes as :func:`signal_io.parse_stream` derives them."""

    def parse_imu(self, tmp_path, imu_rows):
        p = tmp_path / "s.csv"
        rows = [",".join([str(40 * i), "1", "1"] + [repr(float(v)) for v in imu]) for i, imu in enumerate(imu_rows)]
        write_csv(p, [WRIST_HDR] + rows)
        frames, _, dropped = signal_io.parse_stream(p, "wrist")
        assert dropped == 0
        return frames

    def test_3_4_5(self, tmp_path):
        frames = self.parse_imu(tmp_path, [(3, 4, 0, 0, 0, 0)])
        assert frames.accel_mag[0] == 5.0

    def test_zero_imu(self, tmp_path):
        frames = self.parse_imu(tmp_path, [(0, 0, 0, 0, 0, 0)])
        assert frames.accel_mag[0] == 0.0
        assert frames.gyro_mag[0] == 0.0
        p = tmp_path / "f.csv"
        write_csv(p, ["t_ms,red,ir", "0,1,1"])
        finger, _, _ = signal_io.parse_stream(p, "fingertip")
        assert finger.accel_mag.tolist() == finger.gyro_mag.tolist() == [0.0]

    def test_matches_per_row_norm(self, tmp_path):
        rng = np.random.default_rng(0)
        imu = rng.normal(size=(50, 6))
        frames = self.parse_imu(tmp_path, imu)
        for i, (ax, ay, az, gx, gy, gz) in enumerate(imu):
            acc = np.linalg.norm([ax, ay, az])
            gyr = np.linalg.norm([gx, gy, gz])
            assert abs(frames.accel_mag[i] - acc) <= 1e-12 * max(1.0, acc)
            assert abs(frames.gyro_mag[i] - gyr) <= 1e-12 * max(1.0, gyr)


class TestRegularize:
    meta = StreamMeta(nominal_rate_hz=25.0)

    def make(self, t_ms):
        n = len(t_ms)
        return FrameSeries(np.asarray(t_ms), np.arange(n) + 1.0, np.arange(n) + 2.0, np.zeros(n), np.zeros(n))

    def test_uniform_unchanged(self):
        s = self.make(np.arange(0, 400, 40))
        r = signal_io.regularize(s, self.meta)
        np.testing.assert_array_equal(r.t_ms, s.t_ms)
        np.testing.assert_array_equal(r.red, s.red)
        assert not r.gap.any()

    def test_single_missing_sample_becomes_gap(self):
        s = self.make([0, 40, 120, 160])
        r = signal_io.regularize(s, self.meta)
        assert len(r) == 5
        assert list(r.gap) == [False, False, True, False, False]
        assert np.isnan(r.red[2])

    def test_jittered_equals_clean_twin(self):
        cfg = synth.SynthConfig(duration_s=60, seed=5)
        clean, _ = synth.gen_ppg(cfg)
        from dataclasses import replace

        jittered, _ = synth.gen_ppg(replace(cfg, timestamp_jitter_ms=5.0))
        r = signal_io.regularize(jittered, self.meta)
        assert len(r) == len(clean)
        assert not r.gap.any()
        np.testing.assert_array_equal(r.red, clean.red)
        np.testing.assert_array_equal(r.ir, clean.ir)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        t = np.arange(0, 4000, 40) + np.rint(rng.uniform(-8, 8, 100)).astype(int)
        t = np.sort(t)[::2]  # drop half the samples -> plenty of gaps
        s = self.make(t)
        once = signal_io.regularize(s, self.meta)
        twice = signal_io.regularize(once, self.meta)
        np.testing.assert_array_equal(once.t_ms, twice.t_ms)
        np.testing.assert_array_equal(once.gap, twice.gap)
        np.testing.assert_array_equal(once.red[~once.gap], twice.red[~twice.gap])

    def test_too_short(self):
        with pytest.raises(EmptyStream):
            signal_io.regularize(self.make([0]), self.meta)

    def test_stray_timestamp_refused(self, tmp_path):
        # one stray row would make a grid of 100,001 slots for 4 frames
        p = tmp_path / "finger.csv"
        write_csv(p, ["t_ms,red,ir", "0,1000,1200", "40,1001,1201", "80,1002,1202", "4000000,1003,1203"])
        frames, _, _ = signal_io.parse_stream(p, "fingertip")
        with pytest.raises(EmptyStream, match="4 frames span 100001 grid slots"):
            signal_io.regularize(frames, self.meta)

    def test_slots_per_row_bound(self):
        limit = signal_io.MAX_SLOTS_PER_ROW
        assert len(signal_io.regularize(self.make([0, 40 * (2 * limit - 1)]), self.meta)) == 2 * limit
        with pytest.raises(EmptyStream):
            signal_io.regularize(self.make([0, 40 * 2 * limit]), self.meta)
