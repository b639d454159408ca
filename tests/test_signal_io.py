import csv
import tracemalloc

import numpy as np
import pytest

from pulseox import signal_io, synth
from pulseox.errors import CorruptFile, EmptyStream, MalformedHeader, NonMonotonicBeyondTolerance
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


FINGER = signal_io.FINGERTIP_HEADER
#: A cell one character longer than the ``csv`` module's field limit.
OVERSIZE = "9" * (csv.field_size_limit() + 1)


class TestParsePaths:
    """``parse_stream`` reads rows in one ``np.loadtxt`` pass (``_columns``)
    or, where that pass could read them otherwise, by the ``csv`` loop
    (``_rows``)."""

    @pytest.mark.parametrize(
        "row", ["40,1,2", "+40,007,2", "40,NaN,-Infinity", " 40 ,\t1\t,2 ", "40,1e400,-0.0", "40,5e-324,1e22"]
    )
    def test_plain_ascii_takes_the_loadtxt_pass(self, row):
        text = f"t_ms,red,ir\n0,1,2\n{row}\n"
        t, values, dropped = signal_io._columns(text, FINGER)
        want_t, want_values, want_dropped = signal_io._rows(text, FINGER, "s.csv")
        assert dropped == want_dropped == 0
        assert t.tobytes() == want_t.tobytes()
        assert np.ascontiguousarray(values).tobytes() == want_values.tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            "time,red,ir\n0,1,2\n",
            '"t_ms",red,ir\n0,1,2\n',
            "t_ms,red,ir\r\n0,1,2\r\n40,1,2\r",
            "t_ms,red,ir\r\n0,1,2\r\r\n",
            "t_ms,red,ir\r0,1,2\r",
            "t_ms,red,ir\r\n0,1,2\r\n\r\n40,1,2\r\n",
            "t_ms,red,ir\n0,1,2\n\n40,1,2\n",
            "t_ms,red,ir\n0,1,2\n\n",
            "t_ms,red,ir\n",
            "t_ms,red,ir",
            "",
            't_ms,red,ir\n0,"1",2\n',
            "t_ms,red,ir\n0,1\xa0,2\n",
            "t_ms,red,ir\n1\u01fe,1,2\n",
            "t_ms,red,ir\n\x1c0,1,2\n",
            "t_ms,red,ir\n0,1,2,\n",
            "t_ms,red,ir\n5.0,1,2\n",
            f"t_ms,red,ir\n{2**63},1,2\n",
            f"t_ms,red,ir\n0,{OVERSIZE},2\n",
        ],
        ids=[
            "bad_header", "quoted_header", "crlf_then_lone_cr", "cr_before_crlf", "lone_cr", "crlf_blank_line", "blank_line", "trailing_blank_line", "header_only",
            "no_newline", "empty", "quoted_cell", "nbsp", "non_ascii_letter", "file_separator", "trailing_comma",
            "float_timestamp", "timestamp_past_int64", "oversize_cell",
        ],
    )
    def test_the_loop_reads_what_loadtxt_might_read_otherwise(self, text):
        assert signal_io._columns(text, FINGER) is None

    @pytest.mark.parametrize("fault", [None, "", "x,1,2", f"80,{OVERSIZE},2"], ids=["clean", "blank", "bad_cell", "oversize"])
    def test_every_chunk_of_lines_is_checked(self, fault):
        """A fault in the last of several chunks of lines still keeps the
        text from the ``np.loadtxt`` pass; without one, the pass reads the
        chunks as the loop reads the whole text."""
        rows = [f"{40 * i},{i}.5,2" for i in range(20_000)]
        if fault is not None:
            rows.insert(len(rows) - 3, fault)
        text = "t_ms,red,ir\n" + "\n".join(rows) + "\n"
        assert len(text) > 4 * signal_io._CHUNK_CHARS
        got = signal_io._columns(text, FINGER)
        if fault is not None:
            assert got is None
            return
        t, values, dropped = signal_io._rows(text, FINGER, "s.csv")
        assert got[0].tobytes() == t.tobytes() and np.ascontiguousarray(got[1]).tobytes() == values.tobytes()
        assert got[2] == dropped == 0

    def test_blank_lines_are_dropped_rows(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t_ms,red,ir\n0,1,2\n\n40,1,2\n\n")
        frames, _, dropped = signal_io.parse_stream(p, "fingertip")
        assert frames.t_ms.tolist() == [0, 40]
        assert dropped == 2

    def test_crlf_takes_the_loadtxt_pass(self, tmp_path, monkeypatch):
        """A seeded wrist stream rewritten with ``\\r\\n`` endings is read
        without the loop, to the frames of the ``\\n`` file."""
        frames, _ = synth.gen_ppg(synth.SynthConfig(duration_s=60.0, seed=4, noise_sigma=0.001))
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        signal_io.write_stream(lf, frames, "wrist")
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))

        def no_loop(*args):
            raise AssertionError("the csv loop was called")

        monkeypatch.setattr(signal_io, "_rows", no_loop)
        (a, _, a_dropped), (b, _, b_dropped) = signal_io.parse_stream(lf, "wrist"), signal_io.parse_stream(crlf, "wrist")
        assert a_dropped == b_dropped == 0
        for name in ("t_ms", "red", "ir", "accel_mag", "gyro_mag"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize("extra", ["", "\n"], ids=["loadtxt_pass", "loop"])
    def test_byte_order_mark_is_skipped(self, tmp_path, extra):
        """A UTF-8 byte-order mark before the header changes no frame and no
        dropped-row count, on either path (a blank line sends a file to the
        loop)."""
        frames, _ = synth.gen_ppg(synth.SynthConfig(duration_s=20.0, seed=5, noise_sigma=0.001))
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        signal_io.write_stream(plain, frames, "wrist")
        plain.write_text(plain.read_text() + extra)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        (a, _, a_dropped), (b, _, b_dropped) = signal_io.parse_stream(plain, "wrist"), signal_io.parse_stream(bom, "wrist")
        assert a_dropped == b_dropped == len(extra)
        for name in ("t_ms", "red", "ir", "accel_mag", "gyro_mag"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_crlf_and_quoted_cells_read_as_csv_reads_them(self, tmp_path):
        plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
        plain.write_bytes(b"t_ms,red,ir\n0,1,2\n40,3.5,4\n80,5,6\n")
        odd.write_bytes(b't_ms,red,ir\r\n0,"1",2\r\n"40",3.5,"4"\r80,5,6\r\n')
        (a, _, a_dropped), (b, _, b_dropped) = signal_io.parse_stream(plain, "fingertip"), signal_io.parse_stream(odd, "fingertip")
        assert a_dropped == b_dropped == 0
        for name in ("t_ms", "red", "ir"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize("cell", [OVERSIZE, "0" * csv.field_size_limit() + "1"], ids=["infinite", "finite"])
    def test_oversize_cell_is_a_corrupt_file_naming_the_line(self, tmp_path, cell):
        """``np.loadtxt`` would read either cell as a number (the first as
        inf, a dropped row); the ``csv`` module rejects both."""
        p = tmp_path / "big.csv"
        p.write_text(f"t_ms,red,ir\n0,1,2\n40,{cell},2\n80,1,2\n")
        with pytest.raises(CorruptFile, match=f"^{p}: line 3: field larger than field limit"):
            signal_io.parse_stream(p, "fingertip")

    def test_long_line_of_short_cells_is_read(self, tmp_path):
        """A line longer than the field limit goes to the loop, which reads
        it when no one cell is over the limit."""
        half = "0" * (csv.field_size_limit() // 2)
        p = tmp_path / "long.csv"
        p.write_text(f"t_ms,red,ir\n0,{half}1,{half}2\n40,3,4\n")
        assert signal_io._columns(p.read_text(), FINGER) is None
        frames, _, dropped = signal_io.parse_stream(p, "fingertip")
        assert (frames.red.tolist(), frames.ir.tolist(), dropped) == ([1.0, 3.0], [2.0, 4.0], 0)

    def test_loadtxt_pass_peaks_no_higher_than_the_loop(self, tmp_path, monkeypatch):
        """On a 30-minute wrist stream, ``tracemalloc``'s peak while parsing
        by the ``np.loadtxt`` pass is at most the peak by the loop, which
        builds a Python float per cell."""
        frames, _ = synth.gen_ppg(synth.SynthConfig(duration_s=1800.0, seed=3, noise_sigma=0.001))
        p = tmp_path / "w.csv"
        signal_io.write_stream(p, frames, "wrist")

        def traced_parse():
            tracemalloc.start()
            try:
                got = signal_io.parse_stream(p, "wrist")
                return got, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (fast, _, _), fast_peak = traced_parse()
        monkeypatch.setattr(signal_io, "_columns", lambda text, expected: None)
        (loop, _, _), loop_peak = traced_parse()
        assert fast_peak <= loop_peak
        for name in ("t_ms", "red", "ir", "accel_mag", "gyro_mag"):
            assert getattr(fast, name).tobytes() == getattr(loop, name).tobytes()


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
        clean, _ = synth.gen_ppg(synth.SynthConfig(duration_s=60, seed=5))
        from dataclasses import replace

        # the same samples, each timestamp moved by up to 5 ms
        jitter = np.random.default_rng(5).uniform(-5.0, 5.0, len(clean))
        jittered = replace(clean, t_ms=np.rint(clean.t_ms + jitter).astype(np.int64))
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
