import csv
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import pulseox
from pulseox import cli, features, gbdt, pipeline, signal_io, synth
from pulseox.features import FeatureSpec
from pulseox.gbdt import GbdtModel, GbdtParams
from pulseox.signal_io import StreamMeta, write_stream
from pulseox.synth import ArtifactSegment, SynthConfig


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def stump(feature):
    """A one-split tree: ``x[feature] < 1`` scores +1, anything else -1."""
    return [
        {"default": "left", "feature": feature, "left": 1, "right": 2, "threshold": 1.0},
        {"leaf": 1.0},
        {"leaf": -1.0},
    ]


@pytest.fixture()
def clean_stream(tmp_path):
    frames, _ = synth.gen_ppg(SynthConfig(duration_s=60.0, noise_sigma=0.0008, seed=1))
    p = tmp_path / "wrist.csv"
    write_stream(p, frames, "wrist", StreamMeta())
    return p


@pytest.fixture()
def artifact_stream(tmp_path):
    arts = tuple(
        ArtifactSegment(float(t), 5.0, "motion", 1.5) for t in range(0, 55, 6)
    )
    frames, _ = synth.gen_ppg(
        SynthConfig(duration_s=60.0, noise_sigma=0.0008, seed=2, artifacts=arts)
    )
    p = tmp_path / "messy.csv"
    write_stream(p, frames, "wrist", StreamMeta())
    return p


class TestSimulate:
    def test_valid_config(self, tmp_path, capsys):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n_subjects": 2, "duration_s": 30.0, "seed": 5}))
        out = tmp_path / "out"
        assert cli.main(["simulate", str(cfg), str(out)]) == 0
        for name in ("wrist_s00.csv", "finger_s00.csv", "truth_s00.csv",
                     "wrist_s01.csv", "cohort.json", "manifest.json"):
            assert (out / name).exists()

    def test_seed_flag_seeds_a_config_without_seed(self, tmp_path, capsys):
        named, bare = tmp_path / "named.json", tmp_path / "bare.json"
        named.write_text(json.dumps({"n_subjects": 2, "duration_s": 30.0, "seed": 3}))
        bare.write_text(json.dumps({"n_subjects": 2, "duration_s": 30.0}))
        assert cli.main(["simulate", str(named), str(tmp_path / "a")]) == 0
        assert cli.main(["simulate", str(bare), str(tmp_path / "b"), "--seed", "3"]) == 0
        for name in ("cohort.json", "wrist_s00.csv", "finger_s01.csv", "truth_s01.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    @pytest.mark.parametrize(
        "argv",
        [["--seed", "5", "train", "c.json", "out"], ["train", "c.json", "out", "--seed", "5"]],
        ids=["before_the_command", "after_train"],
    )
    def test_seed_is_a_flag_of_simulate_only(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        assert "pulseox: error:" in capsys.readouterr().err

    def test_missing_config(self, tmp_path, capsys):
        assert cli.main(["simulate", str(tmp_path / "nope.json"), str(tmp_path / "o")]) == 2

    def test_corrupt_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert cli.main(["simulate", str(cfg), str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "calibration", [{"slope": 3}, {"m": "x"}, {"m": -1.0}], ids=["unknown_key", "wrong_type", "out_of_range"]
    )
    def test_bad_calibration_exits_config(self, tmp_path, capsys, calibration):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n_subjects": 2, "duration_s": 30.0, "seed": 5, "calibration": calibration}))
        out = tmp_path / "out"
        assert cli.main(["simulate", str(cfg), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(cfg) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"n_subjects": [1]}, "n_subjects must be of type int, got [1]"),
            ({"n_subjects": 2.0}, "n_subjects must be of type int"),
            ({"duration_s": "30"}, "duration_s must be of type float"),
            ({"rate_hz": None}, "rate_hz must be of type float"),
            ({"seed": 5.5}, "seed must be of type int"),
            ({"seed": -1}, "seed must be nonnegative, got -1"),
            ({"n_subjests": 2}, "unknown top-level key(s) n_subjests"),
        ],
        ids=["n_subjects_list", "n_subjects_float", "duration_string", "rate_null", "seed_float", "seed_negative", "misspelt_key"],
    )
    def test_bad_value_or_unknown_key_exits_config(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n_subjects": 2, "duration_s": 30.0, "seed": 5, **doc}))
        out = tmp_path / "out"
        assert cli.main(["simulate", str(cfg), str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: {message}")
        assert not out.exists()

    def test_negative_seed_flag_exits_config(self, tmp_path, capsys):
        """``--seed`` seeds a cohort whose config names no seed."""
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n_subjects": 2, "duration_s": 30.0}))
        out = tmp_path / "out"
        assert cli.main(["simulate", str(cfg), str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("config error: --seed must be nonnegative, got -1")
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('"duration_s": Infinity', "duration_s must be finite"),
            ('"rate_hz": NaN', "rate_hz must be finite"),
            ('"calibration": {"y0": -Infinity}', "calibration.y0 must be finite"),
            ('"duration_s": 1e308', "duration_s * rate_hz must be finite"),
            ('"rate_hz": 1e308', "duration_s * rate_hz must be finite"),
            ('"duration_s": 1e12, "rate_hz": 1e-9', "duration_s must be at most 86400 s (24 h), got 1000000000000.0"),
        ],
        ids=["duration_infinite", "rate_nan", "calibration_infinite", "duration_huge", "rate_huge", "duration_huge_rate_tiny"],
    )
    def test_nonfinite_value_exits_config(self, tmp_path, doc, message):
        """JSON ``NaN`` and ``Infinity`` parse as floats; an infinite or huge
        duration once made the schedule loops of ``synth`` run forever, so the
        command runs in a child process with a timeout. A huge rate once
        overflowed the sample count of ``synth.gen_ppg``, and a huge duration
        at a tiny rate, 1,000 samples, once kept the schedule loops running."""
        cfg = tmp_path / "sim.json"
        cfg.write_text('{"n_subjects": 2, "duration_s": 30.0, "seed": 5, ' + doc + "}")
        src = str(Path(pulseox.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "pulseox.cli", "simulate", str(cfg), str(tmp_path / "out")]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr.startswith(f"config error: {cfg}: {message}")
        assert not (tmp_path / "out").exists()

    def test_simulate_into_a_file_exits_io(self, tmp_path, capsys):
        """An output directory that is an existing regular file is an I/O
        error, and the file is left as it was."""
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n_subjects": 2, "duration_s": 30.0, "seed": 5}))
        out = tmp_path / "out"
        out.write_text("not a directory")
        assert cli.main(["simulate", str(cfg), str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "not a directory"

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n_subjects": 2, "duration_s": 30.0, "seed": 5}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", str(cfg), str(a)]) == 0
        assert cli.main(["simulate", str(cfg), str(b)]) == 0
        for name in ("wrist_s00.csv", "finger_s01.csv", "truth_s01.csv", "cohort.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSpo2:
    def test_clean_low_rejection(self, clean_stream, tmp_path, capsys):
        out = tmp_path / "est.csv"
        assert cli.main(["spo2", str(clean_stream), str(out), "--algo", "enhanced"]) == 0
        rows = read_rows(out)[1:]
        rejected = sum("corr_rejected" in r[4] for r in rows)
        assert rejected / len(rows) < 0.05

    def test_artifact_high_rejection(self, artifact_stream, tmp_path, capsys):
        out = tmp_path / "est.csv"
        assert cli.main(["spo2", str(artifact_stream), str(out)]) == 0
        rows = read_rows(out)[1:]
        rejected = sum("corr_rejected" in r[4] for r in rows)
        assert rejected / len(rows) > 0.90

    def test_window_row_count(self, clean_stream, tmp_path, capsys):
        full = tmp_path / "w100.csv"
        half = tmp_path / "w50.csv"
        assert cli.main(["spo2", str(clean_stream), str(full), "--window", "100"]) == 0
        assert cli.main(["spo2", str(clean_stream), str(half), "--window", "50"]) == 0
        # 1500-sample stream: n - window + 1 complete windows
        assert len(read_rows(full)) - 1 == 1401
        assert len(read_rows(half)) - 1 == 1451

    def test_byte_order_mark_writes_the_same_bytes(self, clean_stream, tmp_path, capsys):
        """A copy of a seeded wrist stream that starts with a UTF-8 byte-order
        mark, as spreadsheet "CSV UTF-8" exports write it, gives the same
        estimate CSV as the original."""
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + clean_stream.read_bytes())
        written = []
        for stream in (clean_stream, bom):
            out = tmp_path / f"{stream.stem}_est.csv"
            assert cli.main(["spo2", str(stream), str(out), "--step", "1"]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert len(written[0].splitlines()) > 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--step", "0"), ("--step", "-3"), ("--window", "5"), ("--step", str(2**63))],
        ids=["step_zero", "step_negative", "window_short", "step_past_64_bits"],
    )
    def test_out_of_range_window_or_step_exits_config(self, clean_stream, tmp_path, capsys, flag, value):
        out = tmp_path / "est.csv"
        assert cli.main(["spo2", str(clean_stream), str(out), flag, value]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_window_longer_than_stream_exits_config(self, clean_stream, tmp_path, capsys):
        out = tmp_path / "est.csv"
        assert cli.main(["spo2", str(clean_stream), str(out), "--window", "100000"]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "100000" in err and "1500 samples" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [("spo2", "--y0", "nan"), ("spo2", "--m", "inf"), ("prune", "--y0", "nan")],
        ids=["spo2_y0_nan", "spo2_m_inf", "prune_y0_nan"],
    )
    def test_nonfinite_calibration_exits_config(self, clean_stream, tmp_path, capsys, command, flag, value):
        out = tmp_path / "est.csv"
        argv = ["spo2", str(clean_stream), str(out)]
        if command == "prune":
            model_path = tmp_path / "stub.json"
            gbdt.save(GbdtModel([], 20.0, GbdtParams(), [FeatureSpec("red", "mean")]), model_path)
            argv = ["prune", str(clean_stream), str(model_path), str(out)]
        assert cli.main(argv + [flag, value]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "last_t, sidecar, message",
        [
            (4000000, None, "4 frames span 100001 grid slots"),
            (4000, '{"rate_hz": 1e308}', "4 frames span inf grid slots at 1e+308 Hz"),
            (4000, '{"rate_hz": 5e-324}', "4 frames span 1 grid slots at 4.94066e-324 Hz"),
        ],
        ids=["stray_timestamp", "huge_sidecar_rate", "tiny_sidecar_rate"],
    )
    def test_stray_timestamp_exits_io(self, tmp_path, capsys, last_t, sidecar, message):
        """A grid of more than 10 slots per row, or with no finite period, is
        refused: a traceback once, at a sidecar rate of ``1e308``."""
        stream = tmp_path / "finger.csv"
        stream.write_text(f"t_ms,red,ir\n0,1000,1200\n40,1001,1201\n80,1002,1202\n{last_t},1003,1203\n")
        if sidecar:
            stream.with_suffix(".meta").write_text(sidecar)
        out = tmp_path / "est.csv"
        assert cli.main(["spo2", str(stream), str(out), "--kind", "fingertip", "--window", "8"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_oversize_cell_exits_io(self, tmp_path, capsys):
        """A cell longer than the ``csv`` field limit makes a malformed stream
        file, named with the line, not a traceback."""
        stream = tmp_path / "big.csv"
        stream.write_text(f"t_ms,red,ir\n0,1000,1200\n40,{'1' * 200_000},1201\n80,1002,1202\n")
        out = tmp_path / "out.csv"
        assert cli.main(["spo2", "--kind", "fingertip", "--window", "8", str(stream), str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {stream}: line 3: field larger than field limit")
        assert not out.exists()

    @pytest.mark.parametrize(
        "sidecar",
        [
            "{bad", '{"site": "elbow"}', '{"rate_hz": Infinity}', '{"subject_id": 7}',
            '{"rate_hz": "25"}', '{"rate_hz": true}', '{"rate": 50}',
        ],
        ids=["not_json", "unknown_site", "infinite_rate", "int_subject_id", "string_rate", "bool_rate", "misspelt_key"],
    )
    def test_broken_sidecar_exits_io(self, clean_stream, tmp_path, capsys, sidecar):
        meta = clean_stream.with_suffix(".meta")
        meta.write_text(sidecar)
        out = tmp_path / "est.csv"
        assert cli.main(["spo2", str(clean_stream), str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(meta) in err
        assert not out.exists()

    def test_missing_stream_exits_io(self, tmp_path, capsys):
        out = tmp_path / "est.csv"
        assert cli.main(["spo2", str(tmp_path / "nope.csv"), str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope.csv" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spo2", "prune"])
    def test_stream_not_utf8_exits_io(self, tmp_path, capsys, command):
        stream = tmp_path / "bad.csv"
        stream.write_bytes(b"t_ms,red,ir\n1,\xff\xfe,3\n")
        out = tmp_path / "o.csv"
        if command == "spo2":
            argv = ["spo2", str(stream), str(out), "--kind", "fingertip"]
        else:
            model_path = tmp_path / "stub.json"
            gbdt.save(GbdtModel([], 20.0, GbdtParams(), [FeatureSpec("red", "mean")]), model_path)
            argv = ["prune", str(stream), str(model_path), str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stream}: not UTF-8 text") and "0xff" in err
        assert not out.exists()

    def test_io_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,red\n0,1\n")
        assert cli.main(["spo2", str(bad), str(tmp_path / "o.csv")]) == 1


class TestTrainEvaluatePruneSweep:
    def test_full_surface(self, cohort_small_dir, tmp_path, capsys):
        config = str(cohort_small_dir / "cohort.json")
        train_dir = tmp_path / "train"
        assert cli.main(["train", config, str(train_dir)]) == 0
        assert (train_dir / "model.json").exists()
        assert (train_dir / "selection.json").exists()
        assert (train_dir / "manifest.json").exists()

        eval_dir = tmp_path / "eval"
        assert cli.main(
            ["evaluate", config, str(eval_dir), "--model", str(train_dir / "model.json")]
        ) == 0
        rows = read_rows(eval_dir / "reports.csv")
        assert len(rows) == 1 + 3  # header + one row per subject
        assert (eval_dir / "report_s00.json").exists()

        pruned = tmp_path / "pruned.csv"
        assert cli.main(
            ["prune", str(cohort_small_dir / "wrist_s00.csv"),
             str(train_dir / "model.json"), str(pruned)]
        ) == 0
        assert len(read_rows(pruned)) >= 1

    def test_prune_stub_equals_enhanced(self, artifact_stream, tmp_path, capsys):
        stub = GbdtModel(
            trees=[],
            base_logit=20.0,
            params=GbdtParams(),
            feature_catalog=[FeatureSpec("red", "mean")],
        )
        model_path = tmp_path / "stub.json"
        gbdt.save(stub, model_path)
        pruned_csv = tmp_path / "pruned.csv"
        enhanced_csv = tmp_path / "enhanced.csv"
        assert cli.main(["prune", str(artifact_stream), str(model_path), str(pruned_csv)]) == 0
        assert cli.main(["spo2", str(artifact_stream), str(enhanced_csv), "--algo", "enhanced"]) == 0
        pruned = read_rows(pruned_csv)[1:]
        enhanced = [r for r in read_rows(enhanced_csv)[1:] if "corr_rejected" not in r[4] and "dc_invalid" not in r[4]]
        assert [r[0] for r in pruned] == [r[0] for r in enhanced]
        assert [r[3] for r in pruned] == [r[3] for r in enhanced]

    def test_crlf_and_blank_lines_change_no_estimate_byte(self, cohort_small_dir, tmp_path, capsys):
        """A seeded wrist stream rewritten with CRLF endings and blank lines
        is read by the ``csv`` loop, the original by the ``np.loadtxt`` pass;
        ``spo2 --step 1`` and ``prune`` write the same bytes for both."""
        original = cohort_small_dir / "wrist_s00.csv"
        lines = original.read_text().splitlines()
        lines[1:1] = [""]
        lines.insert(len(lines) // 2, "")
        rewritten = tmp_path / "wrist_crlf.csv"
        rewritten.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode())
        shutil.copy(original.with_suffix(".meta"), rewritten.with_suffix(".meta"))
        assert signal_io._columns(original.read_text(), signal_io.WRIST_HEADER) is not None
        assert signal_io._columns(rewritten.read_bytes().decode(), signal_io.WRIST_HEADER) is None
        assert signal_io.parse_stream(rewritten, "wrist")[2] == signal_io.parse_stream(original, "wrist")[2] + 3

        assert cli.main(["train", str(cohort_small_dir / "cohort.json"), str(tmp_path / "train")]) == 0
        model = tmp_path / "train" / "model.json"
        written = []
        for stream in (original, rewritten):
            spo2_csv, pruned_csv = tmp_path / f"{stream.stem}_spo2.csv", tmp_path / f"{stream.stem}_pruned.csv"
            assert cli.main(["spo2", str(stream), str(spo2_csv), "--step", "1"]) == 0
            assert cli.main(["prune", str(stream), str(model), str(pruned_csv)]) == 0
            written.append([spo2_csv.read_bytes(), pruned_csv.read_bytes()])
        assert written[0] == written[1]
        assert len(written[0][1].splitlines()) > 1

    def test_prune_stream_shorter_than_window_exits_config(self, tmp_path, capsys):
        frames, _ = synth.gen_ppg(SynthConfig(duration_s=3.0, noise_sigma=0.0008, seed=1))
        stream = tmp_path / "short.csv"
        write_stream(stream, frames, "wrist", StreamMeta())
        model_path = tmp_path / "stub.json"
        gbdt.save(GbdtModel([], 20.0, GbdtParams(), [FeatureSpec("red", "mean")]), model_path)
        out = tmp_path / "pruned.csv"
        assert cli.main(["prune", str(stream), str(model_path), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "window 100" in err and "75 samples" in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config", "sidecar", "stem"])
    def test_duplicate_subject_id_exits_config(self, cohort_small_dir, tmp_path, capsys, source):
        """Two cohort entries that resolve to one subject id, from the config,
        from the sidecar or from the file stem, would share one report file."""
        cohort = tmp_path / "cohort"
        shutil.copytree(cohort_small_dir, cohort)
        cfg = json.loads((cohort / "cohort.json").read_text())
        first, second = cfg["cohort"][:2]
        if source == "config":
            second["subject_id"] = first["subject_id"]
        elif source == "sidecar":
            del second["subject_id"]
            meta = cohort / second["wrist_csv"].replace(".csv", ".meta")
            meta.write_text(json.dumps(dict(json.loads(meta.read_text()), subject_id=first["subject_id"])))
        else:
            for i, entry in enumerate((first, second)):
                del entry["subject_id"]
                (cohort / str(i)).mkdir()
                shutil.copy(cohort / entry["wrist_csv"], cohort / str(i) / "wrist.csv")
                entry["wrist_csv"] = f"{i}/wrist.csv"
        sid = first.get("subject_id", "wrist")
        (cohort / "cohort.json").write_text(json.dumps(cfg))
        out = tmp_path / "eval"
        assert cli.main(["evaluate", str(cohort / "cohort.json"), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(sid) in err
        assert not out.exists()

    def test_unknown_gbdt_params_key_exits_config(self, cohort_small_dir, tmp_path, capsys):
        cfg = json.loads((cohort_small_dir / "cohort.json").read_text())
        cfg["gbdt_params"] = {"n_trees": 5}
        config = cohort_small_dir / "unknown_gbdt_param.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["train", str(config), str(tmp_path / "train")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "n_trees" in err
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("missing", ["stream", "model"])
    def test_prune_missing_stream_or_model_exits_io(self, clean_stream, tmp_path, capsys, missing):
        model_path = tmp_path / "stub.json"
        gbdt.save(GbdtModel([], 20.0, GbdtParams(), [FeatureSpec("red", "mean")]), model_path)
        paths = {"stream": clean_stream, "model": model_path}
        paths[missing] = tmp_path / "nope"
        out = tmp_path / "pruned.csv"
        assert cli.main(["prune", str(paths["stream"]), str(paths["model"]), str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "corrupt, names",
        [
            (lambda doc: doc.update(catalog=["red__bogus"]), "'red__bogus'"),
            (lambda doc: doc.update(catalog=["red__fft_coefficient__attr_bogus__coeff_0"]), "attr_bogus"),
            (lambda doc: doc.update(catalog=["red__autocorrelation"]), "'red__autocorrelation'"),
            (lambda doc: doc.update(catalog=["red__ar_coefficient__coeff_-1__k_10"]), "coeff_-1"),
            (lambda doc: [1], ""),
            (lambda doc: doc.update(catalog=["red__fft_coefficient__attr_real__coeff_1.5"]), "coeff_1.5"),
            (lambda doc: doc.update(catalog=["red__autocorrelation__lag_4__junk_1"]), "junk_1"),
            (lambda doc: doc.update(catalog=["red__autocorrelation__lag_40"]), "lag_40"),
            (lambda doc: doc.update(base_logit=float("nan")), "base_logit must be finite, got nan"),
            (lambda doc: doc["trees"][0]["nodes"][2].update(leaf=float("inf")), "trees[0].nodes[2].leaf must be finite, got inf"),
            (lambda doc: doc["trees"][0]["nodes"][0].update(threshold=float("nan")), "trees[0].nodes[0].threshold must be finite"),
            (lambda doc: doc["params"].update(seed=-1), "seed must be nonnegative"),
            (lambda doc: doc.update(version=True), "version must be of type int, got True"),
            (lambda doc: doc["params"].update(n_estimators=1.5), "params.n_estimators must be of type int, got 1.5"),
            (lambda doc: doc.update(base_logit=True), "base_logit must be of type float, got True"),
            (lambda doc: doc.update(training_meta=5), "training_meta must be a JSON object, got 5"),
            (lambda doc: doc.update(extra=1), "unknown top-level key(s) extra"),
            (lambda doc: doc.update(catalog="abc"), "catalog must be a JSON list, got 'abc'"),
        ],
        ids=[
            "unknown_feature", "unknown_fft_attr", "missing_param", "negative_param", "not_an_object",
            "fractional_param", "extra_param", "param_outside_catalog",
            "nan_base_logit", "infinite_leaf", "nan_threshold", "negative_seed",
            "bool_version", "fractional_n_estimators", "bool_base_logit", "training_meta_not_an_object",
            "extra_top_level_key", "catalog_not_a_list",
        ],
    )
    def test_prune_malformed_model_document_exits_io(self, clean_stream, tmp_path, capsys, corrupt, names):
        """Every feature id must be one of the catalog's; the numbers a model
        predicts with must be finite, its parameters in range, and every
        field of the JSON type of its kind."""
        model_path = tmp_path / "model.json"
        gbdt.save(GbdtModel([stump(feature=0)], 0.0, GbdtParams(), [FeatureSpec("red", "mean")]), model_path)
        doc = json.loads(model_path.read_text())
        model_path.write_text(json.dumps(corrupt(doc) or doc))  # NaN and inf as JSON ``NaN`` / ``Infinity``
        out = tmp_path / "pruned.csv"
        assert cli.main(["prune", str(clean_stream), str(model_path), str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}:") and names in err
        assert not out.exists()

    def test_prune_empty_catalog_model_exits_io(self, clean_stream, tmp_path, capsys):
        split = stump(feature=3)
        model_path = tmp_path / "model.json"
        gbdt.save(GbdtModel([split], 0.0, GbdtParams(), []), model_path)
        assert json.loads(model_path.read_text())["catalog"] == []
        out = tmp_path / "pruned.csv"
        assert cli.main(["prune", str(clean_stream), str(model_path), str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {model_path}: catalog must be nonempty")
        assert not out.exists()

    def test_prune_empty_catalog_model_exits_io_when_no_window_passes_the_gate(self, tmp_path, capsys):
        n = 1500
        rng = np.random.default_rng(0)
        chans = (rng.uniform(5.0e4, 5.1e4, n), rng.uniform(6.0e4, 6.1e4, n), rng.uniform(0.9, 1.1, n), rng.uniform(0, 0.2, n))
        stream = tmp_path / "noise.csv"
        write_stream(stream, signal_io.FrameSeries(40 * np.arange(n), *chans, np.zeros(n, dtype=bool)), "wrist", StreamMeta())
        assert cli.main(["spo2", str(stream), str(tmp_path / "est.csv"), "--algo", "enhanced"]) == 0
        assert all("corr_rejected" in r[4] for r in read_rows(tmp_path / "est.csv")[1:])
        model_path = tmp_path / "model.json"
        gbdt.save(GbdtModel([stump(feature=3)], 0.0, GbdtParams(), []), model_path)
        capsys.readouterr()
        assert cli.main(["prune", str(stream), str(model_path), str(tmp_path / "pruned.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {model_path}: catalog must be nonempty")

    @pytest.mark.parametrize(
        "obj, key",
        [("window", "step"), ("window", "windw_len"), ("label", "reliability_threshold"), ("calibration", "slope")],
    )
    def test_unknown_config_key_exits_config(self, cohort_small_dir, tmp_path, capsys, obj, key):
        cfg = json.loads((cohort_small_dir / "cohort.json").read_text())
        cfg.setdefault(obj, {})[key] = 7
        config = cohort_small_dir / f"unknown_{obj}_{key}.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["train", str(config), str(tmp_path / "train")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"unknown {obj} key(s) {key}" in err
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("key", ["decision_treshold", "window_len"])
    def test_unknown_top_level_key_exits_config(self, cohort_small_dir, tmp_path, capsys, key):
        cfg = json.loads((cohort_small_dir / "cohort.json").read_text())
        cfg[key] = 0.99
        config = cohort_small_dir / f"unknown_top_{key}.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["train", str(config), str(tmp_path / "train")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {config}: unknown top-level key(s) {key}")
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1.5", "-0.1"])
    def test_prune_threshold_outside_unit_interval_exits_config(self, clean_stream, tmp_path, capsys, value):
        model_path = tmp_path / "stub.json"
        gbdt.save(GbdtModel([], 20.0, GbdtParams(), [FeatureSpec("red", "mean")]), model_path)
        out = tmp_path / "pruned.csv"
        assert cli.main(["prune", str(clean_stream), str(model_path), str(out), "--threshold", value]) == 2
        assert capsys.readouterr().err.startswith("config error: decision_threshold must lie in [0, 1]")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("decision_threshold", 1.5, "decision_threshold must lie in [0, 1]"),
            ("decision_threshold", -0.1, "decision_threshold must lie in [0, 1]"),
            ("fdr_q", 1.5, "fdr_q must lie in (0, 1)"),
            ("fdr_q", 0, "fdr_q must lie in (0, 1)"),
            ("seed", -1, "seed must be nonnegative, got -1"),
        ],
    )
    def test_config_value_out_of_range_exits_config(self, cohort_small_dir, tmp_path, capsys, key, value, message):
        cfg = json.loads((cohort_small_dir / "cohort.json").read_text())
        cfg[key] = value
        config = cohort_small_dir / f"{key}_{value}.json"
        config.write_text(json.dumps(cfg))
        with mock.patch.object(signal_io, "load_frames", side_effect=AssertionError("streams read before the settings were checked")):
            assert cli.main(["train", str(config), str(tmp_path / "train")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {config}: {message}")
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("window_len", [2**62, 2**63 - 1])
    @pytest.mark.parametrize(
        "command, message",
        [
            ("train", "error: no training row: no stream holds a labeled window of {} samples"),
            ("evaluate", "error: all folds failed: s00: single-class training set: no training row: no stream holds a labeled window of {} samples"),
        ],
        ids=["train", "evaluate"],
    )
    def test_window_longer_than_every_stream_exits_io(self, cohort_small_dir, tmp_path, capsys, window_len, command, message):
        """A window that no stream holds leaves no row to train on: ``train``
        says so and names the window length, every fold of ``evaluate`` is
        skipped and it names the first skipped subject and its reason, and
        nothing window-sized is allocated."""
        cfg = json.loads((cohort_small_dir / "cohort.json").read_text())
        cfg["window"] = {"window_len": window_len}
        config = cohort_small_dir / f"window_len_{window_len}.json"
        config.write_text(json.dumps(cfg))
        assert cli.main([command, str(config), str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == message.format(window_len) + "\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "obj, key, value, message",
        [
            ("gbdt_params", "seed", -1, "seed must be nonnegative, got -1"),
            ("gbdt_params", "n_estimators", 0, "n_estimators must be >= 1, got 0"),
            ("gbdt_params", "n_estimators", -1, "n_estimators must be >= 1, got -1"),
            ("gbdt_params", "n_estimators", 4611686018427387904, "n_estimators must be <= 10000, got 4611686018427387904"),
            ("gbdt_params", "max_depth", -1, "max_depth must be >= 1, got -1"),
            ("gbdt_params", "learning_rate", 0, "learning_rate must be positive, got 0"),
            ("gbdt_params", "learning_rate", -1.0, "learning_rate must be positive, got -1.0"),
            ("label", "alignment_tolerance_ms", -5, "alignment_tolerance_ms must be nonnegative, got -5"),
        ],
    )
    def test_nested_config_value_out_of_range_exits_config(self, cohort_small_dir, tmp_path, capsys, command, obj, key, value, message):
        """An out-of-range boosting or label setting is a config error before
        any stream is read."""
        cfg = json.loads((cohort_small_dir / "cohort.json").read_text())
        cfg.setdefault(obj, {})[key] = value
        config = cohort_small_dir / f"{obj}_{key}_{value}.json"
        config.write_text(json.dumps(cfg))
        with mock.patch.object(signal_io, "load_frames", side_effect=AssertionError("streams read before the settings were checked")):
            assert cli.main([command, str(config), str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {config}: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "params, message",
        [
            ({"learning_rate": 1e308, "n_estimators": 3}, "learning_rate=1e+308 and reg_lambda=1.0 give tree"),
            ({"learning_rate": 1e307, "n_estimators": 3}, "learning_rate=1e+307 and reg_lambda=1.0 give tree 2"),
            ({"learning_rate": 1e3, "reg_lambda": 0, "n_estimators": 5}, "learning_rate=1000.0 and reg_lambda=0 give tree"),
        ],
        ids=["overflowing_learning_rate", "overflow_after_saturated_logits", "zero_reg_lambda_over_zero_hessian"],
    )
    def test_nonfinite_leaf_exits_config(self, cohort_small_dir, tmp_path, capsys, command, params, message):
        """Boosting settings in range can still overflow a leaf weight, or
        divide a zero hessian sum by a zero ``reg_lambda``; ``model.json``
        cannot hold such a leaf, so the run writes nothing, and stderr holds
        the one config error line, no numpy warning before it."""
        cfg = json.loads((cohort_small_dir / "cohort.json").read_text())
        cfg["gbdt_params"] = params
        config = cohort_small_dir / f"nonfinite_leaf_{params['learning_rate']:g}.json"
        config.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([command, str(config), str(tmp_path / "out")]) == 2
        assert [str(w.message) for w in caught] == []  # outside pytest, each would be a line of stderr
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: gbdt_params {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "obj, key, value",
        [("label", "reliability_threshold_pct", float("nan")), ("gbdt_params", "learning_rate", float("nan")), (None, "fdr_q", float("inf"))],
        ids=["reliability_threshold_pct", "learning_rate", "fdr_q"],
    )
    def test_nonfinite_config_value_exits_config(self, cohort_small_dir, tmp_path, capsys, obj, key, value):
        cfg = json.loads((cohort_small_dir / "cohort.json").read_text())
        (cfg.setdefault(obj, {}) if obj else cfg)[key] = value
        config = cohort_small_dir / f"nonfinite_{key}.json"
        config.write_text(json.dumps(cfg))  # as JSON ``NaN`` / ``Infinity``
        assert cli.main(["train", str(config), str(tmp_path / "train")]) == 2
        where = f"{obj}." if obj else ""
        assert capsys.readouterr().err.startswith(f"config error: {config}: {where}{key} must be finite, got {value!r}")
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize(
        "obj, key, value",
        [("window", "window_len", "100"), ("label", "reliability_threshold_pct", "2"), (None, "fdr_q", "0.05")],
        ids=["window_len", "reliability_threshold_pct", "fdr_q"],
    )
    def test_wrong_type_config_value_exits_config(self, cohort_small_dir, tmp_path, capsys, obj, key, value):
        cfg = json.loads((cohort_small_dir / "cohort.json").read_text())
        (cfg.setdefault(obj, {}) if obj else cfg)[key] = value
        config = cohort_small_dir / f"wrong_type_{key}.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["train", str(config), str(tmp_path / "train")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}:") and f"{key} must be of type" in err
        assert not (tmp_path / "train").exists()

    def test_config_object_not_an_object_exits_config(self, cohort_small_dir, tmp_path, capsys):
        cfg = json.loads((cohort_small_dir / "cohort.json").read_text())
        cfg["window"] = 50
        config = cohort_small_dir / "window_not_object.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["train", str(config), str(tmp_path / "train")]) == 2
        assert "window must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cohort, field",
        [
            ([{"wrist_csv": 5, "finger_csv": "f.csv"}], "cohort[0].wrist_csv must be of type str"),
            (3, "cohort must be a JSON list"),
            ([], "cohort must be a nonempty JSON list"),
            (["x"], "cohort[0] must be a JSON object"),
            (None, "cohort is missing"),
            ([{"finger_csv": "f.csv"}], "cohort[0].wrist_csv is missing"),
        ],
        ids=["path_not_a_string", "not_a_list", "empty_list", "entry_not_an_object", "missing", "entry_missing_wrist_csv"],
    )
    def test_bad_cohort_list_exits_config(self, tmp_path, capsys, cohort, field):
        config = tmp_path / "cohort.json"
        config.write_text(json.dumps({} if cohort is None else {"cohort": cohort}))
        assert cli.main(["train", str(config), str(tmp_path / "train")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}: {field}")
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_config_not_an_object_exits_config(self, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        assert cli.main([command, str(config), str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {config}: the document must be a JSON object")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda nodes: nodes[0].update(left=99),
            lambda nodes: nodes[0].update(left=0),
            lambda nodes: nodes[0].update(feature=1),
            lambda nodes: nodes.clear(),
            lambda nodes: nodes[0].update(feature=0.5),
            lambda nodes: nodes[0].update(feature=False),
            lambda nodes: nodes[0].update(threshold="0.5"),
            lambda nodes: nodes[0].update(left="1"),
        ],
        ids=[
            "child_out_of_range", "child_points_to_itself", "feature_past_catalog", "empty_node_list",
            "fractional_feature", "bool_feature", "string_threshold", "string_child",
        ],
    )
    def test_prune_corrupt_tree_exits_io(self, clean_stream, tmp_path, capsys, corrupt):
        split = stump(feature=0)
        model_path = tmp_path / "model.json"
        gbdt.save(GbdtModel([split], 0.0, GbdtParams(), [FeatureSpec("red", "mean")]), model_path)
        doc = json.loads(model_path.read_text())
        corrupt(doc["trees"][0]["nodes"])
        model_path.write_text(json.dumps(doc))
        assert cli.main(["prune", str(clean_stream), str(model_path), str(tmp_path / "out.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_sweep_csv(self, cohort_small_dir, tmp_path, capsys):
        config = str(cohort_small_dir / "cohort.json")
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "reliability_threshold", config, str(out), "2.0"]) == 0
        rows = read_rows(out / "sweep.csv")
        assert rows[0][0] == "value"
        assert len(rows) == 2
        assert float(rows[1][0]) == 2.0

    @pytest.mark.parametrize(
        "axis, value, message",
        [
            ("window_len", "abc", "sweep values: could not convert string to float: 'abc'"),
            ("window_len", "5", "sweep window_len value 5.0: window_len must be >= 8"),
            ("window_len", "50.5", "sweep window_len value 50.5: window_len must be an integer"),
            ("reliability_threshold", "0", "sweep reliability_threshold value 0.0: reliability threshold must be positive"),
            ("reliability_threshold", "nan", "sweep reliability_threshold value nan: reliability threshold must be positive"),
            ("window_len", "1e30", "sweep window_len value 1e+30: window_len must fit in 64 bits"),
        ],
        ids=["not_a_number", "window_short", "window_not_integer", "threshold_zero", "threshold_nan", "window_past_64_bits"],
    )
    def test_bad_sweep_value_exits_config(self, cohort_small_dir, tmp_path, capsys, axis, value, message):
        """Every value is checked before the first leave-one-out run."""
        config = str(cohort_small_dir / "cohort.json")
        out = tmp_path / "sweep"
        with mock.patch.object(pipeline, "run_loocv", side_effect=AssertionError("ran before the values were checked")):
            assert cli.main(["sweep", axis, config, str(out), "100", value]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    def test_sweep_averages_only_the_folds_that_trained(self, tmp_path, capsys):
        """A skipped fold's report holds placeholders, so ``sweep`` averages
        the folds that trained, as ``evaluate`` does: here s00's fold, whose
        training set is the 49 samples left of s01's stream, is skipped."""
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n_subjects": 2, "duration_s": 30.0}))
        cohort = tmp_path / "cohort"
        assert cli.main(["simulate", str(sim), str(cohort)]) == 0
        wrist = cohort / "wrist_s01.csv"
        wrist.write_text("".join(wrist.read_text().splitlines(keepends=True)[:50]))
        config = str(cohort / "cohort.json")
        assert cli.main(["evaluate", config, str(tmp_path / "eval")]) == 0
        assert "skipped" in json.loads((tmp_path / "eval" / "report_s00.json").read_text())["extras"]
        silent = float(read_rows(tmp_path / "eval" / "reports.csv")[2][7])  # s01's max_silent_s
        assert silent > 0
        assert cli.main(["sweep", "reliability_threshold", config, str(tmp_path / "sweep"), "2.0"]) == 0
        assert float(read_rows(tmp_path / "sweep" / "sweep.csv")[1][4]) == silent

    def test_sweep_value_with_every_fold_skipped_exits_io(self, tmp_path, capsys):
        """A swept value at which no fold trains (both wrist streams cut to
        49 samples, so every training set is empty) fails as ``evaluate``
        does, naming the axis and the value, and writes no ``sweep.csv``."""
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n_subjects": 2, "duration_s": 30.0}))
        cohort = tmp_path / "cohort"
        assert cli.main(["simulate", str(sim), str(cohort)]) == 0
        for wrist in (cohort / "wrist_s00.csv", cohort / "wrist_s01.csv"):
            wrist.write_text("".join(wrist.read_text().splitlines(keepends=True)[:50]))
        config = str(cohort / "cohort.json")
        assert cli.main(["evaluate", config, str(tmp_path / "eval")]) == 1
        capsys.readouterr()
        assert cli.main(["sweep", "reliability_threshold", config, str(tmp_path / "sweep"), "2.0"]) == 1
        assert capsys.readouterr().err == "error: sweep reliability_threshold value 2.0: all folds failed\n"
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("command", ["prune", "evaluate"])
    def test_saturated_logits_print_no_warning(self, tmp_path, capsys, command):
        """A one-stump model with leaves of +-1000 on ``red__mean`` saturates
        the logits: ``exp`` overflows where the sigmoid takes its limit 0,
        and ``prune`` and ``evaluate --model`` write nothing to stderr."""
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"n_subjects": 2, "duration_s": 30.0}))
        cohort = tmp_path / "cohort"
        assert cli.main(["simulate", str(sim), str(cohort)]) == 0
        frames, _ = signal_io.load_frames(cohort / "wrist_s00.csv", "wrist")
        split = {"default": "left", "feature": 0, "left": 1, "right": 2, "threshold": float(np.median(frames.red))}
        model = tmp_path / "model.json"
        gbdt.save(GbdtModel([[split, {"leaf": 1000.0}, {"leaf": -1000.0}]], 0.0, GbdtParams(), [FeatureSpec("red", "mean")]), model)
        argv = {
            "prune": ["prune", str(cohort / "wrist_s00.csv"), str(model), str(tmp_path / "pruned.csv")],
            "evaluate": ["evaluate", str(cohort / "cohort.json"), str(tmp_path / "eval"), "--model", str(model)],
        }[command]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 0
        assert [str(w.message) for w in caught] == []  # outside pytest, each would be a line of stderr
        assert capsys.readouterr().err == ""

    def test_library_value_error_is_not_a_config_error(self, cohort_small_dir, tmp_path, capsys):
        """Only typed config errors exit 2; a ``ValueError`` from inside the
        library is a bug and keeps its traceback."""
        config = str(cohort_small_dir / "cohort.json")
        with mock.patch.object(pipeline, "train_model", side_effect=ValueError("a library bug")):
            with pytest.raises(ValueError, match="a library bug"):
                cli.main(["train", config, str(tmp_path / "train")])
        assert "config error" not in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["--help"])
        assert e.value.code == 0


# runs ``pulseox.cli`` with the arguments after the first, which is ``all``
# or the one CPU to pin the process to before anything is imported
PINNED_CLI = """
import os, runpy, sys
cpu = sys.argv.pop(1)
if cpu != "all":
    os.sched_setaffinity(0, {int(cpu)})
runpy.run_module("pulseox.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs CPU affinity and two CPUs"
)
class TestCpuCount:
    @staticmethod
    def run_pinned(commands, tmp_path):
        """On every CPU the process may use, then pinned to one: each command
        of ``commands(out)``, in its own interpreter, for a fresh directory
        ``out`` under ``tmp_path``. Returns the two directories."""
        # one BLAS thread in both runs, so only the CPUs the process may use vary
        one_blas = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        src = str(Path(pulseox.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **one_blas)
        dirs = []
        for cpu in ("all", str(min(os.sched_getaffinity(0)))):
            out = tmp_path / f"cpu_{cpu}"
            out.mkdir()
            for args in commands(out):
                subprocess.run([sys.executable, "-c", PINNED_CLI, cpu, *args], env=env, check=True, capture_output=True)
            dirs.append(out)
        return dirs

    def test_outputs_do_not_depend_on_cpu_count(self, clean_stream, tmp_path):
        """``prune`` and ``spo2 --step 1`` write the same bytes on every CPU
        the process may use and pinned to one, with a model whose every tree
        splits on an AR feature at its median over the stream."""
        frames, _ = signal_io.load_frames(clean_stream, "wrist")
        catalog = features.build_catalog()
        ar = [j for j, spec in enumerate(catalog) if spec.name == "ar_coefficient"]
        starts, _, has_gap = frames.windows(100, 1)
        X = features.extract_matrix(frames, starts[~has_gap], 100, catalog, ar)
        split = {"default": "left", "left": 1, "right": 2}
        trees = [[dict(split, feature=j, threshold=float(np.median(X[:, j]))), {"leaf": 1.0}, {"leaf": -1.0}] for j in ar]
        model = tmp_path / "model.json"
        gbdt.save(GbdtModel(trees, 0.0, GbdtParams(), catalog), model)
        dirs = self.run_pinned(
            lambda out: [
                ["prune", str(clean_stream), str(model), str(out / "pruned.csv")],
                ["spo2", str(clean_stream), str(out / "spo2.csv"), "--step", "1"],
            ],
            tmp_path,
        )
        outputs = [[(out / name).read_bytes() for name in ("pruned.csv", "spo2.csv")] for out in dirs]
        assert outputs[0] == outputs[1]
        pruned, spo2_rows = (len(b.splitlines()) - 1 for b in outputs[0])
        assert 0 < pruned < spo2_rows

    def test_evaluate_does_not_depend_on_cpu_count(self, cohort_small_dir, tmp_path):
        """``evaluate`` (LOOCV: each fold trains, then decides its held-out
        windows, fitting AR for the undecided ones on the calling thread)
        writes the same ``reports.csv`` and ``report_*.json`` bytes on every
        CPU and pinned to one."""
        config = str(cohort_small_dir / "cohort.json")
        dirs = self.run_pinned(lambda out: [["evaluate", config, str(out)]], tmp_path)
        outputs = [{p.name: p.read_bytes() for p in sorted(out.glob("report*"))} for out in dirs]
        assert len(outputs[0]) == 1 + 3  # reports.csv and one report per subject
        assert outputs[0] == outputs[1]


# imports ``pulseox.cli``, then runs each argument list of the JSON list in
# argv[1] through ``cli.main``; prints, after the import and after each
# command, which scipy modules the process has loaded
FOOTPRINT_CLI = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from pulseox import cli
steps = [["import", loaded()]]
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    steps.append([argv[0], loaded()])
print(json.dumps(steps))
"""


def test_commands_load_no_scipy(clean_stream, cohort_small_dir, tmp_path):
    """Starting the CLI, ``spo2``, ``prune`` (with a model that splits on
    every Welch feature), ``train`` and ``evaluate`` load no scipy module."""
    catalog = features.build_catalog()
    welch = [j for j, spec in enumerate(catalog) if spec.name == "spkt_welch_density"]
    model = tmp_path / "model.json"
    gbdt.save(GbdtModel([stump(j) for j in welch], 0.0, GbdtParams(), catalog), model)
    runs = [
        ["spo2", str(clean_stream), str(tmp_path / "spo2.csv")],
        ["prune", str(clean_stream), str(model), str(tmp_path / "pruned.csv")],
        ["train", str(cohort_small_dir / "cohort.json"), str(tmp_path / "train")],
        ["evaluate", str(cohort_small_dir / "cohort.json"), str(tmp_path / "evaluate")],
    ]
    src = str(Path(pulseox.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_CLI, json.dumps(runs)], env=env, check=True, capture_output=True, text=True, timeout=300
    )
    steps = json.loads(child.stdout.splitlines()[-1])
    assert steps == [["import", []], ["spo2", []], ["prune", []], ["train", []], ["evaluate", []]]
    assert len(read_rows(tmp_path / "pruned.csv")) > 1
