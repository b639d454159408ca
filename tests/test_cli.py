import csv
import json
from unittest import mock

import pytest

from pulseox import cli, gbdt, signal_io, synth
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

    def test_missing_config(self, tmp_path, capsys):
        assert cli.main(["simulate", str(tmp_path / "nope.json"), str(tmp_path / "o")]) == 2

    def test_corrupt_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert cli.main(["simulate", str(cfg), str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("calibration", [{"slope": 3}, {"m": "x"}], ids=["unknown_key", "wrong_type"])
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
            ({"n_subjests": 2}, "unknown top-level key(s) n_subjests"),
        ],
        ids=["n_subjects_list", "n_subjects_float", "duration_string", "rate_null", "seed_float", "misspelt_key"],
    )
    def test_bad_value_or_unknown_key_exits_config(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n_subjects": 2, "duration_s": 30.0, "seed": 5, **doc}))
        out = tmp_path / "out"
        assert cli.main(["simulate", str(cfg), str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: {message}")
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flag, value", [("--step", "0"), ("--step", "-3"), ("--window", "5")], ids=["step_zero", "step_negative", "window_short"]
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

    def test_stray_timestamp_exits_io(self, tmp_path, capsys):
        stream = tmp_path / "finger.csv"
        stream.write_text("t_ms,red,ir\n0,1000,1200\n40,1001,1201\n80,1002,1202\n4000000,1003,1203\n")
        out = tmp_path / "est.csv"
        assert cli.main(["spo2", str(stream), str(out), "--kind", "fingertip", "--window", "8"]) == 1
        assert capsys.readouterr().err.startswith("error: 4 frames span 100001 grid slots")
        assert not out.exists()

    @pytest.mark.parametrize(
        "sidecar", ["{bad", '{"site": "elbow"}', '{"rate_hz": Infinity}'], ids=["not_json", "unknown_site", "infinite_rate"]
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

    def test_prune_empty_catalog_model_exits_io(self, clean_stream, tmp_path, capsys):
        split = stump(feature=3)
        model_path = tmp_path / "model.json"
        gbdt.save(GbdtModel([split], 0.0, GbdtParams(), []), model_path)
        assert json.loads(model_path.read_text())["catalog"] == []
        out = tmp_path / "pruned.csv"
        assert cli.main(["prune", str(clean_stream), str(model_path), str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: catalog must be nonempty")
        assert not out.exists()

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
            (3, "cohort must be a nonempty JSON list"),
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
        assert capsys.readouterr().err.startswith(f"config error: {config}: the config must be a JSON object")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda nodes: nodes[0].update(left=99),
            lambda nodes: nodes[0].update(left=0),
            lambda nodes: nodes[0].update(feature=1),
            lambda nodes: nodes.clear(),
        ],
        ids=["child_out_of_range", "child_points_to_itself", "feature_past_catalog", "empty_node_list"],
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

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["--help"])
        assert e.value.code == 0
