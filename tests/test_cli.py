import csv
import json

import pytest

from pulseox import cli, gbdt, synth
from pulseox.features import FeatureSpec
from pulseox.gbdt import GbdtModel, GbdtParams, TreeNode
from pulseox.signal_io import StreamMeta, write_stream
from pulseox.synth import ArtifactSegment, SynthConfig


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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

    @pytest.mark.parametrize(
        "field, value",
        [("left", 99), ("left", 0), ("feature", 1)],
        ids=["child_out_of_range", "child_points_to_itself", "feature_past_catalog"],
    )
    def test_prune_corrupt_tree_exits_io(self, clean_stream, tmp_path, capsys, field, value):
        split = TreeNode(feature_id=0, threshold=1.0, left=TreeNode(weight=1.0), right=TreeNode(weight=-1.0))
        model_path = tmp_path / "model.json"
        gbdt.save(GbdtModel([split], 0.0, GbdtParams(), [FeatureSpec("red", "mean")]), model_path)
        doc = json.loads(model_path.read_text())
        doc["trees"][0]["nodes"][0][field] = value
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
