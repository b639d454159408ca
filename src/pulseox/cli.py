"""Command-line interface.

Subcommands wrap the library end to end: ``simulate`` writes a synthetic
cohort, ``spo2`` runs an extraction algorithm over one stream, ``train``
fits and saves a classifier, ``evaluate`` runs leave-one-subject-out (or a
fixed model) over a cohort, ``prune`` emits classifier-filtered readings,
``sweep`` scans a hyperparameter. Every run writes a ``manifest.json`` into
its output directory recording the resolved config, seed, and component
versions so the run can be reproduced exactly.

Exit codes: 0 success, 1 I/O error or malformed input file, 2 config error
(a bad config file, config value or flag). Any other exception is a bug and
ends in a traceback.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from . import __version__, gbdt, metrics, pipeline, schema, signal_io, spo2, synth
from .errors import ConfigOutOfRange, PulseoxError, SingleClass

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2


def _write_manifest(out_dir, command, config, seed):
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "command": command,
        "config": config,
        "seed": seed,
        "versions": {
            "pulseox": __version__,
            "numpy": np.__version__,
        },
    }
    signal_io.write_json(out_dir / "manifest.json", doc)


def _require_complete_window(frames, window):
    if len(frames) < window:
        raise ConfigOutOfRange(f"window {window} is longer than the stream ({len(frames)} samples): no complete window")


#: The keys of a ``simulate`` config with their defaults, by which
#: :mod:`pulseox.schema` types them; the seed defaults to ``--seed``.
SIMULATE_FIELDS = {
    "n_subjects": 10, "duration_s": 720.0, "rate_hz": 25.0, "seed": 0, "calibration": schema.defaults(spo2.CalibrationCurve),
}


def cmd_simulate(args):
    cfg = schema.load(args.config, ConfigOutOfRange)
    doc = schema.fields(cfg, SIMULATE_FIELDS, args.config, ConfigOutOfRange)
    seed_from = f"{args.config}: " if "seed" in doc else "--"
    doc = {**SIMULATE_FIELDS, "seed": args.seed, **doc}
    n, seed = doc["n_subjects"], doc["seed"]
    if seed < 0:
        raise ConfigOutOfRange(f"{seed_from}seed must be nonnegative, got {seed}")
    with schema.checked(f"{args.config}: ", ConfigOutOfRange):
        calib = spo2.CalibrationCurve(**doc["calibration"])
        base = synth.SynthConfig(duration_s=float(doc["duration_s"]), rate_hz=float(doc["rate_hz"]))
    config = synth.gen_cohort(n, args.out_dir, base, variation_seed=seed, calib=calib)
    _write_manifest(args.out_dir, "simulate", cfg, seed)
    print(f"wrote {n} subjects to {args.out_dir}")
    for entry in config["cohort"]:
        print(f"  {entry['subject_id']}: {entry['wrist_csv']} / {entry['finger_csv']}")
    return EXIT_OK


def cmd_spo2(args):
    if args.window < spo2.MIN_WINDOW:
        raise ConfigOutOfRange(f"--window must be >= {spo2.MIN_WINDOW}, got {args.window}")
    if schema.typed(args.step, 1, "--step", ConfigOutOfRange) < 1:
        raise ConfigOutOfRange(f"--step must be >= 1, got {args.step}")
    with schema.checked("", ConfigOutOfRange):
        calib = spo2.CalibrationCurve(args.y0, args.m)
    frames, _ = signal_io.load_frames(args.stream, args.kind)
    _require_complete_window(frames, args.window)
    if args.algo == "baseline":
        estimates = spo2.baseline_spo2(frames, calib, args.window, args.step)
    else:
        estimates = spo2.enhanced_spo2(frames, calib, window_len=args.window, step=args.step)
    spo2.estimates_to_csv(args.out, estimates)
    valid = estimates.valid
    n_valid = int(valid.sum())
    rate = 1.0 - n_valid / len(estimates)
    mean = float(np.mean(estimates.spo2_pct[valid])) if n_valid else float("nan")
    print(f"windows={len(estimates)} emitted={n_valid} rejection_rate={rate:.3f} mean_spo2={mean:.2f}")
    return EXIT_OK


def cmd_train(args):
    subjects, settings = pipeline.load_experiment(args.config)
    X, y = pipeline.build_training_set(subjects, settings)
    model, selection = pipeline.train_model(X, y, settings)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gbdt.save(model, out / "model.json")
    signal_io.write_json(out / "selection.json", selection.to_json_dict())
    _write_manifest(out, "train", schema.load(args.config, ConfigOutOfRange), settings.gbdt_params.seed)
    print(f"trained on {len(X)} rows; kept {len(model.feature_catalog)}/{X.shape[1]} features")
    return EXIT_OK


def cmd_evaluate(args):
    subjects, settings = pipeline.load_experiment(args.config)
    if args.model:
        model = gbdt.load(args.model)
        reports = [pipeline.evaluate_subject(s, pipeline.analyze_subject(s, settings), model, settings) for s in subjects]
    else:
        reports = pipeline.run_loocv(subjects, settings)
    ok = [r for r in reports if "skipped" not in r.extras]
    if not ok:
        raise SingleClass(f"all folds failed: {reports[0].subject_id}: {reports[0].extras['skipped']}")
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics.reports_to_csv(out / "reports.csv", reports)
    for r in reports:
        signal_io.write_json(out / f"report_{r.subject_id}.json", r.to_json_dict())
    _write_manifest(out, "evaluate", schema.load(args.config, ConfigOutOfRange), settings.gbdt_params.seed)
    means = metrics.fold_means(reports)
    print(f"folds={len(reports)} ok={len(ok)}")
    print(f"mean precision={means['precision']} (skipped {means['precision_undefined']} undefined)")
    print(f"mean rmse baseline={means['rmse_baseline']} enhanced={means['rmse_enhanced']} pruned={means['rmse_pruned']}")
    return EXIT_OK


def cmd_prune(args):
    with schema.checked("", ConfigOutOfRange):
        settings = pipeline.PipelineSettings(
            calibration=spo2.CalibrationCurve(args.y0, args.m),
            decision_threshold=args.threshold,
        )
    frames, _ = signal_io.load_frames(args.stream, "wrist")
    _require_complete_window(frames, settings.window_len)
    model = gbdt.load(args.model)
    readings = pipeline.prune(frames, model, settings)
    spo2.estimates_to_csv(args.out, readings)
    print(f"emitted {len(readings)} readings")
    return EXIT_OK


def cmd_sweep(args):
    with schema.checked("sweep values: ", ConfigOutOfRange):
        values = [float(v) for v in args.values]
    subjects, settings = pipeline.load_experiment(args.config)
    rows = pipeline.sweep(args.axis, values, subjects, settings)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.sweep_to_csv(out / "sweep.csv", rows)
    _write_manifest(out, "sweep", {"axis": args.axis, "values": values, "config": schema.load(args.config, ConfigOutOfRange)}, settings.gbdt_params.seed)
    for r in rows:
        print(r)
    return EXIT_OK


def build_parser():
    calib = spo2.CalibrationCurve()
    p = argparse.ArgumentParser(prog="pulseox", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="generate a synthetic cohort")
    s.add_argument("config", help="JSON config: n_subjects, duration_s, rate_hz, seed, calibration")
    s.add_argument("out_dir")
    s.add_argument("--seed", type=int, default=0, help="cohort seed when the config names none (default 0)")
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("spo2", help="run an extraction algorithm over one stream")
    s.add_argument("stream")
    s.add_argument("out")
    s.add_argument("--algo", choices=["baseline", "enhanced"], default="enhanced")
    s.add_argument("--kind", choices=["wrist", "fingertip"], default="wrist")
    s.add_argument("--window", type=int, default=pipeline.PipelineSettings.window_len)
    s.add_argument("--step", type=int, default=1)
    s.add_argument("--y0", type=float, default=calib.y0)
    s.add_argument("--m", type=float, default=calib.m)
    s.set_defaults(func=cmd_spo2)

    s = sub.add_parser("train", help="train a reliability classifier from an experiment config")
    s.add_argument("config")
    s.add_argument("out_dir")
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("evaluate", help="leave-one-subject-out (or fixed-model) evaluation")
    s.add_argument("config")
    s.add_argument("out_dir")
    s.add_argument("--model", help="evaluate this model file instead of running LOOCV")
    s.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("prune", help="classifier-filtered readings for one stream")
    s.add_argument("stream")
    s.add_argument("model")
    s.add_argument("out")
    s.add_argument("--threshold", type=float, default=pipeline.PipelineSettings.decision_threshold)
    s.add_argument("--y0", type=float, default=calib.y0)
    s.add_argument("--m", type=float, default=calib.m)
    s.set_defaults(func=cmd_prune)

    s = sub.add_parser("sweep", help="scan window length or reliability threshold")
    s.add_argument("axis", choices=["window_len", "reliability_threshold"])
    s.add_argument("config")
    s.add_argument("out_dir")
    s.add_argument("values", nargs="+")
    s.set_defaults(func=cmd_sweep)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigOutOfRange as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, PulseoxError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
