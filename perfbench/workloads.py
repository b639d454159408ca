"""Workload definitions: seeded inputs, the CLI jobs each workload runs, and
the checks applied to every output.

Inputs come only from ``pulseox.synth`` and ``pulseox train`` and are built
before any timing. One *operation* is a fold for ``loocv`` and a stream for
``prune_long`` and ``spo2_batch``; failures are counted per operation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import shutil
from dataclasses import dataclass

WORKLOADS = ("loocv", "prune_long", "spo2_batch")
DEFAULT_SEED = 20260823
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDED_DIGESTS = HERE / "digests.json"


# Selection level written into the bench cohort's ``cohort.json``. The full
# 10 x 720 s cohort keeps 70 of the 72 features at the library's q = 0.05. A
# small cohort has too few training rows for that, and how many features it
# keeps swings with the seed: at q = 0.9 a 10 x 120 s cohort kept 70 to 72,
# and one AR feature fewer in the model makes ``prune_long`` a fifth faster.
# q = 0.999 kept all 72 on each of the 11 seeds tried there, so the work per job
# does not hinge on the seed.
FDR_Q = 0.999


@dataclass(frozen=True)
class Sizes:
    """Stream lengths of the three input sets, each made from the same seed.

    ``cohort`` (``subjects`` x ``duration_s``) feeds ``loocv`` and the model
    that ``prune_long`` uses; ``batch`` (``subjects`` x ``batch_duration_s``)
    feeds ``spo2_batch``; ``long`` is one wrist stream of ``long_duration_s``.
    """

    subjects: int
    duration_s: float
    batch_duration_s: float
    long_duration_s: float

    @property
    def key(self) -> str:
        return f"{self.subjects}x{self.duration_s:g}s-batch{self.batch_duration_s:g}s-long{self.long_duration_s:g}s"


# At 180 s a LOOCV fold trains on about 395 rows, and most trees reach depth
# 2 or 3: 5.0 to 5.6 best_split calls per tree over the seeds tried, against
# 6.5 on the full 10 x 720 s cohort. At 120 s (about 265 rows) the count
# swung from 2.0 to 5.0 with the seed, and with it the GBDT share of the job.
# One LOOCV job then takes about 50 s on a 2-core Xeon VM. 300 s streams make
# one spo2_batch job about 3.3 s.
BENCH = Sizes(subjects=10, duration_s=180.0, batch_duration_s=300.0, long_duration_s=300.0)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _quiet_cli(argv) -> int:
    from pulseox import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


# --- inputs -------------------------------------------------------------------


def input_files(inputs: pathlib.Path) -> list:
    """Every input file a workload reads, relative to the input directory."""
    names = []
    for group in ("cohort", "batch"):
        cohort = json.loads((inputs / group / "cohort.json").read_text())
        names.append(f"{group}/cohort.json")
        for e in cohort["cohort"]:
            for key in ("wrist_csv", "finger_csv"):
                stem = pathlib.Path(e[key]).with_suffix("")
                names += [f"{group}/{e[key]}", f"{group}/{stem}.meta"]
    names += ["long/wrist_s00.csv", "long/wrist_s00.meta", "model/model.json", "model/selection.json"]
    return names


def make_inputs(cache: pathlib.Path, seed: int, sizes: Sizes) -> pathlib.Path:
    """Build (or reuse) the inputs for ``seed`` under ``cache``.

    The cohort feeds ``loocv``, the batch cohort ``spo2_batch``, and
    ``long/wrist_s00.csv`` with the model trained on the cohort ``prune_long``.
    A finished input set holds ``inputs.json`` with the digest of every file.
    """
    from pulseox import synth

    out = cache / f"{sizes.key}-seed{seed}"
    if (out / "inputs.json").exists():
        return out
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    synth.gen_cohort(sizes.subjects, tmp / "cohort", synth.SynthConfig(duration_s=sizes.duration_s), variation_seed=seed)
    cfg_path = tmp / "cohort" / "cohort.json"
    cfg = json.loads(cfg_path.read_text())
    cfg["fdr_q"] = FDR_Q
    cfg_path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
    synth.gen_cohort(sizes.subjects, tmp / "batch", synth.SynthConfig(duration_s=sizes.batch_duration_s), variation_seed=seed)
    synth.gen_cohort(2, tmp / "long", synth.SynthConfig(duration_s=sizes.long_duration_s), variation_seed=seed)
    if _quiet_cli(["train", str(tmp / "cohort" / "cohort.json"), str(tmp / "model")]) != 0:
        raise RuntimeError(f"pulseox train failed while building inputs for seed {seed}")
    digests = {name: sha256_file(tmp / name) for name in input_files(tmp)}
    (tmp / "inputs.json").write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return out


def input_digests(inputs: pathlib.Path) -> dict:
    return json.loads((inputs / "inputs.json").read_text())


def recorded(sizes: Sizes, seed: int):
    """Digests recorded for this size and seed, or None."""
    if not RECORDED_DIGESTS.exists():
        return None
    doc = json.loads(RECORDED_DIGESTS.read_text())
    return doc.get(sizes.key, {}).get(str(seed))


# --- jobs -------------------------------------------------------------------


def _streams(inputs: pathlib.Path):
    """(path, kind) of every batch cohort stream, wrist then fingertip per subject."""
    cohort = json.loads((inputs / "batch" / "cohort.json").read_text())
    for e in cohort["cohort"]:
        yield inputs / "batch" / e["wrist_csv"], "wrist"
        yield inputs / "batch" / e["finger_csv"], "fingertip"


def subject_ids(inputs: pathlib.Path) -> list:
    cohort = json.loads((inputs / "cohort" / "cohort.json").read_text())
    return sorted(e["subject_id"] for e in cohort["cohort"])


def job(workload: str, inputs: pathlib.Path, out: pathlib.Path) -> list:
    """The ``pulseox`` CLI calls of one job, as ``(op_ids, argv)`` pairs."""
    if workload == "loocv":
        return [(subject_ids(inputs), ["evaluate", str(inputs / "cohort" / "cohort.json"), str(out)])]
    if workload == "prune_long":
        argv = ["prune", str(inputs / "long" / "wrist_s00.csv"), str(inputs / "model" / "model.json"), str(out / "pruned.csv")]
        return [(["pruned.csv"], argv)]
    if workload == "spo2_batch":
        calls = []
        for path, kind in _streams(inputs):
            name = f"est_{path.stem}.csv"
            argv = ["spo2", str(path), str(out / name), "--algo", "enhanced", "--step", "1", "--kind", kind]
            calls.append(([name], argv))
        return calls
    raise ValueError(f"unknown workload {workload!r}")


# --- output checks ------------------------------------------------------------


def _reading_ok(v: float) -> bool:
    return 0.0 <= v <= 100.0


def _estimates_ok(path: pathlib.Path) -> bool:
    """At least one emitted reading, every reading in [0, 100], and every
    suppressed reading flagged by a gate."""
    emitted = 0
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != ["t_ms", "algorithm", "ratio_r", "spo2_pct", "gates"]:
            return False
        for _, _, _, pct, gates in rows:
            v = float(pct)
            if math.isnan(v):
                if not gates:
                    return False
            elif _reading_ok(v):
                emitted += 1
            else:
                return False
    return emitted > 0


def _fold_ok(report: dict) -> bool:
    """The fold trained (not skipped), and its figures are in range."""
    if "skipped" in report["extras"]:
        return False
    p = report["precision"]  # None when the fold emitted nothing
    if p is not None and not 0.0 <= p <= 1.0:
        return False
    errors = report["extras"].get("abs_errors_pruned", [])
    return all(_reading_ok(e) for e in errors)


def check_outputs(workload: str, out: pathlib.Path, op_ids: list) -> dict:
    """Digest of every operation's output, or None where the output is
    missing or fails the range checks."""
    result = {}
    if workload == "loocv":
        try:
            lines = (out / "reports.csv").read_bytes().splitlines(keepends=True)
        except OSError:
            return dict.fromkeys(op_ids)
        rows = {line.split(b",", 1)[0].decode(): line for line in lines[1:]}
        for sid in op_ids:
            path = out / f"report_{sid}.json"
            try:
                body = path.read_bytes()
                ok = sid in rows and _fold_ok(json.loads(body))
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
            if ok:
                h = hashlib.sha256(lines[0] + rows[sid] + body)
                result[sid] = h.hexdigest()
            else:
                result[sid] = None
        return result
    for name in op_ids:
        path = out / name
        try:
            ok = _estimates_ok(path)
        except (OSError, ValueError):
            ok = False
        result[name] = sha256_file(path) if ok else None
    return result


def failed_ops(digests: dict, reference: dict) -> list:
    """Operations whose output failed its checks or differs from ``reference``."""
    return [op for op, d in digests.items() if d is None or d != reference.get(op)]


def quality(out: pathlib.Path, op_ids: list) -> dict:
    """Fold means of the LOOCV figures ``pulseox evaluate`` prints."""
    reports = [json.loads((out / f"report_{sid}.json").read_text()) for sid in op_ids]
    reports = [r for r in reports if "skipped" not in r["extras"]]

    def mean(key):
        vals = [r[key] for r in reports if r[key] is not None]
        return sum(vals) / len(vals) if vals else float("nan")

    return {
        "precision_mean": mean("precision"),
        "rmse_pruned_pct": mean("rmse_pruned"),
        "max_silent_s": mean("max_silent_interval_s"),
    }
