"""Byte identity of the CLI outputs against recorded digests.

``tests/golden.json`` holds the sha256 of every file that ``train``,
``evaluate``, ``prune`` and ``spo2 --step 1`` write for a tiny seeded cohort
(3 subjects x 120 s, 25 trees), with the numpy and scipy versions it was
recorded with. The cohort's streams hold no gap slot, so ``spo2 --step 1``
also runs, with both algorithms, on a copy of one wrist stream with some rows
dropped (``GAPPED_ROWS``), whose windows over the dropped rows are gapped. All four commands run through ``cli.main`` in one fresh
interpreter with one BLAS thread: the bits of the detrend slopes in
``spo2.matrix_stats`` depend on the BLAS thread count.

Re-recording the digests is an epoch act, to be stated in CHANGES.md with the
outputs that moved:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).with_name("golden.json")
SEED = 20260823
ONE_BLAS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
#: Data rows left out of the gapped copy of ``wrist_s02.csv``: one alone, a
#: pair and a run of five, each a gap slot once regularized.
GAPPED_ROWS = {500, 1500, 1501, 2200, 2201, 2202, 2203, 2204}


def write_gapped(stream, out):
    """A copy of ``stream`` and its sidecar without the data rows of ``GAPPED_ROWS``."""
    header, *rows = stream.read_text(encoding="utf-8").splitlines(keepends=True)
    out.write_text(header + "".join(r for i, r in enumerate(rows) if i not in GAPPED_ROWS), encoding="utf-8")
    out.with_suffix(".meta").write_bytes(stream.with_suffix(".meta").read_bytes())


def write_outputs(work):
    """Generate the cohort under ``work`` and run the four commands on it,
    then ``spo2`` with both algorithms on a gapped stream."""
    from pulseox import cli, synth

    cohort = work / "cohort"
    synth.gen_cohort(3, cohort, synth.SynthConfig(duration_s=120.0), variation_seed=SEED)
    cfg = json.loads((cohort / "cohort.json").read_text())
    cfg["gbdt_params"] = {"n_estimators": 25}
    (cohort / "cohort.json").write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
    write_gapped(cohort / "wrist_s02.csv", work / "gapped.csv")
    runs = (
        ["train", str(cohort / "cohort.json"), str(work / "train")],
        ["evaluate", str(cohort / "cohort.json"), str(work / "evaluate")],
        ["prune", str(cohort / "wrist_s00.csv"), str(work / "train" / "model.json"), str(work / "pruned.csv")],
        ["spo2", str(cohort / "wrist_s01.csv"), str(work / "spo2.csv"), "--step", "1"],
        ["spo2", str(work / "gapped.csv"), str(work / "spo2_gapped.csv"), "--step", "1"],
        ["spo2", str(work / "gapped.csv"), str(work / "spo2_gapped_baseline.csv"), "--step", "1", "--algo", "baseline"],
    )
    for argv in runs:
        if cli.main(argv) != 0:
            raise SystemExit(f"pulseox {' '.join(argv)} failed")


def digests(work) -> dict:
    """``{output path relative to work: sha256}`` of the compared outputs."""
    paths = [work / "train" / "model.json", work / "train" / "selection.json", work / "evaluate" / "reports.csv"]
    paths += sorted((work / "evaluate").glob("report_*.json"))
    paths += [work / "pruned.csv", work / "spo2.csv", work / "spo2_gapped.csv", work / "spo2_gapped_baseline.csv"]
    return {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def run_outputs(work) -> dict:
    """The digests of the outputs written by a child interpreter with one
    BLAS thread."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **ONE_BLAS)
    subprocess.run(
        [sys.executable, __file__, "--child", str(work)], env=env, check=True, capture_output=True, timeout=300
    )
    return digests(work)


def versions() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def test_outputs_match_recorded_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["versions"] == versions(), (
        f"the digests were recorded with {golden['versions']}, this run has {versions()}; "
        "re-record them as a labelled epoch if the outputs are meant to move"
    )
    assert run_outputs(tmp_path) == golden["sha256"]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        write_outputs(pathlib.Path(sys.argv[2]))
    elif sys.argv[1:] == ["--record"]:
        with tempfile.TemporaryDirectory() as d:
            doc = {"seed": SEED, "versions": versions(), "sha256": run_outputs(pathlib.Path(d))}
        GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(doc['sha256'])} digests in {GOLDEN}")
    else:
        raise SystemExit(__doc__)
