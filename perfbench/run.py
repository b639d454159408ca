"""Seeded benchmark of the ``pulseox`` command line.

    python3 perfbench/run.py --workload loocv --seed 20260823 --seconds 20 --trace 0

Run from the root of a source checkout. Inputs are made from ``--seed``
(cached under ``perfbench/_state``) before any timing. Each run starts one
fresh worker process that drives the workload through ``pulseox.cli.main``
for ``--seconds`` and checks every output. With ``--trace 0`` the run reports
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it traces
every job and reports the per-layer metrics. The last line of
standard output is one JSON object; the lines before it are for people.

Workloads, metric names and units are listed in ``BENCHMARK.json``; which
end-to-end metric each per-layer metric should move, and the baseline
figures, are in ``perfbench/metrics.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT
SRC = ROOT / "src"
WORKER_TIMEOUT_S = 150
# Set-up samples per run besides the worker's own, taken half before and half
# after the worker so that the median spans the run. Each costs about 1.2 s;
# the run's time goes to the jobs instead, whose wall time is the tighter bound.
SETUP_PROBES = 2
# One BLAS thread: the load is driven by one thread of one process, so a
# spinning BLAS pool neither adds threads nor ties timings to the other core.
# The outputs also depend on the BLAS thread count, and the recorded digests
# hold for one thread.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROBE = "import sys, time; sys.path.insert(0, sys.argv[1]); import pulseox.cli; print(time.monotonic())"


def setup_sample() -> float:
    """Seconds from starting a Python process until ``pulseox.cli`` is imported."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)], env=dict(os.environ, **ONE_BLAS_THREAD), capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout.split()[-1]) - t0


def machine() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(ONE_BLAS_THREAD["OPENBLAS_NUM_THREADS"]),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
        with open("/proc/meminfo", encoding="utf-8") as fh:
            info["ram_gb"] = round(int(fh.readline().split()[1]) / 2**20, 1)
    except OSError:
        pass
    return info


def declared(trace: int) -> list:
    """(name, unit) of every metric ``BENCHMARK.json`` lists for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc["per_layer" if trace else "end_to_end"]]


def run(workload, seed, seconds, trace, sizes=workloads.BENCH, state=HERE / "_state", probes=SETUP_PROBES):
    """One benchmark run, keeping inputs, scratch files and spans under ``state``.

    Returns the result line as a dict, the lines for people, and the digests
    of the inputs and of the first job's outputs.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    inputs = workloads.make_inputs(state / "inputs", seed, sizes)
    recorded = workloads.recorded(sizes, seed)
    inputs_ok = recorded is None or recorded["inputs"] == workloads.input_digests(inputs)

    setups = [setup_sample() for _ in range(probes // 2)]

    work = state / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run_id = f"{workload}-seed{seed}-trace{trace}"
    spec = {
        "workload": workload,
        "inputs": str(inputs),
        "work": str(work),
        "src": str(SRC),
        "seconds": seconds,
        "trace": bool(trace),
        "expected": recorded[workload] if recorded else None,
        "run_id": run_id,
        "result": str(work / "result.json"),
        "spans": str(state / f"spans-{run_id}.json"),
    }
    (work / "spec.json").write_text(json.dumps(spec))
    try:
        t0 = time.monotonic()
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json"), repr(t0)],
            cwd=ROOT, env=dict(os.environ, **ONE_BLAS_THREAD), timeout=WORKER_TIMEOUT_S, check=True,
        )
        w = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups.append(w["setup_s"])
    setups += [setup_sample() for _ in range(probes - probes // 2)]
    attempted, failed = w["attempted"], w["failed"]
    if not inputs_ok:
        failed = attempted
    wall = statistics.median(w["walls"])
    cpu = statistics.median(w["cpus"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": w["peak_rss_mb"],
    }
    if trace:
        values = dict(w["layer"])
        values["process.cpu_s"] = cpu
        values["process.cpu_util"] = cpu / wall

    units = declared(trace)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    result = {"correct": failed == 0 and inputs_ok, "attempted": attempted, "failed": failed, "metrics": metrics}

    lines = [
        f"machine {json.dumps(dict(machine(), worker_threads=w['threads']), sort_keys=True)}",
        f"workload {workload} seed {seed} sizes {sizes.key} trace {trace}: "
        f"{len(w['walls'])} {'traced' if trace else 'untraced'} jobs",
    ]
    lines += [f"{name} {metrics[name]['value']!r} {unit}" for name, unit in units]
    if len(w["walls"]) > 10:  # the highest percentile with ten jobs above it
        q = int(100 * (len(w["walls"]) - 10) / len(w["walls"]))
        lines.append(f"wall_s p{q} {statistics.quantiles(w['walls'], n=100)[q - 1]!r} s over {len(w['walls'])} jobs")
    lines.append(f"wall_s jobs {[round(x, 4) for x in w['walls']]}")
    lines.append(f"fail_frac {failed / attempted!r} ({failed}/{attempted} operations)")
    lines.append(f"setup_s samples {[round(s, 4) for s in setups]}")
    if w["quality"]:
        lines += [f"{k} {v!r}" for k, v in w["quality"].items()]
    if trace:
        accounted = sum(v for k, v in values.items() if k.endswith(".self_s") or k == "metrics.s")
        lines.append(f"trace self times account for {accounted:.4f} s of {values['trace.wall_s']:.4f} s traced wall")
    if not inputs_ok:
        lines.append("inputs differ from the digests recorded for this seed")
    digests = {"inputs": workloads.input_digests(inputs), workload: w["digests"]}
    if recorded is None:
        lines.append("digests " + json.dumps(digests, sort_keys=True))
    lines += [f"problem: {p}" for p in w["problems"]]
    return result, lines, digests


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.environ.update(ONE_BLAS_THREAD)  # before numpy loads, so inputs are made with one thread too
    if not (SRC / "pulseox" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: no pulseox source tree at {ROOT}; run it from a checkout", file=sys.stderr)
        return 2
    result, lines, _ = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
