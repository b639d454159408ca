"""One benchmark run of one workload, in a fresh process.

Usage (started by ``run.py``): ``python3 worker.py SPEC_JSON T0``, where
``T0`` is the parent's ``time.monotonic()`` just before it started this
process. The worker imports ``pulseox.cli`` first, so the time until that
import ends is one set-up sample. It then runs jobs back to back until the
spec's ``seconds`` have passed, checks every job's outputs outside the timed
region, and writes its result to the spec's ``result`` path.

With ``trace`` set, every job is traced. The tracer's overhead is then
estimated as the spans a job records times the cost of one span, measured on
a no-op function in this process: a traced job and an untraced one differ by
far less than the drift of one job's wall time from the next.
"""

import contextlib
import io
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
import traceback


def run_job(cli, calls, trace_to=None):
    """Run one job's CLI calls; returns (wall_s, cpu_s, exit codes, output bytes)."""
    sink = io.StringIO()
    codes = []
    if trace_to is not None:
        trace_to.install()
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for _, argv in calls:
                span = trace_to.begin(trace_to.ROOT) if trace_to is not None else None
                try:
                    codes.append(cli.main(argv))
                except Exception:  # a crash fails this call's operations; the run goes on
                    codes.append(traceback.format_exc())
                finally:
                    if span is not None:
                        trace_to.finish(span)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    finally:
        if trace_to is not None:
            trace_to.uninstall()
    return wall, cpu, codes, len(sink.getvalue().encode())


def dir_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(spec_path, t0):
    spec = json.loads(pathlib.Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from pulseox import cli  # the set-up being measured ends with this import

    setup_s = time.monotonic() - t0
    import tracer
    import workloads

    workload = spec["workload"]
    inputs = pathlib.Path(spec["inputs"])
    work = pathlib.Path(spec["work"])
    expected = spec["expected"]  # op id -> digest, or None when not recorded
    walls, cpus, tracers, layer = [], [], [], []
    span_cost = tracer.span_cost() if spec["trace"] else 0.0
    attempted = failed = 0
    problems = []
    reference = expected or {}
    first = None
    quality = None

    deadline = time.perf_counter() + spec["seconds"]
    k = 0
    while True:
        out = work / f"job{k}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        calls = workloads.job(workload, inputs, out)
        t = tracer.Tracer(f"{spec['run_id']}-job{k}") if spec["trace"] else None
        wall, cpu, codes, printed = run_job(cli, calls, t)

        digests = {}
        for (op_ids, argv), code in zip(calls, codes):
            if code == 0:
                digests.update(workloads.check_outputs(workload, out, op_ids))
            else:
                digests.update(dict.fromkeys(op_ids))
                problems.append(f"job{k}: pulseox {argv[0]} -> {str(code)[-400:]}")
        if first is None:
            first = digests
            if not expected:  # later jobs must match the first
                reference = {op: d for op, d in digests.items() if d is not None}
        bad = workloads.failed_ops(digests, reference)
        attempted += len(digests)
        failed += len(bad)
        problems += [f"job{k}: output {op} {'failed its checks' if digests[op] is None else 'differs'}" for op in bad]
        if workload == "loocv" and quality is None and not bad:
            quality = workloads.quality(out, calls[0][0])
        walls.append(wall)
        cpus.append(cpu)
        if t is not None:
            tracers.append(t)
            m = tracer.layer_metrics(t)
            m["cli.output_bytes"] = dir_bytes(out) + printed
            m["trace.wall_s"] = wall
            m["trace.overhead_s"] = len(t.name) * span_cost
            layer.append(m)
        shutil.rmtree(out, ignore_errors=True)
        k += 1
        if time.perf_counter() >= deadline:
            break

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "cpus": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "digests": first,
        "quality": quality,
        "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    }
    if layer:
        result["layer"] = {key: statistics.fmean(m[key] for m in layer) for key in layer[0]}
        tracer.write_spans(spec["spans"], tracers)
    pathlib.Path(spec["result"]).write_text(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
