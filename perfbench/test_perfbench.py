"""The benchmark's own tests, on a tiny cohort (3 subjects x 60 s)."""

import contextlib
import io
import pathlib
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

SEED = 11
TINY = workloads.Sizes(subjects=3, duration_s=60.0, batch_duration_s=60.0, long_duration_s=60.0)


@pytest.fixture(scope="module")
def state(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def runs(request, state):
    """(result, lines, digests) of one untraced and one traced run."""
    return {
        trace: run.run(request.param, SEED, 1, trace, sizes=TINY, state=state, probes=1)
        for trace in (0, 1)
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_prints_with_its_unit(runs, trace):
    result, lines, _ = runs[trace]
    declared = run.declared(trace)
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == declared
    for name, unit in declared:
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert f"{name} {value!r} {unit}" in lines
    assert any(line.startswith("fail_frac 0.0 ") for line in lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_traced_and_untraced_outputs_have_identical_digests(runs):
    assert runs[0][2] == runs[1][2]
    assert all(d is not None for d in next(v for k, v in runs[0][2].items() if k != "inputs").values())


def test_self_times_account_for_traced_wall(runs):
    m = {k: v["value"] for k, v in runs[1][0]["metrics"].items()}
    selfs = sum(v for k, v in m.items() if k.endswith(".self_s") or k == "metrics.s")
    assert selfs == pytest.approx(m["trace.wall_s"], rel=0.02)
    assert 0 < m["trace.overhead_s"] < m["trace.wall_s"]


def _flip_digit(path: pathlib.Path):
    """Change one digit past the header line, keeping the file parseable."""
    data = bytearray(path.read_bytes())
    i = next(i for i in range(data.index(b"\n") + 1, len(data)) if chr(data[i]) in "12345678")
    data[i] += 1
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_flipped_byte_counts_as_a_failure(workload, state, tmp_path):
    from pulseox import cli

    inputs = workloads.make_inputs(state / "inputs", SEED, TINY)
    calls = workloads.job(workload, inputs, tmp_path)
    digests = {}
    for op_ids, argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        digests.update(workloads.check_outputs(workload, tmp_path, op_ids))
    assert workloads.failed_ops(digests, digests) == []

    op = sorted(digests)[0]
    _flip_digit(tmp_path / (f"report_{op}.json" if workload == "loocv" else op))
    flipped = {}
    for op_ids, _ in calls:
        flipped.update(workloads.check_outputs(workload, tmp_path, op_ids))
    assert workloads.failed_ops(flipped, digests) == [op]


def test_span_arithmetic():
    t = tracer.Tracer("unit")
    spans = [("cli.main", 0.0, 10.0, -1), ("pipeline.prune", 1.0, 9.0, 0), ("features.extract_matrix", 2.0, 5.0, 1),
             ("features.family.mean", 2.5, 3.0, 2), ("spo2.matrix_stats", 6.0, 7.0, 1)]
    for name, start, end, parent in spans:
        i = t.begin(name)
        t.start[i], t.end[i], t.parent[i] = start, end, parent
        t._stack.clear()
    assert t.module_self() == {"cli": 2.0, "pipeline": 4.0, "features": 3.0, "spo2": 1.0}
    assert t.inclusive("features.extract_matrix", "features.family.mean") == 3.0
    assert t.inside(["pipeline.prune"], ["spo2.matrix_stats"]) == 1.0


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_state", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loocv", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
