"""No input document reaches a traceback.

One field of a valid input is replaced by a hostile value, removed, or joined
by an unknown key: an experiment config (run by ``train``), a ``simulate``
config, a ``.meta`` sidecar (run by ``spo2``), a ``model.json`` (run by
``prune``), or one cell or line of a stream (run by ``spo2`` or ``prune``).
``cli.main`` must return 0, 1 or 2 with nothing but ``SystemExit`` escaping,
and 0 only when the mutated document is valid by README's schema, which the
predicates below encode without reading ``src/``.
"""

import contextlib
import copy
import io
import json
import math
import shutil
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pulseox import cli

HOSTILE = [True, "25", 1.5, -1, 0, 1e308, 5e-324, float("nan"), float("inf"), 2**70, [], {}, None]
#: The same values as stream cells, as a capture or a hand edit could write them.
HOSTILE_CELLS = ["true", '"25"', "1.5", "-1", "0", "1e308", "5e-324", "NaN", "Infinity", str(2**70), "[]", "{}", "null"]

SITES = ("wrist_top", "wrist_bottom", "fingertip")
SKIN_TONES = ("light", "medium", "dark", "unknown")
WRIST_HEADER = "t_ms,red,ir,ax,ay,az,gx,gy,gz"
MAX_SAMPLES = 24 * 3600 * 25


# --- README's schema, one predicate per field ----------------------------------


def integer(lo=-(2**63)):
    return lambda v: type(v) is int and lo <= v < 2**63


def number(ok=lambda x: True):
    finite = lambda v: (type(v) is int and -(2**63) <= v < 2**63) or (type(v) is float and math.isfinite(v))
    return lambda v: finite(v) and ok(v)


def text(choices=None):
    return lambda v: type(v) is str and (choices is None or v in choices)


def obj(spec, required=()):
    return lambda v: (
        type(v) is dict and set(v) <= set(spec) and set(required) <= set(v) and all(spec[k](x) for k, x in v.items())
    )


def listof(item, nonempty=False):
    return lambda v: type(v) is list and (bool(v) or not nonempty) and all(item(x) for x in v)


CALIBRATION = obj({"y0": number(), "m": number(lambda m: m > 0)})
GBDT_PARAMS = obj(
    {
        "learning_rate": number(lambda x: x > 0),
        "n_estimators": integer(1),
        "max_depth": integer(1),
        "min_child_weight": number(lambda x: x >= 0),
        "reg_alpha": number(lambda x: x >= 0),
        "reg_lambda": number(lambda x: x >= 0),
        "subsample": number(lambda x: 0 < x <= 1),
        "objective": lambda v: v == "logistic_binary",
        "seed": integer(0),
    }
)
EXPERIMENT = obj(
    {
        "cohort": listof(
            obj({"wrist_csv": text(), "finger_csv": text(), "subject_id": text(), "truth_csv": text()}, ("wrist_csv", "finger_csv")),
            nonempty=True,
        ),
        "calibration": CALIBRATION,
        "window": obj({"window_len": integer(8)}),
        "label": obj({"reliability_threshold_pct": number(lambda x: x > 0), "alignment_tolerance_ms": integer(0)}),
        "gbdt_params": GBDT_PARAMS,
        "seed": integer(0),
        "fdr_q": number(lambda x: 0 < x < 1),
        "decision_threshold": number(lambda x: 0 <= x <= 1),
        "version": integer(),
    },
    required=("cohort",),
)
SIMULATE_FIELDS = obj(
    {
        "n_subjects": integer(2),
        "duration_s": number(lambda x: x > 0),
        "rate_hz": number(lambda x: x > 0),
        "seed": integer(0),
        "calibration": CALIBRATION,
    }
)
SIDECAR = obj({"rate_hz": number(lambda x: x > 0), "site": text(SITES), "subject_id": text(), "skin_tone": text(SKIN_TONES)})


def simulate_valid(d):
    return SIMULATE_FIELDS(d) and 1 <= d.get("duration_s", 720.0) * d.get("rate_hz", 25.0) <= MAX_SAMPLES


def nodes_valid(nodes, n_features):
    def node_valid(i, d):
        if type(d) is dict and "leaf" in d:
            return obj({"leaf": number()}, ("leaf",))(d)
        child = lambda v: type(v) is int and i < v < len(nodes)
        split = {
            "default": text(("left", "right")),
            "feature": lambda v: integer(0)(v) and v < n_features,
            "left": child,
            "right": child,
            "threshold": number(),
        }
        return obj(split, ("feature", "left", "right", "threshold"))(d)

    return type(nodes) is list and bool(nodes) and all(node_valid(i, d) for i, d in enumerate(nodes))


def model_valid(d, catalog_ids):
    head = obj(
        {
            "version": lambda v: type(v) is int and v == 1,
            "params": GBDT_PARAMS,
            "base_logit": number(),
            "catalog": listof(text(catalog_ids), nonempty=True),
            "training_meta": lambda v: type(v) is dict,
            "trees": listof(lambda t: type(t) is dict and set(t) == {"nodes"}),
        },
        ("version", "params", "base_logit", "catalog", "trees"),
    )
    return head(d) and all(nodes_valid(t["nodes"], len(d["catalog"])) for t in d["trees"])


# --- the valid inputs, and the mutations ----------------------------------------


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A 2 x 30 s simulated cohort, its experiment config, and a 2-tree model
    trained on it; every document is valid by the schema above."""
    root = tmp_path_factory.mktemp("documents")
    sim = {"n_subjects": 2, "duration_s": 30.0, "rate_hz": 25.0, "seed": 5, "calibration": {"y0": 110.0, "m": 25.0}}
    (root / "sim.json").write_text(json.dumps(sim))
    cohort = root / "cohort"
    assert quiet(["simulate", str(root / "sim.json"), str(cohort)]) == 0
    experiment = json.loads((cohort / "cohort.json").read_text())
    experiment.update(
        window={"window_len": 100},
        label={"reliability_threshold_pct": 2.0, "alignment_tolerance_ms": 500},
        gbdt_params={
            "learning_rate": 0.1, "n_estimators": 2, "max_depth": 3, "min_child_weight": 3.0, "reg_alpha": 0.3,
            "reg_lambda": 1.0, "subsample": 0.9, "objective": "logistic_binary", "seed": 0,
        },
        fdr_q=0.05,
        decision_threshold=0.5,
    )
    (cohort / "experiment.json").write_text(json.dumps(experiment))
    assert quiet(["train", str(cohort / "experiment.json"), str(root / "model")]) == 0
    model = json.loads((root / "model" / "model.json").read_text())
    docs = {
        "experiment": experiment,
        "simulate": sim,
        "sidecar": json.loads((cohort / "wrist_s00.meta").read_text()),
        "model": model,
    }
    valid = {
        "experiment": EXPERIMENT,
        "simulate": simulate_valid,
        "sidecar": SIDECAR,
        "model": lambda d: model_valid(d, tuple(model["catalog"])),
    }
    assert all(valid[k](d) for k, d in docs.items())
    return cohort, docs, valid


def quiet(argv):
    """``cli.main(argv)`` with its output swallowed; a ``SystemExit`` is its code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as e:
            return e.code


def places(doc, path=()):
    """``(path, value)`` of the document and of every value inside it."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from places(v, path + (k,))


@st.composite
def document_mutations(draw, doc):
    """A copy of ``doc`` with one value replaced by a hostile one, removed, or
    given an extra key."""
    path, value = draw(st.sampled_from(list(places(doc))))
    ops = ["set"] + ["drop"] * bool(path) + ["extra"] * isinstance(value, dict)
    op = draw(st.sampled_from(ops))
    doc = copy.deepcopy(doc)
    if op == "extra":
        reduce(getitem, path, doc)["extra"] = 1
        return doc
    if not path:
        return draw(st.sampled_from(HOSTILE))
    parent = reduce(getitem, path[:-1], doc)
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(HOSTILE))
    return doc


@st.composite
def stream_mutations(draw, lines):
    """A copy of the stream ``lines`` with one cell replaced by a hostile one,
    one line removed, or one cell added to a line."""
    i = draw(st.sampled_from([0, 1, 2, len(lines) - 1]) | st.integers(0, len(lines) - 1))
    cells = lines[i].split(",")
    op = draw(st.sampled_from(["set", "drop", "extra"]))
    if op == "set":
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(HOSTILE_CELLS))
    elif op == "extra":
        cells.append("0")
    return lines[:i] + ([] if op == "drop" else [",".join(cells)]) + lines[i + 1 :]


@settings(deadline=None, max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_no_input_document_reaches_a_traceback(base, data):
    cohort, docs, valid = base
    kind = data.draw(st.sampled_from(["experiment", "simulate", "sidecar", "model", "stream"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        stream, model, out = tmp / "wrist.csv", tmp / "model.json", str(tmp / "out")
        shutil.copy(cohort / "wrist_s00.csv", stream)
        shutil.copy(cohort / "wrist_s00.meta", stream.with_suffix(".meta"))
        model.write_text(json.dumps(docs["model"]))
        experiment = cohort / "mutated.json"  # next to the streams it names
        commands = {
            "experiment": [["train", str(experiment), out]],
            "simulate": [["simulate", str(tmp / "sim.json"), out]],
            "sidecar": [["spo2", str(stream), out]],
            "model": [["prune", str(stream), str(model), out]],
            "stream": [["spo2", str(stream), out], ["prune", str(stream), str(model), out]],
        }
        argv = data.draw(st.sampled_from(commands[kind]))
        if kind == "stream":
            lines = data.draw(stream_mutations(stream.read_text().splitlines()))
            stream.write_text("\n".join(lines) + "\n")
            ok = lines[0] == WRIST_HEADER
        else:
            doc = data.draw(document_mutations(docs[kind]))
            ok = valid[kind](doc)
            path = {"experiment": experiment, "simulate": tmp / "sim.json", "sidecar": stream.with_suffix(".meta"), "model": model}[kind]
            path.write_text(json.dumps(doc))  # NaN and inf as JSON ``NaN`` / ``Infinity``
        code = quiet(argv)
    assert code in (0, 1, 2)
    assert code != 0 or ok, f"{kind}: exit 0 on a document outside the schema"
