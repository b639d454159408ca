"""One reader for every document the program takes from outside: experiment
and ``simulate`` configs, ``.meta`` sidecars and ``model.json``.

Every document is read by the same rules:

* the file holds one JSON object, in UTF-8;
* a field takes the JSON type of its default: a string field a string, an
  integer field an integer only (never a bool, ``1.0``, ``1.5`` or ``"3"``),
  a float field an integer or a float (never a bool or a string), a list or
  object field a list or an object, and an object whose default has keys is
  read by these rules in turn;
* a number is finite (Python's JSON reader accepts ``NaN`` and
  ``Infinity``), and an integer fits in 64 bits, as in the arrays it ends in;
* a key the document does not define is an error, and so is a missing
  required key;
* a value's range is checked by the constructor of the settings it builds
  (``StreamMeta``, ``GbdtParams``, ...), whose ``ValueError`` :func:`checked`
  reports.

Each function raises the ``error`` class its caller passes:
``ConfigOutOfRange`` for a config (exit 2), ``CorruptFile`` for a sidecar or
a model file (exit 1). A message starts with the document's path and names
the field by its place in the document, as in ``cohort[0].wrist_csv``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math

_TYPE_NAMES = {int: "of type int", float: "of type float", str: "of type str", list: "a JSON list", dict: "a JSON object"}


def load(path, error):
    """The JSON object in the file at ``path``. A missing file, text that is
    not UTF-8 or not JSON, or a document that is not an object is an
    ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (FileNotFoundError, ValueError) as e:  # UTF-8 and JSON faults are ValueErrors
        raise error(f"{path}: {e}") from e
    if not isinstance(doc, dict):
        raise error(f"{path}: the document must be a JSON object")
    return doc


def typed(v, default, where, error):
    """``v``, if it has the JSON type of ``default`` and, as a number, is
    finite and fits in 64 bits; otherwise an ``error`` naming ``where``."""
    kind = type(default)
    if type(v) not in ((int, float) if kind is float else (kind,)):
        raise error(f"{where} must be {_TYPE_NAMES[kind]}, got {v!r}")
    if type(v) is float and not math.isfinite(v):
        raise error(f"{where} must be finite, got {v!r}")
    if type(v) is int and not -(2**63) <= v < 2**63:
        raise error(f"{where} must fit in 64 bits, got {v!r}")
    return v


def fields(d, defaults, path, error, name="", required=()):
    """The entries of the object ``d``, the ``name`` object of the document at
    ``path`` (the document itself when empty), each :func:`typed` by its
    default in ``defaults``, or read by :func:`fields` in turn where the
    default is an object with keys. A ``d`` that is not an object, a key
    outside ``defaults`` or a missing ``required`` key is an ``error``."""
    if not isinstance(d, dict):
        raise error(f"{path}: {name} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - set(defaults))
    if unknown:
        raise error(f"{path}: unknown {name or 'top-level'} key(s) {', '.join(unknown)}")
    prefix = f"{name}." if name else ""
    for key in required:
        if key not in d:
            raise error(f"{path}: {prefix}{key} is missing")
    return {
        k: fields(v, defaults[k], path, error, prefix + k)
        if type(defaults[k]) is dict and defaults[k]
        else typed(v, defaults[k], f"{path}: {prefix}{k}", error)
        for k, v in d.items()
    }


def defaults(cls):
    """``{field: default}`` of the dataclass ``cls``."""
    return {f.name: f.default for f in dataclasses.fields(cls)}


@contextlib.contextmanager
def checked(where, error):
    """Report the ``ValueError`` (or ``error``) that a settings constructor
    raises for an out-of-range value as an ``error`` prefixed by ``where``.
    Wrap constructors only: an error from a computation is a bug and keeps
    its traceback."""
    try:
        yield
    except (ValueError, error) as e:
        raise error(f"{where}{e}") from e
