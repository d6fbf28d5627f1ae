"""Substituted document values never break the exit-code contract of the CLI.

Each example replaces one value of a small valid document with a drawn JSON
value and runs ``check``, ``series`` and ``count`` on the result.  Every run
must return 0 (ok), 1 (law failure), 2 (input error) or 3 (budget exceeded);
an exception escaping ``cli.main`` is a traceback and fails the test.
Integers are drawn from -2..3, so no window or arity bound exceeds 3.
"""

import contextlib
import io
import json
import os
import tempfile

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from opdbim import doc as docmod
from opdbim.cli import main
from opdbim.perms import InputError, ValidationError

BASE_DOC = {
    "version": "1",
    "windows": {"arity_bound": 2, "length_bound": 1, "budget": 100000},
    "sorts": {"X": ["*"]},
    "symseqs": {
        "F": {
            "dom": "X",
            "cod": ["*"],
            "cells": [
                {"word": ["*"], "out": "*", "labels": ["a"], "action": {}},
                {"word": ["*", "*"], "out": "*", "labels": ["b", "c"],
                 "action": {"0": [["b", "c"], ["c", "b"]]}},
            ],
        },
        "G": {
            "dom": ["x"],
            "cod": ["y"],
            "cells": [{"word": ["x", "x"], "out": "y", "labels": ["g0", "g1"], "action": {}}],
        },
    },
    "operads": {
        "C": {"builtin": "com", "arity_bound": 2},
        "A": {"builtin": "assoc", "arity_bound": 2},
        "U1": {"builtin": "unit", "sorts": ["x"], "arity_bound": 2},
        "U2": {"builtin": "unit", "sorts": ["y"], "arity_bound": 2},
    },
    "families": {"T": {"*": ["t0", "t1"]}},
    "bimodules": {
        "M": {"left": "U2", "right": "U1", "carrier": "G", "lambda": "induced", "rho": "induced"},
    },
}

COMMANDS = (
    ["check", "{doc}"],
    ["series", "{doc}", "F", "3"],
    ["count", "{doc}", "algebras", "A", "2"],
)


def _paths(value, prefix=()):
    """Every path to a value inside the document, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = sorted(_paths(BASE_DOC), key=repr)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=3)
    | st.text(alphabet="*xyabc", max_size=2)
    | st.sampled_from(["com", "assoc", "magma", "unit", "terminal", "induced", "X", "F", "G"])
)
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(alphabet="*xyabc", max_size=2), children, max_size=3),
    max_leaves=6,
)


def _substituted(path, value):
    data = json.loads(json.dumps(BASE_DOC))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_the_base_document_is_valid():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(BASE_DOC, fh)
        for argv in COMMANDS:
            code, _out = _run([a.replace("{doc}", path) for a in argv])
            assert code == 0, argv


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(PATHS), values)
def test_substituted_values_keep_the_exit_code_contract(path, value):
    data = _substituted(path, value)
    try:
        docmod.parse_document(data)
    except (InputError, ValidationError, KeyError):
        pass  # the CLI reports these with exit 2 or 1
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = os.path.join(tmp, "doc.json")
        with open(doc_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        for argv in COMMANDS:
            code, out = _run([a.replace("{doc}", doc_path) for a in argv])
            assert code in (0, 1, 2, 3), (argv, code, out)
            if code == 2:
                assert out, argv  # an input error names its fault
