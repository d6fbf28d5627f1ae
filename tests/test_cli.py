import itertools
import json
import subprocess
import sys

import pytest

from opdbim import doc as docmod
from opdbim.cli import main
from opdbim.operads import com_operad, assoc_operad

BASE_DOC = {
    "version": "1",
    "windows": {"arity_bound": 3, "length_bound": 2},
    "sorts": {"X": ["*"]},
    "symseqs": {
        "F": {
            "dom": ["*"],
            "cod": ["*"],
            "cells": [
                {"word": ["*"], "out": "*", "labels": ["a"], "action": {}},
                {"word": ["*", "*"], "out": "*", "labels": ["b"], "action": {"0": [["b", "b"]]}},
            ],
        },
        "I": {
            "dom": ["*"],
            "cod": ["*"],
            "cells": [{"word": ["*"], "out": "*", "labels": ["i"], "action": {}}],
        },
    },
    "operads": {
        "C": {"builtin": "com", "arity_bound": 3},
        "A": {"builtin": "assoc", "arity_bound": 3},
        "U1": {"builtin": "unit", "sorts": ["x"], "arity_bound": 2},
        "U2": {"builtin": "unit", "sorts": ["y"], "arity_bound": 2},
    },
    "families": {"T": {"*": ["t0", "t1"]}},
}


def write_doc(tmp_path, data, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_check_ok(tmp_path, capsys):
    path = write_doc(tmp_path, BASE_DOC)
    code, out = run_cli(["check", path], capsys)
    assert code == 0
    assert "operad C: ok" in out and "symseq F: ok" in out


def test_check_reports_law_failure(tmp_path, capsys):
    bad = json.loads(json.dumps(BASE_DOC))
    # a two-label binary cell whose action is fine but whose explicit operad
    # multiplication breaks associativity
    com = com_operad(2)
    ser = docmod.serialize_operad(com)
    twisted = json.loads(json.dumps(ser))
    # swap every ternary multiplication output to break associativity: com has
    # singleton cells, so instead corrupt eta to break the unit law
    twisted["eta"] = [["*", 0]]
    assoc = assoc_operad(2)
    ser2 = docmod.serialize_operad(assoc)
    bad_ops = json.loads(docmod.dumps(ser2))
    for entry in bad_ops["mu"]:
        if len(entry["word"]) == 2 and len(entry["rep"]["mid"]) == 2:
            entry["to"] = {"t": [entry["to"]["t"][1], entry["to"]["t"][0]]}
    bad["operads"] = {"Broken": bad_ops}
    path = write_doc(tmp_path, bad)
    code, out = run_cli(["check", path], capsys)
    assert code == 1
    assert "operad Broken: FAIL" in out


def test_check_empty_document(tmp_path, capsys):
    path = write_doc(tmp_path, {"version": "1"})
    code, out = run_cli(["check", path], capsys)
    assert code == 0
    assert out == ""


def test_bad_version_is_input_error(tmp_path, capsys):
    path = write_doc(tmp_path, {"version": "999"})
    code, _out = run_cli(["check", path], capsys)
    assert code == 2


def test_series_identity_row(tmp_path, capsys):
    path = write_doc(tmp_path, BASE_DOC)
    code, out = run_cli(["series", path, "I", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[2] == "1\t1\t1\t1"


def test_series_refuses_a_negative_bound(tmp_path, capsys):
    # -1 used to print the header alone and exit 0; 0 gives the row n = 0
    path = write_doc(tmp_path, BASE_DOC)
    code, out = run_cli(["series", path, "I", "-1"], capsys)
    assert (code, out) == (2, "input error: series bound must be a non-negative integer, got -1\n")
    code, out = run_cli(["series", path, "I", "0"], capsys)
    assert (code, out) == (0, "n\tsize\torbits\tegf\n0\t0\t0\t0\n")


@pytest.mark.parametrize("command", [["check"], ["series", "I", "2"]], ids=["check", "series"])
@pytest.mark.parametrize("name", [".", "latin1.json"], ids=["directory", "not-utf8"])
def test_an_unreadable_input_file_is_an_input_error(tmp_path, capsys, command, name):
    # a directory (IsADirectoryError) and bytes that are not UTF-8
    # (UnicodeDecodeError) each used to end in a traceback with exit 1, the
    # law-failure code
    (tmp_path / "latin1.json").write_bytes('{"version": "1", "sorts": {"X": ["é"]}}'.encode("latin-1"))
    code, out = run_cli([command[0], str(tmp_path / name), *command[1:]], capsys)
    assert code == 2
    assert out.startswith("input error: ") and out.count("\n") == 1


def test_count_algebras(tmp_path, capsys):
    path = write_doc(tmp_path, BASE_DOC)
    code, out = run_cli(["count", path, "algebras", "A", "2"], capsys)
    assert code == 0 and out.strip() == "algebras\t8"


def test_count_budget_exceeded(tmp_path, capsys):
    path = write_doc(tmp_path, BASE_DOC)
    code, _out = run_cli(["count", path, "algebras", "A", "40", "--budget", "5"], capsys)
    assert code == 3


def test_name_resolution_error(tmp_path, capsys):
    path = write_doc(tmp_path, BASE_DOC)
    code, _out = run_cli(["compose", path, "F", "NOPE"], capsys)
    assert code == 2


def test_compose_eval_product_exponential(tmp_path, capsys):
    path = write_doc(tmp_path, BASE_DOC)
    code, out = run_cli(["compose", path, "F", "F", "--arity-bound", "4"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert [len(parsed["symseqs"]["FoF"]["cells"][i]["labels"]) for i in range(4)] == [1, 2, 3, 3]

    code, out = run_cli(["eval", path, "F", "T"], capsys)
    assert code == 0
    assert json.loads(out)["carrier"][0]["size"] == 5

    code, out = run_cli(["count", path, "bimodules", "U1", "U2",
                         "--cells", '[{"word": ["x", "x"], "out": "y", "size": 2}]'], capsys)
    assert code == 0 and out.strip() == "bimodules\t2"

    code, out = run_cli(["product", path, "C", "C"], capsys)
    assert code == 0
    assert "Cx" + "C" in json.loads(out)["operads"]

    code, out = run_cli(["exponential", path, "U1", "U2", "--length-bound", "2",
                         "--arity-bound", "2"], capsys)
    assert code == 0
    exp = json.loads(out)["operads"]["U2^U1"]
    assert len(exp["carrier"]["cells"]) == 3


def test_round_trip_operad():
    com = com_operad(2)
    ser = docmod.serialize_operad(com)
    back = docmod.parse_explicit_operad(json.loads(docmod.dumps(ser)))
    assert back.carrier.cells.keys() == com.carrier.cells.keys()
    for key in com.carrier.cells:
        assert back.carrier.cells[key].labels == com.carrier.cells[key].labels
    for key, reps in com.comp2.reps.items():
        for idx in range(len(reps)):
            assert back.mu.at(*key, idx) == com.mu.at(*key, idx)
    assert docmod.dumps(docmod.serialize_operad(back)) == docmod.dumps(ser)


def test_round_trip_symseq():
    from opdbim.samples import rand_symseq
    import random

    f = rand_symseq(random.Random(5), sorts=("a", "b"), max_arity=3, max_labels=3, n_cells=3)
    ser = docmod.serialize_symseq(f)
    back = docmod.parse_symseq(json.loads(docmod.dumps(ser)))
    assert back.cells.keys() == f.cells.keys()
    for key, cell in f.cells.items():
        assert set(back.cells[key].labels) == set(cell.labels)
        assert back.cells[key].gen_maps == cell.gen_maps


def permuted_copy(data):
    """Reverse the insertion order of every object in the JSON tree."""
    if isinstance(data, dict):
        return {k: permuted_copy(data[k]) for k in reversed(list(data))}
    if isinstance(data, list):
        return [permuted_copy(v) for v in data]
    return data


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "{doc}", "F", "3"],
        ["compose", "{doc}", "F", "F", "--arity-bound", "3"],
        ["eval", "{doc}", "F", "T"],
        ["count", "{doc}", "algebras", "C", "2"],
        ["product", "{doc}", "C", "C"],
        ["exponential", "{doc}", "U1", "U2", "--length-bound", "2", "--arity-bound", "2"],
    ],
)
def test_cli_determinism(tmp_path, capsys, argv):
    path1 = write_doc(tmp_path, BASE_DOC, "a.json")
    path2 = write_doc(tmp_path, permuted_copy(BASE_DOC), "b.json")
    runs = []
    for path in (path1, path1, path2):
        code, out = run_cli([a.format(doc=path) for a in argv], capsys)
        assert code == 0
        runs.append(out.encode("utf-8"))
    assert runs[0] == runs[1] == runs[2]


def test_count_module_maps(tmp_path, capsys):
    data = json.loads(json.dumps(BASE_DOC))
    data["symseqs"]["G"] = {
        "dom": ["x"],
        "cod": ["y"],
        "cells": [
            {"word": ["x", "x"], "out": "y", "labels": ["g0", "g1"], "action": {}}
        ],
    }
    data["bimodules"] = {
        "M": {"left": "U2", "right": "U1", "carrier": "G",
              "lambda": "induced", "rho": "induced"}
    }
    path = write_doc(tmp_path, data)
    code, out = run_cli(["check", path], capsys)
    assert code == 0 and "bimodule M: ok" in out
    code, out = run_cli(["count", path, "module-maps", "M", "M"], capsys)
    assert code == 0 and out.strip() == "module-maps\t4"


@pytest.mark.parametrize("budget", ["0", "-1", "x"])
def test_count_rejects_non_positive_budget_flag(tmp_path, capsys, budget):
    # 0 used to fall back to the document's budget, -1 to exit 3
    path = write_doc(tmp_path, BASE_DOC)
    with pytest.raises(SystemExit) as exit_info:
        main(["count", path, "algebras", "A", "2", "--budget", budget])
    assert exit_info.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "windows",
    [{"budget": "x"}, {"budget": 0}, {"budget": True}, {"arity_bound": "3"}, {"length_bound": -1}],
)
@pytest.mark.parametrize("argv", [["count", "{doc}", "algebras", "A", "2"], ["check", "{doc}"]])
def test_bad_window_is_input_error(tmp_path, capsys, windows, argv):
    data = json.loads(json.dumps(BASE_DOC))
    data["windows"].update(windows)
    path = write_doc(tmp_path, data)
    code, out = run_cli([a.format(doc=path) for a in argv], capsys)
    assert code == 2
    assert "must be a positive integer" in out


@pytest.mark.parametrize("argv", [["count", "{doc}", "algebras", "A", "2"], ["check", "{doc}"]])
def test_bad_operad_arity_bound_is_input_error(tmp_path, capsys, argv):
    data = json.loads(json.dumps(BASE_DOC))
    data["operads"]["A"]["arity_bound"] = "3"
    path = write_doc(tmp_path, data)
    code, out = run_cli([a.format(doc=path) for a in argv], capsys)
    assert code == 2
    assert "must be a positive integer" in out


@pytest.mark.parametrize(
    "document",
    [[], {"version": "1", "operads": []}, {"version": "1", "symseqs": {"F": []}}],
    ids=["top-level-list", "section-list", "declaration-list"],
)
@pytest.mark.parametrize("argv", [["check", "{doc}"], ["series", "{doc}", "F", "2"]])
def test_non_object_document_parts_are_input_errors(tmp_path, capsys, document, argv):
    # check and the other commands share one parser, so they agree on exit 2
    path = write_doc(tmp_path, document)
    code, out = run_cli([a.format(doc=path) for a in argv], capsys)
    assert code == 2
    assert "must be a JSON object" in out


@pytest.mark.parametrize(
    "cells, message",
    [
        ([[]], "cell must be a JSON object"),
        ([{"word": ["*"], "out": "*", "labels": {"a": 1}}], "labels must be a JSON list"),
        ("cells", "cells must be a JSON list"),
        (
            [{"word": ["*", "*"], "out": "*", "labels": ["b"], "action": {"0": [["b"]]}}],
            "must be a pair",
        ),
    ],
    ids=["cell-list", "labels-object", "cells-string", "action-not-pairs"],
)
@pytest.mark.parametrize("argv", [["check", "{doc}"], ["series", "{doc}", "F", "2"]])
def test_wrongly_typed_cell_values_are_input_errors(tmp_path, capsys, cells, message, argv):
    document = {"version": "1", "symseqs": {"F": {"dom": ["*"], "cod": ["*"], "cells": cells}}}
    path = write_doc(tmp_path, document)
    code, out = run_cli([a.format(doc=path) for a in argv], capsys)
    assert code == 2
    assert message in out


@pytest.mark.parametrize(
    "section, name, decl, message",
    [
        ("operads", "E", {"carrier": "I", "mu": [[]], "eta": [["*", "i"]]}, "mu entry must be a JSON object"),
        (
            "operads", "E",
            {"carrier": "I", "eta": [["*", "i"]], "mu": [{
                "word": ["*"], "out": "*", "to": "i",
                "rep": {"mid": ["*"], "outer": "i", "blocks": [["*"]], "inner": ["i"], "sigma": [{"t": []}]},
            }]},
            "sigma must be a list of integers",
        ),
        (
            "operads", "P",
            {"presented": {"sorts": ["*"], "relations": [],
                           "generators": [{"word": ["*", "*"], "out": "*", "names": "b"}]}},
            "names must be a JSON list",
        ),
        ("algebras", "G", {"operad": "C", "family": "T", "action": {}}, "algebra action must be a JSON list"),
        (
            "bimodules", "M",
            {"left": ["C"], "right": "C", "carrier": "F", "lambda": "induced", "rho": "induced"},
            "bimodule left must be a string or number",
        ),
    ],
    ids=["mu-entry-list", "sigma-objects", "names-string", "action-object", "left-list"],
)
def test_wrongly_typed_declaration_values_are_input_errors(tmp_path, capsys, section, name, decl, message):
    data = json.loads(json.dumps(BASE_DOC))
    data.setdefault(section, {})[name] = decl
    path = write_doc(tmp_path, data)
    code, out = run_cli(["check", path], capsys)
    assert code == 2
    assert message in out and "parse error" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bimodules", "U1", "U2", "--cells", "[[]]"], "cell must be a JSON object"),
        (["bimodules", "U1", "U2", "--cells", '{"a": 1}'], "cells must be a JSON list"),
        (["algebras", "U1", "x=a"], "sizes must be N or sort=N"),
        (["algebras", "U1"], "count algebras takes two arguments, got 1"),
    ],
    ids=["cells-list-of-lists", "cells-object", "size-not-an-integer", "size-left-out"],
)
def test_wrongly_typed_count_values_are_input_errors(tmp_path, capsys, argv, message):
    # each of these used to end in a traceback with exit 1
    path = write_doc(tmp_path, BASE_DOC)
    code, out = run_cli(["count", path, *argv], capsys)
    assert code == 2
    assert out.startswith("input error:") and message in out


def test_count_algebras_names_an_unknown_sort(tmp_path, capsys):
    # a size for a sort the operad lacks used to be dropped: "algebras\t1", exit 0
    path = write_doc(tmp_path, BASE_DOC)
    code, out = run_cli(["count", path, "algebras", "A", "y=2"], capsys)
    assert code == 2
    assert out.startswith("input error:") and "'y'" in out
    code, out = run_cli(["count", path, "algebras", "A", "*=2,y=1"], capsys)
    assert code == 2 and "'y'" in out
    code, out = run_cli(["count", path, "algebras", "A", "*=2"], capsys)
    assert code == 0 and out.strip() == "algebras\t8"


@pytest.mark.parametrize("missing", ["word", "out", "size"])
def test_count_cells_entry_names_its_missing_key(tmp_path, capsys, missing):
    # the KeyError used to be reported as "name resolution error: 'word'"
    entry = {"word": ["x", "x"], "out": "y", "size": 2}
    del entry[missing]
    path = write_doc(tmp_path, BASE_DOC)
    code, out = run_cli(["count", path, "bimodules", "U1", "U2", "--cells", json.dumps([entry])],
                        capsys)
    assert code == 2
    assert out.startswith("input error:") and f"lacks {missing!r}" in out


@pytest.mark.parametrize(
    "rep",
    [
        {"mid": ["*"], "outer": "zzz", "blocks": [["*"]], "inner": ["i"], "sigma": [0]},
        {"mid": ["*"], "outer": "i", "blocks": [["*"]], "inner": ["i"], "sigma": [1]},
        {"mid": ["*"], "outer": "i", "blocks": [["*", "*"]], "inner": ["i"], "sigma": [0]},
    ],
    ids=["label-outside-its-cell", "sigma-not-an-arrow", "block-outside-the-support"],
)
def test_a_mu_entry_that_is_not_a_raw_exits_2(tmp_path, capsys, rep):
    data = json.loads(json.dumps(BASE_DOC))
    data["operads"]["E"] = {
        "carrier": "I",
        "eta": [["*", "i"]],
        "mu": [{"word": ["*"], "out": "*", "to": "i", "rep": rep}],
    }
    code, out = run_cli(["check", write_doc(tmp_path, data)], capsys)
    assert code == 2
    assert "is not a raw of cell" in out


def test_a_second_mu_entry_for_a_class_exits_2(tmp_path, capsys):
    # the last entry for a class used to win
    data = json.loads(json.dumps(BASE_DOC))
    entry = {"word": ["*"], "out": "*", "to": "i",
             "rep": {"mid": ["*"], "outer": "i", "blocks": [["*"]], "inner": ["i"], "sigma": [0]}}
    data["operads"]["E"] = {"carrier": "I", "eta": [["*", "i"]], "mu": [entry, entry]}
    code, out = run_cli(["check", write_doc(tmp_path, data)], capsys)
    assert code == 2
    assert "is a second entry for the class of (('*',), 'i', (('*',),), ('i',), (0,)) at (('*',), '*')" in out


def _doc_with_bimodule(**fields):
    data = json.loads(json.dumps(BASE_DOC))
    data["symseqs"]["G"] = {
        "dom": ["x"], "cod": ["y"],
        "cells": [{"word": ["x", "x"], "out": "y", "labels": ["g0", "g1"], "action": {}}],
    }
    data["bimodules"] = {
        "M": {"left": "U2", "right": "U1", "carrier": "G", "lambda": "induced", "rho": "induced", **fields}
    }
    return data


@pytest.mark.parametrize("window", [0, -1, True, "2"])
@pytest.mark.parametrize("argv", [["check", "{doc}"], ["count", "{doc}", "module-maps", "M", "M"]])
def test_bad_bimodule_window_is_input_error(tmp_path, capsys, window, argv):
    # a window of 0 or -1 used to pass, its laws checked on empty composites
    path = write_doc(tmp_path, _doc_with_bimodule(window=window))
    code, out = run_cli([a.format(doc=path) for a in argv], capsys)
    assert code == 2
    assert "bimodule window must be a positive integer" in out
    path = write_doc(tmp_path, _doc_with_bimodule(window=2))
    assert run_cli([a.format(doc=path) for a in argv], capsys)[0] == 0


@pytest.mark.parametrize("argv", [["check", "{doc}"], ["series", "{doc}", "F", "2"]])
def test_a_symseq_cell_declared_twice_is_input_error(tmp_path, capsys, argv):
    # the last entry used to win: series printed size 2 at ((*,), *)
    data = json.loads(json.dumps(BASE_DOC))
    data["symseqs"]["F"]["cells"].append({"word": ["*"], "out": "*", "labels": ["b", "c"], "action": {}})
    code, out = run_cli([a.format(doc=write_doc(tmp_path, data)) for a in argv], capsys)
    assert code == 2
    assert "cell (('*',), '*') is declared twice" in out


def test_count_cells_declared_twice_is_input_error(tmp_path, capsys):
    # the last size used to be counted
    cells = [{"word": ["x", "x"], "out": "y", "size": 2}, {"word": ["x", "x"], "out": "y", "size": 1}]
    path = write_doc(tmp_path, BASE_DOC)
    code, out = run_cli(["count", path, "bimodules", "U1", "U2", "--cells", json.dumps(cells)], capsys)
    assert code == 2
    assert out.startswith("input error:") and "cell (('x', 'x'), 'y') is declared twice" in out


def _action_entry(rep, to):
    return {"word": ["x", "x"], "out": "y", "rep": rep, "to": to}


# the induced actions of the bimodule M of perfbench/cli_doc.json, written out as explicit tables
M_TABLES = {
    "lambda": [
        _action_entry({"mid": ["y"], "outer": {"t": ["id", "y"]}, "blocks": [["x", "x"]], "inner": [g],
                       "sigma": [0, 1]}, g)
        for g in ("g0", "g1")
    ],
    "rho": [
        _action_entry({"mid": ["x", "x"], "outer": g, "blocks": [["x"], ["x"]], "inner": [{"t": ["id", "x"]}] * 2,
                       "sigma": [0, 1]}, g)
        for g in ("g0", "g1")
    ],
}


def test_explicit_bimodule_action_tables_are_parsed_and_checked(tmp_path, capsys):
    code, out = run_cli(["check", write_doc(tmp_path, _doc_with_bimodule(**M_TABLES))], capsys)
    assert code == 0 and "bimodule M: ok" in out
    swapped = {**M_TABLES, "rho": [{**e, "to": {"g0": "g1", "g1": "g0"}[e["to"]]} for e in M_TABLES["rho"]]}
    code, out = run_cli(["check", write_doc(tmp_path, _doc_with_bimodule(**swapped))], capsys)
    assert code == 1 and "bimodule M: FAIL right action associativity" in out


def test_a_missing_bimodule_action_entry_is_input_error(tmp_path, capsys):
    # it used to print the bare KeyError of the table lookup: parse error (('x', 'x'), 'y', (...))
    dropped = {**M_TABLES, "lambda": M_TABLES["lambda"][:1]}
    code, out = run_cli(["check", write_doc(tmp_path, _doc_with_bimodule(**dropped))], capsys)
    assert code == 2
    assert out.splitlines()[-1] == (
        "bimodule M: parse error lambda entry missing for the class of "
        "(('y',), ('id', 'y'), (('x', 'x'),), ('g1',), (0, 1)) at (('x', 'x'), 'y')"
    )


@pytest.mark.parametrize(
    "side, entry, refusal",
    [
        ("lambda", _action_entry({"mid": ["nowhere"], "outer": 5, "blocks": [], "inner": [], "sigma": []}, "g0"),
         "lambda entry {'mid': ['nowhere'], 'outer': 5, 'blocks': [], 'inner': [], 'sigma': []} "
         "is not a raw of cell (('x', 'x'), 'y')"),
        ("rho", M_TABLES["rho"][0], "rho entry {'mid': ['x', 'x'], 'outer': 'g0', 'blocks': [['x'], ['x']], "
         "'inner': [{'t': ['id', 'x']}, {'t': ['id', 'x']}], 'sigma': [0, 1]} is a second entry for the class of "
         "(('x', 'x'), 'g0', (('x',), ('x',)), (('id', 'x'), ('id', 'x')), (0, 1)) at (('x', 'x'), 'y')"),
    ],
    ids=["not-a-raw", "second-entry"],
)
def test_an_action_entry_that_is_no_raw_of_its_cell_or_repeats_a_class_is_input_error(
    tmp_path, capsys, side, entry, refusal
):
    # both used to pass with exit 0: only the representatives were looked up,
    # so an entry keyed on any other raw was never read, and the last entry
    # for a class won
    tables = {**M_TABLES, side: M_TABLES[side] + [entry]}
    code, out = run_cli(["check", write_doc(tmp_path, _doc_with_bimodule(**tables))], capsys)
    assert code == 2
    assert out.splitlines()[-1] == f"bimodule M: parse error {refusal}"


def test_an_action_entry_keyed_on_another_raw_of_its_class_is_read(tmp_path, capsys):
    # resolved to the representative of its class, as a mu entry is; it used
    # to be stored under its own raw and never read: rho entry missing, exit 2
    first = M_TABLES["rho"][0]
    moved = {**first, "rep": {**first["rep"], "sigma": [1, 0]}}
    tables = {**M_TABLES, "rho": [moved] + M_TABLES["rho"][1:]}
    code, out = run_cli(["check", write_doc(tmp_path, _doc_with_bimodule(**tables))], capsys)
    assert code == 0 and "bimodule M: ok" in out


def _com3_algebra(unary=lambda v: v, binary=min, ternary=min):
    """The operad com(3) and an algebra on {0, 1} given by its unary, binary and ternary operations."""
    data = json.loads(json.dumps(BASE_DOC))
    data["families"]["B"] = {"*": [0, 1]}
    action = [
        {"word": ["*"] * n, "out": "*", "label": 0, "args": list(args), "to": op(*args)}
        for n, op in ((1, unary), (2, binary), (3, ternary)) if op is not None
        for args in itertools.product((0, 1), repeat=n)
    ]
    data["algebras"] = {"L": {"operad": "C", "family": "B", "action": action}}
    return data


@pytest.mark.parametrize(
    "fields, failure",
    [
        ({"ternary": max}, "associativity fails at (('*', '*', '*'), '*'), class 1, inputs (0, 0, 1): 1 != 0"),
        ({"unary": lambda v: 1 - v}, "unit law fails at sort '*': 0 -> 1"),
        ({"binary": lambda a, b: 7}, "action value 7 outside carrier at (('*', '*'), '*')"),
        ({"ternary": None}, "action missing on cell (('*', '*', '*'), '*')"),
    ],
    ids=["associativity", "unit", "outside-carrier", "missing-cell"],
)
def test_an_algebra_breaking_a_law_fails_its_check(tmp_path, capsys, fields, failure):
    code, out = run_cli(["check", write_doc(tmp_path, _com3_algebra())], capsys)
    assert code == 0 and "algebra L: ok" in out  # the meet-semilattice on {0, 1}
    code, out = run_cli(["check", write_doc(tmp_path, _com3_algebra(**fields))], capsys)
    assert code == 1
    assert f"algebra L: FAIL {failure}" in out.splitlines()
