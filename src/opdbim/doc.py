"""The batch document format: named declarations with canonical serialization.

Documents are JSON with a fixed schema.  Labels are strings, integers or
tuples; tuples are encoded as ``{"t": [...]}`` so that parsing a serialized
value reproduces it exactly.  All emitted JSON is sorted and separator
normalized, which makes every command's output byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .perms import InputError, ValidationError, YoungSet, is_canonical, skey, ssorted, stab_gens
from .symseq import Family, SymSeq, compose_symseq, least_raw, left_unit, right_unit
from .operads import (
    Algebra,
    Operad,
    builtin,
    free_operad,
    make_algebra,
    make_operad,
    mu_from_raws,
    presented_operad,
)
from .bimodules import Bimodule

FORMAT_VERSION = "1"


def enc(value):
    """Encode a label-like value into JSON-safe data, reversibly."""
    if isinstance(value, tuple):
        return {"t": [enc(v) for v in value]}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise InputError(f"value {value!r} is not serializable")


def dec(value):
    if isinstance(value, dict):
        if set(value) != {"t"} or not isinstance(value["t"], list):
            raise InputError(f"bad encoded value {value!r}")
        return tuple(dec(v) for v in value["t"])
    if isinstance(value, list):
        raise InputError("bare lists are not valid encoded values; use {'t': [...]}")
    return value


def enc_word(word):
    return [enc(s) for s in word]


def dec_word(data, what: str = "word"):
    return tuple(dec(s) for s in _array(data, what))


# Type checks for the nested values of a document: a value of the wrong JSON
# type is an InputError, never a TypeError from deep inside a parser.


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def _pairs(value, what: str) -> list:
    """A JSON list of two-element lists."""
    for pair in _array(value, what):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError(f"each entry of {what} must be a pair [a, b], got {pair!r}")
    return value


def _name(value, what: str):
    """A plain JSON scalar used as a name or key (not a list or an object)."""
    if isinstance(value, (list, dict)):
        raise InputError(f"{what} must be a string or number, got {type(value).__name__}")
    return value


def _indices(value, what: str) -> tuple:
    items = _array(value, what)
    if any(isinstance(i, bool) or not isinstance(i, int) for i in items):
        raise InputError(f"{what} must be a list of integers, got {value!r}")
    return tuple(items)


def parse_cell_sizes(data) -> dict:
    """Cell sizes ``{(word, out): size}`` from a JSON list of ``{word, out, size}`` objects."""
    sizes = {}
    for entry in _array(data, "cells"):
        entry = _object(entry, "cell")
        missing = [k for k in ("word", "out", "size") if k not in entry]
        if missing:
            raise InputError(f"cell entry {entry!r} lacks {', '.join(map(repr, missing))}")
        size = entry["size"]
        if isinstance(size, bool) or not isinstance(size, int) or size < 0:
            raise InputError(f"cell size must be a non-negative integer, got {size!r}")
        key = (dec_word(entry["word"]), dec(entry["out"]))
        if key in sizes:
            raise InputError(f"cell {key!r} is declared twice")
        sizes[key] = size
    return sizes


def serialize_symseq(f: SymSeq) -> dict:
    cells = []
    for (w, y) in f.support():
        cell = f.cells[(w, y)]
        action = {}
        for i in stab_gens(w):
            action[str(i)] = sorted(
                ([enc(a), enc(b)] for a, b in cell.gen_maps[i].items()),
                key=lambda p: skey(dec(p[0])),
            )
        cells.append(
            {
                "word": enc_word(w),
                "out": enc(y),
                "labels": sorted((enc(l) for l in cell.labels), key=lambda e: skey(dec(e))),
                "action": action,
            }
        )
    return {
        "dom": enc_word(f.dom),
        "cod": enc_word(f.cod),
        "cells": cells,
    }


def parse_symseq(data: dict) -> SymSeq:
    data = _object(data, "symmetric sequence")
    dom = dec_word(data["dom"], "dom")
    cod = dec_word(data["cod"], "cod")
    cells = {}
    for c in _array(data["cells"], "cells"):
        c = _object(c, "cell")
        w = dec_word(c["word"])
        y = dec(c["out"])
        if (w, y) in cells:
            raise InputError(f"cell {(w, y)!r} is declared twice")
        labels = tuple(dec(l) for l in _array(c["labels"], "labels"))
        gen_maps = {}
        action = _object(c.get("action", {}), "action")
        for i in stab_gens(w):
            if str(i) in action:
                gen_maps[i] = {dec(a): dec(b) for a, b in _pairs(action[str(i)], f"action {i}")}
            else:
                gen_maps[i] = {l: l for l in labels}
        cells[(w, y)] = YoungSet(w, labels, gen_maps)
        cells[(w, y)].validate()
    return SymSeq(dom, cod, cells)


def enc_raw(raw) -> dict:
    mid, g, blocks, fs, sig = raw
    return {
        "mid": enc_word(mid),
        "outer": enc(g),
        "blocks": [enc_word(b) for b in blocks],
        "inner": [enc(f) for f in fs],
        "sigma": list(sig),
    }


def dec_raw(data) -> tuple:
    data = _object(data, "rep")
    return (
        dec_word(data["mid"], "mid"),
        dec(data["outer"]),
        tuple(dec_word(b, "block") for b in _array(data["blocks"], "blocks")),
        tuple(dec(f) for f in _array(data["inner"], "inner")),
        _indices(data["sigma"], "sigma"),
    )


def enc_term(term):
    if term[0] == "v":
        return {"var": term[1]}
    return {"op": term[1], "args": [enc_term(t) for t in term[2]]}


def dec_term(data):
    data = _object(data, "term")
    if "var" in data:
        return ("v", _name(data["var"], "var"))
    return ("g", _name(data["op"], "op"), tuple(dec_term(t) for t in _array(data["args"], "args")))


def serialize_operad(op: Operad) -> dict:
    mu_entries = []
    for key in sorted(op.comp2.reps, key=lambda k: (len(k[0]), skey(k))):
        w, x = key
        for idx, raw in enumerate(op.comp2.reps[key]):
            mu_entries.append(
                {
                    "word": enc_word(w),
                    "out": enc(x),
                    "rep": enc_raw(raw),
                    "to": enc(op.mu.at(w, x, idx)),
                }
            )
    eta = sorted(
        ([enc(x), enc(op.eta_label(x))] for x in op.sorts),
        key=lambda p: skey(dec(p[0])),
    )
    return {
        "carrier": serialize_symseq(op.carrier),
        "mu": mu_entries,
        "eta": eta,
        "arity_bound": op.arity_bound,
    }


def parse_explicit_operad(data: dict) -> Operad:
    """The operad of an explicit ``mu`` table, each entry keyed on the least raw of its class.

    ``make_operad`` reads ``mu`` on the least raws of its composite, so the
    entries are resolved without building that composite here.
    """
    carrier = parse_symseq(data["carrier"])
    n = positive_int(data["arity_bound"], "operad arity_bound")

    def least(w, x, raw):
        return least_raw(carrier, carrier, {}, w, x, raw) if len(w) <= n and is_canonical(w) else None

    mu_fn = _explicit_table(data["mu"], "mu", least)
    eta_labels = {dec(a): dec(b) for a, b in _pairs(data["eta"], "eta")}
    return make_operad(carrier, mu_fn, eta_labels, n)


def _explicit_table(entries, name: str, resolve: Callable) -> Callable:
    """The explicit table ``name`` (``mu``, ``lambda`` or ``rho``) as ``fn(key, representative)``.

    ``resolve(w, x, raw)`` is the representative of the class of ``raw`` in
    cell ``(w, x)``, or ``None`` if ``raw`` is not a raw there.  Each entry
    is resolved so: an entry that is not a raw of its cell, or one for a
    class an earlier entry gave, is an ``InputError``, and so is a read of a
    class no entry gives.
    """
    table: dict = {}
    for entry in _array(entries, name):
        entry = _object(entry, f"{name} entry")
        w, x, raw = dec_word(entry["word"]), dec(entry["out"]), dec_raw(entry["rep"])
        rep = resolve(w, x, raw)
        if rep is None:
            raise InputError(f"{name} entry {entry['rep']} is not a raw of cell {(w, x)!r}")
        if (w, x, rep) in table:
            raise InputError(f"{name} entry {entry['rep']} is a second entry for the class of {rep!r} at {(w, x)!r}")
        table[(w, x, rep)] = dec(entry["to"])

    def fn(key, raw):
        if (*key, raw) not in table:
            raise InputError(f"{name} entry missing for the class of {raw!r} at {key}")
        return table[(*key, raw)]

    return fn


@dataclass
class Document:
    windows: dict
    sorts: dict
    symseqs: dict
    operads: dict
    families: dict
    algebras: dict
    bimodules: dict


WINDOW_DEFAULTS = {"arity_bound": 3, "length_bound": 2, "budget": 2_000_000}


def positive_int(value, what: str) -> int:
    """``value`` if it is an integer of at least 1 (not a bool), else InputError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputError(f"{what} must be a positive integer, got {value!r}")
    return value


def _section(data: dict, name: str) -> dict:
    return _object(data.get(name, {}), f"section {name!r}")


def parse_windows(data: dict) -> dict:
    """The document's windows over their defaults, each a positive integer."""
    windows = dict(WINDOW_DEFAULTS)
    windows.update(_section(data, "windows"))
    for name, value in windows.items():
        positive_int(value, f"window {name!r}")
    return windows


def _raise_error(kind: str, name: str, error) -> None:
    if error is not None:
        raise error


def parse_document(data, report: Callable = _raise_error) -> Document:
    """Build every declaration, section by section and by name within a section.

    ``report(kind, name, error)`` is called once per declaration, with
    ``error`` None once it is built.  When ``report`` returns on a
    ``ValidationError`` the declaration is left out and the walk goes on; an
    input error is raised after its report.  The default report raises.
    """
    data = _object(data, "document")
    if data.get("version") != FORMAT_VERSION:
        raise InputError(f"unsupported document version {data.get('version')!r}")
    windows = parse_windows(data)
    sorts = {
        name: ssorted(dec_word(values, f"sorts {name!r}"))
        for name, values in _section(data, "sorts").items()
    }
    doc = Document(windows, sorts, {}, {}, {}, {}, {})
    builders = (
        ("symseqs", "symseq", lambda d: _parse_named_symseq(d, sorts)),
        ("operads", "operad", lambda d: _parse_operad(d, sorts, doc.symseqs, windows)),
        ("families", "family", _parse_family),
        ("algebras", "algebra", lambda d: _parse_algebra(d, doc.operads, doc.families)),
        ("bimodules", "bimodule", lambda d: _parse_bimodule(d, doc.operads, doc.symseqs)),
    )
    for section, kind, build in builders:
        store, decls = getattr(doc, section), _section(data, section)
        for name in sorted(decls):
            try:
                store[name] = build(_object(decls[name], f"{kind} {name!r}"))
            except (ValidationError, InputError, KeyError) as e:
                report(kind, name, e)
                if not isinstance(e, ValidationError):
                    raise
                continue
            report(kind, name, None)
    return doc


def _parse_named_symseq(sdata: dict, sorts: dict) -> SymSeq:
    """A symmetric sequence whose ``dom``/``cod`` may name a declared sort list."""
    sdata = dict(sdata)
    for end in ("dom", "cod"):
        if isinstance(sdata.get(end), str):
            sdata[end] = [enc(s) for s in sorts[sdata[end]]]
    return parse_symseq(sdata)


def _parse_family(fdata: dict) -> Family:
    sets = {_dec_key(k): dec_word(vs, f"family set {k!r}") for k, vs in fdata.items()}
    return Family(tuple(sets), sets)


def _dec_key(k: str):
    # family keys are JSON object keys; decode via json when they look encoded
    try:
        return dec(json.loads(k))
    except (json.JSONDecodeError, InputError):
        return k


def _parse_operad(odata: dict, sorts: dict, symseqs: dict, windows: dict) -> Operad:
    n = positive_int(odata.get("arity_bound", windows["arity_bound"]), "operad arity_bound")
    if "builtin" in odata:
        name = odata["builtin"]
        if name != "unit":
            return builtin(name, n)
        key = odata.get("sorts", ["*"])
        return builtin(name, n, sorts[key] if isinstance(key, str) else dec_word(key, "unit sorts"))
    if "free" in odata:
        body = _object(odata["free"], "free operad")
        return free_operad(dec_word(body["sorts"], "sorts"), _signature(body), n)
    if "presented" in odata:
        body = _object(odata["presented"], "presented operad")
        ss, signature = dec_word(body["sorts"], "sorts"), _signature(body)
        relations = []
        for r in _array(body["relations"], "relations"):
            r = _object(r, "relation")
            relations.append((dec_term(r["left"]), dec_term(r["right"])))
        return presented_operad(ss, signature, relations, n)
    if "carrier" in odata:
        data = dict(odata)
        if isinstance(data["carrier"], str):
            data = dict(data)
            data["carrier"] = serialize_symseq(symseqs[data["carrier"]])
        data.setdefault("arity_bound", n)
        return parse_explicit_operad(data)
    raise InputError("operad declaration needs builtin/free/presented/carrier")


def _signature(body: dict) -> dict:
    """Generator names by ``(word, out)``, in declaration order."""
    signature: dict = {}
    for g in _array(body["generators"], "generators"):
        g = _object(g, "generator")
        key = (dec_word(g["word"]), dec(g["out"]))
        names = tuple(_name(v, "generator name") for v in _array(g["names"], "names"))
        signature[key] = signature.get(key, ()) + names
    return signature


def _parse_algebra(adata: dict, operads: dict, families: dict) -> Algebra:
    op = operads[_name(adata["operad"], "algebra operad")]
    fam = families[_name(adata["family"], "algebra family")]
    act: dict = {}
    for entry in _array(adata.get("action", []), "algebra action"):
        entry = _object(entry, "algebra action entry")
        w = dec_word(entry["word"])
        x = dec(entry["out"])
        lab = dec(entry["label"])
        args = dec_word(entry["args"], "args")
        act.setdefault((w, x), {})[(lab, args)] = dec(entry["to"])
    return make_algebra(op, fam, act)


def _parse_bimodule(bdata: dict, operads: dict, symseqs: dict) -> Bimodule:
    left = operads[_name(bdata["left"], "bimodule left")]
    right = operads[_name(bdata["right"], "bimodule right")]
    carrier = symseqs[_name(bdata["carrier"], "bimodule carrier")]
    window = positive_int(bdata.get("window", min(left.arity_bound, right.arity_bound)), "bimodule window")

    bm = compose_symseq(left.carrier, carrier, max_arity=window)
    ma = compose_symseq(carrier, right.carrier, max_arity=window)

    def action_fn(side, comp):
        """The explicit table of ``side`` on the classes of ``comp``, or None if induced."""
        if bdata[side] == "induced":
            return None
        return _explicit_table(
            bdata[side], side, lambda w, x, raw: comp.canon(w, x, raw) if (w, x) in comp.reps else None
        )

    lam_fn = action_fn("lambda", bm)
    rho_fn = action_fn("rho", ma)
    if lam_fn is None:
        if not left.is_unit_operad():
            raise InputError("induced left action requires a unit operad")
        lam_fn = left_unit(carrier)
    lam = mu_from_raws(bm, lam_fn, carrier)
    if rho_fn is None:
        if not right.is_unit_operad():
            raise InputError("induced right action requires a unit operad")
        rho_fn = right_unit(carrier)
    rho = mu_from_raws(ma, rho_fn, carrier)
    return Bimodule(left, right, carrier, lam, rho, window, bm, ma)


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
