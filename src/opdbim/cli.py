"""Batch front end: law checks, composition, evaluation, series and counting.

Exit statuses: 0 success, 1 law failure, 2 input error, 3 budget exceeded.
Output is UTF-8 text or the canonical document format; identical inputs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .perms import BudgetError, InputError, ValidationError, ssorted
from .symseq import analytic_eval, compose_symseq, series
from .operads import enumerate_algebras
from .bimodules import enumerate_bimodules, enumerate_bimodule_maps
from .catsym import exponential_operad, product_operad
from . import doc as docmod

OK, LAW_FAIL, INPUT_ERR, BUDGET_ERR = 0, 1, 2, 3


def load_document(path: str) -> docmod.Document:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return docmod.parse_document(data)


def cmd_check(args) -> int:
    """Validate each declaration in dependency order, one report line per name."""
    with open(args.file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    errors = []

    def report(kind, name, error):
        if error is None:
            print(f"{kind} {name}: ok")
            return
        errors.append(error)
        if isinstance(error, ValidationError):
            print(f"{kind} {name}: FAIL {error}")
        else:
            print(f"{kind} {name}: parse error {error}")

    try:
        docmod.parse_document(data, report)
    except (InputError, KeyError) as e:
        if not errors or errors[-1] is not e:
            print(f"parse error: {e}")
        return INPUT_ERR
    return LAW_FAIL if errors else OK


def cmd_compose(args) -> int:
    document = load_document(args.file)
    try:
        g = document.symseqs[args.outer]
        f = document.symseqs[args.inner]
    except KeyError as e:
        print(f"name resolution error: {e}")
        return INPUT_ERR
    cap = args.arity_bound
    comp = compose_symseq(g, f, max_arity=cap)
    out = docmod.dumps(
        {
            "version": docmod.FORMAT_VERSION,
            "symseqs": {f"{args.outer}o{args.inner}": docmod.serialize_symseq(comp.seq)},
        }
    )
    _emit(out, args.out)
    return OK


def cmd_eval(args) -> int:
    document = load_document(args.file)
    try:
        f = document.symseqs[args.seq]
        t = document.families[args.family]
    except KeyError as e:
        print(f"name resolution error: {e}")
        return INPUT_ERR
    ev = analytic_eval(f, t, max_arity=args.arity_bound)
    rows = []
    for y in ssorted(f.cod):
        reps = [
            {
                "word": docmod.enc_word(w),
                "label": docmod.enc(lab),
                "args": [docmod.enc(v) for v in tvec],
            }
            for (w, lab, tvec) in ev.reps[y]
        ]
        rows.append({"sort": docmod.enc(y), "size": len(ev.value.sets[y]), "classes": reps})
    _emit(docmod.dumps({"carrier": rows}), args.out)
    return OK


def cmd_series(args) -> int:
    document = load_document(args.file)
    try:
        f = document.symseqs[args.seq]
    except KeyError as e:
        print(f"name resolution error: {e}")
        return INPUT_ERR
    try:
        rows = series(f, args.bound)
    except InputError as e:
        print(f"input error: {e}")
        return INPUT_ERR
    lines = ["n\tsize\torbits\tegf"]
    for (n, size, orbits, coeff) in rows:
        lines.append(f"{n}\t{size}\t{orbits}\t{coeff}")
    _emit("\n".join(lines) + "\n", args.out)
    return OK


def _parse_sizes(arg: str):
    """``N`` for every sort, or ``sort=N,...``; anything else is an InputError."""
    try:
        if "=" not in arg:
            return int(arg)
        sizes = {}
        for part in arg.split(","):
            key, value = part.split("=")
            key = docmod.dec(json.loads(key)) if key.startswith(("[", "{", '"')) else key
            sizes[key] = int(value)
        return sizes
    except ValueError:
        raise InputError(f"sizes must be N or sort=N,..., got {arg!r}") from None


def cmd_count(args) -> int:
    document = load_document(args.file)
    budget = args.budget or document.windows["budget"]
    if len(args.names) != 2:
        raise InputError(f"count {args.kind} takes two arguments, got {len(args.names)}")
    try:
        if args.kind == "algebras":
            op = document.operads[args.names[0]]
            sizes = _parse_sizes(args.names[1])
            if isinstance(sizes, dict):
                unknown = [s for s in sizes if s not in op.sorts]
                if unknown:
                    raise InputError(f"operad {args.names[0]!r} has no sort {unknown[0]!r}")
                sizes = {s: sizes.get(s, 0) for s in op.sorts}
            n = enumerate_algebras(op, sizes, budget=budget)
            _emit(f"algebras\t{n}\n", args.out)
        elif args.kind == "bimodules":
            a = document.operads[args.names[0]]
            b = document.operads[args.names[1]]
            cells = docmod.parse_cell_sizes(json.loads(args.cells))
            n = enumerate_bimodules(a, b, cells, budget=budget)
            _emit(f"bimodules\t{n}\n", args.out)
        elif args.kind == "module-maps":
            m = document.bimodules[args.names[0]]
            n = document.bimodules[args.names[1]]
            count = enumerate_bimodule_maps(m, n, budget=budget)
            _emit(f"module-maps\t{count}\n", args.out)
        else:
            print(f"unknown count kind {args.kind!r}")
            return INPUT_ERR
    except KeyError as e:
        print(f"name resolution error: {e}")
        return INPUT_ERR
    except BudgetError as e:
        print(f"budget exceeded: {e}")
        return BUDGET_ERR
    return OK


def cmd_product(args) -> int:
    document = load_document(args.file)
    try:
        a = document.operads[args.a]
        b = document.operads[args.b]
    except KeyError as e:
        print(f"name resolution error: {e}")
        return INPUT_ERR
    prod = product_operad(a, b)
    out = docmod.dumps(
        {
            "version": docmod.FORMAT_VERSION,
            "operads": {f"{args.a}x{args.b}": docmod.serialize_operad(prod)},
        }
    )
    _emit(out, args.out)
    return OK


def cmd_exponential(args) -> int:
    document = load_document(args.file)
    try:
        a = document.operads[args.a]
        b = document.operads[args.b]
    except KeyError as e:
        print(f"name resolution error: {e}")
        return INPUT_ERR
    length_bound = args.length_bound or document.windows["length_bound"]
    arity_bound = args.arity_bound or document.windows["arity_bound"]
    try:
        exp = exponential_operad(a, b, length_bound, arity_bound)
    except InputError as e:
        print(f"input error: {e}")
        return INPUT_ERR
    out = docmod.dumps(
        {
            "version": docmod.FORMAT_VERSION,
            "operads": {f"{args.b}^{args.a}": docmod.serialize_operad(exp)},
        }
    )
    _emit(out, args.out)
    return OK


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _positive_int(text: str) -> int:
    """argparse type for budgets and windows: a usage error (exit 2) unless >= 1."""
    try:
        return docmod.positive_int(int(text), "value")
    except (ValueError, InputError):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opdbim",
        description="exact operad and operad-bimodule computations over finite sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate every declaration in a document")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compose", help="compose two named symmetric sequences")
    p.add_argument("file")
    p.add_argument("outer")
    p.add_argument("inner")
    p.add_argument("--arity-bound", type=_positive_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("eval", help="evaluate a sequence on a named family")
    p.add_argument("file")
    p.add_argument("seq")
    p.add_argument("family")
    p.add_argument("--arity-bound", type=_positive_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("series", help="cardinality/orbit/EGF table of a single-sorted sequence")
    p.add_argument("file")
    p.add_argument("seq")
    p.add_argument("bound", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("count", help="count algebras, bimodules or module maps")
    p.add_argument("file")
    p.add_argument("kind", choices=["algebras", "bimodules", "module-maps"])
    p.add_argument("names", nargs="+")
    p.add_argument("--cells", default="[]")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("product", help="product of two named operads")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("exponential", help="exponential operad of two named operads")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--length-bound", type=_positive_int, default=None)
    p.add_argument("--arity-bound", type=_positive_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_exponential)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (json.JSONDecodeError, FileNotFoundError, InputError, KeyError) as e:
        print(f"input error: {e}")
        return INPUT_ERR
    except ValidationError as e:
        print(f"law failure: {e}")
        return LAW_FAIL
    except BudgetError as e:
        print(f"budget exceeded: {e}")
        return BUDGET_ERR


if __name__ == "__main__":
    sys.exit(main())
