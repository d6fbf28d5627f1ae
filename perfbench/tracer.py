"""Spans around the public functions of each opdbim layer, recorded from outside.

The package binds functions with ``from .x import f``, so a function is
replaced in every ``opdbim`` module that holds it, not only where it is
defined.  Spans stay in memory with a link to the span that caused them and
are written out once, after the traced operations.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# layer -> public functions whose calls are recorded
TARGETS = {
    "perms": ("quotient", "equivariant_iso_search", "enumerate_equivariant_maps"),
    "symseq": ("compose_symseq", "associator", "hcompose_maps", "coequalize_maps", "analytic_eval"),
    "operads": ("make_operad", "check_monad_laws", "operad_iso", "enumerate_algebras"),
    "bimodules": ("relative_compose", "check_bimodule_laws", "free_bimodule",
                  "enumerate_bimodules", "enumerate_bimodule_maps"),
    "catsym": ("cat_compose", "sw_arrows", "hom_monad", "check_cat_monad",
               "operad_of_monad", "transpose", "untranspose"),
    "doc": ("parse_document", "dumps"),
    "cli": ("main",),
}

# functions whose calls are keyed by their arguments to count repeats
REPEAT_KEYED = {"symseq.compose_symseq", "catsym.cat_compose", "catsym.sw_arrows"}

_VALUE_TYPES = (int, str, tuple, bool, float, type(None), frozenset)


def _composite_counts(result) -> dict:
    return {
        "raws": sum(len(v) for v in result.raws.values()),
        "classes": sum(len(v) for v in result.reps.values()),
    }


# function -> counts read from its result, after the span has ended
RESULT_COUNTS = {
    "perms.quotient": lambda r: {"classes": len(r.classes)},
    "symseq.compose_symseq": _composite_counts,
    "catsym.cat_compose": _composite_counts,
    "catsym.sw_arrows": lambda r: {"arrows": len(r)},
}


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "error", "counts")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.error = None
        self.counts = None


class Tracer:
    """Records one span per call of each target function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1                 # index of the operation being run
        self._stack: list[int] = []
        self._seen: dict = defaultdict(set)
        self._repeats: dict = defaultdict(int)
        self._held: list = []        # keeps keyed arguments alive so ids stay unique
        self._patched: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "opdbim" or name.startswith("opdbim.")}
        for layer, names in TARGETS.items():
            home = modules[f"opdbim.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        """Forget what was recorded so far, such as calls made while building inputs."""
        self.spans.clear()
        self._seen.clear()
        self._repeats.clear()
        self._held.clear()

    def _arg_key(self, args, kwargs):
        parts = []
        for value in list(args) + sorted(kwargs.items()):
            if isinstance(value, _VALUE_TYPES):
                try:
                    hash(value)
                    parts.append(value)
                    continue
                except TypeError:
                    pass
            parts.append(("id", id(value)))
        self._held.append((args, kwargs))
        return tuple(parts)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keyed = name in REPEAT_KEYED
        is_quotient = name == "perms.quotient"
        result_counts = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counts = None
            if is_quotient:
                counts = {"elements": len(args[0]), "relations": len(args[1])}
            if keyed:
                key = self._arg_key(args, kwargs)
                seen = self._seen[name]
                if key in seen:
                    self._repeats[name] += 1
                else:
                    seen.add(key)
            span = Span(name, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if result_counts is not None:
                counts = {**(counts or {}), **result_counts(result)}
            span.counts = counts
            return result

        return traced

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """``<layer>.<function>.<measure>`` for every target function."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict = {}
        for layer, names in TARGETS.items():
            for fname in names:
                base = f"{layer}.{fname}"
                out[f"{base}.calls"] = 0
                out[f"{base}.self_s"] = 0.0
        totals: dict = defaultdict(lambda: defaultdict(int))
        for i, span in enumerate(self.spans):
            base = span.name
            out[f"{base}.calls"] += 1
            out[f"{base}.self_s"] += (span.end - span.start) - child_time[i]
            if span.error == "BudgetError":
                out[f"{base}.refused_s"] = out.get(f"{base}.refused_s", 0.0) + span.end - span.start
            for measure, value in (span.counts or {}).items():
                totals[base][measure] += value
        out.setdefault("operads.enumerate_algebras.refused_s", 0.0)
        for measure in ("elements", "relations", "classes"):
            out[f"perms.quotient.{measure}"] = totals["perms.quotient"][measure]
        for base in ("symseq.compose_symseq", "catsym.cat_compose"):
            raws, classes = totals[base]["raws"], totals[base]["classes"]
            out[f"{base}.raws"] = raws
            out[f"{base}.classes"] = classes
            out[f"{base}.classes_per_raw"] = classes / raws if raws else 0.0
        out["catsym.sw_arrows.arrows"] = totals["catsym.sw_arrows"]["arrows"]
        for base in REPEAT_KEYED:
            out[f"{base}.repeat_calls"] = self._repeats[base]
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON row: name, parent index, op, start, end."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"columns":["name","parent","op","start_s","end_s","error","counts"],"spans":[\n')
            for i, s in enumerate(self.spans):
                row = [s.name, s.parent, s.op, round(s.start - t0, 9), round(s.end - t0, 9),
                       s.error, s.counts]
                fh.write(("," if i else "") + json.dumps(row, separators=(",", ":")) + "\n")
            fh.write("]}\n")
