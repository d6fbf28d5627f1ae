#!/usr/bin/env python3
"""Where the memory of the pentagon's costliest quadruple goes, under tracemalloc.

Builds the quadruple that sets the ``bimodule-pentagon`` workload's peak
directly: five ``com_operad(2)`` and four free bimodules, each on one unary
cell with two labels, at window 2.  Then it runs the steps of one pentagon
sample (both unitors, the relative composites, the five relative associators
and the comparison of the two paths).  After each top-level call it prints
the memory still held and the peak so far, in MB of traced Python
allocations.  At the end it prints the ten largest allocation sites of the
snapshot taken nearest the peak.  The snapshots are taken where the traced
memory reaches a new high, checked as composites, maps and bimodules are
returned.

    PYTHONPATH=src python scripts/pentagon_memory.py

Standard library only; it prints for information and checks nothing but the
pentagon itself.
"""

import os
import sys
import tracemalloc

from opdbim import bimodules, operads, symseq
from opdbim.bimodules import (
    free_bimodule,
    rel_associator,
    rel_hcompose,
    rel_left_unitor,
    rel_right_unitor,
    relative_compose,
)
from opdbim.operads import com_operad
from opdbim.perms import YoungSet
from opdbim.symseq import SymSeq, compose_maps, identity_map, map_equal

WINDOW = 2
MB = 1024 * 1024
STEP_KB = 512  # a new snapshot once the traced memory is this far above the last one

# functions whose returns are the points where the snapshot nearest the peak is taken
WATCHED = {
    f.__code__
    for f in (
        symseq.compose_symseq,
        symseq.mu_from_raws,
        symseq.hcompose_maps,
        symseq.regroup_map,
        symseq.coequalize_maps,
        operads.held,
        bimodules.bimodule_laws,
        bimodules.check_bimodule_laws,
    )
}


class PeakSnapshot:
    """A profile hook that keeps a tracemalloc snapshot each time traced memory reaches a new high."""

    def __init__(self):
        self.snapshot, self.at = None, 0

    def __call__(self, frame, event, arg):
        if event == "return" and frame.f_code in WATCHED:
            current, _peak = tracemalloc.get_traced_memory()
            if current > self.at + STEP_KB * 1024:
                self.at = current
                self.snapshot = tracemalloc.take_snapshot()


def report(name: str) -> None:
    current, peak = tracemalloc.get_traced_memory()
    print(f"{name:34s} retained {current / MB:7.2f} MB   peak {peak / MB:7.2f} MB")


def main() -> None:
    watcher = PeakSnapshot()
    tracemalloc.start(1)
    sys.setprofile(watcher)
    try:

        def step(name, call):
            value = call()
            report(name)
            return value

        ops = step("five com_operad(2)", lambda: [com_operad(WINDOW) for _ in range(5)])
        cell = YoungSet.trivial(("*",), ("s", "t"))
        seed = SymSeq(("*",), ("*",), {(("*",), "*"): cell})
        l, m, n, p = step(
            "four free bimodules",
            lambda: [free_bimodule(ops[i + 1], ops[i], seed, window=WINDOW) for i in range(4)],
        )
        step("rel_left_unitor(m)", lambda: rel_left_unitor(m))
        step("rel_right_unitor(m)", lambda: rel_right_unitor(m))
        nm = step("N o M", lambda: relative_compose(n, m))
        ml = step("M o L", lambda: relative_compose(m, l))
        pn = step("P o N", lambda: relative_compose(p, n))
        nm_l = step("(N o M) o L", lambda: relative_compose(nm.bimodule, l))
        n_ml = step("N o (M o L)", lambda: relative_compose(n, ml.bimodule))
        pn_m = step("(P o N) o M", lambda: relative_compose(pn.bimodule, m))
        p_nm = step("P o (N o M)", lambda: relative_compose(p, nm.bimodule))
        pnm_l = step("((P o N) o M) o L", lambda: relative_compose(pn_m.bimodule, l))
        p_nm_l = step("(P o (N o M)) o L", lambda: relative_compose(p_nm.bimodule, l))
        p__nm_l = step("P o ((N o M) o L)", lambda: relative_compose(p, nm_l.bimodule))
        p__n_ml = step("P o (N o (M o L))", lambda: relative_compose(p, n_ml.bimodule))
        pn__ml = step("(P o N) o (M o L)", lambda: relative_compose(pn.bimodule, ml.bimodule))
        a1 = step("associator (PN)M", lambda: rel_associator(pn, pn_m, nm, p_nm))
        m1 = step("associator (PN)M whiskered by L", lambda: rel_hcompose(a1, identity_map(l.carrier), pnm_l, p_nm_l))
        m2 = step("associator P(NM) L", lambda: rel_associator(p_nm, p_nm_l, nm_l, p__nm_l))
        a3 = step("associator (NM)L", lambda: rel_associator(nm, nm_l, ml, n_ml))
        m3 = step("P whiskered by associator (NM)L", lambda: rel_hcompose(identity_map(p.carrier), a3, p__nm_l, p__n_ml))
        a4 = step("associator (PN)(ML)", lambda: rel_associator(pn, pn__ml, n_ml, p__n_ml))
        a5 = step("associator ((PN)M)L", lambda: rel_associator(pn_m, pnm_l, ml, pn__ml))
        path1 = compose_maps(m3, compose_maps(m2, m1))
        path2 = compose_maps(a4, a5)
        if not map_equal(path1, path2):
            raise SystemExit("the pentagon does not commute")
        report("pentagon compared")
    finally:
        sys.setprofile(None)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    if watcher.snapshot is None:
        return
    print(f"\nten largest allocation sites at {watcher.at / MB:.2f} MB (peak {peak / MB:.2f} MB):")
    for stat in watcher.snapshot.statistics("lineno")[:10]:
        frame = stat.traceback[0]
        print(f"  {stat.size / MB:7.3f} MB  {stat.count:7d} blocks  {os.path.relpath(frame.filename)}:{frame.lineno}")


if __name__ == "__main__":
    main()
