"""One pass over a workload in a fresh interpreter, started by ``run.py``.

    python3 perfbench/child.py WORKLOAD SEED MODE [TRACE_FILE]

MODE is ``setup`` (stop at the first operation), ``run``, ``trace`` (spans
around each layer's public functions, written to TRACE_FILE) or ``probe``
(only the workload's known-defect probes).  The kernel is
imported from the checkout's own ``src/``.  The last line of stdout is one
JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_op(fn, mismatch) -> dict:
    start = time.perf_counter()
    observed, detail = None, ""
    try:
        observed = fn()
        status = "ok"
    except mismatch as exc:
        status, detail = "wrong", str(exc)
    except Exception as exc:  # an operation that raises counts as failed
        status, detail = "raised", f"{type(exc).__name__}: {exc}"[:300]
    return {"status": status, "detail": detail, "observed": observed,
            "seconds": time.perf_counter() - start}


def main(argv: list) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(SRC))
    import opdbim

    if Path(opdbim.__file__).resolve().parent != SRC / "opdbim":
        raise SystemExit(f"opdbim imported from {opdbim.__file__}, not from {SRC}")
    tracer = None
    if mode == "trace":
        import opdbim.cli  # noqa: F401  (loads every layer before wrapping)
        import opdbim.samples  # noqa: F401
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    workdir = HERE / "out" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.BUILDERS[workload](seed, workdir)
        if tracer:
            tracer.reset()
        t_ready = time.monotonic()
        if mode == "setup":
            print(json.dumps({"t_ready": t_ready}))
            return 0
        if mode == "probe":
            probes = [{"name": name, **run_op(fn, workloads.Mismatch)} for name, fn in wl.probes]
            print(json.dumps({"t_ready": t_ready, "probes": probes}))
            return 0
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        ops = []
        for i, (name, fn) in enumerate(wl.ops):
            if tracer:
                tracer.op = i
            ops.append({"name": name, **run_op(fn, workloads.Mismatch)})
        wall = time.perf_counter() - w0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        per_layer = None
        if tracer:
            tracer.uninstall()
            per_layer = tracer.metrics()
            tracer.dump(argv[3])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "t_ready": t_ready,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "ops": ops,
        "per_layer": per_layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
