"""Benchmark entry point: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the kernel is imported from its ``src/``.
Children run one at a time: one warm-up child, one child that runs the
known-defect probes, then rounds until ``--seconds`` is used up.  A round is
SETUP_PER_ROUND children that stop at the first operation, then the timed
children; SETUP_PER_ROUND more set-up children close the run, so the set-up
samples spread over the whole run.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as medians
over the children; ``--trace 1`` alternates untraced and traced children and
reports the per-layer metrics.  The last stdout line is one JSON object; the
lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"

LIMIT_S = 170        # every child has ended by then, or the run fails
SETUP_PER_ROUND = 4  # children that only set up, for the setup_s median


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float, trace_path=None) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"run exceeded {LIMIT_S} s")
    cmd = [sys.executable, str(CHILD), workload, str(seed), mode]
    if trace_path is not None:
        cmd.append(str(trace_path))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child of {workload} still running after {LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child of {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t0
    return result


def verdict(op: dict, pins: dict) -> str:
    """'' when the operation is correct, else why it is not."""
    if op["status"] != "ok":
        return f"{op['status']}: {op['detail']}"
    if op["observed"] is not None:
        pin = pins.get(op["name"])
        if pin is None:
            return "no pinned output recorded"
        if op["observed"] != pin:
            return f"output {op['observed']} differs from pinned {pin}"
    return ""


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    start = time.monotonic()
    deadline = start + LIMIT_S
    trace_path = HERE / "out" / f"trace-{workload}-seed{seed}.json"
    trace_path.parent.mkdir(exist_ok=True)
    spawn(workload, seed, "setup", deadline)   # warm-up: bytecode and file cache
    probe = spawn(workload, seed, "probe", deadline)
    modes = ("run", "trace") if trace else ("run",)
    children: dict = {mode: [] for mode in modes}
    setups, rounds = [], []
    while True:
        t0 = time.monotonic()
        setups += [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_PER_ROUND)]
        for mode in modes:
            children[mode].append(
                spawn(workload, seed, mode, deadline, trace_path if mode == "trace" else None))
        rounds.append(time.monotonic() - t0)
        # start another round only if it ends at most half a round past --seconds
        if time.monotonic() - start + statistics.median(rounds) / 2 > seconds:
            break
    setups += [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_PER_ROUND)]
    return setups + [probe], probe["probes"], children, trace_path


def report(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in {w["name"] for w in bench["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    if not (ROOT / "src" / "opdbim" / "__init__.py").is_file():
        raise BenchError(f"no kernel at {ROOT / 'src' / 'opdbim'}")
    pins = json.loads(EXPECTED.read_text()).get(workload, {})
    setups, probes, children, trace_path = measure(workload, seed, seconds, trace)

    timed = [c for mode in children.values() for c in mode]
    attempted = failed = 0
    problems = []
    for child in timed:
        for op in child["ops"]:
            attempted += 1
            why = verdict(op, pins)
            if why:
                failed += 1
                problems.append(f"{op['name']}: {why}")
    # one pass: the operation list once and every known-defect probe once
    per_pass = attempted / len(timed)
    ok_per_pass = (attempted - failed) / len(timed) + sum(p["status"] == "ok" for p in probes)
    ok_share = ok_per_pass / (per_pass + len(probes))

    runs = children["run"]
    samples = {
        "wall_s": [c["wall_s"] for c in runs],
        "cpu_s": [c["cpu_s"] for c in runs],
        "peak_rss_mb": [c["peak_rss_mb"] for c in runs],
        "setup_s": [c["setup_s"] for c in setups + timed],
        "ok_share": [ok_share],
    }
    print(f"workload {workload}  seed {seed}  timed children {len(runs)}  "
          f"set-up samples {len(samples['setup_s'])}")
    if trace:
        traced = children["trace"]
        per_layer = {}
        for name in traced[0]["per_layer"]:
            per_layer[name] = statistics.median(c["per_layer"][name] for c in traced)
        per_layer["trace.overhead_s"] = (statistics.median(c["wall_s"] for c in traced)
                                         - statistics.median(samples["wall_s"]))
        wanted = bench["per_layer"]
        values = {m["name"]: per_layer[m["name"]] for m in wanted}
        selfs = sorted(((v, k) for k, v in values.items() if k.endswith(".self_s")), reverse=True)
        print(f"  traced children {len(traced)}; spans of the last one in {trace_path.relative_to(ROOT)}")
        print(f"  tracer overhead {per_layer['trace.overhead_s']:.4f} s on an untraced wall_s of "
              f"{statistics.median(samples['wall_s']):.4f} s")
        for value, name in selfs[:8]:
            print(f"  {name:48s} {value:10.4f} s")
    else:
        wanted = bench["end_to_end"]
        values = {}
        for m in wanted:
            xs = samples[m["name"]]
            values[m["name"]] = statistics.median(xs)
            q1, q3 = quartiles(xs)
            print(f"  {m['name']:12s} {values[m['name']]:12.4f} {m['unit']:6s} "
                  f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(xs)}")
    print(f"  failed_share {1 - ok_share:.4f}  ({ok_per_pass:g} of {per_pass + len(probes):g} "
          f"operations per pass ok, known-defect probes included)")
    for probe in probes:
        state = "fixed" if probe["status"] == "ok" else f"still fails ({probe['detail'][:80]})"
        print(f"  known-defect probe {probe['name']}: {state}  [{probe['seconds']:.3f} s]")
    for line in sorted(set(problems)):
        print(f"  FAILED {line}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = report(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
