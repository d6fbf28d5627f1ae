"""Runs every workload over several seeds and reports each metric's spread.

    python3 perfbench/sweep.py [--trace] [--out FILE]

Run from the root of a checkout.  For each workload, ``run.py`` runs once for
each of RUNS seeds (default_seed, default_seed + 1, ...) and the sweep prints
the median, quartiles and quartile spread of every end-to-end metric, with the share
``failed_share = 1 - ok_share``.  ``--trace`` adds one traced run per workload
and checks the per-layer predictions of ``spec.json``, reporting any that do
not hold.  ``--out`` writes the whole record as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def bench_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def check_predictions(checks: list, per_layer: dict) -> list:
    """One line per check: whether the traced split matches the prediction."""
    lines = []
    total_self = sum(v for k, v in per_layer.items() if k.endswith(".self_s"))
    for check in checks:
        if "zero" in check:
            nonzero = {k: per_layer[k] for k in check["zero"] if per_layer[k]}
            state = "held" if not nonzero else f"differs: {nonzero}"
            lines.append(f"zero calls in {', '.join(check['zero'])}: {state}")
        if "dominant" in check:
            share = sum(per_layer[k] for k in check["dominant"]) / total_self if total_self else 0.0
            state = "held" if share >= check["share"] else "differs"
            lines.append(f"{' + '.join(check['dominant'])} = {share:.2f} of all self time "
                         f"(predicted at least {check['share']}): {state}")
    return lines


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    seeds = [spec["default_seed"] + i for i in range(RUNS)]
    seconds = bench["run_seconds"]
    record = {
        "host": {"machine": platform.machine(), "cpu": cpu_model(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "platform": platform.platform()},
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": seconds, "seeds": seeds, "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        results = [bench_run(name, seed, seconds, False) for seed in seeds]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        print(f"{name}: {len(results)} runs, correct={entry['correct']}, "
              f"failed {entry['failed']} of {entry['attempted']}")
        for metric in bench["end_to_end"]:
            m = metric["name"]
            s = spread([r["metrics"][m]["value"] for r in results])
            entry["metrics"][m] = {"unit": metric["unit"], **s}
            flag = "" if s["spread"] < metric["bound"] / 3 else "  <-- spread above a third of the bound"
            print(f"  {m:12s} median {s['median']:12.4f} {metric['unit']:6s} q1 {s['q1']:.4f} "
                  f"q3 {s['q3']:.4f}  spread {s['spread']:.4f} (bound {metric['bound']}){flag}")
        ok = entry["metrics"]["ok_share"]["median"]
        print(f"  failed_share median {1 - ok:.4f} share (known-defect probes included)")
        if args.trace:
            traced = bench_run(name, spec["default_seed"], seconds, True)
            per_layer = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer"] = per_layer
            entry["checks"] = check_predictions(spec["workloads"][name].get("checks", []), per_layer)
            print(f"  traced (seed {spec['default_seed']}): overhead {per_layer['trace.overhead_s']:.4f} s")
            for line in entry["checks"]:
                print(f"  prediction: {line}")
        record["workloads"][name] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
