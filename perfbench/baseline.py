"""Measure a baseline: every workload untraced over several seeds, then once
traced, and write the medians, quartiles and per-layer breakdown to JSON.

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/BASELINE.json

Run from the repository root.  Spread is (Q3 - Q1) / median of the
untraced runs, with quartiles from ``statistics.quantiles(values, n=4)``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    info = {line.split(":", 1)[0]: json.loads(line.split(":", 1)[1]) for line in lines[:-1]}
    return json.loads(lines[-1]), info


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": seconds, "seeds": args.seeds, "untraced": {}, "traced": {}}
    values = {w: {} for w in workloads}
    failed = dict.fromkeys(workloads, 0)
    walls = {w: [] for w in workloads}
    slowdowns = {w: [] for w in workloads}
    for seed in args.seeds:  # seed-major, so each workload spans the whole measuring period
        for workload in workloads:
            start = time.perf_counter()
            result, info = run(workload, seed, seconds, 0)
            walls[workload].append(time.perf_counter() - start)
            print(f"{workload} seed {seed}: {walls[workload][-1]:.1f} s", file=sys.stderr, flush=True)
            report["environment"] = info["env"]
            slowdowns[workload].append(info["wall"]["slowdown"])
            failed[workload] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    for workload in workloads:
        summary = {"failed": failed[workload], "run_wall_s": walls[workload],
                   "slowdown": slowdowns[workload]}
        for name, vals in values[workload].items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{workload:12s} {name:16s} median {median:12.4f} spread {spread:.4f} "
                  f"(bound {bounds[name]})", flush=True)
        report["untraced"][workload] = summary
    for workload in workloads:
        result, info = run(workload, args.seeds[0], seconds, 1)
        report["traced"][workload] = {
            "seed": args.seeds[0],
            "requests": info["requests"],
            "per_layer": {name: m["value"] for name, m in result["metrics"].items()},
            "per_call": info["per_call"],
        }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
