#!/usr/bin/env python3
"""Run every workload on several seeds and record the spread of its metrics.

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json
    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json --second-set

Runs ``perfbench/run.py --trace 0`` once per seed (seeds 1..runs) for each
workload in BENCHMARK.json, one run at a time, from the repository root.
For each end-to-end metric it records the values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, next to the bound BENCHMARK.json fixes.
Then one traced run per workload, on the default seed, records the
per-layer metrics, and an untraced run on the same seed gives the
tracing overhead as traced ``run_s`` minus untraced ``run_s``. The machine fingerprint printed by the runs is
recorded with them. ``--second-set`` repeats the untraced runs of the
same seeds and adds them to the existing file, with each median's change
against the first set, as two sets of runs of the same code are compared.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int | None, seconds: int,
             trace: int = 0) -> tuple[dict, dict, float, dict]:
    seed_arg = [] if seed is None else ["--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *seed_arg,
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    env = next(line["env"] for line in lines if "env" in line)
    summary = next(line["summary"] for line in lines if "summary" in line)
    return lines[-1], env, wall, summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default=os.path.join("perfbench", "BASELINE.json"))
    p.add_argument("--second-set", action="store_true",
                   help="add a second set of untraced runs to --out")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    out = {"runs_per_workload": args.runs, "seeds": list(range(1, args.runs + 1)),
           "run_seconds": bench["run_seconds"], "workloads": {}}
    for wl in names:
        values: dict[str, list[float]] = {}
        walls, attempted, failed = [], 0, 0
        for seed in out["seeds"]:
            result, env, wall, _ = run_once(wl, seed, bench["run_seconds"])
            walls.append(wall)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(wl, seed, f"{wall:.1f}s", result["correct"],
                  {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        metrics = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            metrics[name] = {
                "median": statistics.median(vals), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals),
                "bound": bounds[name], "values": vals,
            }
        if args.second_set:
            out["workloads"][wl] = {"metrics": metrics, "attempted": attempted,
                                    "failed": failed, "mean_wall_s": statistics.mean(walls)}
            continue
        traced, _, traced_wall, traced_summary = run_once(wl, None, bench["run_seconds"], 1)
        _, _, _, untraced_summary = run_once(wl, None, bench["run_seconds"])
        out["workloads"][wl] = {
            "metrics": metrics, "attempted": attempted, "failed": failed,
            "mean_wall_s": statistics.mean(walls),
            "traced_default_seed": {
                "correct": traced["correct"], "wall_s": traced_wall,
                "summary": {k: v for k, v in traced_summary.items() if k != "trace_file"},
                "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
                "untraced_run_s": untraced_summary["run_s"],
                "tracing_overhead_run_s": traced_summary["run_s"] - untraced_summary["run_s"],
            },
        }
        out["env"] = {k: v for k, v in env.items() if k not in ("seed", "d2_seed", "reference")}
    doc = out
    if args.second_set:
        with open(os.path.join(ROOT, args.out)) as f:
            doc = json.load(f)
        for wl, w in out["workloads"].items():
            for name, m in w["metrics"].items():
                before = doc["workloads"][wl]["metrics"][name]["median"]
                m["median_change_vs_first_set"] = m["median"] / before - 1
        doc["second_set"] = out
    with open(os.path.join(ROOT, args.out), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for wl, w in out["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{wl} {name}: median {m['median']:.4g} spread {m['spread']:.3f} "
                  f"bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
