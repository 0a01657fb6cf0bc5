"""Run the benchmark over several seeds and append the result to the trajectory.

    python3 perfbench/record.py --label "what was measured" --seeds 1,2,3

Run from the root of a checkout. For each workload of BENCHMARK.json, at
its run_seconds, it makes one untraced run per seed and one traced run
(first seed), prints each end-to-end metric's median and spread (quartile
distance over median, as statistics.quantiles(n=4) gives it), and appends
one entry to
perfbench/BENCH_trajectory.json: medians, spreads, per-seed fingerprints
and the traced per-layer values. Compare entries only when their env
(machine, Python, numpy) match.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "BENCH_trajectory.json")


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("record "):
            return json.loads(line[len("record "):])
    sys.exit(f"{' '.join(cmd)} printed no record line")


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", required=True,
                    help="comma separated; at least 2 for a spread")
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    entry = {"label": args.label,
             "date": datetime.datetime.now(datetime.timezone.utc)
             .strftime("%Y-%m-%dT%H:%MZ"),
             "seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [bench(name, seed, seconds, 0) for seed in seeds]
        traced = bench(name, seeds[0], seconds, 1)
        entry["env"] = runs[0]["env"]
        e2e = {}
        print(name)
        for metric in spec["end_to_end"]:
            values = [run["values"][metric["name"]] for run in runs]
            row = {"median": statistics.median(values), "unit": metric["unit"],
                   "bound": metric["bound"]}
            if len(values) >= 2:
                row["spread"] = spread(values)
            e2e[metric["name"]] = row
            print(f"  {metric['name']:14s} median {row['median']:12.6g} "
                  f"{metric['unit']:9s} spread {row.get('spread', 0):.4f} "
                  f"(bound {metric['bound']})")
        outcomes = {k: v for k, v in runs[0]["values"].items()
                    if k not in e2e}
        entry["workloads"][name] = {
            "end_to_end": e2e,
            "outcomes_first_seed": outcomes,
            "ops": [run["ops"] for run in runs],
            "tail_percentile": [run["notes"]["tail_percentile"] for run in runs],
            "correct": all(run["correct"] for run in runs + [traced]),
            "failed": sum(run["failed"] for run in runs),
            "runs": {str(run["seed"]): {m["name"]: run["values"][m["name"]]
                                        for m in spec["end_to_end"]}
                     for run in runs},
            "fingerprints": {str(run["seed"]): run["fingerprint"] for run in runs},
            "per_layer": traced["values"],
            "traced_seed": traced["seed"],
            "traced_fingerprint": traced["fingerprint"],
        }
    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    trajectory.append(entry)
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    print(f"appended entry {len(trajectory)} to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
