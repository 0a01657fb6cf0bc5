"""End-to-end benchmark of rggham, driven through its public functions.

    python3 perfbench/run.py --workload cycle_large|threshold_sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src and the
metric names and units come from ./BENCHMARK.json. Every measurement runs in
a fresh interpreter (perfbench/worker.py), one process at a time, with the
BLAS and OpenMP thread counts set to 1.

--trace 0: one timed interpreter between four set-up-only ones (two before,
two after). setup_s is the median set-up time of the five; the other
end-to-end metrics come from the timed one. Every end-to-end time is in
seconds at reference speed (see CALIBRATION_S); the raw wall-clock median
and the calibration median are in the report and the record line.
--trace 1: one traced interpreter; reports the per-layer metrics.

Stdout holds a readable report, then a `record` line with every value and
the fingerprints (perfbench/record.py appends those to the trajectory), and
last one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every interpreter finished.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_ONLY_RUNS = 4
# The machine is shared, and its speed drifts by up to 1.8x in spells of
# seconds, CPU time as much as wall time. So every end-to-end time is scaled
# by the calibration loop (worker.calibration_s, fixed work that does not
# use the package) measured next to it: an op's wall time is divided by the
# median of the 2 * CAL_HALF_WINDOW loops around it, a set-up time by the
# median of the loops right after it, and both are multiplied by
# CALIBRATION_S, what one loop took on the 2-core Xeon this was written on.
CALIBRATION_S = 0.035
CAL_HALF_WINDOW = 5
# every worker of one run must have ended by then (the run ends within 180 s)
BUDGET_S = 170.0


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(ops: int) -> int:
    """Highest whole percentile with at least 10 ops beyond it (50 to 99)."""
    return max(50, min(99, math.floor(100 * (ops - 10) / ops)))


def scaled_op_s(op_s: list[float], cal_s: list[float]) -> list[float]:
    """Op times at reference speed; cal_s[i] ran just before op i and
    cal_s[i + 1] just after it."""
    out = []
    for i, t in enumerate(op_s):
        near = cal_s[max(0, i + 1 - CAL_HALF_WINDOW):i + 1 + CAL_HALF_WINDOW]
        out.append(t * CALIBRATION_S / statistics.median(near))
    return out


def scaled_setup_s(res: dict) -> float:
    return res["setup_s"] * CALIBRATION_S / statistics.median(res["setup_cal_s"])


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"{mode} worker ran past the time budget")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{mode} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    op_s = scaled_op_s(res["op_s"], res["cal_s"])
    ops = len(op_s)
    q = tail_percentile(ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s.p50": statistics.median(op_s),
        "op_s.tail": percentile(op_s, q),
        "ops_per_s": ops / sum(op_s),
        "points_per_s": res["n"] * ops / sum(op_s),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {"tail_percentile": q, "ops": ops,
             "ops_beyond_tail": ops - math.ceil(ops * q / 100.0),
             "setup_samples": len(setups),
             "wall_op_s.p50": statistics.median(res["op_s"]),
             "calibration_s.p50": statistics.median(res["cal_s"])}
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("BENCHMARK.json", os.path.join("src", "rggham", "__init__.py")):
        if not os.path.isfile(need):
            print(f"error: {need} not found; run from the root of a checkout",
                  file=sys.stderr)
            return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # a SIGTERM unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        res = run_worker(args, "traced", deadline)
        values = res["layer"]
        notes = {"ops": res["ops"]}
        wanted = spec["per_layer"]
    else:
        # set-up samples on both sides of the timed run, so a slow or fast
        # spell of the machine weighs on fewer of them
        half = SETUP_ONLY_RUNS // 2
        setups = [scaled_setup_s(run_worker(args, "setup", deadline))
                  for _ in range(half)]
        res = run_worker(args, "timed", deadline)
        setups.append(scaled_setup_s(res))
        setups += [scaled_setup_s(run_worker(args, "setup", deadline))
                   for _ in range(SETUP_ONLY_RUNS - half)]
        e2e, notes = end_to_end(res, setups)
        values = {**e2e, **res["outcomes"]}
        wanted = spec["end_to_end"]

    env = {**machine(), "python": res["python"], "numpy": res["numpy"]}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("  " + "  ".join(f"{k}={v}" for k, v in notes.items()))
    for name, value in values.items():
        unit = next((m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
                     if m["name"] == name), "")
        print(f"  {name:42s} {value:>16.6g} {unit}")
    fp = res["fingerprint"]
    print(f"  fingerprint (first {fp['window']} ops): "
          f"inputs {fp['inputs'][:16]}  answers {fp['answers'][:16]}")
    for line in res["failures"] + res["problems"]:
        print(f"  ! {line}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "notes": notes, "values": values, "fingerprint": fp,
              "correct": res["correct"], "ops": res["ops"],
              "failed": res["failed"]}
    print("record " + json.dumps(record))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": res["correct"], "attempted": res["ops"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
