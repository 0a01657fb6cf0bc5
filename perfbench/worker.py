"""One measurement of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|timed|traced

Run from the root of a checkout; run.py starts it, one process at a time.
The package is imported from ./src. Modes:

- setup: import, make the warm-up input, run one warm-up op, stop.
- timed: setup, then untraced ops until S seconds have passed (checking the
  clock only between rounds, so the workload's mix stays balanced, and never
  before the fingerprint window is done), with a calibration loop before the
  first op and after each op.
- traced: as timed, but each op runs twice on the same instance: the real
  public call, then the traced replay of its steps. Then the workload's CLI
  round trips, if it has any. Spans are written to .bench_out/ at the end.

Every mode runs the calibration loop a few times right after set-up.
The last stdout line is one JSON object with the raw measurements.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import rggham  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import (REASONS, WARMUP, WORKLOADS, Answer,  # noqa: E402
                       CliRoundtrip)


SETUP_CALIBRATIONS = 5
# Fixed work that uses neither the package nor the workload's inputs: a
# stable argsort, a bincount and a Python loop, so numpy and interpreter
# work as in an op. run.py divides every timing by the calibration loops
# measured next to it, because the speed of the shared machine drifts.
_CAL_KEYS = np.random.Generator(np.random.PCG64(0)).integers(0, 1 << 30,
                                                             200_000)


def calibration_s() -> float:
    t0 = time.perf_counter()
    counts = np.bincount(_CAL_KEYS[np.argsort(_CAL_KEYS, kind="stable")] >> 14)
    table: dict[int, int] = {}
    for i, c in enumerate(counts[:40_000].tolist()):
        table[i & 1023] = table.get(i & 1023, 0) + c
    return time.perf_counter() - t0


class Tally:
    """Outcome counts, checks and fingerprints over the untraced answers."""

    def __init__(self, window: int):
        self.window = window
        self.ops = 0
        self.failed = 0
        self.verified = 0
        self.connected = 0
        self.reasons = {reason: 0 for reason in REASONS}
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.wall_ms = 0.0
        self.inputs = hashlib.sha256()
        self.answers = hashlib.sha256()
        self._deep: list = []

    def add(self, wl, i, inp, ans) -> None:
        self.ops += 1
        why = ans.failure()
        if why is not None:
            self.failed += 1
            self.failures.append(f"{wl.name} op {i}: {why}")
        self.verified += ans.verified
        self.connected += bool(ans.connected)
        if ans.reason is not None:
            self.reasons[ans.reason] = self.reasons.get(ans.reason, 0) + 1
        self.wall_ms += ans.wall_ms or 0.0
        if ans.error is None:
            self.problems += [f"{wl.name} op {i}: {text}"
                              for text in wl.problems(inp, ans)]
        if i < wl.window:
            self.inputs.update(wl.input_key(inp))
            self.answers.update(ans.key())
            if ans.error is None and wl.deep_checks:
                self._deep.append((wl, i, inp, ans))

    def deep_checks(self) -> None:
        for wl, i, inp, ans in self._deep:
            self.problems += [f"{wl.name} op {i}: {text}"
                              for text in wl.deep_problems(inp, ans)]
        self._deep.clear()

    def outcomes(self, op_s: list[float]) -> dict:
        """Counts and ratios of the answers, by metric name."""
        out = {
            "cycle_frac": self.verified / self.ops,
            "error_frac": self.failed / self.ops,
            "instance.connected_frac": self.connected / self.ops,
            "experiments.timed_share": self.wall_ms / 1e3 / sum(op_s),
        }
        out.update({f"failures.{reason}": count
                    for reason, count in self.reasons.items()})
        return out

    def to_json(self) -> dict:
        return {
            "ops": self.ops, "failed": self.failed,
            "failures": self.failures[:5], "problems": self.problems[:5],
            "correct": not self.problems,
            "fingerprint": {"window": self.window,
                            "inputs": self.inputs.hexdigest(),
                            "answers": self.answers.hexdigest()},
        }


def timed_op(run, *args):
    t0 = time.perf_counter()
    try:
        ans = run(*args)
    except Exception as exc:  # an escaped exception is a failed op, not a crash
        ans = Answer(error=f"{type(exc).__name__}: {exc}")
    return ans, time.perf_counter() - t0


def layer_metrics(tr: Tracer, names: list[str]) -> dict:
    """Per-layer values from the spans and counts of the traced ops.

    A name ending in ".s" is the median per-op time of the span of that name
    (without the suffix); any other name is the mean of that count over the
    ops that recorded it. Either reads 0 where the workload never runs it.
    """
    per_op: dict = {}
    for name, start, end, parent, op in tr.spans:
        spans = per_op.setdefault(op, {})
        spans[name] = spans.get(name, 0.0) + (end - start)
    out = {}
    for name in names:
        if name.endswith(".s"):
            values = [spans[name[:-2]] for spans in per_op.values()
                      if name[:-2] in spans]
            out[name] = statistics.median(values) if values else 0.0
        else:
            values = [c[name] for c in tr.counts.values() if name in c]
            out[name] = statistics.fmean(values) if values else 0.0
    return out


def stage_coverage(tr: Tracer) -> float:
    """Smallest share of an op root covered by its leaf (stage) spans."""
    children: dict[int, list[int]] = {}
    for idx, (name, start, end, parent, op) in enumerate(tr.spans):
        if parent is not None:
            children.setdefault(parent, []).append(idx)
    coverage = []
    for idx, (name, start, end, parent, op) in enumerate(tr.spans):
        if parent is None and name == "op":
            leaves = 0.0
            stack = list(children.get(idx, []))
            while stack:
                j = stack.pop()
                if j in children:
                    stack.extend(children[j])
                else:
                    leaves += tr.spans[j][2] - tr.spans[j][1]
            coverage.append(leaves / (end - start))
    return min(coverage) if coverage else 0.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "timed", "traced"))
    args = ap.parse_args()
    if os.path.dirname(os.path.abspath(rggham.__file__)) != os.path.join(SRC, "rggham"):
        print(f"rggham imported from {rggham.__file__}, not ./src", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        layer_names = [m["name"] for m in json.load(fh)["per_layer"]]

    wl = WORKLOADS[args.workload]()
    # the same warm-up instance on every run seed, so set-up is the same work
    warm, _ = timed_op(wl.run, wl.make_input(0, WARMUP))
    if warm.error is not None:
        print(f"warm-up op failed: {warm.error}", file=sys.stderr)
        return 1
    del warm
    setup_s = time.perf_counter() - T_START
    result = {"workload": wl.name, "mode": args.mode, "n": wl.n,
              "setup_s": setup_s,
              "setup_cal_s": [calibration_s()
                              for _ in range(SETUP_CALIBRATIONS)],
              "numpy": np.__version__, "python": sys.version.split()[0]}
    tally = Tally(wl.window)
    if args.mode != "setup":
        result.update(measure(wl, args, tally, layer_names))
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    tally.deep_checks()
    result.update(tally.to_json())
    print(json.dumps(result))
    return 0


def measure(wl, args, tally: Tally, layer_names: list[str]) -> dict:
    traced = args.mode == "traced"
    tr = Tracer()
    op_s, traced_s, matches = [], [], 0
    cal_s = [] if traced else [calibration_s()]
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < wl.window or time.perf_counter() < deadline:
        for _ in range(wl.round_size):
            inp = wl.make_input(args.seed, i)
            ans, dt = timed_op(wl.run, inp)
            op_s.append(dt)
            tally.add(wl, i, inp, ans)
            if not traced:
                cal_s.append(calibration_s())
            else:
                tr.op = i
                with tr.span("op"):
                    ans_t, dt_t = timed_op(wl.run_traced, tr, inp)
                tr.end_op()
                traced_s.append(dt_t)
                matches += ans_t.key() == ans.key()
            i += 1
    if not traced:
        return {"op_s": op_s, "cal_s": cal_s,
                "outcomes": tally.outcomes(op_s)}
    cli = CliRoundtrip()
    for k in range(wl.cli_rounds):
        inp = cli.make_input(args.seed, k)
        tr.op = f"cli.{k}"
        ans, _ = timed_op(cli.run_traced, tr, inp)
        tr.end_op()
        tally.add(cli, k, inp, ans)
    os.makedirs(".bench_out", exist_ok=True)
    tr.dump(os.path.join(".bench_out", f"spans_{wl.name}_{args.seed}.jsonl"))
    layer = {
        **tally.outcomes(op_s),
        "trace.overhead": sum(traced_s) / sum(op_s),
        "trace.replica_match": matches,
        "trace.ops": len(traced_s),
        "trace.stage_coverage": stage_coverage(tr),
    }
    ns_per_point = "hamiltonian.construct_ns_per_point"
    layer.update(layer_metrics(tr, [name for name in layer_names
                                    if name not in layer
                                    and name != ns_per_point]))
    layer[ns_per_point] = layer["hamiltonian.construct_cycle.s"] / wl.n * 1e9
    return {"op_s": op_s, "layer": layer}


if __name__ == "__main__":
    sys.exit(main())
