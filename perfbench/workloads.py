"""The benchmark workloads: inputs, the op a caller runs, checks.

Each workload makes its inputs from the run seed and an op index, so the
same seed gives the same instances. An op calls only the package's public
functions; the benchmark samples the points itself except where the public
call takes a seed (`run_trial`).

Why these two (see README.md for the layer map):
- cycle_large: one large instance per op in the only regime where the
  construction succeeds today; exercises every construction stage.
- threshold_sweep: the paper's regime and its Monte Carlo use; trials stop
  at a typed failure and the connectivity check dominates.

cycle_large's traced run also makes a few CLI round trips (CliRoundtrip),
so the command line and CSV layers are measured and checked too.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from rggham import cli
from rggham.experiments import OUTCOME_CYCLE, run_trial
from rggham.failures import ConstructionError, FailureReason
from rggham.hamiltonian import full_construction, verify_cycle
from rggham.instance import (ExplicitRadius, InstanceConfig,
                             ThresholdMultiple, VertexSet, resolve_radius,
                             sample_points)

from spans import Tracer, replay_full_construction, replay_run_trial

REASONS = [reason.value for reason in FailureReason]
# CLI exit code of each typed construction failure (10 and up)
REASON_BY_EXIT = {reason.exit_code: reason.value for reason in FailureReason}
# op index of the warm-up instance; disjoint from every timed op
WARMUP = 1 << 40


@dataclass
class Answer:
    """What one op returned, as the caller sees it."""

    verified: bool = False          # the op ended with a verified cycle
    cycle: np.ndarray | None = None
    reason: str | None = None       # FailureReason value of a typed failure
    valid: bool | None = None       # the package's own verdict on the cycle
    connected: bool | None = None
    cells_per_side: int | None = None
    wall_ms: float | None = None    # run_trial's built-in construction timer
    error: str | None = None        # exception other than ConstructionError
    exit_codes: tuple = ()          # CLI exit codes, in call order

    def failure(self) -> str | None:
        """Why this op counts as failed, or None for an answer."""
        if self.error is not None:
            return f"exception: {self.error}"
        if any(code != 0 and code not in REASON_BY_EXIT
               for code in self.exit_codes):
            return f"CLI exit codes {self.exit_codes}"
        if self.valid is False:
            return "returned cycle fails verify_cycle"
        if self.verified and self.connected is False:
            return "CycleVerified with connected=False"
        return None

    def key(self) -> bytes:
        """Bytes that identify the answer, for the fingerprint digest."""
        head = repr((self.verified, self.reason, self.connected,
                     self.cells_per_side, self.exit_codes)).encode()
        return head + (b"" if self.cycle is None else
                       np.ascontiguousarray(self.cycle, dtype=np.int64).tobytes())


def lp_hops(points: np.ndarray, p: float, cycle: np.ndarray) -> np.ndarray:
    """l_p length of every hop of the closed tour, computed here, not by the
    package."""
    d = np.abs(points[np.roll(cycle, -1)] - points[cycle])
    if p == math.inf:
        return d.max(axis=1)
    if p == 1.0:
        return d.sum(axis=1)
    return (d[:, 0] ** p + d[:, 1] ** p) ** (1.0 / p)


def is_hamiltonian_cycle(points: np.ndarray, p: float, r: float,
                         cycle: np.ndarray) -> bool:
    """Independent check: a permutation of 0..n-1 whose hops are all <= r.

    The relative slack of 1e-9 only absorbs last-digit differences between
    this formula and the package's scaled one.
    """
    n = len(points)
    cycle = np.asarray(cycle)
    if cycle.shape != (n,) or not np.issubdtype(cycle.dtype, np.integer):
        return False
    if not np.array_equal(np.sort(cycle), np.arange(n)):
        return False
    return bool((lp_hops(points, p, cycle) <= r * (1.0 + 1e-9)).all())


def components_oracle(points: np.ndarray, p: float, r: float) -> bool | None:
    """Connectivity by scipy's KD-tree, or None where scipy is missing."""
    try:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components
        from scipy.spatial import cKDTree
    except ImportError:
        return None
    n = len(points)
    pairs = cKDTree(points).query_pairs(r, p=p, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs), dtype=bool),
                        (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    count, _ = connected_components(graph, directed=False)
    return count == 1


def program_points(n: int, seed: int) -> np.ndarray:
    """The points `sample_points` documents for a seed: one PCG64 draw."""
    return np.random.Generator(np.random.PCG64(seed)).random((n, 2))


class Workload:
    name: str
    n: int
    round_size: int   # ops between time checks, so every mix is balanced
    window: int       # first ops every run makes; checked and fingerprinted
    deep_checks = False  # whether deep_problems() has checks to make
    cli_rounds = 0    # CLI round trips the traced run makes after its ops

    def make_input(self, seed: int, i: int):
        raise NotImplementedError

    def run(self, inp) -> Answer:
        raise NotImplementedError

    def run_traced(self, tr: Tracer, inp) -> Answer:
        raise NotImplementedError

    def problems(self, inp, ans: Answer) -> list[str]:
        """Claims of the program that the benchmark's own checks refute."""
        return []

    def deep_problems(self, inp, ans: Answer) -> list[str]:
        """Costlier checks, made on the window ops after peak memory is read,
        so their allocations do not count as the program's."""
        return []

    def input_key(self, inp) -> bytes:
        raise NotImplementedError


@dataclass(frozen=True)
class PointsInput:
    p: float
    r: float
    points: np.ndarray


class CycleLarge(Workload):
    name = "cycle_large"
    n = 400_000
    combos = [(p, r) for p in (1.0, 2.0, 3.0, math.inf) for r in (0.2, 0.1)]
    round_size = len(combos)
    window = 2 * len(combos)
    cli_rounds = 3

    def make_input(self, seed, i):
        p, r = self.combos[i % len(self.combos)]
        rng = np.random.Generator(np.random.PCG64([seed, i]))
        return PointsInput(p, r, rng.random((self.n, 2)))

    def run(self, inp):
        return self._op(inp, full_construction, verify_cycle)

    def run_traced(self, tr, inp):
        return self._op(
            inp, lambda *args: replay_full_construction(tr, *args),
            tr.wrap("hamiltonian.verify_cycle", verify_cycle))

    def _op(self, inp, construct, verify):
        try:
            out = construct(inp.points, inp.p, inp.r)
        except ConstructionError as exc:
            return Answer(reason=exc.reason.value)
        report = verify(inp.points, inp.r, inp.p, out.cycle)
        return Answer(verified=report.valid, cycle=out.cycle,
                      valid=report.valid, cells_per_side=out.cells_per_side)

    def problems(self, inp, ans):
        out = []
        if ans.reason is not None and ans.reason not in REASONS:
            out.append(f"unknown failure reason {ans.reason}")
        if ans.cycle is not None:
            ok = is_hamiltonian_cycle(inp.points, inp.p, inp.r, ans.cycle)
            if not ok:
                out.append("returned cycle is not a Hamiltonian cycle")
            if ok != ans.valid:
                out.append(f"verify_cycle said {ans.valid}, the check {ok}")
        return out

    def input_key(self, inp):
        return repr((inp.p, inp.r)).encode() + inp.points.tobytes()


@dataclass(frozen=True)
class TrialInput:
    multiplier: float
    r: float
    seed: int


class ThresholdSweep(Workload):
    """run_trial calls in the order sweep(workers=1) issues them: each round
    is sweep(ns=(n,), multipliers, trials=1) with base seed base + 4 * round,
    so trial i gets seed base + i."""

    name = "threshold_sweep"
    n = 50_000
    p = 2.0
    multipliers = (0.7, 1.0, 1.5, 2.0)
    round_size = len(multipliers)
    window = 2 * len(multipliers)
    deep_checks = True

    def make_input(self, seed, i):
        mult = self.multipliers[i % len(self.multipliers)]
        r = resolve_radius(self.n, self.p, ThresholdMultiple(mult))
        return TrialInput(mult, r, seed * 1_000_000 + i)

    def _answer(self, outcome, reason, connected, k, wall_ms=None):
        return Answer(verified=outcome == OUTCOME_CYCLE, reason=reason,
                      connected=connected, cells_per_side=k, wall_ms=wall_ms)

    def run(self, inp):
        res = run_trial(self.n, self.p, inp.r, inp.seed)
        return self._answer(res.outcome, res.failure_reason, res.connected,
                            res.cells_per_side, res.wall_ms)

    def run_traced(self, tr, inp):
        return self._answer(*replay_run_trial(tr, self.n, self.p, inp.r,
                                              inp.seed))

    def _points(self, inp):
        cfg = InstanceConfig(n=self.n, p=self.p, radius=ExplicitRadius(inp.r),
                             seed=inp.seed)
        return sample_points(cfg).points

    def problems(self, inp, ans):
        if ans.reason is not None and ans.reason not in REASONS:
            return [f"unknown failure reason {ans.reason}"]
        return []

    def deep_problems(self, inp, ans):
        out = []
        pts = self._points(inp)
        if not np.array_equal(pts, program_points(self.n, inp.seed)):
            out.append("sample_points is not the documented PCG64 draw")
        truth = components_oracle(pts, self.p, inp.r)
        if truth is not None and truth != ans.connected:
            out.append(f"is_connected said {ans.connected}, oracle {truth}")
        return out

    def input_key(self, inp):
        return (repr((self.n, self.p, inp.r, inp.seed)).encode()
                + self._points(inp).tobytes())


@dataclass(frozen=True)
class CliInput:
    seed: int
    points_csv: str
    cycle_txt: str
    copy_csv: str


class CliRoundtrip(Workload):
    """`rggham gen -o`, `ham --points -o` and `verify` through cli.main, in
    process, as a user of the command line runs them; then the points file
    is read back and rewritten through VertexSet, so the CSV layer gets its
    own spans. Traced only: it runs at the end of cycle_large's traced run.

    Files go to .bench_out/cli/ and are overwritten by the next round trip.
    """

    name = "cli_roundtrip"
    n = 100_000
    p = 2.0
    r = 0.2
    window = 1 << 30    # every round trip is fingerprinted

    def make_input(self, seed, i):
        out = os.path.join(".bench_out", "cli")
        os.makedirs(out, exist_ok=True)
        return CliInput(seed * 1_000_000 + i,
                        *(os.path.join(out, name) for name in
                          ("points.csv", "cycle.txt", "copy.csv")))

    def run_traced(self, tr, inp):
        norm = ["-p", repr(self.p), "--radius", repr(self.r)]
        calls = [
            ("cli.gen", ["gen", "-n", str(self.n), *norm,
                         "--seed", str(inp.seed), "-o", inp.points_csv]),
            ("cli.ham", ["ham", "--points", inp.points_csv, *norm,
                         "-o", inp.cycle_txt]),
            ("cli.verify", ["verify", "--points", inp.points_csv,
                            "--cycle", inp.cycle_txt, *norm]),
        ]
        for path in (inp.points_csv, inp.cycle_txt, inp.copy_csv):
            if os.path.exists(path):
                os.remove(path)    # no check may read a past round's file
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for span, argv in calls:
                with tr.span(span):
                    codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
        ans = Answer(exit_codes=tuple(codes),
                     reason=REASON_BY_EXIT.get(codes[1]) if len(codes) > 1
                     else None)
        if codes[0] != 0:
            return ans
        tr.count("cli.bytes_written", os.path.getsize(inp.points_csv)
                 + (os.path.getsize(inp.cycle_txt) if len(codes) > 2 else 0))
        with tr.span("instance.from_csv"):
            vs = VertexSet.from_csv(inp.points_csv)
        with tr.span("instance.to_csv"):
            vs.to_csv(inp.copy_csv)
        if len(codes) > 2:
            with open(inp.cycle_txt, encoding="ascii") as fh:
                ans.cycle = np.array(fh.read().split(), dtype=np.int64)
            ans.valid = ans.verified = codes[2] == 0
        return ans

    def problems(self, inp, ans):
        out = []
        if ans.exit_codes[0] != 0:
            return out    # a failed op, counted as such
        if not os.path.exists(inp.points_csv):
            return ["gen exited 0 but wrote no points file"]
        pts = np.loadtxt(inp.points_csv, delimiter=",", skiprows=1, ndmin=2)
        if not np.array_equal(pts, program_points(self.n, inp.seed)):
            out.append("gen's points are not the documented PCG64 draw")
        if os.path.exists(inp.copy_csv) and not _same_bytes(inp.points_csv,
                                                            inp.copy_csv):
            out.append("to_csv(from_csv(points file)) differs from the file")
        if ans.cycle is not None:
            ok = is_hamiltonian_cycle(pts, self.p, self.r, ans.cycle)
            if ok != ans.valid:
                out.append(f"verify exited {ans.exit_codes[2]}, the check {ok}")
        return out

    def input_key(self, inp):
        head = repr((self.n, self.p, self.r, inp.seed)).encode()
        if not os.path.exists(inp.points_csv):
            return head
        with open(inp.points_csv, "rb") as fh:
            return head + fh.read()


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


WORKLOADS = {w.name: w for w in (CycleLarge, ThresholdSweep)}
