"""Monte Carlo trials, threshold sweeps, and the scaling benchmark.

A trial samples an instance, times everything after sampling, and records
the verified cycle or the typed failure, and whether the graph is
connected; run_trial says where each connectivity verdict comes from. A
sweep aggregates trials per (n, radius multiplier) cell into one summary
row; the cells take turns, one trial each, and each trial's seed follows
from the base seed, its cell and its index, so any trial can be
reproduced in isolation. The scaling benchmark is a sweep at one
multiplier, with the ratios of consecutive medians. Each record is
serialized field by field (dataclasses.asdict), so a field added to it
reaches its JSON, and for a sweep row its CSV column, with no second list.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .failures import ConstructionError, FailureReason
from .hamiltonian import full_construction
from .instance import (ExplicitRadius, InstanceConfig, ThresholdMultiple,
                       build_spatial_index, is_connected, open_output,
                       resolve_radius, sample_points)

OUTCOME_CYCLE = "CycleVerified"
OUTCOME_FAILURE = "Failure"


@dataclass(frozen=True)
class TrialResult:
    """One trial. cells_per_side is the tessellation's subdivision when the
    cycle came from the tessellation path, and None otherwise: on a failure,
    and on a cycle from the serpentine fallback."""

    n: int
    p: float
    r: float
    seed: int
    outcome: str
    failure_reason: str | None
    connected: bool
    wall_ms: float
    cells_per_side: int | None

    def to_json(self) -> dict:
        return asdict(self)


def run_trial(n: int, p: float, r: float, seed: int) -> TrialResult:
    """One sampled instance through the pipeline; never raises on failure.

    connected is True for a verified cycle (a Hamiltonian cycle spans a
    connected graph), False for a Disconnected failure, and True for a
    failure whose context says connected: true. full_construction raises
    Disconnected only from its fallback, which certifies it: a vertex with
    no neighbour within r among n >= 3 vertices, or is_connected's answer
    on its grid, which it hands its tour. Before it gives up at EdgeTooLong
    the fallback runs that check, and says connected: true, so the trial
    builds no grid of its own. It does build one, for is_connected with no
    tour, after a failure with no verdict: LedgerExhausted and the
    fallback's self check, both logic errors, and EdgeTooLong below about
    6.6e-10 (p = 2), where the fallback's grid does not resolve r. There
    build_spatial_index raises ValueError; sampled points only get that
    far with two of them within r, which at such radii almost never
    happens. wall_ms is the whole wait after sampling, that check
    included.
    """
    cfg = InstanceConfig(n=n, p=p, radius=ExplicitRadius(r), seed=seed)
    vs = sample_points(cfg)
    t0 = time.perf_counter()
    reason = k = None
    try:
        k = full_construction(vs.points, p, r).cells_per_side
        connected = True
    except ConstructionError as exc:
        reason = exc.reason.value
        connected = (False if exc.reason is FailureReason.DISCONNECTED
                     else exc.context.get("connected"))
    if connected is None:
        connected = is_connected(build_spatial_index(vs, r, p))
    wall_ms = (time.perf_counter() - t0) * 1e3
    return TrialResult(n=n, p=p, r=r, seed=seed,
                       outcome=OUTCOME_FAILURE if reason else OUTCOME_CYCLE,
                       failure_reason=reason, connected=connected,
                       wall_ms=wall_ms, cells_per_side=k)


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    ns: tuple
    p: float
    multipliers: tuple
    trials: int
    base_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("sweep needs at least one trial per cell")
        if any(m <= 0 for m in self.multipliers):
            raise ValueError("radius multipliers must be positive")
        if self.workers < 1:
            raise ValueError("sweep needs at least one worker")


@dataclass(frozen=True)
class SweepRow:
    n: int
    p: float
    multiplier: float
    r: float
    trials: int
    cycle_verified: int
    connected: int
    failures_by_reason: dict
    median_ms: float
    p90_ms: float

    def to_json(self) -> dict:
        return asdict(self)


SWEEP_CSV_HEADER = ",".join(f.name for f in fields(SweepRow))
# the CSV format of each SweepRow field that str() does not print as wanted
_CSV_FORMATS = {"p": "g", "multiplier": "g", "r": ".17g",
                "median_ms": ".3f", "p90_ms": ".3f"}


def _encode_failures(failures: dict) -> str:
    return ";".join(f"{reason}:{count}"
                    for reason, count in sorted(failures.items()))


def sweep_row_csv(row: SweepRow) -> str:
    """One column per SweepRow field, in SWEEP_CSV_HEADER's order."""
    cols = asdict(row)
    cols["failures_by_reason"] = _encode_failures(row.failures_by_reason)
    return ",".join(format(v, _CSV_FORMATS.get(k, ""))
                    for k, v in cols.items())


def _trial_task(args: tuple) -> TrialResult:
    n, p, r, seed = args
    return run_trial(n, p, r, seed)


def sweep(cfg: SweepConfig) -> list[SweepRow]:
    """Full grid of (n, multiplier) cells, trials per cell, aggregated rows.

    The cells take turns, one trial each, so a spell of slower machine moves
    every cell alike instead of one cell's median. Trial t of the c-th cell
    in (n, multiplier) lexicographic order gets seed
    base_seed + c * trials + t: the seeds run base_seed, base_seed + 1, ...
    cell by cell.
    """
    cells = [(n, mult, resolve_radius(n, cfg.p, ThresholdMultiple(mult)))
             for n in cfg.ns for mult in cfg.multipliers]
    tasks = [(n, cfg.p, r, cfg.base_seed + c * cfg.trials + t)
             for t in range(cfg.trials) for c, (n, _, r) in enumerate(cells)]

    # a fork pool starts all its processes at once: no more than tasks
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_task, tasks, chunksize=1))
    else:
        results = [_trial_task(t) for t in tasks]

    rows = []
    for c, (n, mult, r) in enumerate(cells):
        chunk = results[c::len(cells)]
        walls = [t.wall_ms for t in chunk]
        rows.append(SweepRow(
            n=n, p=cfg.p, multiplier=mult, r=r, trials=cfg.trials,
            cycle_verified=sum(t.outcome == OUTCOME_CYCLE for t in chunk),
            connected=sum(t.connected for t in chunk),
            failures_by_reason=dict(Counter(
                t.failure_reason for t in chunk if t.failure_reason)),
            median_ms=float(np.median(walls)),
            p90_ms=float(np.percentile(walls, 90)),
        ))
    return rows


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    """The header and one line per row, to a path or an open text stream."""
    with open_output(path) as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for row in rows:
            fh.write(sweep_row_csv(row) + "\n")


def write_sweep_json(rows: list[SweepRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([row.to_json() for row in rows], fh, indent=2)
        fh.write("\n")


# --------------------------------------------------------------------------
# scaling benchmark
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchRow:
    n: int
    r: float
    median_ms: float
    ratio: float | None  # median / previous median, None on the first row

    def to_json(self) -> dict:
        return asdict(self)


def scaling_bench(ns: list[int], p: float, multiplier: float = 2.0,
                  trials: int = 3, base_seed: int = 0) -> list[BenchRow]:
    """Median trial wall time per n, with consecutive-size ratios.

    Sizes must be ascending and at least 1000 so per-trial noise does not
    swamp the medians. The rows are those of a sweep over the sizes at one
    multiplier: each median is of run_trial's wall_ms, the sizes take turns,
    and trial i of the j-th size gets seed base_seed + j * trials + i.
    """
    if list(ns) != sorted(set(ns)):
        raise ValueError("bench sizes must be strictly ascending")
    if any(n < 1000 for n in ns):
        raise ValueError("bench sizes below 1000 are all noise")
    rows = sweep(SweepConfig(ns=tuple(ns), p=p, multipliers=(multiplier,),
                             trials=trials, base_seed=base_seed))
    return [BenchRow(n=row.n, r=row.r, median_ms=row.median_ms,
                     ratio=None if prev is None
                     else row.median_ms / prev.median_ms)
            for prev, row in zip([None] + rows, rows)]
