"""Monte Carlo trials, threshold sweeps, and the scaling benchmark.

A trial samples an instance, times everything after sampling (the
construction pipeline through the verified cycle or the typed failure,
and any connectivity check of its own), and records either the verified
cycle or the typed failure, and whether the graph is connected. Near the
threshold no tessellation cell can hold the 48 points a dense cell needs;
full_construction sees that from one count of the points per block of
squares and goes straight to the serpentine fallback. A verified cycle
certifies connectivity, and the fallback's failures carry their own
verdict: Disconnected certifies the opposite (a vertex with no neighbour
within r, or the connectivity check, union-find over the occupied cells of
a sparse grid, see instance.py), and EdgeTooLong says connected: true. The
fallback runs that check on the grid its repair already reads, so a trial
buckets the points once for the fallback and, where it runs, once for the
tessellation, each by instance.occupied_cells. The fallback tests for an
isolated vertex before it repairs anything, so at and below the threshold,
where almost every instance has one, a failed trial ends without the
check. Where the check runs, it pairs farther points, searching only from
the vertices outside the largest component, one row offset at a time. A
sweep aggregates trials per (n, radius multiplier) pair into one summary
row; trial seeds are assigned from a single base seed by global trial
index so any trial can be reproduced in isolation.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .failures import ConstructionError, FailureReason
from .hamiltonian import full_construction
from .instance import (ExplicitRadius, InstanceConfig, ThresholdMultiple,
                       build_spatial_index, is_connected, resolve_radius,
                       sample_points)

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
        return {"n": self.n, "p": self.p, "r": self.r, "seed": self.seed,
                "outcome": self.outcome, "failure_reason": self.failure_reason,
                "connected": self.connected, "wall_ms": self.wall_ms,
                "cells_per_side": self.cells_per_side}


def run_trial(n: int, p: float, r: float, seed: int) -> TrialResult:
    """One sampled instance through the pipeline; never raises on failure.

    connected is True for a verified cycle (a Hamiltonian cycle spans a
    connected graph), False for a Disconnected failure, and True for a
    failure whose context says connected: true. full_construction raises
    Disconnected only from its fallback, which certifies it: a vertex with
    no neighbour within r among n >= 3 vertices, or is_connected's answer
    on its grid. Before it gives up at EdgeTooLong the fallback runs that
    check, and says connected: true, so the trial builds no grid of its
    own. It does build one, for is_connected, after a failure with no
    verdict: LedgerExhausted and the fallback's self check, both logic
    errors, and EdgeTooLong below about 6.6e-10 (p = 2), where the
    fallback's grid does not resolve r. There build_spatial_index raises
    ValueError; sampled points only get that far with two of them within
    r, which at such radii almost never happens. wall_ms is the whole wait
    after sampling, that check included.
    """
    import time

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
        return {"n": self.n, "p": self.p, "multiplier": self.multiplier,
                "r": self.r, "trials": self.trials,
                "cycle_verified": self.cycle_verified,
                "connected": self.connected,
                "failures_by_reason": dict(self.failures_by_reason),
                "median_ms": self.median_ms, "p90_ms": self.p90_ms}


SWEEP_CSV_HEADER = ("n,p,multiplier,r,trials,cycle_verified,connected,"
                    "failures_by_reason,median_ms,p90_ms")


def _encode_failures(failures: dict) -> str:
    return ";".join(f"{reason}:{count}"
                    for reason, count in sorted(failures.items()))


def sweep_row_csv(row: SweepRow) -> str:
    return ",".join([
        str(row.n), f"{row.p:g}", f"{row.multiplier:g}", f"{row.r:.17g}",
        str(row.trials), str(row.cycle_verified), str(row.connected),
        _encode_failures(row.failures_by_reason),
        f"{row.median_ms:.3f}", f"{row.p90_ms:.3f}",
    ])


def _trial_task(args: tuple) -> TrialResult:
    n, p, r, seed = args
    return run_trial(n, p, r, seed)


def sweep(cfg: SweepConfig) -> list[SweepRow]:
    """Full grid of (n, multiplier) cells, trials per cell, aggregated rows.

    Seeds run base_seed, base_seed + 1, ... in (n, multiplier, trial)
    lexicographic order, so the global index of a trial pins its seed.
    """
    tasks = []
    for n in cfg.ns:
        for mult in cfg.multipliers:
            r = resolve_radius(n, cfg.p, ThresholdMultiple(mult))
            for t in range(cfg.trials):
                seed = cfg.base_seed + len(tasks)
                tasks.append((n, cfg.p, r, seed))

    # a fork pool starts all its processes at once: no more than tasks
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_task, tasks, chunksize=1))
    else:
        results = [_trial_task(t) for t in tasks]

    rows = []
    idx = 0
    for n in cfg.ns:
        for mult in cfg.multipliers:
            chunk = results[idx:idx + cfg.trials]
            idx += cfg.trials
            walls = np.array([t.wall_ms for t in chunk])
            failures: dict[str, int] = {}
            for t in chunk:
                if t.failure_reason is not None:
                    failures[t.failure_reason] = failures.get(t.failure_reason, 0) + 1
            rows.append(SweepRow(
                n=n, p=cfg.p, multiplier=mult, r=chunk[0].r, trials=cfg.trials,
                cycle_verified=sum(t.outcome == OUTCOME_CYCLE for t in chunk),
                connected=sum(t.connected for t in chunk),
                failures_by_reason=failures,
                median_ms=float(np.median(walls)),
                p90_ms=float(np.percentile(walls, 90)),
            ))
    return rows


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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
        return {"n": self.n, "r": self.r, "median_ms": self.median_ms,
                "ratio": self.ratio}


def scaling_bench(ns: list[int], p: float, multiplier: float = 2.0,
                  trials: int = 3, base_seed: int = 0) -> list[BenchRow]:
    """Median construction wall time per n, with consecutive-size ratios.

    Sizes must be ascending and at least 1000 so per-trial noise does not
    swamp the medians. Timing covers the construction pipeline only, the
    fallback's connectivity check included where it gives up. The
    sizes take turns, one trial each, so a spell of slower machine moves
    every size alike instead of one size's median; trial i of the j-th size
    gets seed base_seed + j * trials + i.
    """
    if list(ns) != sorted(set(ns)):
        raise ValueError("bench sizes must be strictly ascending")
    if any(n < 1000 for n in ns):
        raise ValueError("bench sizes below 1000 are all noise")
    if trials < 1:
        raise ValueError("bench needs at least one trial per size")
    radii = [resolve_radius(n, p, ThresholdMultiple(multiplier)) for n in ns]
    walls: list[list[float]] = [[] for _ in ns]
    for i in range(trials):
        for j, (n, r) in enumerate(zip(ns, radii)):
            seed = base_seed + j * trials + i
            walls[j].append(run_trial(n, p, r, seed).wall_ms)
    rows: list[BenchRow] = []
    prev = None
    for n, r, w in zip(ns, radii, walls):
        med = float(np.median(w))
        rows.append(BenchRow(n=n, r=r, median_ms=med,
                             ratio=None if prev is None else med / prev))
        prev = med
    return rows
