import dataclasses
import json
import math
import time

import pytest

from rggham import experiments
from rggham.cli import main
from rggham.experiments import (OUTCOME_CYCLE, OUTCOME_FAILURE,
                                SWEEP_CSV_HEADER, SweepConfig, SweepRow,
                                _encode_failures, run_trial, scaling_bench,
                                sweep, sweep_row_csv, write_sweep_csv,
                                write_sweep_json)
from rggham.failures import ConstructionError, FailureReason
from rggham.instance import ThresholdMultiple, resolve_radius

WORKING = dict(n=20000, p=2.0, r=0.45, seed=7)
DESK = dict(n=500, p=2.0)


def desk_r(mult):
    return resolve_radius(DESK["n"], DESK["p"], ThresholdMultiple(mult))


def test_run_trial_success_fields():
    t = run_trial(WORKING["n"], WORKING["p"], WORKING["r"], WORKING["seed"])
    assert t.outcome == OUTCOME_CYCLE
    assert t.failure_reason is None
    assert t.connected is True
    assert t.cells_per_side == 4
    assert t.wall_ms > 0.0
    assert t.n == WORKING["n"] and t.r == WORKING["r"] and t.seed == 7


def test_run_trial_failure_fields():
    # half the threshold radius at desk scale: about 100 vertices are
    # isolated, so no Hamiltonian cycle exists; the tessellation finds no
    # hook and the serpentine fallback gives up with one of its reasons
    t = run_trial(DESK["n"], DESK["p"], desk_r(0.5), seed=0)
    assert t.outcome == OUTCOME_FAILURE
    assert t.failure_reason in ("Disconnected", "EdgeTooLong")
    assert t.cells_per_side is None
    assert t.connected is False


def test_run_trial_split_augmented_graph_is_no_disconnected_row():
    # the augmented graph splits on this connected instance; the trial gets
    # its cycle from the fallback instead of a Disconnected row
    t = run_trial(10000, 1.0, 0.45, seed=0)
    assert t.outcome == OUTCOME_CYCLE
    assert t.failure_reason is None
    assert t.connected is True
    assert t.cells_per_side is None


@pytest.mark.parametrize("r", [1e-12, 1e-200, 5e-324])
def test_run_trial_takes_disconnected_as_its_certificate(monkeypatch, r):
    # the fallback's Disconnected names a vertex with no neighbour within r,
    # so no connectivity check runs; at these radii build_spatial_index
    # would refuse the grid, so a check would raise
    def no_check(idx):
        raise AssertionError("is_connected ran")

    monkeypatch.setattr(experiments, "is_connected", no_check)
    t = run_trial(10, 2.0, r, 0)
    assert t.outcome == OUTCOME_FAILURE
    assert t.failure_reason == "Disconnected"
    assert t.connected is False


@pytest.mark.parametrize("mult", [0.7, 1.0, 1.5])
def test_run_trial_builds_no_grid_after_the_fallback(monkeypatch, mult):
    # the fallback's failures carry their own connectivity verdict
    def no_grid(vs, r, p):
        raise AssertionError("run_trial built a grid")

    monkeypatch.setattr(experiments, "build_spatial_index", no_grid)
    n, p = 10 ** 4, 2.0
    r = resolve_radius(n, p, ThresholdMultiple(mult))
    reasons = set()
    for seed in range(3):
        t = run_trial(n, p, r, seed)
        reasons.add(t.failure_reason)
        assert t.connected is (t.failure_reason != "Disconnected")
    assert reasons & {"Disconnected", "EdgeTooLong"}


def test_run_trial_times_its_own_connectivity_check(monkeypatch):
    # a failure with no verdict sends the trial to is_connected; wall_ms is
    # the caller's whole wait, so it includes that check
    def no_verdict(points, p, r):
        raise ConstructionError(FailureReason.LEDGER_EXHAUSTED, {})

    def slow_check(idx):
        time.sleep(0.05)
        return True

    monkeypatch.setattr(experiments, "full_construction", no_verdict)
    monkeypatch.setattr(experiments, "is_connected", slow_check)
    t = run_trial(DESK["n"], DESK["p"], desk_r(1.0), seed=0)
    assert t.failure_reason == "LedgerExhausted" and t.connected is True
    assert t.wall_ms >= 50.0


def test_run_trial_deterministic_modulo_wall_time():
    a = run_trial(DESK["n"], DESK["p"], desk_r(1.0), seed=5)
    b = run_trial(DESK["n"], DESK["p"], desk_r(1.0), seed=5)
    strip = lambda t: dataclasses.replace(t, wall_ms=0.0)
    assert strip(a) == strip(b)


def test_trial_json_keys():
    t = run_trial(DESK["n"], DESK["p"], desk_r(0.5), seed=1)
    j = t.to_json()
    assert set(j) == {"n", "p", "r", "seed", "outcome", "failure_reason",
                      "connected", "wall_ms", "cells_per_side"}
    json.dumps(j)


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

def small_cfg(**kw):
    base = dict(ns=(300, 500), p=2.0, multipliers=(0.5, 2.0), trials=3)
    base.update(kw)
    return SweepConfig(**base)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        small_cfg(trials=0)
    with pytest.raises(ValueError):
        small_cfg(multipliers=(1.0, -2.0))


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_fewer_than_one_worker(workers, capsys):
    # a sweep asked for no workers is refused, not run serially
    with pytest.raises(ValueError, match="worker"):
        small_cfg(workers=workers)
    assert main(["sweep", "--ns", "300", "-p", "2", "--multipliers", "2",
                 "--trials", "1", "--workers", str(workers)]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "worker" in cap.err


def test_sweep_grid_order_and_accounting():
    rows = sweep(small_cfg())
    assert [(r.n, r.multiplier) for r in rows] == [
        (300, 0.5), (300, 2.0), (500, 0.5), (500, 2.0)]
    for row in rows:
        assert row.trials == 3
        assert row.cycle_verified + sum(row.failures_by_reason.values()) == 3
        assert 0 <= row.connected <= 3
        assert row.r == resolve_radius(row.n, 2.0, ThresholdMultiple(row.multiplier))
        assert row.p90_ms >= row.median_ms > 0.0
    # subcritical desk instances fall apart, supercritical ones connect
    assert rows[0].connected == 0
    assert rows[1].connected == 3


def test_sweep_seeds_follow_global_trial_index():
    base = 42
    rows = sweep(small_cfg(base_seed=base))
    # the (500, 2.0) cell is the fourth: its trials carry seeds base+9..11
    want = [run_trial(500, 2.0, rows[3].r, base + 9 + i) for i in range(3)]
    assert rows[3].cycle_verified == sum(t.outcome == OUTCOME_CYCLE for t in want)
    assert rows[3].connected == sum(t.connected for t in want)
    failures = {}
    for t in want:
        if t.failure_reason:
            failures[t.failure_reason] = failures.get(t.failure_reason, 0) + 1
    assert rows[3].failures_by_reason == failures


def test_sweep_cells_take_turns(monkeypatch):
    calls = []
    real = experiments.run_trial

    def spy(n, p, r, seed):
        calls.append((n, r, seed))
        return real(n, p, r, seed)

    monkeypatch.setattr(experiments, "run_trial", spy)
    rows = sweep(small_cfg(multipliers=(0.5, 2.0), trials=2, base_seed=10))
    r = [row.r for row in rows]
    # trial t of cell c keeps seed 10 + 2c + t; one trial of each cell a turn
    assert calls == [(300, r[0], 10), (300, r[1], 12), (500, r[2], 14),
                     (500, r[3], 16), (300, r[0], 11), (300, r[1], 13),
                     (500, r[2], 15), (500, r[3], 17)]


def test_sweep_parallel_matches_serial():
    strip = lambda r: dataclasses.replace(r, median_ms=0.0, p90_ms=0.0)
    serial = sweep(small_cfg(workers=1))
    parallel = sweep(small_cfg(workers=2))
    assert [strip(r) for r in serial] == [strip(r) for r in parallel]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no
    process and maps in this one."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("workers, ns, trials, pool", [
    (64, (300, 500), 1, [2]), (64, (300,), 1, []), (3, (300, 500), 3, [3])])
def test_sweep_starts_no_more_workers_than_trials(monkeypatch, workers, ns,
                                                  trials, pool):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    cfg = small_cfg(ns=ns, multipliers=(2.0,), trials=trials, workers=workers)
    rows = sweep(cfg)
    assert RecordingPool.sizes == pool
    strip = lambda r: dataclasses.replace(r, median_ms=0.0, p90_ms=0.0)
    serial = sweep(dataclasses.replace(cfg, workers=1))
    assert [strip(r) for r in rows] == [strip(r) for r in serial]


def test_sweep_row_with_verified_cycles():
    # far enough above threshold that cells genuinely reach the density
    # cut: the construction works and connectivity must agree
    rows = sweep(SweepConfig(ns=(15000,), p=2.0, multipliers=(31.0,), trials=1))
    assert len(rows) == 1
    row = rows[0]
    assert row.cycle_verified == 1
    assert row.failures_by_reason == {}
    assert row.cycle_verified <= row.connected


def test_sweep_empty_grids():
    assert sweep(small_cfg(ns=())) == []
    assert sweep(small_cfg(multipliers=())) == []


def test_sweep_csv_row_format():
    row = SweepRow(n=100, p=2.0, multiplier=1.5, r=0.25, trials=4,
                   cycle_verified=1, connected=3,
                   failures_by_reason={"HookMissing": 2, "Disconnected": 1},
                   median_ms=12.34567, p90_ms=20.0)
    assert sweep_row_csv(row) == (
        "100,2,1.5,0.25,4,1,3,Disconnected:1;HookMissing:2,12.346,20.000")
    assert _encode_failures({}) == ""
    assert SWEEP_CSV_HEADER == ("n,p,multiplier,r,trials,cycle_verified,"
                                "connected,failures_by_reason,median_ms,p90_ms")


def test_sweep_csv_has_one_column_per_field():
    row = SweepRow(n=100, p=2.0, multiplier=1.5, r=0.25, trials=4,
                   cycle_verified=1, connected=3,
                   failures_by_reason={"HookMissing": 2, "Disconnected": 1},
                   median_ms=12.34567, p90_ms=20.0)
    names = [f.name for f in dataclasses.fields(SweepRow)]
    assert SWEEP_CSV_HEADER.split(",") == names
    assert len(sweep_row_csv(row).split(",")) == len(names)


def test_sweep_file_writers(tmp_path):
    rows = sweep(small_cfg(ns=(300,), multipliers=(2.0,), trials=2))
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    write_sweep_csv(rows, csv_path)
    write_sweep_json(rows, json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[1:] == [sweep_row_csv(r) for r in rows]
    assert json.loads(json_path.read_text()) == [r.to_json() for r in rows]


# --------------------------------------------------------------------------
# scaling benchmark
# --------------------------------------------------------------------------

def test_bench_validates_sizes():
    with pytest.raises(ValueError):
        scaling_bench([2000, 1000], 2.0)
    with pytest.raises(ValueError):
        scaling_bench([1000, 1000], 2.0)
    with pytest.raises(ValueError):
        scaling_bench([500, 1000], 2.0)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trial"):
            scaling_bench([1000], 2.0, trials=trials)


def test_bench_rows_and_ratios():
    rows = scaling_bench([1000, 1300], 2.0, trials=2)
    assert [r.n for r in rows] == [1000, 1300]
    assert rows[0].ratio is None
    assert rows[1].ratio == pytest.approx(rows[1].median_ms / rows[0].median_ms)
    for row in rows:
        assert row.median_ms > 0.0
        assert row.r == resolve_radius(row.n, 2.0, ThresholdMultiple(2.0))
        json.dumps(row.to_json())


def test_bench_sizes_take_turns(monkeypatch):
    calls = []
    real = experiments.run_trial

    def spy(n, p, r, seed):
        calls.append((n, seed))
        return real(n, p, r, seed)

    monkeypatch.setattr(experiments, "run_trial", spy)
    scaling_bench([1000, 1300, 1700], 2.0, trials=2, base_seed=10)
    assert calls == [(1000, 10), (1300, 12), (1700, 14),
                     (1000, 11), (1300, 13), (1700, 15)]


def test_bench_single_size():
    rows = scaling_bench([1000], 2.0, trials=1)
    assert len(rows) == 1 and rows[0].ratio is None
