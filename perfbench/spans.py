"""In-memory span recorder and traced replays of the package's single calls.

A span is (name, start, end, parent, op): perf_counter seconds, the index of
the enclosing span (None at the op root) and the id of the op it belongs to.
Spans are recorded only from benchmark code, around calls into the package's
public functions, and written out when the traced run ends.

`full_construction` and `run_trial` are single calls, so the traced run
replays their steps one public function at a time. The replay mirrors the
package code as it stands; the benchmark compares its answer with the real
call on the same instance (`trace.replica_match`), so a breakdown that has
gone stale shows up as a mismatch rather than as silently wrong numbers.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

from rggham.auxgraphs import (attach_sparse_groups, build_density_graph,
                              euler_traversal, spanning_tree)
from rggham.experiments import OUTCOME_CYCLE, OUTCOME_FAILURE
from rggham.failures import ConstructionError
from rggham.geometry import unit_disk_area, validate_p
from rggham.hamiltonian import ConstructionOutcome, construct_cycle
from rggham.instance import (ExplicitRadius, InstanceConfig, VertexSet,
                             build_spatial_index, is_connected, sample_points)
from rggham.tessellation import (MIN_CELLS_PER_SIDE, build_tessellation,
                                 choose_cells_per_side, classify_cells)


class Tracer:
    """Collects spans and per-op counts; nothing leaves memory until dump()."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._deferred: list = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(self.op, {})[name] = float(value)

    def defer(self, counter) -> None:
        """Run counter() after the op ends, outside its spans; it returns a
        dict of counts."""
        self._deferred.append(counter)

    def end_op(self) -> None:
        for counter in self._deferred:
            for name, value in counter().items():
                self.count(name, value)
        self._deferred.clear()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _classification_counts(cls, n: int) -> dict[str, float]:
    occupied = cls.counts > 0
    dense = int(cls.dense_mask.sum())
    return {
        "tessellation.cells": cls.counts.size,
        "tessellation.cells_per_point": cls.counts.size / n,
        "tessellation.computed_bytes": sum(
            a.nbytes for a in (cls.counts, cls.order, cls.starts,
                               cls.dense_mask, cls.square_vertex_count,
                               cls.square_dense_count)),
        "tessellation.dense_cells": dense,
        "tessellation.sparse_cells": int(occupied.sum()) - dense,
        "tessellation.empty_cells": int((~occupied).sum()),
    }


def replay_full_construction(tr: Tracer, points, p: float,
                             r: float) -> ConstructionOutcome:
    """full_construction, one span per stage (the r <= 1 path only)."""
    p = validate_p(p)
    n = len(points)
    if not 0.0 < r <= 1.0 or n < 3:
        raise ValueError("the traced replay covers only 0 < r <= 1, n >= 3")
    with tr.span("tessellation.choose_cells_per_side"):
        eps = unit_disk_area(p) - math.log(n) / (r * r * n)
        if eps > 0.0:
            cells_per_square, _ = choose_cells_per_side(p, eps)
        else:
            cells_per_square = MIN_CELLS_PER_SIDE
    with tr.span("tessellation.build_tessellation"):
        t = build_tessellation(p, r, cells_per_square)
    with tr.span("tessellation.classify_cells"):
        cls = classify_cells(t, VertexSet(points))
    tr.defer(lambda: _classification_counts(cls, n))
    with tr.span("auxgraphs.build_density_graph"):
        dg = build_density_graph(t, cls)
    tr.count("auxgraphs.dense_squares", len(dg.square_ids))
    with tr.span("auxgraphs.attach_sparse_groups"):
        ag = attach_sparse_groups(t, cls, dg)
    tr.count("auxgraphs.group_nodes", len(ag.groups))
    with tr.span("auxgraphs.spanning_tree"):
        tree = spanning_tree(ag)
    with tr.span("auxgraphs.euler_traversal"):
        order = euler_traversal(tree)
    tr.count("auxgraphs.euler_len", len(order))
    with tr.span("hamiltonian.construct_cycle"):
        cycle = construct_cycle(points, t, cls, ag, order)
    return ConstructionOutcome(cycle, cells_per_square)


def replay_run_trial(tr: Tracer, n: int, p: float, r: float, seed: int):
    """run_trial's steps; returns (outcome, failure_reason, connected, k)."""
    with tr.span("experiments.run_trial"):
        cfg = InstanceConfig(n=n, p=p, radius=ExplicitRadius(r), seed=seed)
        with tr.span("instance.sample_points"):
            vs = sample_points(cfg)
        reason = None
        k = None
        try:
            k = replay_full_construction(tr, vs.points, p, r).cells_per_side
        except ConstructionError as exc:
            reason = exc.reason.value
        with tr.span("instance.build_spatial_index"):
            idx = build_spatial_index(vs, r, p)
        tr.count("instance.bucket_occupancy", n / (idx.side * idx.side))
        with tr.span("instance.is_connected"):
            connected = is_connected(idx)
    outcome = OUTCOME_FAILURE if reason else OUTCOME_CYCLE
    return outcome, reason, connected, k
