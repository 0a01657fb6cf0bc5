"""The traced benchmark (perfbench/spans.py) replays full_construction and
run_trial one stage at a time, through build_tessellation, classify_cells,
construct_cycle and the other stages' own signatures, which nothing else
outside the package calls. These tests run the replays on small inputs, so
that a change to one of those signatures fails here and not only in a
traced benchmark run. Nothing under perfbench/ is written: its modules are
imported without bytecode."""

import importlib
import math
import pathlib
import sys

import numpy as np
import pytest

from rggham.experiments import OUTCOME_CYCLE, OUTCOME_FAILURE
from rggham.failures import FailureReason
from rggham.hamiltonian import full_construction
from rggham.instance import threshold_radius

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("spans")


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_replayed_construction_is_full_construction(spans, p):
    pts = np.random.Generator(np.random.PCG64(0)).random((20000, 2))
    want = full_construction(pts, p, 0.45)
    tr = spans.Tracer()
    tr.op = 0
    got = spans.replay_full_construction(tr, pts, p, 0.45)
    assert np.array_equal(got.cycle, want.cycle)
    assert got.cells_per_side == want.cells_per_side is not None
    tr.end_op()     # runs _classification_counts
    assert tr.counts[0]["tessellation.cells"] > 0


@pytest.mark.parametrize("mult", [0.7, 2.0])
def test_replayed_trial_returns_its_tuple(spans, mult):
    tr = spans.Tracer()
    tr.op = 0
    r = mult * threshold_radius(5000, 2.0)
    outcome, reason, connected, k = spans.replay_run_trial(tr, 5000, 2.0, r, 0)
    assert outcome in (OUTCOME_CYCLE, OUTCOME_FAILURE)
    assert reason is None or reason in {f.value for f in FailureReason}
    assert isinstance(connected, bool)
    assert k is None or isinstance(k, int)
    tr.end_op()
