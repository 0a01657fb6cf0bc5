"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Every test prints an ``ACCEPTANCE <k> PASS|FAIL`` line outside pytest's
capture so the verdicts are visible in any run, then asserts. A FAIL line is
an honest outcome: the suite measures what the package actually does at
desk-scale n. The paper's density machinery only engages when cells hold
48+ vertices; near the threshold (acceptance 2, 4 and 5) the cycles come
from the serpentine fallback instead (see README for the regimes).
"""

import math
import time
from collections import Counter

import numpy as np
from scipy import integrate

from helpers import augmented_nodes
from rggham.auxgraphs import (attach_sparse_groups, build_density_graph,
                              euler_traversal, spanning_tree)
from rggham.experiments import scaling_bench
from rggham.failures import ConstructionError
from rggham.geometry import (Box, lp_distance, lp_norms, max_box_distance,
                             unit_disk_area)
from rggham.hamiltonian import construct_cycle, full_construction, verify_cycle
from rggham.instance import (VertexSet, build_spatial_index, is_connected,
                             threshold_radius)
from rggham.tessellation import (DENSE_THRESHOLD, MAX_FRIENDS, classify_cells,
                                 quadrant_close_count, tessellation_for)

NORMS = (1.0, 2.0, math.inf)


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"acceptance {num}: {detail}"


def points(n, seed):
    return np.random.Generator(np.random.PCG64(seed)).random((n, 2))


def _norm_name(p):
    return "inf" if math.isinf(p) else f"{p:g}"


# --------------------------------------------------------------------------
# 1: unit disk area constants vs quadrature
# --------------------------------------------------------------------------

def test_acceptance_1_disk_area(capsys):
    t0 = time.perf_counter()
    ok = abs(unit_disk_area(2.0) - math.pi) <= 1e-12
    ok &= abs(unit_disk_area(math.inf) - 4.0) <= 1e-12
    worst = 0.0
    for p in (1.0, 1.5, 2.0, 3.0, 10.0):
        # area = 4 * integral of the first-quadrant arc
        quad, _ = integrate.quad(lambda x: (1.0 - x ** p) ** (1.0 / p),
                                 0.0, 1.0, epsabs=1e-10, epsrel=1e-10)
        err = abs(unit_disk_area(p) - 4.0 * quad)
        worst = max(worst, err)
        ok &= err <= 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _verdict(capsys, 1, ok,
             f"max quadrature error {worst:.2e}, {elapsed * 1e3:.0f} ms")


# --------------------------------------------------------------------------
# 2: supercritical construction success rate
# --------------------------------------------------------------------------

def _supercritical_trials(p, n, trials, seed_base):
    r = 2.0 * threshold_radius(n, p)
    verified = 0
    reasons = Counter()
    slowest = 0.0
    for i in range(trials):
        pts = points(n, seed_base + i)
        t0 = time.perf_counter()
        try:
            out = full_construction(pts, p, r)
        except ConstructionError as exc:
            reasons[exc.reason.value] += 1
        else:
            if verify_cycle(pts, r, p, out.cycle).valid:   # zero tolerance
                verified += 1
        slowest = max(slowest, time.perf_counter() - t0)
    return verified, reasons, slowest


def test_acceptance_2_supercritical_success(capsys):
    n, trials = 10 ** 4, 100
    parts = []
    reasons = Counter()
    ok = True
    slowest = 0.0
    for pi, p in enumerate(NORMS):
        verified, why, slow = _supercritical_trials(p, n, trials, 10000 * pi)
        parts.append(f"p={_norm_name(p)}: {verified}/{trials}")
        reasons.update(why)
        slowest = max(slowest, slow)
        ok &= verified >= 95
    ok &= slowest <= 2.0
    detail = (f"CycleVerified {', '.join(parts)} (need >= 95); "
              f"failures {dict(reasons)}; slowest trial {slowest:.3f} s")
    _verdict(capsys, 2, ok, detail)


# --------------------------------------------------------------------------
# 3: subcritical disconnection
# --------------------------------------------------------------------------

def test_acceptance_3_subcritical_failure(capsys):
    n, trials = 10 ** 4, 100
    r = 0.7 * threshold_radius(n, 2.0)
    both = 0
    for i in range(trials):
        pts = points(n, 30000 + i)
        failed = False
        try:
            full_construction(pts, 2.0, r)
        except ConstructionError:
            failed = True
        connected = is_connected(build_spatial_index(VertexSet(pts), r, 2.0))
        both += failed and not connected
    ok = both >= 90
    _verdict(capsys, 3, ok,
             f"{both}/{trials} trials disconnected and Failure (need >= 90)")


# --------------------------------------------------------------------------
# 4: success fraction brackets the threshold
# --------------------------------------------------------------------------

def test_acceptance_4_sharpness_bracket(capsys):
    n, trials = 5 * 10 ** 4, 50
    mults = (0.7, 1.0, 1.5, 2.0)
    fractions = []
    for mi, mult in enumerate(mults):
        r = mult * threshold_radius(n, 2.0)
        good = 0
        for i in range(trials):
            pts = points(n, 40000 + mi * trials + i)
            try:
                full_construction(pts, 2.0, r)
                good += 1
            except ConstructionError:
                pass
        fractions.append(good / trials)
    ok = all(b >= a - 0.15 for a, b in zip(fractions, fractions[1:]))
    ok &= fractions[0] <= 0.3
    ok &= fractions[-1] >= 0.9
    detail = " ".join(f"{m:g}:{f:.2f}" for m, f in zip(mults, fractions))
    _verdict(capsys, 4, ok,
             f"success fraction by multiplier {detail} "
             f"(need <= 0.3 at 0.7, >= 0.9 at 2.0, nondecreasing +-0.15)")


# --------------------------------------------------------------------------
# 5: linear time scaling
# --------------------------------------------------------------------------

def test_acceptance_5_linear_scaling(capsys):
    t0 = time.perf_counter()
    rows = scaling_bench([10 ** 5, 2 * 10 ** 5, 4 * 10 ** 5], 2.0,
                         multiplier=2.0, trials=10, base_seed=50000)
    elapsed = time.perf_counter() - t0
    ratios = [row.ratio for row in rows[1:]]
    ok = all(1.6 <= x <= 2.7 for x in ratios) and elapsed < 300.0
    meds = " ".join(f"n={row.n}:{row.median_ms:.1f}ms" for row in rows)
    _verdict(capsys, 5, ok,
             f"median ratios {[round(x, 3) for x in ratios]} in [1.6, 2.7]; "
             f"{meds}; total {elapsed:.1f} s")


# --------------------------------------------------------------------------
# 6: structural invariants on supercritical instances
# --------------------------------------------------------------------------

def _invariant_violations(pts, p, r):
    """Run the pipeline as far as it goes, collecting invariant breaches.

    A typed construction failure is not a breach; the criterion counts
    violated structural bounds, and the runtime checks double as those
    bounds (a ledger overdraw would surface as LedgerExhausted).
    """
    out = []
    n = len(pts)
    t = tessellation_for(n, p, r)
    k = t.cells_per_side
    # the density bound that choose_cells_per_side picks k to meet
    eps = unit_disk_area(p) - math.log(n) / (r * r * n)
    try:
        if quadrant_close_count(t) < (unit_disk_area(p) - eps / 2.0) * k * k:
            out.append("quadrant count below the density bound")
    except ValueError:
        # no interior cell at this radius, so the count is undefined; the
        # per-trial instances all have interiors and do exercise the bound
        pass
    cls = classify_cells(t, VertexSet(pts))
    dg = build_density_graph(t, cls)
    if any(len(v) > MAX_FRIENDS for v in dg.adjacency.values()):
        out.append("dense-square degree over 24")
    try:
        ag = attach_sparse_groups(t, cls, dg)
    except ConstructionError as exc:
        return out, exc.reason
    per_square = Counter(key.sparse_square for key in ag.groups)
    if per_square and max(per_square.values()) > MAX_FRIENDS:
        out.append("group count per sparse square over 24")
    try:
        tree = spanning_tree(ag)
    except ConstructionError as exc:
        return out, exc.reason
    for node in augmented_nodes(ag):
        deg = len(tree.children[node]) + (node != tree.root)
        if deg > MAX_FRIENDS:
            out.append("tree degree over 24")
            break
    order = euler_traversal(tree)
    steps = Counter(frozenset(e) for e in zip(order, order[1:]))
    tree_edges = {frozenset((c, par)) for c, par in tree.parent.items()}
    if set(steps) != tree_edges or any(c != 2 for c in steps.values()):
        out.append("traversal does not walk each tree edge exactly twice")
    try:
        cycle = construct_cycle(pts, t, cls, ag, order)
    except ConstructionError as exc:
        return out, exc.reason
    if not verify_cycle(pts, r, p, cycle).valid:
        out.append("construct returned an unverified cycle")
    return out, None


def test_acceptance_6_structural_invariants(capsys):
    assert 2 * MAX_FRIENDS <= DENSE_THRESHOLD
    n, trials = 10 ** 4, 100
    violations = []
    outcomes = Counter()
    for pi, p in enumerate(NORMS):
        r = 2.0 * threshold_radius(n, p)
        for i in range(trials):
            bad, reason = _invariant_violations(points(n, 10000 * pi + i), p, r)
            violations.extend(bad)
            outcomes[reason.value if reason else "completed"] += 1
        # one instance dense enough to exercise every stage for real
        bad, reason = _invariant_violations(points(2 * 10 ** 4, 60000 + pi),
                                            p, 0.45)
        violations.extend(bad)
        outcomes[f"demo-{reason.value if reason else 'completed'}"] += 1
    ok = not violations
    _verdict(capsys, 6, ok,
             f"0 violations over {3 * trials} supercritical trials "
             f"+ 3 dense demos; stages reached {dict(outcomes)}"
             if ok else f"violations {violations[:4]}")


# --------------------------------------------------------------------------
# 7: oracle equivalence at small scale
# --------------------------------------------------------------------------

def _brute_connected(pts, r, p):
    dx = pts[:, None, 0] - pts[None, :, 0]
    dy = pts[:, None, 1] - pts[None, :, 1]
    adj = lp_norms(p, dx, dy) <= r
    seen = np.zeros(len(pts), dtype=bool)
    seen[0] = True
    while True:
        new = adj[seen].any(axis=0) & ~seen
        if not new.any():
            return bool(seen.all())
        seen |= new


def _corner_max(p, a: Box, b: Box):
    corners_a = [(a.x_lo, a.y_lo), (a.x_lo, a.y_hi),
                 (a.x_hi, a.y_lo), (a.x_hi, a.y_hi)]
    corners_b = [(b.x_lo, b.y_lo), (b.x_lo, b.y_hi),
                 (b.x_hi, b.y_lo), (b.x_hi, b.y_hi)]
    return max(lp_distance(p, ca, cb) for ca in corners_a for cb in corners_b)


def test_acceptance_7_small_scale_oracles(capsys):
    mismatches = 0
    cases = 0
    for seed in range(120):
        rng = np.random.default_rng(70000 + seed)
        p = NORMS[seed % 3] if seed % 4 else 1.5
        n = int(rng.integers(2, 201))
        pts = rng.random((n, 2))
        r = float(rng.uniform(0.02, 0.8))
        fast = is_connected(build_spatial_index(VertexSet(pts), r, p))
        mismatches += fast != _brute_connected(pts, r, p)
        xs = np.sort(rng.random(4))
        ys = np.sort(rng.random(4))
        a = Box(xs[0], xs[1], ys[0], ys[1])
        b = Box(xs[2], xs[3], ys[2], ys[3])
        mismatches += max_box_distance(p, a, b) != _corner_max(p, a, b)
        cases += 2
    ok = mismatches == 0
    _verdict(capsys, 7, ok,
             f"{cases} oracle comparisons over 120 seeds, "
             f"{mismatches} mismatches")


# --------------------------------------------------------------------------
# 8: verifier rejects mutated cycles
# --------------------------------------------------------------------------

def test_acceptance_8_verifier_mutations(capsys):
    n, r, p = 2 * 10 ** 4, 0.45, 2.0
    pts = points(n, 0)
    cycle = full_construction(pts, p, r).cycle
    assert verify_cycle(pts, r, p, cycle).valid
    rng = np.random.default_rng(80000)
    wrong = Counter()

    def kind_of(mutant):
        rep = verify_cycle(pts, r, p, np.asarray(mutant))
        return rep.violation.kind if not rep.valid else "Accepted"

    for _ in range(100):
        i, j = rng.choice(n, size=2, replace=False)
        dup = cycle.copy()
        dup[i] = dup[j]
        if kind_of(dup) != "NotPermutation":
            wrong["duplication"] += 1
        cut = np.delete(cycle, i)
        if kind_of(cut) != "NotPermutation":
            wrong["omission"] += 1

    # teleport a corner-most vertex far across the square: every edge this
    # swap creates is provably longer than r
    sums = pts[cycle, 0] + pts[cycle, 1]
    lo = int(np.argmin(sums))
    far = np.nonzero(lp_norms(p, pts[cycle, 0] - pts[cycle[lo], 0],
                              pts[cycle, 1] - pts[cycle[lo], 1]) > 2.0 * r)[0]
    assert len(far) >= 100
    for j in rng.choice(far, size=100, replace=False):
        swapped = cycle.copy()
        swapped[lo], swapped[j] = swapped[j], swapped[lo]
        if kind_of(swapped) != "EdgeTooLong":
            wrong["long-edge"] += 1
    ok = not wrong
    _verdict(capsys, 8, ok,
             f"300 mutations (100 per kind) all rejected with the right "
             f"violation kind" if ok else f"misclassified {dict(wrong)}")
