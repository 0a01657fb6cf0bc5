import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rggham import geometry
from rggham.geometry import (Box, lp_distance, lp_norms, lp_within,
                             max_box_distance, unit_disk_area, validate_p)

NORMS = [1.0, 1.5, 2.0, 3.0, 10.0, math.inf]

unit_floats = st.floats(min_value=0.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False)
norm_exponents = st.sampled_from(NORMS)


@pytest.mark.parametrize("p", [1, 1.0, 1.5, 2, 3, 10, 1e6, math.inf])
def test_validate_p_accepts(p):
    assert validate_p(p) == float(p)


@pytest.mark.parametrize("p", [0.99, 0.5, 0.0, -1.0, math.nan])
def test_validate_p_rejects(p):
    with pytest.raises(ValueError):
        validate_p(p)


def test_lp_distance_known_values():
    a, b = (0.1, 0.2), (0.4, 0.6)  # differences 0.3 and 0.4
    assert lp_distance(2.0, a, b) == pytest.approx(0.5, abs=1e-15)
    assert lp_distance(1.0, a, b) == pytest.approx(0.7, abs=1e-15)
    assert lp_distance(math.inf, a, b) == pytest.approx(0.4, abs=1e-15)
    want = (0.3**1.5 + 0.4**1.5) ** (1 / 1.5)
    assert lp_distance(1.5, a, b) == pytest.approx(want, rel=1e-14)


def test_lp_distance_zero_and_axis_aligned():
    assert lp_distance(3.0, (0.5, 0.5), (0.5, 0.5)) == 0.0
    for p in NORMS:
        # single-axis displacement: every norm equals the coordinate gap
        assert lp_distance(p, (0.2, 0.7), (0.9, 0.7)) == pytest.approx(0.7, abs=1e-15)


def test_lp_distance_high_exponent_does_not_flush_to_zero():
    # naive (ax^p + ay^p)^(1/p) underflows for ax, ay < 1 at large p
    d = lp_distance(300.0, (0.0, 0.0), (0.5, 0.5))
    assert d == pytest.approx(0.5 * 2.0 ** (1 / 300.0), rel=1e-12)
    assert d > 0.5


def test_lp_distance_matches_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    cases = [(1.5, 0.3, 0.4), (7.3, 0.9, 0.1), (300.0, 0.5, 0.49),
             (2.5, 1e-12, 0.7), (4.0, 0.6, 0.6)]
    for p, ax, ay in cases:
        want = float((mpmath.mpf(ax) ** p + mpmath.mpf(ay) ** p) ** (1 / mpmath.mpf(p)))
        got = lp_distance(p, (0.0, 0.0), (ax, ay))
        assert got == pytest.approx(want, rel=1e-13), (p, ax, ay)


@given(ax=unit_floats, ay=unit_floats, p=norm_exponents)
def test_lp_symmetry_in_arguments(ax, ay, p):
    assert lp_distance(p, (0.0, 0.0), (ax, ay)) == lp_distance(p, (ax, ay), (0.0, 0.0))
    assert lp_distance(p, (0.0, 0.0), (ax, ay)) == lp_distance(p, (0.0, 0.0), (ay, ax))


@given(ax=unit_floats, ay=unit_floats)
def test_lp_monotone_in_exponent(ax, ay):
    # ||v||_p is nonincreasing in p
    vals = [lp_distance(p, (0.0, 0.0), (ax, ay)) for p in NORMS]
    for lo, hi in zip(vals, vals[1:]):
        assert hi <= lo * (1 + 1e-12)


@given(ax=unit_floats, ay=unit_floats, bx=unit_floats, by=unit_floats,
       p=norm_exponents)
@example(ax=2.2250738585e-313, ay=2.2250738585e-313, bx=2.2250738585e-313,
         by=2.2250738585e-313, p=10.0)
def test_lp_triangle_inequality(ax, ay, bx, by, p):
    # among subnormals a norm rounds by an absolute step of ulp(0.0), which
    # at 1e-313 is a relative 1e-11: allow a few such steps on top of the
    # relative bound that holds at every normal magnitude
    o = (0.0, 0.0)
    direct = lp_distance(p, o, (ax + bx, ay + by))
    split = lp_distance(p, o, (ax, ay)) + lp_distance(p, o, (bx, by))
    assert direct <= split * (1 + 1e-12) + 4 * math.ulp(0.0)


def test_lp_norms_matches_scalar_path():
    rng = np.random.default_rng(42)
    dx = rng.uniform(-1, 1, 500)
    dy = rng.uniform(-1, 1, 500)
    for p in NORMS:
        vec = lp_norms(p, dx, dy)
        for i in range(0, 500, 7):
            scalar = lp_distance(p, (0.0, 0.0), (dx[i], dy[i]))
            assert vec[i] == pytest.approx(scalar, rel=1e-15, abs=1e-300)


def test_lp_norms_zero_vectors():
    out = lp_norms(3.0, np.zeros(4), np.zeros(4))
    assert np.all(out == 0.0)


WITHIN_NORMS = [1.0, 2.0, 3.0, math.inf]
# both guards of lp_within's p = 2 screen, an ulp either side, and radii
# well inside them
GUARD_RADII = [r for edge in geometry._SQUARE_RADII
               for r in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf))]
WITHIN_RADII = GUARD_RADII + [1e-300, 1e-160, 1e-9, 0.0171, 0.05, 1.0, 1e140, 1e300]
# subnormal, tiny, huge, infinite and NaN differences
ODD_DIFFERENCES = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200,
                   1e-151, 1e-150, 1e149, 1e150, 1e200, 1e300, 1.7e308,
                   math.inf, math.nan]


def assert_same_verdicts(p, dx, dy, r):
    dx, dy = np.asarray(dx, dtype=float), np.asarray(dy, dtype=float)
    want = lp_norms(p, dx, dy) <= r
    assert np.array_equal(lp_within(p, dx, dy, r), want), (p, r)


any_difference = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=-2.0, max_value=2.0))


# huge differences overflow in the norms, as in lp_norms
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@given(pairs=st.lists(st.tuples(any_difference, any_difference), min_size=1,
                      max_size=40),
       r=st.one_of(st.sampled_from(WITHIN_RADII),
                   st.floats(min_value=1e-320, max_value=1e308)),
       p=st.sampled_from(WITHIN_NORMS))
def test_lp_within_is_the_norm_test(pairs, r, p):
    dx, dy = np.array(pairs).T
    assert_same_verdicts(p, dx, dy, r)
    # the pairs at exactly their own length, and those lengths an ulp off
    h = lp_norms(p, dx[:1], dy[:1])[0]
    if 0.0 < h < math.inf:
        for edge in (np.nextafter(h, 0.0), h, np.nextafter(h, math.inf)):
            assert_same_verdicts(p, dx, dy, edge)


@pytest.mark.parametrize("r", WITHIN_RADII)
def test_lp_within_at_a_few_ulps_from_r(r):
    # pairs whose np.hypot is r, and r +- 1 to 4 ulps, at every angle
    rng = np.random.default_rng(5)
    angle = rng.uniform(0.0, 2.0 * math.pi, 2000)
    step = np.repeat(np.arange(-6, 7), len(angle) // 13 + 1)[:len(angle)]
    length = r + step * math.ulp(r)
    dx, dy = length * np.cos(angle), length * np.sin(angle)
    off = np.round((np.hypot(dx, dy) - r) / math.ulp(r))
    for k in range(1, 5):
        assert (off == k).any() and (off == -k).any() and (off == 0).any()
    for p in WITHIN_NORMS:
        assert_same_verdicts(p, dx, dy, r)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("r", WITHIN_RADII)
def test_lp_within_on_odd_differences(r):
    # subnormal, huge, infinite and NaN differences, with each other and
    # with differences at r; a NaN fails, whatever the other one is
    odd = ODD_DIFFERENCES + [-d for d in ODD_DIFFERENCES] + [r, -r, r / 2]
    dx, dy = (np.array(v) for v in zip(*[(a, b) for a in odd for b in odd]))
    for p in WITHIN_NORMS:
        assert_same_verdicts(p, dx, dy, r)
        assert not lp_within(p, dx, dy, r)[np.isnan(dx) | np.isnan(dy)].any()


def test_unit_disk_area_exact_constants():
    assert abs(unit_disk_area(1.0) - 2.0) < 1e-12
    assert abs(unit_disk_area(2.0) - math.pi) < 1e-12
    assert unit_disk_area(math.inf) == 4.0


def test_unit_disk_area_monotone_in_p():
    grid = [1.0, 1.1, 1.3, 1.7, 2.0, 2.5, 3.0, 5.0, 10.0, 50.0, math.inf]
    areas = [unit_disk_area(p) for p in grid]
    assert all(b >= a for a, b in zip(areas, areas[1:]))
    assert 2.0 <= areas[0] and areas[-1] == 4.0


def test_unit_disk_area_rejects_bad_p():
    with pytest.raises(ValueError):
        unit_disk_area(0.8)


def _corner_max(p, a, b):
    corners_a = [(a.x_lo, a.y_lo), (a.x_lo, a.y_hi), (a.x_hi, a.y_lo), (a.x_hi, a.y_hi)]
    corners_b = [(b.x_lo, b.y_lo), (b.x_lo, b.y_hi), (b.x_hi, b.y_lo), (b.x_hi, b.y_hi)]
    return max(lp_distance(p, ca, cb) for ca in corners_a for cb in corners_b)


coords = st.lists(unit_floats, min_size=4, max_size=4)


@given(xa=coords, ya=coords, p=norm_exponents)
def test_max_box_distance_equals_corner_brute_force(xa, ya, p):
    # brute force over the 16 corner pairs must agree bit for bit
    a = Box(min(xa[0], xa[1]), max(xa[0], xa[1]), min(ya[0], ya[1]), max(ya[0], ya[1]))
    b = Box(min(xa[2], xa[3]), max(xa[2], xa[3]), min(ya[2], ya[3]), max(ya[2], ya[3]))
    assert max_box_distance(p, a, b) == _corner_max(p, a, b)


def test_max_box_distance_point_boxes():
    a = Box(0.25, 0.25, 0.5, 0.5)
    b = Box(0.75, 0.75, 0.9, 0.9)
    for p in NORMS:
        assert max_box_distance(p, a, b) == lp_distance(p, (0.25, 0.5), (0.75, 0.9))


def test_max_box_distance_is_symmetric():
    a = Box(0.0, 0.2, 0.0, 0.3)
    b = Box(0.5, 0.8, 0.4, 0.4)
    for p in NORMS:
        assert max_box_distance(p, a, b) == max_box_distance(p, b, a)
