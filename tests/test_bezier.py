import math

import numpy as np
import pytest

from eqarea import bezier
from eqarea.errors import DegenerateSegment


# a segment is its x and y control values, optionally followed by the
# fallback flag, as construct_area_preserving returns it

def _point(seg, t):
    return tuple(bezier.bernstein(*seg[k], t) for k in (0, 1))


def _area(seg):
    return bezier.gauss_area(seg[0], seg[1], 0.0, 1.0)


def _sin_segment(x0, x1):
    target = math.cos(x0) - math.cos(x1)
    return bezier.construct_area_preserving(
        (x0, math.sin(x0)), (x1, math.sin(x1)),
        (1.0, math.cos(x0)), (1.0, math.cos(x1)), target)


def test_straight_line_reproduced():
    seg = bezier.construct_area_preserving((0, 0), (1, 1), (1, 1), (1, 1), 0.5)
    # r2 == 1: C2 = p1 - tan1 / 3 exactly
    assert (seg[0][2], seg[1][2]) == (1.0 - 1.0 / 3.0, 1.0 - 1.0 / 3.0)
    assert _area(seg) == pytest.approx(0.5, abs=1e-15)
    assert _point(seg, 0.5) == pytest.approx((0.5, 0.5), abs=1e-15)


def test_parabola_area_exact():
    seg = bezier.construct_area_preserving((0, 0), (1, 1), (1, 0), (1, 2), 1.0 / 3.0)
    assert not seg[2]
    assert _area(seg) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_endpoints_and_orientation():
    seg = _sin_segment(0.2, 0.9)
    p0, p1 = _point(seg, 0.0), _point(seg, 1.0)
    assert p0 == pytest.approx((0.2, math.sin(0.2)), abs=1e-15)
    assert p1 == pytest.approx((0.9, math.sin(0.9)), abs=1e-15)
    reversed_seg = (seg[0][::-1], seg[1][::-1])
    assert _area(reversed_seg) == pytest.approx(-_area(seg), abs=1e-15)


def test_degenerate_vertical_data():
    with pytest.raises(DegenerateSegment):
        bezier.construct_area_preserving((0, 0), (0, 1), (0, 1), (0, 1), 0.0)


def test_area_constraint_on_random_segments():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(300):
        p0 = rng.normal(size=2)
        p1 = p0 + rng.normal(size=2)
        if abs(p1[0] - p0[0]) < 1e-3:
            continue
        t0, t1 = rng.normal(size=2), rng.normal(size=2)
        if np.hypot(*t0) < 1e-3 or np.hypot(*t1) < 1e-3:
            continue
        target = rng.normal()
        seg = bezier.construct_area_preserving(tuple(p0), tuple(p1), tuple(t0), tuple(t1), target)
        if seg[2]:
            continue
        assert _area(seg) == pytest.approx(target, abs=1e-11 * (1 + abs(target)))
        checked += 1
    assert checked > 150


def test_area_formula_matches_quadrature():
    # the closed-form constraint terms and the Gauss integral agree
    rng = np.random.default_rng(4)
    for _ in range(100):
        pts = rng.normal(size=8)
        seg = (tuple(pts[0::2]), tuple(pts[1::2]))
        ts = np.linspace(0.0, 1.0, 20001)
        x, y = _point(seg, ts)
        riemann = np.trapezoid(y, x)
        assert _area(seg) == pytest.approx(riemann, abs=5e-8)


def test_fifth_order_on_sine():
    errors = []
    sizes = [8, 16, 32, 64]
    for n in sizes:
        xs = np.linspace(0.0, 1.0, n + 1)
        emax = 0.0
        tt = np.linspace(0.0, 1.0, 120)
        for a, b in zip(xs[:-1], xs[1:]):
            seg = _sin_segment(a, b)
            assert not seg[2]
            bx, by = _point(seg, tt)
            emax = max(emax, float(np.max(np.abs(by - np.sin(bx)))))
        errors.append(emax)
    slopes = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
              if errors[i + 1] > 1e-13]
    assert slopes and all(4.0 < s < 6.0 for s in slopes)


def test_fallback_hermite_is_fourth_order():
    # the fallback (r1 = r2 = h) drops the area constraint and one order
    errors = []
    sizes = [8, 16, 32, 64]
    tt = np.linspace(0.0, 1.0, 120)
    for n in sizes:
        xs = np.linspace(0.0, 1.0, n + 1)
        emax = 0.0
        for a, b in zip(xs[:-1], xs[1:]):
            h = b - a
            seg = ((a, a + h / 3.0, b - h / 3.0, b),
                   (math.sin(a), math.sin(a) + h * math.cos(a) / 3.0,
                    math.sin(b) - h * math.cos(b) / 3.0, math.sin(b)))
            bx, by = _point(seg, tt)
            emax = max(emax, float(np.max(np.abs(by - np.sin(bx)))))
        errors.append(emax)
    slopes = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert all(3.5 < s < 4.5 for s in slopes)


def test_fallback_still_interpolates():
    # collinear data degenerates the r2 coefficient; the Hermite fallback
    # keeps endpoints und tangency
    seg = bezier.construct_area_preserving((0, 0), (2, 2), (1, 1), (1, 1), 7.0)
    assert seg[2]
    p = _point(seg, 0.0)
    d = tuple(bezier.bernstein_derivative(*seg[k], 0.0) for k in (0, 1))
    assert p == (0.0, 0.0)
    assert d[0] == pytest.approx(d[1], abs=1e-15)


class TestIntersectVertical:
    def test_linear(self):
        seg = bezier.construct_area_preserving((0, 0), (1, 1), (1, 1), (1, 1), 0.5)
        assert bezier.intersect_vertical(seg[0], 0.25) == pytest.approx([0.25], abs=1e-12)

    def test_out_of_range(self):
        seg = bezier.construct_area_preserving((0, 0), (1, 1), (1, 1), (1, 1), 0.5)
        assert bezier.intersect_vertical(seg[0], 2.0) == []

    def test_s_shaped_three_roots_against_sampling(self):
        seg = ((0, 2, -1, 1), (0, 0.4, 0.6, 1))
        ts_dense = np.linspace(0.0, 1.0, 10**6)
        bx, _ = _point(seg, ts_dense)
        for x_line in (0.3, 0.5, 0.7):
            roots = bezier.intersect_vertical(seg[0], x_line)
            crossings = np.flatnonzero(np.diff(np.sign(bx - x_line)) != 0)
            assert len(roots) == len(crossings) == 3
            for r, c in zip(roots, ts_dense[crossings]):
                assert abs(r - c) < 1e-5
