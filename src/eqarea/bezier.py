"""Area-preserving cubic Bezier segments.

A segment interpolates endpoint positions and tangent directions; the two
tangent magnitudes r1, r2 are the free parameters. Fixing r1 = h (the
horizontal extent) and solving the signed-area constraint

    (r1 r2 / 60) (a x b) + (r1/10) (d x a) + (r2/10) (b x d) + d1 d2 / 2
        = target - p0_y (p1_x - p0_x)

for r2 (all quantities translated so the first endpoint is the origin)
makes the parametric area under the curve match the target exactly, which
raises the interpolation from fourth to fifth order. When the r2
coefficient is below its rounding noise or the solved r2 is non-positive
the segment falls back to the plain cubic Hermite (r1 = r2 = h) and
records that. A segment is its four x and four y control values.
"""

from __future__ import annotations

import math

from .errors import DegenerateSegment

__all__ = [
    "construct_area_preserving",
    "bernstein",
    "bernstein_derivative",
    "gauss_area",
    "intersect_vertical",
]

_EPS = 2.220446049250313e-16
_GAUSS3_T = (0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15))
_GAUSS3_W = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)


def _cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def construct_area_preserving(p0, p1, tan0, tan1, target_area: float):
    """Segment from p0 to p1 with tangent directions tan0/tan1 and exact area.

    Control points are C1 = p0 + r1 tan0 / 3 and C2 = p1 - r2 tan1 / 3 with
    r1 = |p1_x - p0_x| and r2 solved from the area constraint. Callers own
    the tangent scaling; horizontal data uses slope form (1, m). Returns
    the x control values, the y control values and the fallback flag.
    """
    p0 = (float(p0[0]), float(p0[1]))
    p1 = (float(p1[0]), float(p1[1]))
    alpha = (float(tan0[0]), float(tan0[1]))
    beta = (float(tan1[0]), float(tan1[1]))
    d = (p1[0] - p0[0], p1[1] - p0[1])
    h = abs(d[0])
    diam = math.hypot(*d)
    if diam == 0.0:
        raise DegenerateSegment("coincident endpoints")
    if h <= 1e-14 * diam:
        raise DegenerateSegment("vertical data: no horizontal extent to interpolate over")
    if alpha == (0.0, 0.0) or beta == (0.0, 0.0):
        raise DegenerateSegment("zero tangent")

    r1 = h
    adjusted = float(target_area) - p0[1] * d[0]
    coeff = (r1 / 60.0) * _cross(alpha, beta) + _cross(beta, d) / 10.0
    rhs = adjusted - (r1 / 10.0) * _cross(d, alpha) - d[0] * d[1] / 2.0
    na = math.hypot(*alpha)
    nb = math.hypot(*beta)
    coeff_scale = r1 * na * nb / 60.0 + nb * diam / 10.0

    # d = p1 - p0 carries the rounding of the absolute positions, so a
    # nearly straight segment far from the origin has coeff at noise level
    noise = 64.0 * _EPS * (abs(p0[0]) + abs(p0[1]) + abs(p1[0]) + abs(p1[1])) / diam
    fallback = False
    if abs(coeff) < max(1e-12, noise) * coeff_scale:
        fallback = True
        r2 = h
    else:
        r2 = rhs / coeff
        if r2 <= 0.0:
            fallback = True
            r2 = h

    xc = (p0[0], p0[0] + r1 * alpha[0] / 3.0, p1[0] - r2 * beta[0] / 3.0, p1[0])
    yc = (p0[1], p0[1] + r1 * alpha[1] / 3.0, p1[1] - r2 * beta[1] / 3.0, p1[1])
    return xc, yc, fallback


def bernstein(p0, p1, p2, p3, t):
    """Cubic in Bernstein form with control values p0..p3.

    Control values and t may be floats or broadcastable numpy arrays; every
    element goes through the same operations in the same order, so the
    array form matches the scalar form bit for bit.
    """
    s = 1.0 - t
    return (s * s * s * p0 + 3.0 * s * s * t * p1
            + 3.0 * s * t * t * p2 + t * t * t * p3)


def bernstein_derivative(p0, p1, p2, p3, t):
    """Derivative in t of ``bernstein``; floats or arrays alike."""
    s = 1.0 - t
    return 3.0 * (s * s * (p1 - p0) + 2.0 * s * t * (p2 - p1) + t * t * (p3 - p2))


def gauss_area(xc, yc, t0, t1):
    """Signed parametric area int_{t0}^{t1} y x' dt of one cubic.

    ``xc`` and ``yc`` hold the four x and y control values (floats, or
    arrays for many segments at once). The integrand has degree five, so
    the mapped three-point Gauss-Legendre rule is exact on any sub-interval.
    """
    total = 0.0
    for gt, gw in zip(_GAUSS3_T, _GAUSS3_W):
        t = t0 + (t1 - t0) * gt
        total += gw * bernstein(*yc, t) * bernstein_derivative(*xc, t)
    return total * (t1 - t0)


def _quadratic_roots(b, c, d):
    if b == 0.0:
        if c == 0.0:
            return []
        return [-d / c]
    disc = c * c - 4.0 * b * d
    if disc < 0.0:
        return []
    q = -0.5 * (c + math.copysign(math.sqrt(disc), c))
    roots = [q / b]
    if q != 0.0:
        roots.append(d / q)
    elif disc > 0.0:
        roots.append(0.0)
    return roots


def _cubic_roots(a, b, c, d):
    """Real roots of a t^3 + b t^2 + c t + d, Cardano with the trig branch."""
    scale = abs(a) + abs(b) + abs(c) + abs(d)
    if scale == 0.0:
        return []
    if abs(a) < 1e-14 * scale:
        return _quadratic_roots(b, c, d)
    p = b / a
    q = c / a
    r = d / a
    big_q = (p * p - 3.0 * q) / 9.0
    big_r = (2.0 * p ** 3 - 9.0 * p * q + 27.0 * r) / 54.0
    q3 = big_q ** 3
    if big_r * big_r < q3:
        theta = math.acos(max(-1.0, min(1.0, big_r / math.sqrt(q3))))
        sq = -2.0 * math.sqrt(big_q)
        return [sq * math.cos(theta / 3.0) - p / 3.0,
                sq * math.cos((theta + 2.0 * math.pi) / 3.0) - p / 3.0,
                sq * math.cos((theta - 2.0 * math.pi) / 3.0) - p / 3.0]
    mag = (abs(big_r) + math.sqrt(max(0.0, big_r * big_r - q3))) ** (1.0 / 3.0)
    big_a = -math.copysign(mag, big_r)
    big_b = big_q / big_a if big_a != 0.0 else 0.0
    return [big_a + big_b - p / 3.0]


def intersect_vertical(xc, x_line: float) -> list[float]:
    """All parameters t in [0, 1] where x control values ``xc`` cross x = x_line.

    Analytic cubic roots, one Newton polish each, deduplicated to 1e-12.
    """
    x0, x1, x2, x3 = xc
    c3 = -x0 + 3.0 * x1 - 3.0 * x2 + x3
    c2 = 3.0 * (x0 - 2.0 * x1 + x2)
    c1 = 3.0 * (x1 - x0)
    c0 = x0 - x_line

    roots = _cubic_roots(c3, c2, c1, c0)
    out = []
    for t in roots:
        for _ in range(2):  # Newton polish on the monotone-enough local model
            f = ((c3 * t + c2) * t + c1) * t + c0
            df = (3.0 * c3 * t + 2.0 * c2) * t + c1
            if df == 0.0:
                break
            step = f / df
            t -= step
            if abs(step) < 1e-15:
                break
        if -1e-12 <= t <= 1.0 + 1e-12:
            out.append(min(max(t, 0.0), 1.0))
    out.sort()
    dedup: list[float] = []
    for t in out:
        if not dedup or t - dedup[-1] > 1e-12:
            dedup.append(t)
    return dedup
