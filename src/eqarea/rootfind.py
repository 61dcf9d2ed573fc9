"""Root location: bisection, and the real roots of a polynomial.

``bisect`` is the one scalar bisection and ``bisect_many`` its elementwise
form over arrays of brackets. ``poly_roots`` gives the real roots of a
polynomial inside an open interval; every root the envelope and the pole
check need is a root of a polynomial the flux holds.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import BracketingFailure, DomainError

_EPS = float(np.finfo(float).eps)


def bisect(f, a: float, b: float, fa: float | None = None, fb: float | None = None,
           tol: float = 0.0) -> float:
    """Root of f in [a, b] by bisection.

    Halves until the bracket is at most ``tol`` wide or its midpoint stops
    moving; the default drives the bracket to ~1 ulp.
    """
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketingFailure(f"no sign change on [{a}, {b}]")
    for _ in range(200):
        m = 0.5 * (a + b)
        if b - a <= tol or m <= a or m >= b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == (fa > 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def bisect_many(right_of, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Elementwise bisection of many brackets at once.

    ``right_of(mid)`` is True where the root lies right of ``mid``. Every
    bracket halves on each step until the widest is narrower than ``tol``;
    the brackets' midpoints are returned.
    """
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        right = right_of(mid)
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
        if np.max(hi - lo) < tol:
            break
    return 0.5 * (lo + hi)


def poly_roots(coeffs, lo: float, hi: float) -> list[float]:
    """Real roots of sum c_k u^k strictly inside (lo, hi), ascending.

    ``coeffs`` run low to high degree. The candidates are the eigenvalues
    of the companion matrix; each real part is polished by Newton steps on
    the polynomial while they shrink its value, and is a root when the
    polynomial there is within its rounding bound. So a double root, which
    the eigenvalue solver may split into a near-real pair, counts once:
    neighbours with the polynomial still within rounding between them
    merge into their mean. A non-finite coefficient raises DomainError.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if not np.isfinite(c).all():
        raise DomainError(f"polynomial coefficients overflow: {c.tolist()}")
    if len(c) < 2:
        return []
    dc = P.polyder(c)

    def vanishes(x):  # within the rounding bound of Horner's rule at x
        return abs(P.polyval(x, c)) <= 8.0 * len(c) * _EPS * P.polyval(abs(x), np.abs(c))

    roots = []
    for z in np.roots(c[::-1]):
        if abs(z.imag) > 1e-5 * (1.0 + abs(z)):
            continue
        x, px = z.real, P.polyval(z.real, c)
        for _ in range(8):
            dpx = P.polyval(x, dc)
            if px == 0.0 or dpx == 0.0:
                break
            x_new = x - px / dpx
            p_new = P.polyval(x_new, c)
            if abs(p_new) >= abs(px):
                break
            x, px = x_new, p_new
        if lo < x < hi and vanishes(x):
            roots.append(float(x))

    clusters: list[list[float]] = []
    for x in sorted(roots):
        if clusters and vanishes(0.5 * (clusters[-1][-1] + x)):
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return [sum(cl) / len(cl) for cl in clusters]
