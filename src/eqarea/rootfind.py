"""Root location: uniform sign-change scans plus bisection refinement.

Tangency-type residuals of smooth fluxes cross zero transversally at
generic roots, so a dense scan followed by bisection is robust. Residuals
that osculate zero without a sign change (double roots) are reported via
BracketingFailure rather than guessed at. ``bisect`` is the one scalar
bisection and ``bisect_many`` its elementwise form over arrays of brackets.
"""

from __future__ import annotations

import numpy as np

from .errors import BracketingFailure

DEFAULT_CELLS = 2048


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


def scan_roots(f, lo: float, hi: float, cells: int = DEFAULT_CELLS,
               osculation_tol: float = 0.0) -> list[float]:
    """All transversal roots of f on (lo, hi), sorted ascending.

    ``f`` is evaluated on a uniform grid of ``cells`` intervals in one
    vectorized call, every sign-change cell is refined by
    bisection, and exact zeros at interior grid points are kept as roots.

    With ``osculation_tol > 0``, a strict interior local minimum of |f|
    below the tolerance that does not produce a sign change raises
    BracketingFailure: the scan has detected a (near-)double root it cannot
    bracket.
    """
    xs = np.linspace(lo, hi, cells + 1)
    fs = np.asarray(f(xs), dtype=float)
    if not np.all(np.isfinite(fs)):
        raise BracketingFailure("residual is not finite on the scan grid")

    roots: list[float] = []
    sign = np.sign(fs)
    for i in range(cells):
        fa, fb = fs[i], fs[i + 1]
        if fa == 0.0:
            if i > 0:
                roots.append(xs[i])
            continue
        if fb == 0.0:
            continue  # the next cell's left endpoint, or hi: endpoints are the caller's
        if sign[i] != sign[i + 1]:
            roots.append(bisect(f, xs[i], xs[i + 1], fa, fb))

    if osculation_tol > 0.0:
        for i in range(1, cells):
            v = abs(fs[i])
            if v < osculation_tol and v <= abs(fs[i - 1]) and v <= abs(fs[i + 1]) \
                    and sign[i - 1] == sign[i + 1] and sign[i - 1] != 0 and fs[i] != 0.0:
                raise BracketingFailure(
                    f"residual osculates zero near x={xs[i]:.6g} without a sign change")

    roots.sort()
    # collapse duplicates produced by a root sitting on a grid point
    dedup: list[float] = []
    tol = 1e-12 * max(1.0, abs(hi - lo))
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > tol:
            dedup.append(r)
    return dedup
