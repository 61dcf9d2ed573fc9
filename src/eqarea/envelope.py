"""Upper/lower convex envelopes of a flux between two states.

The envelope between u_L and u_R determines the exact Riemann solution:
its secants are shocks (speed = secant slope) and its arcs, where the
envelope coincides with the flux, are rarefactions. Construction follows
the tangency characterization: test the endpoint-to-endpoint secant, then
the steepest admissible tangent secant from the anchor state, then
alternate arcs with double-tangent secants until the far state is reached.

``oracle_envelope`` is an independent brute-force check: it takes the
upper or lower hull of a dense sampling of the graph and classifies the
hull chain back into secants and arcs. The two routes are compared in the
test suite and never share code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStates, EnvelopeFailure
from .flux import FluxFunction
from .rootfind import bisect

__all__ = [
    "Secant",
    "Arc",
    "ConvexEnvelope",
    "Shock",
    "Rarefaction",
    "WaveFan",
    "double_tangent",
    "Bitangent",
    "build_envelope",
    "oracle_envelope",
    "envelope_to_wavefan",
]


@dataclass(frozen=True)
class Secant:
    u_a: float
    u_b: float
    slope: float


@dataclass(frozen=True)
class Arc:
    u_a: float
    u_b: float


EnvelopeSegment = Secant | Arc


@dataclass(frozen=True)
class ConvexEnvelope:
    """Ordered secant/arc cover of [u_lo, u_hi], concave (upper) or convex (lower)."""

    side: str  # "upper" | "lower"
    u_lo: float
    u_hi: float
    segments: tuple[EnvelopeSegment, ...]

    def breakpoints(self) -> list[float]:
        """Interior segment boundaries, ascending."""
        return [s.u_b for s in self.segments[:-1]]


@dataclass(frozen=True)
class Shock:
    u_left: float
    u_right: float
    speed: float


@dataclass(frozen=True)
class Rarefaction:
    u_left: float
    u_right: float


@dataclass(frozen=True)
class WaveFan:
    """Exact-solution wave sequence, ordered left to right in x."""

    x0: float
    waves: tuple[Shock | Rarefaction, ...]


@dataclass(frozen=True)
class Bitangent:
    a: float
    b: float
    slope: float


def _invert_fprime(flux, m, branch):
    """Solve F'(u) = m on a branch where F' is monotone."""
    a, b = branch
    fa = flux(a, 1) - m
    fb = flux(b, 1) - m
    if fa != 0.0 and fb != 0.0 and (fa > 0.0) == (fb > 0.0):
        # m fell just outside the branch range through roundoff
        return a if abs(fa) < abs(fb) else b
    return bisect(lambda u: flux(u, 1) - m, a, b, fa, fb)


def double_tangent(flux: FluxFunction, interval) -> list[Bitangent]:
    """All double tangents of the flux within the interval.

    A pair a < b qualifies when F'(a) = F'(b) and the secant from a to b is
    that common tangent line. Pairs are located by matching levels of F'
    between monotone branches and root-finding the secant residual
    G(m) = F(b(m)) - F(a(m)) - m (b(m) - a(m)), which is strictly
    decreasing in the slope level m, so each branch pair holds at most one
    double tangent.
    """
    lo, hi = interval
    width = hi - lo
    # F' is monotone between consecutive inflections
    bounds = [lo, *flux.inflections(lo, hi), hi]
    tiny = 1e-13 * max(1.0, width)
    branches = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b - a > tiny]
    fscale = 1.0 + max(abs(float(flux(lo))), abs(float(flux(hi))))
    found: list[Bitangent] = []

    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            bi, bj = branches[i], branches[j]
            ri = sorted((float(flux(bi[0], 1)), float(flux(bi[1], 1))))
            rj = sorted((float(flux(bj[0], 1)), float(flux(bj[1], 1))))
            m_lo = max(ri[0], rj[0])
            m_hi = min(ri[1], rj[1])
            span = m_hi - m_lo
            mscale = 1e-12 * (1.0 + abs(m_lo) + abs(m_hi))
            if span < -mscale:
                continue

            def g_of(m, _bi=bi, _bj=bj):
                a = _invert_fprime(flux, m, _bi)
                b = _invert_fprime(flux, m, _bj)
                return a, b, float(flux(b) - flux(a)) - m * (b - a)

            if span <= mscale:
                # ranges touch at a single slope level (endpoint tangencies)
                a, b, res = g_of(0.5 * (m_lo + m_hi))
                if b - a > 1e-10 * width and abs(res) <= 1e-12 * fscale * max(1.0, b - a):
                    found.append(Bitangent(a, b, 0.5 * (m_lo + m_hi)))
                continue

            # stay strictly inside: G vanishes degenerately where branches meet
            eps = 1e-9 * span
            ma, mb = m_lo + eps, m_hi - eps
            ga = g_of(ma)[2]
            gb = g_of(mb)[2]
            if ga != 0.0 and gb != 0.0 and (ga > 0.0) == (gb > 0.0):
                continue
            m_root = bisect(lambda m: g_of(m)[2], ma, mb, ga, gb)
            a, b, res = g_of(m_root)
            if b - a > 1e-10 * width and abs(res) <= 1e-12 * fscale * max(1.0, b - a):
                found.append(Bitangent(a, b, m_root))

    found.sort(key=lambda t: (t.a, t.b))
    return found


def _upper_hull_segments(flux: FluxFunction, lo: float, hi: float) -> list[EnvelopeSegment]:
    """Upper envelope of F on [lo, hi] anchored at lo, as ascending segments."""
    f_lo = float(flux(lo))
    f_hi = float(flux(hi))
    width = hi - lo
    fscale = 1.0 + abs(f_lo) + abs(f_hi)
    tol = 1e-10 * fscale
    utiny = 1e-12 * max(1.0, width)

    # F minus the full secant peaks at an end or where F' equals its slope
    full_slope = (f_hi - f_lo) / width
    us = np.array([lo, *flux.slope_points(full_slope, lo, hi), hi])
    if np.all(f_lo + full_slope * (us - lo) >= flux(us) - tol):
        return [Secant(lo, hi, full_slope)]

    segments: list[EnvelopeSegment] = []

    # First branch: steepest admissible tangent secant from the anchor.
    slope_lo = float(flux(lo, 1))
    candidates = [u for u in flux.tangent_points(lo, lo, hi)
                  if float(flux(u, 1)) >= slope_lo - 1e-12 * (1.0 + abs(slope_lo))]
    cur = lo
    if candidates:
        slopes = [float(flux(u, 1)) for u in candidates]
        best = max(slopes)
        # ties in steepness resolve to the largest tangent point
        tied = [u for u, s in zip(candidates, slopes) if s >= best - 1e-12 * (1.0 + abs(best))]
        u_star = max(tied)
        segments.append(Secant(lo, u_star, (float(flux(u_star)) - f_lo) / (u_star - lo)))
        cur = u_star

    # Alternate arcs with secants until the far state is reached.
    for _ in range(64):
        if hi - cur <= utiny:
            break
        end_roots = flux.tangent_points(hi, cur, hi)
        bits = [t for t in double_tangent(flux, (cur, hi)) if t.a > cur + utiny]

        u_end = end_roots[0] if end_roots else None
        bit = min(bits, key=lambda t: t.a) if bits else None

        if u_end is not None and (bit is None or u_end <= bit.a + utiny):
            if u_end - cur > utiny:
                segments.append(Arc(cur, u_end))
            segments.append(Secant(u_end, hi, (f_hi - float(flux(u_end))) / (hi - u_end)))
            cur = hi
        elif bit is not None:
            if bit.a - cur > utiny:
                segments.append(Arc(cur, bit.a))
            segments.append(Secant(bit.a, bit.b, bit.slope))
            cur = bit.b
        else:
            segments.append(Arc(cur, hi))
            cur = hi
    else:
        raise EnvelopeFailure("hull assembly did not terminate")

    if abs((segments[0].u_a if segments else hi) - lo) > utiny or abs(segments[-1].u_b - hi) > utiny:
        raise EnvelopeFailure("hull segments do not cover the state interval")
    return segments


def build_envelope(flux: FluxFunction, u_L: float, u_R: float) -> ConvexEnvelope:
    """Envelope of the flux between two states via the tangency machinery.

    The side follows the Riemann orientation: upper for u_R < u_L, lower
    for u_L < u_R. The lower envelope is the mirrored upper envelope of the
    negated flux, which shares breakpoints and negates slopes.
    """
    if u_L == u_R:
        raise DegenerateStates("u_L and u_R coincide")
    flux.check_no_pole(u_L, u_R)
    lo, hi = min(u_L, u_R), max(u_L, u_R)
    if u_R < u_L:
        return ConvexEnvelope("upper", lo, hi, tuple(_upper_hull_segments(flux, lo, hi)))
    mirrored = _upper_hull_segments(-flux, lo, hi)
    segs = tuple(Secant(s.u_a, s.u_b, -s.slope + 0.0) if isinstance(s, Secant) else s
                 for s in mirrored)
    return ConvexEnvelope("lower", lo, hi, segs)


def _prune_below_hull(x, y):
    """Candidate indices for the upper hull of a graph, x strictly increasing.

    Recursive vertical-chord splitting over index ranges whose endpoints are
    known hull vertices: a range that is concave throughout lies entirely on
    the hull; a range with no interior point above its chord contributes
    only the chord; otherwise the point of maximal deviation above the
    chord is itself a hull vertex and splits the range. Every decision is a
    vectorized subrange operation, so the Python loop runs once per
    structural feature, not per point.
    """
    m = len(x)
    if m <= 2:
        return np.arange(m)
    cross = (x[1:-1] - x[:-2]) * (y[2:] - y[:-2]) - (y[1:-1] - y[:-2]) * (x[2:] - x[:-2])
    bad = np.zeros(m, dtype=np.int64)
    bad[1:m - 1] = cross >= 0.0
    vp = np.cumsum(bad)  # violations among vertices <= i

    ranges: list[tuple[int, int]] = []
    work = [(0, m - 1)]
    for _ in range(8 * m):
        if not work:
            break
        lo, hi = work.pop()
        if hi - lo <= 1:
            ranges.append((lo, lo + 1))
            continue
        if vp[hi - 1] - vp[lo] == 0:
            # concave between two hull vertices: every point is on the hull
            ranges.append((lo, hi))
            continue
        seg_x = x[lo + 1:hi]
        chord = y[lo] + (y[hi] - y[lo]) * (seg_x - x[lo]) / (x[hi] - x[lo])
        dev = y[lo + 1:hi] - chord
        v = int(np.argmax(dev))
        if dev[v] <= 0.0:
            ranges.append((lo, lo + 1))
            continue
        v += lo + 1
        work.append((v, hi))
        work.append((lo, v))
    else:
        raise EnvelopeFailure("hull pruning did not terminate")

    parts = [np.arange(a, b) for a, b in ranges]
    parts.append(np.array([m - 1]))
    return np.concatenate(parts)


def _hull_indices(us, ys):
    """Indices of the upper hull chain of (us, ys), us strictly increasing.

    Vectorized chord pruning narrows the samples to the hull candidates,
    then a monotone-chain sweep produces the hull. The sweep pops collinear
    interior points, so straight stretches surface as single long edges.
    """
    idx = _prune_below_hull(us, ys)
    if len(idx) <= 2:
        return idx
    return idx[_monotone_chain(us[idx], ys[idx])]


def _monotone_chain(xs, ys):
    """Sweep indices of the upper chain of (xs, ys), xs strictly increasing.

    A vertex whose predecessor triple is strictly concave pops nothing, so
    maximal concave runs are appended to the stack in vectorized blocks;
    only run boundaries take the scalar pop path.
    """
    m = len(xs)
    cross = (xs[1:-1] - xs[:-2]) * (ys[2:] - ys[:-2]) \
        - (ys[1:-1] - ys[:-2]) * (xs[2:] - xs[:-2])
    # vertex v >= 2 pops nothing iff cross[v-2] < 0 (triple v-2, v-1, v)
    viol = np.flatnonzero(cross >= 0.0) + 2
    sx = np.empty(m)
    sy = np.empty(m)
    sidx = np.empty(m, dtype=np.int64)
    top = -1
    k = 0
    vi = 0
    aligned = False  # stack top two are exactly vertices k-2, k-1
    while k < m:
        if aligned and k >= 2:
            while vi < len(viol) and viol[vi] < k:
                vi += 1
            j = int(viol[vi]) if vi < len(viol) else m
            if j > k:
                length = j - k
                sx[top + 1:top + 1 + length] = xs[k:j]
                sy[top + 1:top + 1 + length] = ys[k:j]
                sidx[top + 1:top + 1 + length] = np.arange(k, j)
                top += length
                k = j
                continue
        x = float(xs[k])
        y = float(ys[k])
        while top >= 1:
            x1, y1, x0, y0 = sx[top], sy[top], sx[top - 1], sy[top - 1]
            if (x1 - x0) * (y - y0) >= (y1 - y0) * (x - x0):
                top -= 1
            else:
                break
        top += 1
        sx[top] = x
        sy[top] = y
        sidx[top] = k
        aligned = top >= 1 and sidx[top - 1] == k - 1
        k += 1
    return sidx[:top + 1]


def _chord_deviation(us, ys, i0, i1):
    """Max vertical distance of points i0..i1 from the chord (i0, i1)."""
    if i1 - i0 < 2:
        return 0.0
    x0, x1 = us[i0], us[i1]
    y0, y1 = ys[i0], ys[i1]
    seg_u = us[i0:i1 + 1]
    chord = y0 + (y1 - y0) * (seg_u - x0) / (x1 - x0)
    return float(np.max(np.abs(ys[i0:i1 + 1] - chord)))


def oracle_envelope(flux: FluxFunction, u_L: float, u_R: float, n: int) -> ConvexEnvelope:
    """Brute-force envelope from the hull of an n-point graph sampling.

    Hull edges between adjacent grid samples belong to arcs; edges that
    skip samples are secants. Runs of adjacent-sample edges whose vertices
    stay on one chord (within 1e-9 of the function scale) collapse to a
    secant, so piecewise-linear fluxes classify correctly. Breakpoint
    accuracy is limited by the grid, O(1/n) in position.
    """
    if n < 64:
        raise ValueError("oracle_envelope needs n >= 64 samples")
    if u_L == u_R:
        raise DegenerateStates("u_L and u_R coincide")
    flux.check_no_pole(u_L, u_R)
    lo, hi = min(u_L, u_R), max(u_L, u_R)
    side = "upper" if u_R < u_L else "lower"

    us = np.linspace(lo, hi, n)
    fs = np.asarray(flux(us), dtype=float)
    ys = fs if side == "upper" else -fs

    hull = _hull_indices(us, ys)
    h_grid = (hi - lo) / (n - 1)
    dev_tol = 1e-9 * (1.0 + float(np.max(np.abs(fs)))) * max(1.0, hi - lo)

    # label hull edges (sample-skipping edges are secants), group into pieces
    long_mask = np.diff(us[hull]) > 1.5 * h_grid
    change = np.flatnonzero(long_mask[1:] != long_mask[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(long_mask)]))
    pieces: list[tuple[str, int, int]] = []  # (kind, hull-start, hull-end) indices into `hull`
    for s, e in zip(starts, ends):
        if long_mask[s]:
            pieces.extend(("secant", k, k + 1) for k in range(s, e))
        else:
            kind = "secant" if _chord_deviation(us, fs, hull[s], hull[e]) <= dev_tol else "arc"
            pieces.append((kind, int(s), int(e)))

    # merge neighbours of equal kind when they continue the same line / arc
    merged: list[tuple[str, int, int]] = []
    for piece in pieces:
        if merged and merged[-1][0] == piece[0]:
            kind, i0, _ = merged[-1]
            if kind == "arc" or _chord_deviation(us, fs, hull[i0], hull[piece[2]]) <= dev_tol:
                merged[-1] = (kind, i0, piece[2])
                continue
        merged.append(piece)

    segments: list[EnvelopeSegment] = []
    for kind, i0, i1 in merged:
        a, b = float(us[hull[i0]]), float(us[hull[i1]])
        if kind == "secant":
            segments.append(Secant(a, b, (float(fs[hull[i1]]) - float(fs[hull[i0]])) / (b - a)))
        else:
            segments.append(Arc(a, b))
    return ConvexEnvelope(side, lo, hi, tuple(segments))


def envelope_to_wavefan(env: ConvexEnvelope, flux: FluxFunction, x0: float) -> WaveFan:
    """Convert envelope segments to a left-to-right wave sequence.

    Secants become shocks travelling at their slope; arcs become
    rarefactions. For the upper side the solution profile descends from
    u_L to u_R, so segments are traversed in descending u.
    """
    segs = env.segments if env.side == "lower" else tuple(reversed(env.segments))
    waves: list[Shock | Rarefaction] = []
    for seg in segs:
        if env.side == "lower":
            left, right = seg.u_a, seg.u_b
        else:
            left, right = seg.u_b, seg.u_a
        if isinstance(seg, Secant):
            waves.append(Shock(left, right, seg.slope))
        else:
            waves.append(Rarefaction(left, right))
    return WaveFan(x0, tuple(waves))


def wave_speed_range(wave: Shock | Rarefaction, flux: FluxFunction) -> tuple[float, float]:
    """(slowest, fastest) signal speed of a single wave."""
    if isinstance(wave, Shock):
        return wave.speed, wave.speed
    s0 = float(flux(wave.u_left, 1))
    s1 = float(flux(wave.u_right, 1))
    return min(s0, s1), max(s0, s1)
