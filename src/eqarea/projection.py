"""Equal-area projection of overturned characteristic chains.

The flowed curve is interpolated by area-preserving Bezier segments; where
it overturns, vertical shock lines replace multivalued lobes so that the
enclosed signed area vanishes. Shocks attaching to the constant states are
roots of a one-dimensional residual in the connecting parameter (the
equal-area condition collapses to a tangency-type residual), and interior
shocks pair parameter values through vertical-line intersections. The
driver resolves the shock attaching to the lower state first, taking the
extremal admissible position, then climbs the remaining span resolving
interior and upper-state shocks until nothing is overturned.

For u_L > u_R this realizes the upper convex envelope of the flux; for
u_L < u_R the identical machinery runs mirrored and realizes the lower
envelope.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import bezier, rootfind
from .errors import ProjectionFailure

__all__ = [
    "CharChain",
    "ShockRecord",
    "ProjectedFront",
    "interpolate_chain",
    "find_shocks_to_state",
    "geap_project",
]

_REFINE_TOL = 1e-14  # bisection width in the chain parameter


@dataclass(frozen=True)
class ShockRecord:
    x_s: float
    u_top: float
    u_bot: float
    s_span: tuple[float, float]  # replaced chain-parameter interval


# one Bezier segment: its x and u control values and the Hermite fallback flag
_SEGMENT = np.dtype([("x", float, 4), ("u", float, 4), ("fallback", bool)])


class CharChain:
    """Front nodes plus one area-preserving Bezier segment per node pair.

    Constant states continue implicitly as half-lines left of the first
    node and right of the last. Segment areas telescope: prefix sums give
    exact chain areas between any two node parameters, and partial segment
    areas are exact three-point Gauss integrals, so no accuracy is lost
    when a query lands inside a segment.

    ``ctrl_x``/``ctrl_u`` are the ``(4, m)`` transposes of the segments'
    control values, row k holding control point k of every segment.
    ``x_at``, ``u_at``, ``locate`` and ``area_between`` take one parameter
    and stay on Python floats; their ``*_many`` forms take arrays of
    parameters and return the same values bit for bit.
    """

    def __init__(self, nodes: np.recarray, segments: np.recarray):
        self.nodes = nodes
        self.segments = segments
        self.node_s = np.ascontiguousarray(nodes.s)
        self.ctrl_x = segments.x.T
        self.ctrl_u = segments.u.T
        areas = bezier.gauss_area(self.ctrl_x, self.ctrl_u, 0.0, 1.0)
        self.seg_prefix = np.concatenate(([0.0], np.cumsum(areas)))
        self.left_state, self.right_state = nodes.u[[0, -1]].tolist()
        self.x_left_end, self.x_right_end = nodes.x[[0, -1]].tolist()
        self.seg_xmin = self.ctrl_x.min(axis=0)
        self.seg_xmax = self.ctrl_x.max(axis=0)
        # Python-float copies: the one-parameter queries stay off numpy scalars
        self._x_rows, self._u_rows = segments.x.tolist(), segments.u.tolist()
        self._s_list = self.node_s.tolist()
        self._prefix_list = self.seg_prefix.tolist()

    # -- parameter bookkeeping -------------------------------------------

    def locate(self, s: float) -> tuple[int, float]:
        """Segment index and local Bezier parameter for chain parameter s."""
        ns = self._s_list
        s = min(max(float(s), ns[0]), ns[-1])
        i = min(max(bisect.bisect_right(ns, s) - 1, 0), len(ns) - 2)
        s0, s1 = ns[i], ns[i + 1]
        return i, (s - s0) / (s1 - s0)

    def locate_many(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``locate`` over an array of chain parameters."""
        ns = self.node_s
        s = np.minimum(np.maximum(s, ns[0]), ns[-1])
        i = np.clip(np.searchsorted(ns, s, side="right") - 1, 0, len(ns) - 2)
        s0, s1 = ns[i], ns[i + 1]
        return i, (s - s0) / (s1 - s0)

    def param(self, i: int, t_loc: float) -> float:
        s0, s1 = self.node_s[i], self.node_s[i + 1]
        return s0 + t_loc * (s1 - s0)

    def x_at(self, s: float) -> float:
        i, t = self.locate(s)
        return bezier.bernstein(*self._x_rows[i], t)

    def u_at(self, s: float) -> float:
        i, t = self.locate(s)
        return bezier.bernstein(*self._u_rows[i], t)

    def x_at_many(self, s: np.ndarray) -> np.ndarray:
        i, t = self.locate_many(s)
        return bezier.bernstein(*self.ctrl_x[:, i], t)

    def u_at_many(self, s: np.ndarray) -> np.ndarray:
        i, t = self.locate_many(s)
        return bezier.bernstein(*self.ctrl_u[:, i], t)

    # -- exact areas ------------------------------------------------------

    def _partial_area(self, i: int, t0: float, t1: float) -> float:
        return bezier.gauss_area(self._x_rows[i], self._u_rows[i], t0, t1)

    def area_between(self, sa: float, sb: float) -> float:
        """Signed parametric area of the chain between two parameters."""
        if sb < sa:
            return -self.area_between(sb, sa)
        ia, ta = self.locate(sa)
        ib, tb = self.locate(sb)
        if ia == ib:
            return self._partial_area(ia, ta, tb)
        total = self._partial_area(ia, ta, 1.0)
        total += self._prefix_list[ib] - self._prefix_list[ia + 1]
        total += self._partial_area(ib, 0.0, tb)
        return total

    def area_between_many(self, sa, sb) -> np.ndarray:
        """``area_between`` over broadcast arrays of parameter pairs."""
        sa, sb = np.broadcast_arrays(np.asarray(sa, dtype=float), np.asarray(sb, dtype=float))
        flip = sb < sa
        ia, ta = self.locate_many(np.where(flip, sb, sa))
        ib, tb = self.locate_many(np.where(flip, sa, sb))
        cx_a, cu_a = self.ctrl_x[:, ia], self.ctrl_u[:, ia]
        cx_b, cu_b = self.ctrl_x[:, ib], self.ctrl_u[:, ib]
        across = bezier.gauss_area(cx_a, cu_a, ta, 1.0)
        across += self.seg_prefix[ib] - self.seg_prefix[ia + 1]
        across += bezier.gauss_area(cx_b, cu_b, 0.0, tb)
        total = np.where(ia == ib, bezier.gauss_area(cx_a, cu_a, ta, tb), across)
        return np.where(flip, -total, total)

    def total_area(self) -> float:
        return float(self.seg_prefix[-1])

    def window_area(self, x_lo: float, x_hi: float) -> float:
        """Integral of u dx over [x_lo, x_hi], flanks included.

        For an overturned chain this is the signed parametric integral, the
        quantity the projection conserves.
        """
        return (self.left_state * (self.x_left_end - x_lo) + self.total_area()
                + self.right_state * (x_hi - self.x_right_end))

    # -- geometry queries -------------------------------------------------

    def intersections(self, x_line: float, s_lo: float | None = None,
                      s_hi: float | None = None) -> list[float]:
        """Chain parameters where the chain meets the vertical line."""
        s_lo = self.node_s[0] if s_lo is None else s_lo
        s_hi = self.node_s[-1] if s_hi is None else s_hi
        pad = 1e-12 * (abs(x_line) + 1.0)
        cand = np.flatnonzero((self.seg_xmin - pad <= x_line) & (x_line <= self.seg_xmax + pad))
        out: list[float] = []
        for i in cand:
            for t in bezier.intersect_vertical(self._x_rows[i], x_line):
                s = self.param(int(i), t)
                if s_lo - 1e-12 <= s <= s_hi + 1e-12:
                    out.append(s)
        out.sort()
        dedup: list[float] = []
        tol = 1e-12 * max(1.0, self.node_s[-1] - self.node_s[0])
        for s in out:
            if not dedup or s - dedup[-1] > tol:
                dedup.append(s)
        return dedup

    def fold_params(self, s_lo: float | None = None, s_hi: float | None = None) -> list[float]:
        """Parameters where the horizontal tangent of the chain vanishes."""
        s_lo = self.node_s[0] if s_lo is None else s_lo
        s_hi = self.node_s[-1] if s_hi is None else s_hi
        out = []
        for i, (x0, x1, x2, x3) in enumerate(self._x_rows):
            if self.node_s[i + 1] < s_lo or self.node_s[i] > s_hi:
                continue
            a = 3.0 * (-x0 + 3.0 * x1 - 3.0 * x2 + x3)
            b = 6.0 * (x0 - 2.0 * x1 + x2)
            c = 3.0 * (x1 - x0)
            for t in bezier._quadratic_roots(a, b, c):
                if -1e-12 <= t <= 1.0 + 1e-12:
                    s = self.param(i, min(max(t, 0.0), 1.0))
                    if s_lo <= s <= s_hi:
                        out.append(s)
        return sorted(out)


_SLOPE_CAP = 8.0  # max |du/dx| for graph-form tangents


def _build_segment(a, b, graph_form: bool):
    """Segment between two nodes given as (s, x, u, tx, tu, cum_area)."""
    sa, xa, ua, txa, tua, area_a = a
    sb, xb, ub, txb, tub, area_b = b
    h = abs(xb - xa)
    if h == 0.0:
        raise bezier.DegenerateSegment(
            f"zero horizontal extent between s={sa} and s={sb}")
    if graph_form:
        # slope tangents (1, du/dx); with r1 = h this is the plain graph
        # construction and carries the generic fifth-order error
        fa, fb = 1.0 / abs(txa), 1.0 / abs(txb)
    else:
        # chain-parameter scaling: end derivatives equal ds * curve', which
        # stays regular through folds where the horizontal extent collapses
        fa = fb = (sb - sa) / h
    return bezier.construct_area_preserving(
        (xa, ua), (xb, ub), (txa * fa, tua * fa), (txb * fb, tub * fb), area_b - area_a)


def interpolate_chain(nodes: np.recarray) -> CharChain:
    """Build the Bezier chain over the flowed nodes.

    Shallow segments (endpoint slopes within the cap) interpolate in graph
    form with r1 equal to the horizontal extent; steep and fold-straddling
    segments fall back to the chain-parameter tangent scaling, which is the
    same data expressed in the rotated graph frame. A segment whose area
    solve degenerates is rebuilt the second way so the per-segment area
    constraint survives at coarse node counts.
    """
    if len(nodes) < 2:
        raise ValueError("need at least two chain nodes")
    points = list(zip(*(nodes[name].tolist()
                        for name in ("s", "x", "u", "tx", "tu", "cum_area"))))
    # slopes within the cap at both ends
    ok = (nodes.tx != 0.0) & (np.abs(nodes.tu) <= _SLOPE_CAP * np.abs(nodes.tx))
    built = []
    for a, b, shallow in zip(points[:-1], points[1:], (ok[:-1] & ok[1:]).tolist()):
        seg = _build_segment(a, b, graph_form=shallow)
        if seg[2]:
            retry = _build_segment(a, b, graph_form=False)
            if not retry[2]:
                seg = retry
        built.append(seg)
    chain = CharChain(nodes, np.rec.fromrecords(built, dtype=_SEGMENT))
    total = chain.total_area()
    want = points[-1][5] - points[0][5]
    if abs(total - want) > 1e-11 * max(1.0, abs(want)):
        raise ProjectionFailure(
            f"segment areas drifted from node areas: {total} vs {want}")
    return chain


def _flank_leg_left(chain: CharChain, x_s: float) -> float:
    return chain.left_state * (chain.x_left_end - x_s)


def _flank_leg_right(chain: CharChain, x_s: float) -> float:
    return chain.right_state * (x_s - chain.x_right_end)


def _scan_points(chain: CharChain, s_lo: float, s_hi: float) -> np.ndarray:
    """Node parameters and segment midpoints covering (s_lo, s_hi)."""
    ns = chain.node_s
    mids = 0.5 * (ns[:-1] + ns[1:])
    eps = 1e-9 * max(1.0, abs(s_hi - s_lo))
    if s_hi - s_lo <= 3.0 * eps:
        return np.empty(0)
    pts = np.unique(np.concatenate((ns, mids)))
    pts = pts[(pts > s_lo + eps) & (pts < s_hi - eps)]
    return np.concatenate(([s_lo + eps], pts, [s_hi - eps]))


def _attach_residual(chain: CharChain, side: str):
    """Equal-area residual for shocks attaching to one constant state.

    Returns the residual of one parameter and its form over an array of
    parameters, which gives the same values.
    """
    lo, hi = chain.node_s[0], chain.node_s[-1]
    if side == "right":
        def rho(s: float) -> float:
            return chain.area_between(s, hi) + _flank_leg_right(chain, chain.x_at(s))

        def rho_many(s: np.ndarray) -> np.ndarray:
            return chain.area_between_many(s, hi) + _flank_leg_right(chain, chain.x_at_many(s))
    else:
        def rho(s: float) -> float:
            return chain.area_between(lo, s) + _flank_leg_left(chain, chain.x_at(s))

        def rho_many(s: np.ndarray) -> np.ndarray:
            return chain.area_between_many(lo, s) + _flank_leg_left(chain, chain.x_at_many(s))
    return rho, rho_many


def _attach_roots(chain: CharChain, side: str, s_lo: float, s_hi: float) -> list[float]:
    rho, rho_many = _attach_residual(chain, side)
    pts = _scan_points(chain, s_lo, s_hi)
    vals = rho_many(pts)
    roots = []
    for k in range(len(pts) - 1):
        fa, fb = vals[k], vals[k + 1]
        if fa == 0.0:
            roots.append(float(pts[k]))
        elif fb != 0.0 and (fa > 0.0) != (fb > 0.0):
            roots.append(rootfind.bisect(rho, float(pts[k]), float(pts[k + 1]),
                                         float(fa), float(fb), _REFINE_TOL))
    return roots


def _admissible_attach(chain: CharChain, side: str, s: float) -> bool:
    """The vertical line at x(s) must actually reach the flank half-line."""
    x = chain.x_at(s)
    tol = 1e-9 * (1.0 + abs(x))
    if side == "right":
        return x >= chain.x_right_end - tol
    return x <= chain.x_left_end + tol


def _full_shock(chain: CharChain, lo: float, hi: float) -> ShockRecord | None:
    """Vertical line joining the two constant states with zero loop area."""
    u_l, u_r = chain.left_state, chain.right_state
    if u_l == u_r:
        return None
    x_s = (u_l * chain.x_left_end - u_r * chain.x_right_end + chain.total_area()) / (u_l - u_r)
    tol = 1e-9 * (1.0 + abs(x_s) + abs(chain.x_left_end) + abs(chain.x_right_end))
    if x_s > chain.x_left_end + tol or x_s < chain.x_right_end - tol:
        return None
    return ShockRecord(x_s, max(u_l, u_r), min(u_l, u_r), (lo, hi))


def find_shocks_to_state(chain: CharChain) -> list[ShockRecord]:
    """All equal-area shocks attaching to the bottom constant state.

    The bottom state is the smaller of the two flank values. Interior
    shocks connect a chain point to its flank and replace the chain between
    that point and the flank's end; the shock joining the two constant
    states outright is included, with the whole chain as its span, when its
    line reaches both flanks. Selection among them is the caller's job.
    """
    upper = chain.left_state > chain.right_state
    # bottom state sits on the right flank in the upper case
    side = "right" if upper else "left"
    flank_u = chain.right_state if upper else chain.left_state

    lo, hi = float(chain.node_s[0]), float(chain.node_s[-1])
    out: list[ShockRecord] = []
    for s in _attach_roots(chain, side, lo, hi):
        if not _admissible_attach(chain, side, s):
            continue
        u = chain.u_at(s)
        out.append(ShockRecord(chain.x_at(s), max(u, flank_u), min(u, flank_u),
                               (s, hi) if upper else (lo, s)))
    full = _full_shock(chain, lo, hi)
    if full is not None:
        out.append(full)
    return out


def _interior_partner(chain: CharChain, s_hat: float, span: tuple[float, float],
                      upper: bool, branch: int) -> float | None:
    """The branch-th intersection of the line x(s_hat) on the far side."""
    x_line = chain.x_at(s_hat)
    tol = 1e-10 * max(1.0, chain.node_s[-1] - chain.node_s[0])
    if upper:
        hits = [s for s in chain.intersections(x_line, span[0], s_hat)
                if s < s_hat - tol]
        hits.reverse()  # nearest below first
    else:
        hits = [s for s in chain.intersections(x_line, s_hat, span[1])
                if s > s_hat + tol]
    if branch < len(hits):
        return hits[branch]
    return None


def _interior_root_extremal(chain: CharChain, span: tuple[float, float],
                            upper: bool) -> tuple[float, float] | None:
    """Extremal-parameter interior equal-area pair within the span.

    Scans the candidate endpoint parameter from the resolved end inward,
    tracking every intersection branch; the first sign change met is the
    extremal root. Returns (s_hat, s_partner) or None.
    """
    pts = _scan_points(chain, span[0], span[1])
    if upper:
        pts = pts[::-1]  # largest parameter first

    def residual(s_hat: float, branch: int) -> float | None:
        partner = _interior_partner(chain, s_hat, span, upper, branch)
        if partner is None:
            return None
        if upper:
            return chain.area_between(partner, s_hat)
        return chain.area_between(s_hat, partner)

    max_branches = len(chain.segments) * 3
    prev_vals: dict[int, float] = {}
    prev_s = None
    for s in pts:
        s = float(s)
        vals: dict[int, float] = {}
        for branch in range(max_branches):
            r = residual(s, branch)
            if r is None:
                break
            vals[branch] = r
        if prev_s is not None:
            best: tuple[float, float] | None = None
            for branch, fb in vals.items():
                fa = prev_vals.get(branch)
                if fa is None:
                    continue
                root = None
                if fa == 0.0:
                    root = prev_s
                elif fb == 0.0:
                    root = s
                elif (fa > 0.0) != (fb > 0.0):
                    a, b = (s, prev_s) if s < prev_s else (prev_s, s)
                    va, vb = (fb, fa) if s < prev_s else (fa, fb)

                    def f(q, _br=branch):
                        r = residual(q, _br)
                        return math.inf if r is None else r
                    root = rootfind.bisect(f, a, b, va, vb, _REFINE_TOL)
                if root is None:
                    continue
                if best is None or (upper and root > best[0]) or (not upper and root < best[0]):
                    partner = _interior_partner(chain, root, span, upper, branch)
                    # branch misalignment across fold boundaries can hone in
                    # on a vanishing lobe; those are not shocks
                    if partner is not None and abs(root - partner) > 1e-9 * (span[1] - span[0]):
                        best = (root, partner)
            if best is not None:
                return best
        prev_vals = vals
        prev_s = s
    return None


def _top_root_extremal(chain: CharChain, span: tuple[float, float],
                       upper: bool) -> float | None:
    """Extremal root attaching to the top state within the span."""
    side = "left" if upper else "right"
    roots = [s for s in _attach_roots(chain, side, span[0], span[1])
             if _admissible_attach(chain, side, s)]
    if not roots:
        return None
    return max(roots) if upper else min(roots)


@dataclass(frozen=True)
class ProjectedFront:
    """Single-valued weak-solution front: kept chain spans plus shocks.

    Items alternate kept spans and shocks in ascending x; the constant
    states continue as half-lines beyond ``left_cut_x``/``right_cut_x``
    (the positions where the flanks meet the first and last item).
    """

    chain: CharChain
    mode: str                                    # "upper" | "lower"
    shocks: tuple[ShockRecord, ...]              # ordered by position
    kept_spans: tuple[tuple[float, float], ...]  # ascending chain parameter
    left_cut_x: float
    right_cut_x: float

    def window_area(self, x_lo: float, x_hi: float) -> float:
        """Integral of u dx of the projected front over [x_lo, x_hi]."""
        chain = self.chain
        total = chain.left_state * (self.left_cut_x - x_lo)
        total += sum(chain.area_between(a, b) for a, b in self.kept_spans)
        total += chain.right_state * (x_hi - self.right_cut_x)
        return total


def geap_project(chain: CharChain) -> ProjectedFront:
    """Resolve every overturned region of the chain into equal-area shocks.

    Bottom-state attachment first (extremal position, the state-joining
    shock included), then repeated interior/top resolution on the remaining
    span. The kept spans are checked to be single-valued in x; failure to
    separate shocks raises ProjectionFailure rather than merging anything
    silently.
    """
    lo, hi = float(chain.node_s[0]), float(chain.node_s[-1])
    upper = chain.left_state > chain.right_state
    mode = "upper" if upper else "lower"

    if not chain.fold_params():
        xs = chain.nodes.x
        if np.all(xs[1:] >= xs[:-1]):
            return ProjectedFront(chain, mode, (), ((lo, hi),),
                                  chain.x_left_end, chain.x_right_end)

    shocks: list[ShockRecord] = []
    # Phase A: the shock attaching to the bottom constant state.
    candidates = find_shocks_to_state(chain)
    s_cur = hi if upper else lo
    if candidates:
        def key(rec: ShockRecord):
            return (rec.x_s if upper else -rec.x_s, rec.u_top)
        best = max(candidates, key=key)
        if best.s_span == (lo, hi):
            return ProjectedFront(chain, mode, (best,), (), best.x_s, best.x_s)
        s_cur = best.s_span[0] if upper else best.s_span[1]
        shocks.append(best)

    # Phase B: climb the remaining span.
    for _ in range(len(chain.nodes) + 1):
        span = (lo, s_cur) if upper else (s_cur, hi)
        if span[1] - span[0] <= 1e-12:
            break
        pair = _interior_root_extremal(chain, span, upper)
        s_top = _top_root_extremal(chain, span, upper)

        use_top = False
        if s_top is not None and pair is None:
            use_top = True
        elif s_top is not None and pair is not None:
            use_top = (s_top >= pair[0]) if upper else (s_top <= pair[0])

        if use_top:
            x_s = chain.x_at(s_top)
            u = chain.u_at(s_top)
            top_u = chain.left_state if upper else chain.right_state
            span_rep = (lo, s_top) if upper else (s_top, hi)
            shocks.append(ShockRecord(x_s, max(u, top_u), min(u, top_u), span_rep))
            s_cur = lo if upper else hi
            break
        if pair is None:
            break
        s_hat, s_partner = pair
        x_s = chain.x_at(s_hat)
        ua, ub = chain.u_at(s_hat), chain.u_at(s_partner)
        span_rep = (s_partner, s_hat) if upper else (s_hat, s_partner)
        shocks.append(ShockRecord(x_s, max(ua, ub), min(ua, ub), span_rep))
        s_cur = s_partner
    else:
        raise ProjectionFailure("shock resolution did not terminate")

    # Assemble kept spans between replaced ones.
    covered = sorted(s.s_span for s in shocks)
    kept: list[tuple[float, float]] = []
    cursor = lo
    for a, b in covered:
        if a - cursor > 1e-12:
            kept.append((cursor, a))
        cursor = max(cursor, b)
    if hi - cursor > 1e-12:
        kept.append((cursor, hi))

    left_cut = chain.x_left_end
    right_cut = chain.x_right_end
    for rec in shocks:
        if rec.s_span[0] <= lo + 1e-12:
            left_cut = rec.x_s
        if rec.s_span[1] >= hi - 1e-12:
            right_cut = rec.x_s

    front = ProjectedFront(chain, mode, tuple(sorted(shocks, key=lambda s: s.x_s)),
                           tuple(kept), left_cut, right_cut)
    _validate_front(front)
    return front


def _validate_front(front: ProjectedFront) -> None:
    chain = front.chain
    for a, b in front.kept_spans:
        interior = [s for s in chain.fold_params(a, b)
                    if a + 1e-9 < s < b - 1e-9]
        if interior:
            raise ProjectionFailure(
                f"kept span ({a}, {b}) still overturns at {interior[:3]}")
        if chain.x_at(b) < chain.x_at(a) - 1e-9 * (1.0 + abs(chain.x_at(a))):
            raise ProjectionFailure(f"kept span ({a}, {b}) runs backwards in x")
