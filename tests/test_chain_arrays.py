"""Array forms of the chain queries against the per-point loops they replace.

The reference functions below are the per-point scalar code that
``CharChain`` and ``sample_front`` used before the control points were
stored as arrays. They stay here as the oracle: every array result must
equal them exactly (``==``, not a tolerance), because the CSV output is
required to stay byte-identical.
"""

from functools import lru_cache

import numpy as np
import pytest

import eqarea.solver as solver
from eqarea.characteristics import InitialData, flow, seed_riemann
from eqarea.cli import EXAMPLES
from eqarea.flux import parse_flux_spec
from eqarea.projection import ProjectedFront, geap_project, interpolate_chain

fill_forward = solver._fill_forward  # kept before any test replaces it

_GAUSS3_T = (0.5 - np.sqrt(0.15), 0.5, 0.5 + np.sqrt(0.15))
_GAUSS3_W = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)


# -- reference: the per-point scalar code ------------------------------------

@lru_cache(maxsize=4)
def ref_segments(chain):
    """The chain's segments as (x controls, u controls) Python-float tuples."""
    return [(tuple(xc), tuple(uc))
            for xc, uc in zip(chain.segments.x.tolist(), chain.segments.u.tolist())]


def ref_point_at(seg, t):
    (x0, x1, x2, x3), (y0, y1, y2, y3) = seg
    s = 1.0 - t
    b0 = s * s * s
    b1 = 3.0 * s * s * t
    b2 = 3.0 * s * t * t
    b3 = t * t * t
    x = b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3
    y = b0 * y0 + b1 * y1 + b2 * y2 + b3 * y3
    return x, y


def ref_derivative_at(seg, t):
    (x0, x1, x2, x3), (y0, y1, y2, y3) = seg
    s = 1.0 - t
    dx = 3.0 * (s * s * (x1 - x0)
                + 2.0 * s * t * (x2 - x1)
                + t * t * (x3 - x2))
    dy = 3.0 * (s * s * (y1 - y0)
                + 2.0 * s * t * (y2 - y1)
                + t * t * (y3 - y2))
    return dx, dy


def ref_segment_area(seg):
    total = 0.0
    for t, w in zip(_GAUSS3_T, _GAUSS3_W):
        _, y = ref_point_at(seg, t)
        dx, _ = ref_derivative_at(seg, t)
        total += w * y * dx
    return total


def ref_locate(chain, s):
    s = min(max(s, chain.node_s[0]), chain.node_s[-1])
    i = int(np.searchsorted(chain.node_s, s, side="right")) - 1
    i = min(max(i, 0), len(chain.segments) - 1)
    s0, s1 = chain.node_s[i], chain.node_s[i + 1]
    return i, (s - s0) / (s1 - s0)


def ref_x_at(chain, s):
    i, t = ref_locate(chain, s)
    return float(ref_point_at(ref_segments(chain)[i], t)[0])


def ref_u_at(chain, s):
    i, t = ref_locate(chain, s)
    return float(ref_point_at(ref_segments(chain)[i], t)[1])


def ref_partial_area(chain, i, t0, t1):
    seg = ref_segments(chain)[i]
    total = 0.0
    for gt, gw in zip(_GAUSS3_T, _GAUSS3_W):
        t = t0 + (t1 - t0) * gt
        _, y = ref_point_at(seg, t)
        dx, _ = ref_derivative_at(seg, t)
        total += gw * y * dx
    return total * (t1 - t0)


def ref_area_between(chain, sa, sb):
    if sb < sa:
        return -ref_area_between(chain, sb, sa)
    ia, ta = ref_locate(chain, sa)
    ib, tb = ref_locate(chain, sb)
    if ia == ib:
        return ref_partial_area(chain, ia, ta, tb)
    total = ref_partial_area(chain, ia, ta, 1.0)
    total += chain.seg_prefix[ib] - chain.seg_prefix[ia + 1]
    total += ref_partial_area(chain, ib, 0.0, tb)
    return total


def ref_invert_chain_span(chain, sa, sb, xq):
    lo = np.full_like(xq, sa)
    hi = np.full_like(xq, sb)
    increasing = ref_x_at(chain, sb) >= ref_x_at(chain, sa)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        x_mid = np.array([ref_x_at(chain, float(s)) for s in mid])
        go_right = (x_mid < xq) if increasing else (x_mid > xq)
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
        if np.max(hi - lo) < 1e-14:
            break
    s_fin = 0.5 * (lo + hi)
    return np.array([ref_u_at(chain, float(s)) for s in s_fin])


def ref_fill_forward(us, first):
    us = us.copy()
    for i in np.flatnonzero(np.isnan(us)):
        us[i] = us[i - 1] if i > 0 else first
    return us


# -- chains of the registered examples ---------------------------------------

def example_fronts(example_id, n):
    """Projected fronts of one example; the box gives one per jump."""
    spec = EXAMPLES[example_id]
    flux = parse_flux_spec(spec.flux_text)
    if spec.kind == "riemann":
        x0, u_L, u_R = spec.params
        jumps = [(x0, u_L, u_R)]
    else:
        x0, x1, u_in, u_out = spec.params
        jumps = [(x0, u_out, u_in), (x1, u_in, u_out)]
    return [geap_project(interpolate_chain(flow(seed_riemann(u_l, u_r, x, n), flux, spec.time)))
            for x, u_l, u_r in jumps]


def probe_params(chain):
    """Nodes, segment midpoints, both ends and clamped points beyond them."""
    ns = chain.node_s
    lo, hi = float(ns[0]), float(ns[-1])
    width = hi - lo
    rng = np.random.default_rng(len(ns))
    return np.concatenate((
        ns, 0.5 * (ns[:-1] + ns[1:]),
        [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)],
        [lo - 0.5 * width, lo - 1e-13, hi + 1e-13, hi + 0.5 * width],
        rng.uniform(lo, hi, 64)))


CASES = [(ex, n) for ex in (1, 3, 4, 5) for n in (40, 160, 640)]


@pytest.mark.parametrize("example_id,n", CASES, ids=[f"ex{e}-n{n}" for e, n in CASES])
def test_array_forms_equal_per_point_reference(example_id, n):
    for front in example_fronts(example_id, n):
        chain = front.chain
        ss = probe_params(chain)

        areas = [ref_segment_area(seg) for seg in ref_segments(chain)]
        assert chain.seg_prefix.tolist() == np.concatenate(([0.0], np.cumsum(areas))).tolist()

        i_many, t_many = chain.locate_many(ss)
        ref = [ref_locate(chain, float(s)) for s in ss]
        assert i_many.tolist() == [i for i, _ in ref]
        assert t_many.tolist() == [t for _, t in ref]
        assert [chain.locate(float(s)) for s in ss] == ref

        x_ref = [ref_x_at(chain, float(s)) for s in ss]
        u_ref = [ref_u_at(chain, float(s)) for s in ss]
        assert chain.x_at_many(ss).tolist() == x_ref
        assert chain.u_at_many(ss).tolist() == u_ref
        assert [chain.x_at(float(s)) for s in ss] == x_ref
        assert [chain.u_at(float(s)) for s in ss] == u_ref

        # pairs in both orders, within one segment, across many, and equal
        sa = np.concatenate((ss, ss[::-1], ss))
        sb = np.concatenate((ss[::-1], ss, ss))
        area_ref = [ref_area_between(chain, float(a), float(b)) for a, b in zip(sa, sb)]
        assert chain.area_between_many(sa, sb).tolist() == area_ref
        assert [chain.area_between(float(a), float(b)) for a, b in zip(sa, sb)] == area_ref
        lo, hi = chain.node_s[0], chain.node_s[-1]
        assert chain.area_between_many(lo, ss).tolist() == [ref_area_between(chain, lo, float(s)) for s in ss]
        assert chain.area_between_many(ss, hi).tolist() == [ref_area_between(chain, float(s), hi) for s in ss]


@pytest.mark.parametrize("example_id,n", CASES, ids=[f"ex{e}-n{n}" for e, n in CASES])
def test_invert_chain_span_equals_per_point_reference(example_id, n):
    for front in example_fronts(example_id, n):
        chain = front.chain
        xs = np.linspace(front.left_cut_x - 0.5, front.right_cut_x + 0.5, 241)
        for sa, sb in front.kept_spans:
            xa, xb = chain.x_at(sa), chain.x_at(sb)
            xq = xs[(xs >= xa - 1e-12) & (xs <= xb + 1e-12)]
            # the span ends and points just inside them as well
            xq = np.concatenate((xq, [xa, xb, xa + 1e-13, xb - 1e-13]))
            got = solver._invert_chain_span(chain, sa, sb, xq)
            assert got.tolist() == ref_invert_chain_span(chain, sa, sb, xq).tolist()


# -- forward fill --------------------------------------------------------------

def test_fill_forward_equals_loop_on_gap_patterns():
    rng = np.random.default_rng(5)
    patterns = [np.full(7, np.nan), np.arange(7.0)]
    for _ in range(200):
        us = rng.normal(size=int(rng.integers(1, 40)))
        us[rng.random(us.size) < rng.random()] = np.nan
        patterns.append(us)
    for us in patterns:
        want = ref_fill_forward(us, -3.5)
        got = fill_forward(us.copy(), -3.5)
        assert np.array_equal(got, want, equal_nan=True)
        assert not np.any(np.isnan(got))


@pytest.fixture
def fill_inputs(monkeypatch):
    """Every array handed to the forward fill, copied before it is filled."""
    seen = []

    def spy(us, first):
        seen.append((us.copy(), first))
        return fill_forward(us, first)

    monkeypatch.setattr(solver, "_fill_forward", spy)
    return seen


def test_fill_forward_on_example5_box(fill_inputs):
    spec = EXAMPLES[5]
    flux = parse_flux_spec(spec.flux_text)
    x0, x1, u_in, u_out = spec.params
    prof = solver.solve_piecewise(flux, InitialData.box(x0, x1, u_in, u_out), spec.time, 160)
    assert len(fill_inputs) >= 2  # one per fan sample plus the assembled profile
    for us, first in fill_inputs:
        assert np.array_equal(fill_forward(us.copy(), first),
                              ref_fill_forward(us, first), equal_nan=True)
    assert not np.any(np.isnan(prof.us))


def test_fill_forward_on_detached_fans(fill_inputs):
    # the kept spans of example 1 cut into two pieces with a gap in x
    # between them and none reaching the left cut: the samples left of the
    # first piece and inside the gap are plateaus that the fill closes
    (front,) = example_fronts(1, 160)
    (sa, sb), = front.kept_spans
    s1, s2 = sa + 0.3 * (sb - sa), sa + 0.6 * (sb - sa)
    chain = front.chain
    detached = ProjectedFront(chain, front.mode, front.shocks,
                              ((s1, s1 + 0.1 * (sb - sa)), (s2, sb)),
                              chain.x_at(sa) - 0.5, front.right_cut_x)
    xs = np.linspace(chain.x_at(sa) - 0.25, front.right_cut_x + 0.25, 401)
    us = solver.sample_front(detached, xs)

    (raw, first), = fill_inputs
    gaps = np.isnan(raw)
    assert gaps[0] and gaps.sum() > 10 and not gaps[-1]
    assert np.array_equal(us, ref_fill_forward(raw, first))
    assert us[0] == chain.left_state
    # the gap takes the value at the end of the first piece
    x_gap = 0.5 * (chain.x_at(s1 + 0.1 * (sb - sa)) + chain.x_at(s2))
    k = int(np.searchsorted(xs, x_gap))
    assert gaps[k] and us[k] == us[np.flatnonzero(~gaps[:k])[-1]]
