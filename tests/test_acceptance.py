"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import time

import numpy as np
import pytest

from conftest import BL_SPEED, E1_SPEED, E3_A, E3_B, E3_SPEED
from eqarea import bezier
from eqarea.characteristics import InitialData, flow, seed_riemann
from eqarea.cli import converge, parse_ladder
from eqarea.envelope import Secant, build_envelope, oracle_envelope
from eqarea.flux import buckley_leverett, parse_flux_spec, polynomial_flux
from eqarea.projection import geap_project, interpolate_chain
from eqarea.solver import sample_front, solve_piecewise, solve_riemann_numerical

LADDER = parse_ladder("10x2^5")
ROUNDOFF_FLOOR = 1e-12  # below this converge leaves the order column empty


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f": {detail}" if detail else ""
    print(f"criterion {num:2d} [{verdict}] {name}{tail}")
    return ok


def _fit_order(ns, errs):
    return -float(np.polyfit(np.log(ns), np.log(errs), 1)[0])


@pytest.fixture(scope="module")
def fluxes():
    return {
        1: parse_flux_spec("polynomial:[0,0,4,-4,1]"),
        3: polynomial_flux([0.0, 0.0, 3.0, -5.0 / 3.0, 0.25]),
        4: buckley_leverett(0.5),
    }


def test_criterion_1_envelope_oracle_equivalence(fluxes):
    rng = np.random.default_rng(2024)
    jobs = [(fluxes[1], (-0.5, 2.5)), (fluxes[1], (-1.0, 3.0)),
            (fluxes[3], (-0.5, 4.0)), (fluxes[4], (0.0, 1.0))]
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    ok = True
    for flux, span in jobs:
        done = 0
        while done < 50:
            u_L, u_R = rng.uniform(*span, 2)
            if abs(u_L - u_R) < 1e-3:
                continue
            done += 1
            checked += 1
            built = build_envelope(flux, u_L, u_R)
            oracle = oracle_envelope(flux, u_L, u_R, 10**5)
            if len(built.segments) != len(oracle.segments):
                ok = False
                continue
            bp_b, bp_o = built.breakpoints(), oracle.breakpoints()
            if bp_b:
                gap = float(np.max(np.abs(np.array(bp_b) - np.array(bp_o))))
                worst = max(worst, gap)
                ok = ok and gap <= 1e-3
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert _report(1, "envelope oracle equivalence",
                   ok, f"{checked} pairs, worst breakpoint gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_example1_shock_positions(fluxes):
    prof = solve_riemann_numerical(fluxes[1], 2.0, 0.0, 0.0, 1.0, 320)
    xs = sorted(s.x_s for s in prof.shocks)
    err = max(abs(xs[0] + E1_SPEED), abs(xs[1] - E1_SPEED))
    ok = len(xs) == 2 and err <= 1e-8
    assert _report(2, "example 1 shocks at +-32/27 (n=320)", ok, f"error {err:.2e}")


def test_criterion_3_example2_exact_all_partitions(fluxes):
    worst = 0.0
    ok = True
    for n in LADDER:
        prof = solve_riemann_numerical(fluxes[1], 0.0, 2.0, 0.0, 1.0, n)
        ok = ok and len(prof.shocks) == 1
        worst = max(worst, abs(prof.shocks[0].x_s))
    ok = ok and worst <= 1e-12
    assert _report(3, "example 2 standing wave exact at every n", ok, f"worst |x_s| {worst:.2e}")


def test_criterion_4_example3_structure_and_states(fluxes):
    ok = True
    for n in (16, 24, 40, 80, 160):
        prof = solve_riemann_numerical(fluxes[3], 0.0, 3.5, 0.0, 1.0, n)
        ok = ok and prof.waves == ["R", "S", "R"]
    prof = solve_riemann_numerical(fluxes[3], 0.0, 3.5, 0.0, 1.0, 160)
    rec = prof.shocks[0]
    state_err = max(abs(rec.u_bot - E3_A), abs(rec.u_top - E3_B))
    speed_err = abs(rec.speed - E3_SPEED)
    ok = ok and state_err <= 1e-6 and speed_err <= 1e-5
    assert _report(4, "example 3 (R,S,R) with bitangent states",
                   ok, f"state err {state_err:.2e}, speed err {speed_err:.2e}")


def test_criterion_5_buckley_leverett_order(fluxes):
    rows = converge(4, LADDER)
    errs = np.array([r[1] for r in rows])
    order = _fit_order(LADDER, errs)
    prof = solve_riemann_numerical(fluxes[4], 1.0, 0.0, 0.0, 1.0, 321)
    speed_err = abs(prof.shocks[0].speed - BL_SPEED)
    ok = order >= 4.5 and speed_err <= 1e-6
    assert _report(5, "Buckley-Leverett order >= 4.5 (noisy ladder)",
                   ok, f"ls order {order:.2f}, speed err {speed_err:.2e}")


def test_criterion_6_fifth_order_shock_location():
    # At least fifth order: shock location superconverges to sixth order
    # (notes/shock_order.md), so the slope has no upper edge. Rungs at the
    # roundoff floor are left out of the fit, as in criterion 7.
    ok = True
    details = []
    for ex in (1, 3):
        start = time.perf_counter()
        rows = converge(ex, LADDER)
        elapsed = time.perf_counter() - start
        errs = np.array([r[1] for r in rows])
        counts_ok = bool(np.all(np.isfinite(errs)))  # inf marks a wrong wave count
        live = np.isfinite(errs) & (errs >= ROUNDOFF_FLOOR)
        enough = counts_ok and live.sum() >= 3
        order = _fit_order(np.array(LADDER)[live], errs[live]) if enough else float("nan")
        ok = ok and enough and order >= 4.5 and elapsed < 30.0
        local = " ".join(f"{float(r[2]):.2f}" if r[2] else "-" for r in rows[1:])
        details.append(f"ex{ex} slope {order:.2f} over {int(live.sum())} live rungs"
                       f" (local orders {local}; {elapsed:.1f}s)"
                       + ("" if counts_ok else " wrong wave count"))
    assert _report(6, "fifth-order shock location, examples 1 and 3",
                   ok, "; ".join(details))


def test_criterion_7_bezier_fifth_order():
    sizes = [8, 16, 32, 64, 128, 256]
    errors = []
    areas_ok = True
    tt = np.linspace(0.0, 1.0, 160)
    for n in sizes:
        xs = np.linspace(0.0, 1.0, n + 1)
        emax = 0.0
        for a, b in zip(xs[:-1], xs[1:]):
            target = math.cos(a) - math.cos(b)
            xc, yc, fallback = bezier.construct_area_preserving(
                (a, math.sin(a)), (b, math.sin(b)),
                (1.0, math.cos(a)), (1.0, math.cos(b)), target)
            if not fallback:
                areas_ok = areas_ok and abs(bezier.gauss_area(xc, yc, 0.0, 1.0) - target) <= 1e-12
            bx, by = bezier.bernstein(*xc, tt), bezier.bernstein(*yc, tt)
            emax = max(emax, float(np.max(np.abs(by - np.sin(bx)))))
        errors.append(emax)
    errors = np.array(errors)
    live = errors > 1e-13  # rungs above double-precision saturation
    order = _fit_order(np.array(sizes)[live], errors[live])
    ok = areas_ok and 4.5 <= order <= 5.5 and live.sum() >= 3
    assert _report(7, "area-preserving interpolation fifth order on sin",
                   ok, f"slope {order:.2f} over {int(live.sum())} live rungs, areas exact: {areas_ok}")


def _piecewise_trapezoid_mass(sampler, window, shock_xs, pts=100000):
    edges = [window[0]] + sorted(x for x in shock_xs if window[0] < x < window[1]) + [window[1]]
    nudge = 1e-11
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        xs = np.linspace(a + nudge, b - nudge, pts)
        total += float(np.trapezoid(sampler(xs), xs))
    return total


def test_criterion_8_conservation(fluxes):
    ok = True
    details = []
    # (a) chain area before vs after projection
    cases = [(fluxes[1], 2.0, 0.0), (fluxes[1], 0.0, 2.0),
             (fluxes[3], 0.0, 3.5), (fluxes[4], 1.0, 0.0)]
    worst_proj = 0.0
    for flux, u_L, u_R in cases:
        chain = interpolate_chain(flow(seed_riemann(u_L, u_R, 0.0, 160), flux, 1.0))
        front = geap_project(chain)
        window = (-6.0, 8.0)
        before = chain.window_area(*window)
        after = front.window_area(*window)
        rel = abs(after - before) / (1.0 + abs(before))
        worst_proj = max(worst_proj, rel)
    ok = ok and worst_proj <= 1e-11
    details.append(f"projection drift {worst_proj:.2e}")

    # (b) sampled-profile mass drift equals the boundary flux difference
    worst_mass = 0.0
    for flux, u_L, u_R in cases:
        t = 1.0
        prof = solve_riemann_numerical(flux, u_L, u_R, 0.0, t, 160)
        front = prof.front
        window = prof.window
        mass = _piecewise_trapezoid_mass(lambda xs: sample_front(front, xs), window,
                                         [s.x_s for s in prof.shocks])
        mass0 = u_L * (0.0 - window[0]) + u_R * (window[1] - 0.0)
        drift = abs((mass - mass0) - t * (flux(u_L) - flux(u_R)))
        worst_mass = max(worst_mass, drift)
    ok = ok and worst_mass <= 1e-9
    details.append(f"mass drift {worst_mass:.2e}")
    assert _report(8, "conservation (projection and window mass)", ok, "; ".join(details))


def test_criterion_9_entropy_admissibility(fluxes):
    grid = np.linspace(0.0, 1.0, 10001)
    worst = 0.0
    ok = True
    runs = [(fluxes[1], 2.0, 0.0), (fluxes[1], 0.0, 2.0),
            (fluxes[3], 0.0, 3.5), (fluxes[4], 1.0, 0.0)]
    for flux, u_L, u_R in runs:
        prof = solve_riemann_numerical(flux, u_L, u_R, 0.0, 1.0, 160)
        upper = u_R < u_L
        for rec in prof.shocks:
            us = rec.u_bot + (rec.u_top - rec.u_bot) * grid
            slope = (flux(rec.u_top) - flux(rec.u_bot)) / (rec.u_top - rec.u_bot)
            gap = flux(rec.u_bot) + slope * (us - rec.u_bot) - flux(us)
            if upper:
                violation = max(0.0, float(-(gap.min())))
            else:
                violation = max(0.0, float(gap.max()))
            worst = max(worst, violation)
            ok = ok and violation <= 1e-6
    assert _report(9, "Oleinik admissibility of every produced shock",
                   ok, f"worst envelope violation {worst:.2e}")


def test_criterion_10_example5_box(fluxes):
    flux = fluxes[3]
    prof = solve_piecewise(flux, InitialData.box(0.0, 5.0, 5.0, 0.0), 0.2, 160)
    left = [s for s in prof.shocks if s.x_s < 2.5]
    right = [s for s in prof.shocks if s.x_s >= 2.5]
    lower_env = build_envelope(flux, 0.0, 5.0)   # left Riemann problem rises
    upper_env = build_envelope(flux, 5.0, 0.0)   # right Riemann problem falls
    lower_secants = sorted((min(s.u_a, s.u_b), max(s.u_a, s.u_b), s.slope)
                           for s in lower_env.segments if isinstance(s, Secant))
    upper_secants = sorted((min(s.u_a, s.u_b), max(s.u_a, s.u_b), s.slope)
                           for s in upper_env.segments if isinstance(s, Secant))
    got_left = sorted((s.u_bot, s.u_top, (s.x_s - 0.0) / 0.2) for s in left)
    got_right = sorted((s.u_bot, s.u_top, (s.x_s - 5.0) / 0.2) for s in right)
    ok = len(got_left) == len(lower_secants) and len(got_right) == len(upper_secants)
    worst = 0.0
    if ok:
        for got, want in zip(got_left + got_right, lower_secants + upper_secants):
            worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
        ok = worst <= 1e-6
    assert _report(10, "example 5 box realizes both hulls",
                   ok, f"worst secant mismatch {worst:.2e}")
