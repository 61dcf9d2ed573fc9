"""Evidence for the shock-location order of the equal-area projection.

Prints, as markdown, the tables that ``notes/shock_order.md`` quotes:

1. per-rung shock-position errors for examples 1 and 3 on the ``10x2^5``
   ladder at several (x0, t) offsets, with err*n^5 and err*n^6 columns and
   the slope fitted over the live rungs (error >= 1e-12);
2. the exact references checked against the closed forms 32/27 and 20/27,
   which are themselves recomputed from the tangency and bitangent
   conditions in 50-digit arithmetic with mpmath;
3. a negative control: the node areas are corrupted by 5 h^4 sin(3 s)
   before interpolation, and the live slopes fall to about four.

Run from the repository root:

    PYTHONPATH=src python notes/shock_order.py
"""

import math
from contextlib import contextmanager

import mpmath
import numpy as np

import eqarea.solver as solver
from eqarea.cli import EXAMPLES, exact_shock_positions, parse_ladder
from eqarea.characteristics import flow
from eqarea.flux import parse_flux_spec

LADDER = parse_ladder("10x2^5")
FLOOR = 1e-12  # the roundoff floor below which ``converge`` reports no order
OFFSETS = [(0.0, 1.0), (0.3, 1.0), (-1.7, 0.5), (0.0, 2.0), (2.5, 0.37)]


def rung_errors(example_id, x0, t):
    """Max shock-position error per ladder rung (n interpolants, n + 1 nodes)."""
    spec = EXAMPLES[example_id]
    flux = parse_flux_spec(spec.flux_text)
    _, u_L, u_R = spec.params
    exact = exact_shock_positions(flux, x0, u_L, u_R, t)
    errs = []
    for n in LADDER:
        prof = solver.solve_riemann_numerical(flux, u_L, u_R, x0, t, n + 1, samples=9)
        got = sorted(s.x_s for s in prof.shocks)
        if len(got) != len(exact):
            errs.append(math.inf)
        else:
            errs.append(max(abs(a - b) for a, b in zip(got, exact)))
    return errs


def live_slope(errs):
    """Least-squares order over the rungs at or above the floor."""
    ns = np.array(LADDER, dtype=float)
    e = np.array(errs)
    live = np.isfinite(e) & (e >= FLOOR)
    if live.sum() < 2:
        return int(live.sum()), math.nan
    return int(live.sum()), -float(np.polyfit(np.log(ns[live]), np.log(e[live]), 1)[0])


def rung_table(example_id, x0, t):
    errs = rung_errors(example_id, x0, t)
    live, slope = live_slope(errs)
    lines = [f"ex{example_id}, x0 = {x0}, t = {t}: live slope **{slope:.2f}** "
             f"over {live} rungs", "",
             "| n | err | local order | err·n⁵ | err·n⁶ |",
             "|---:|---:|---:|---:|---:|"]
    prev = None
    for n, e in zip(LADDER, errs):
        order = f"{math.log2(prev / e):.2f}" if prev and e >= FLOOR and prev >= FLOOR else ""
        lines.append(f"| {n} | {e:.3g} | {order} | {e * n**5:.3g} | {e * n**6:.3g} |")
        prev = e
    return "\n".join(lines), slope


def mp_references():
    """Shock speeds of examples 1 and 3 from their tangency conditions, 50 digits."""
    mpmath.mp.dps = 50
    # example 1, F = (u^2 - 2u)^2 on [0, 2]: tangent from u = 0 touches at u*,
    # F'(u*) = F(u*) / u*, and the speed is that slope (the other shock mirrors it)
    f1 = lambda u: (u * u - 2 * u) ** 2
    ustar = mpmath.findroot(lambda u: mpmath.diff(f1, u) - f1(u) / u, mpmath.mpf("0.6"))
    speed1 = f1(ustar) / ustar
    # example 3, F = u^4/4 - 5u^3/3 + 3u^2: bitangent a < b with
    # F'(a) = F'(b) = (F(b) - F(a)) / (b - a)
    f3 = lambda u: u**4 / 4 - 5 * u**3 / 3 + 3 * u**2
    d3 = lambda u: u**3 - 5 * u**2 + 6 * u
    a, b = mpmath.findroot(
        [lambda a, b: d3(a) - d3(b),
         lambda a, b: d3(a) * (b - a) - (f3(b) - f3(a))],
        (mpmath.mpf("0.1"), mpmath.mpf("3.2")))
    speed3 = (f3(b) - f3(a)) / (b - a)
    return ustar, speed1, (a, b), speed3


def reference_table():
    ustar, speed1, (a, b), speed3 = mp_references()
    lines = [f"mpmath (50 digits): example 1 tangency u* = {mpmath.nstr(ustar, 20)}, "
             f"speed {mpmath.nstr(speed1, 20)}, |speed - 32/27| = "
             f"{mpmath.nstr(abs(speed1 - mpmath.mpf(32) / 27), 3)}; example 3 bitangent "
             f"({mpmath.nstr(a, 20)}, {mpmath.nstr(b, 20)}), speed {mpmath.nstr(speed3, 20)}, "
             f"|speed - 20/27| = {mpmath.nstr(abs(speed3 - mpmath.mpf(20) / 27), 3)}", "",
             "| example | x0 | t | max abs(exact_shock_positions - closed form) |",
             "|---:|---:|---:|---:|"]
    worst = 0.0
    for ex, speeds in ((1, (-speed1, speed1)), (3, (speed3,))):
        spec = EXAMPLES[ex]
        flux = parse_flux_spec(spec.flux_text)
        _, u_L, u_R = spec.params
        for x0, t in OFFSETS:
            got = exact_shock_positions(flux, x0, u_L, u_R, t)
            want = [mpmath.mpf(x0) + sp * mpmath.mpf(t) for sp in speeds]
            gap = max(float(abs(mpmath.mpf(g) - w)) for g, w in zip(got, want))
            worst = max(worst, gap)
            lines.append(f"| {ex} | {x0} | {t} | {gap:.2g} |")
    return "\n".join(lines), worst


@contextmanager
def corrupted_node_areas(amplitude=5.0):
    """Add amplitude * h^4 * sin(3 s) to every front node's cumulative area."""
    def bad_flow(nodes, flux, t):
        out = flow(nodes, flux, t)
        h = 1.0 / (len(out) - 1)
        out.cum_area = [area + amplitude * h**4 * math.sin(3.0 * s)
                        for s, area in zip(out.s.tolist(), out.cum_area.tolist())]
        return out
    saved = solver.flow
    solver.flow = bad_flow
    try:
        yield
    finally:
        solver.flow = saved


def main():
    print("### Per-rung tables\n")
    slopes = {}
    for ex in (1, 3):
        for x0, t in OFFSETS:
            table, slope = rung_table(ex, x0, t)
            slopes[(ex, x0, t)] = slope
            print(table + "\n")
    print("### Live slopes\n")
    print("| x0 | t | ex1 | ex3 |\n|---:|---:|---:|---:|")
    for x0, t in OFFSETS:
        print(f"| {x0} | {t} | {slopes[(1, x0, t)]:.2f} | {slopes[(3, x0, t)]:.2f} |")
    print("\n### Exact references\n")
    table, worst = reference_table()
    print(table)
    print(f"\nworst gap {worst:.2g}\n")
    print("### Negative control: node areas + 5 h^4 sin(3 s)\n")
    with corrupted_node_areas():
        for ex in (1, 3):
            table, _ = rung_table(ex, 0.0, 1.0)
            print(table + "\n")


if __name__ == "__main__":
    main()
