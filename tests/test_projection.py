import numpy as np
import pytest

from conftest import BL_SPEED, BL_USTAR, E1_SPEED, E1_USTAR, E3_A, E3_B, E3_SPEED
from eqarea.characteristics import Piece, flow, seed_riemann, seed_smooth
from eqarea.envelope import Secant, build_envelope
from eqarea.projection import find_shocks_to_state, geap_project, interpolate_chain


def riemann_chain(flux, u_L, u_R, t, n, x0=0.0):
    return interpolate_chain(flow(seed_riemann(u_L, u_R, x0, n), flux, t))


def lobe_area(chain, x_s, span):
    """Oracle: signed area of the loop closed by the vertical line at x_s.

    The loop follows the chain across ``span`` (ascending parameter) and
    closes along the line; a span endpoint at a chain end contributes its
    constant-state flank run to the line foot. Endpoints must lie on the
    line or at a chain end.
    """
    s0, s1 = span
    lo, hi = chain.node_s[0], chain.node_s[-1]
    scale = 1.0 + abs(x_s)
    total = chain.area_between(s0, s1)
    if abs(chain.x_at(s0) - x_s) > 1e-10 * scale:
        assert abs(s0 - lo) <= 1e-12, f"span start s={s0} not on the line x={x_s}"
        total += chain.left_state * (chain.x_left_end - x_s)
    if abs(chain.x_at(s1) - x_s) > 1e-10 * scale:
        assert abs(s1 - hi) <= 1e-12, f"span end s={s1} not on the line x={x_s}"
        total += chain.right_state * (x_s - chain.x_right_end)
    return total


def interior_shocks(chain):
    """Bottom-state shocks that attach at a chain point, not the full-chain one."""
    full = (chain.node_s[0], chain.node_s[-1])
    return [rec for rec in find_shocks_to_state(chain) if rec.s_span != full]


class TestChain:
    def test_segment_count_and_areas(self, flux_e1):
        chain = riemann_chain(flux_e1, 2.0, 0.0, 1.0, 33)
        assert len(chain.segments) == 32
        total = chain.total_area()
        want = chain.nodes[-1].cum_area - chain.nodes[0].cum_area
        assert total == pytest.approx(want, abs=1e-12)

    def test_area_between_splits_exactly(self, flux_e3):
        chain = riemann_chain(flux_e3, 0.0, 3.5, 1.0, 21)
        rng = np.random.default_rng(8)
        for _ in range(40):
            a, m, b = sorted(rng.uniform(0.0, 1.0, 3))
            whole = chain.area_between(a, b)
            parts = chain.area_between(a, m) + chain.area_between(m, b)
            assert parts == pytest.approx(whole, abs=1e-13)

    def test_intersections_match_dense_sampling(self, flux_e1):
        chain = riemann_chain(flux_e1, 2.0, 0.0, 1.0, 41)
        ss = np.linspace(0.0, 1.0, 200001)
        xs = np.array([chain.x_at(float(s)) for s in ss[:: 400]])
        for x_line in (0.3, -0.8, 1.0):
            roots = chain.intersections(x_line)
            dense = np.flatnonzero(np.diff(np.sign(xs - x_line)) != 0)
            assert len(roots) == len(dense)


class TestLobeArea:
    def test_zero_at_equal_area_shock(self, flux_e1):
        chain = riemann_chain(flux_e1, 2.0, 0.0, 1.0, 41)
        cands = interior_shocks(chain)
        assert len(cands) == 1
        s_star, s_end = cands[0].s_span
        assert s_end == 1.0
        assert chain.x_at(s_star) == cands[0].x_s
        assert lobe_area(chain, chain.x_at(s_star), (s_star, 1.0)) == pytest.approx(0.0, abs=1e-11)

    def test_sign_flips_with_displacement(self, flux_e1):
        chain = riemann_chain(flux_e1, 2.0, 0.0, 1.0, 41)
        vals = {}
        for dx in (+0.1, -0.1):
            x_line = E1_SPEED + dx
            hits = chain.intersections(x_line)
            vals[dx] = lobe_area(chain, x_line, (hits[-2], 1.0))
        assert vals[+0.1] * vals[-0.1] < 0.0

    def test_symmetric_lobe_vanishes(self):
        # odd data under the convex flux u^2/2: the fold about x = 0 is symmetric
        from eqarea.flux import polynomial_flux

        burgers = polynomial_flux([0.0, 0.0, 0.5])
        piece = Piece(-4.0, 4.0, lambda x: -np.tanh(x), lambda x: -1.0 / np.cosh(x) ** 2)
        chain = interpolate_chain(flow(seed_smooth(piece, 81), burgers, 3.0))
        hits = chain.intersections(0.0)
        assert len(hits) == 3
        assert lobe_area(chain, 0.0, (hits[0], hits[-1])) == pytest.approx(0.0, abs=1e-12)


class TestFindShocks:
    def test_example1_bottom(self, flux_e1):
        chain = riemann_chain(flux_e1, 2.0, 0.0, 1.0, 161)
        interior = interior_shocks(chain)
        assert len(interior) == 1
        assert interior[0].x_s == pytest.approx(E1_SPEED, abs=1e-9)
        assert interior[0].u_top == pytest.approx(E1_USTAR, abs=1e-9)
        assert interior[0].u_bot == 0.0

    def test_example2_full_shock(self, flux_e1):
        chain = riemann_chain(flux_e1, 0.0, 2.0, 1.0, 41)
        cands = find_shocks_to_state(chain)
        assert [c.s_span for c in cands] == [(0.0, 1.0)]
        assert cands[0].x_s == pytest.approx(0.0, abs=1e-13)

    def test_buckley_bottom(self, flux_bl):
        chain = riemann_chain(flux_bl, 1.0, 0.0, 1.0, 41)
        cands = interior_shocks(chain)
        assert len(cands) == 1
        assert cands[0].x_s == pytest.approx(BL_SPEED, abs=1e-7)
        assert cands[0].u_top == pytest.approx(BL_USTAR, abs=1e-7)


class TestProjection:
    def test_example1_structure(self, flux_e1):
        front = geap_project(riemann_chain(flux_e1, 2.0, 0.0, 1.0, 81))
        assert front.mode == "upper"
        assert len(front.shocks) == 2
        xs = sorted(s.x_s for s in front.shocks)
        assert xs == pytest.approx([-E1_SPEED, E1_SPEED], abs=1e-10)
        assert len(front.kept_spans) == 1

    def test_example3_interior_shock(self, flux_e3):
        front = geap_project(riemann_chain(flux_e3, 0.0, 3.5, 1.0, 81))
        assert front.mode == "lower"
        assert len(front.shocks) == 1
        rec = front.shocks[0]
        assert rec.x_s == pytest.approx(E3_SPEED, abs=1e-10)
        assert rec.u_bot == pytest.approx(E3_A, abs=1e-9)
        assert rec.u_top == pytest.approx(E3_B, abs=1e-9)
        assert len(front.kept_spans) == 2

    def test_unoverturned_chain_identity(self, flux_square):
        piece = Piece(-4.0, 4.0, lambda x: -np.tanh(x), lambda x: -1.0 / np.cosh(x) ** 2)
        chain = interpolate_chain(flow(seed_smooth(piece, 41), flux_square, 0.2))
        front = geap_project(chain)
        assert front.shocks == ()
        assert front.kept_spans == ((chain.node_s[0], chain.node_s[-1]),)

    def test_conservation(self, flux_e1, flux_e3, flux_bl):
        cases = [(flux_e1, 2.0, 0.0), (flux_e1, 0.0, 2.0), (flux_e3, 0.0, 3.5), (flux_bl, 1.0, 0.0)]
        for flux, u_L, u_R in cases:
            chain = riemann_chain(flux, u_L, u_R, 1.0, 61)
            front = geap_project(chain)
            window = (-6.0, 8.0)
            before = chain.window_area(*window)
            after = front.window_area(*window)
            scale = 1.0 + abs(before)
            assert abs(after - before) <= 1e-11 * scale

    def test_oleinik_admissibility(self, flux_e1, flux_e3, flux_bl):
        for flux, u_L, u_R in [(flux_e1, 2.0, 0.0), (flux_e3, 0.0, 3.5), (flux_bl, 1.0, 0.0)]:
            front = geap_project(riemann_chain(flux, u_L, u_R, 1.0, 161))
            grid = np.linspace(0.0, 1.0, 10001)
            for rec in front.shocks:
                us = rec.u_bot + (rec.u_top - rec.u_bot) * grid
                secant = flux(rec.u_bot) + (us - rec.u_bot) * (
                    (flux(rec.u_top) - flux(rec.u_bot)) / (rec.u_top - rec.u_bot))
                gap = secant - flux(us)
                if front.mode == "upper":
                    assert np.all(gap >= -1e-6)
                else:
                    assert np.all(gap <= 1e-6)

    def test_rankine_hugoniot_speeds(self, flux_e3):
        t = 1.0
        front = geap_project(riemann_chain(flux_e3, 0.0, 3.5, t, 161))
        for rec in front.shocks:
            rh = (flux_e3(rec.u_top) - flux_e3(rec.u_bot)) / (rec.u_top - rec.u_bot)
            assert rec.x_s / t == pytest.approx(rh, abs=1e-8)

    def test_envelope_equivalence_states(self, flux_e1, flux_e3, flux_bl):
        for flux, u_L, u_R in [(flux_e1, 2.0, 0.0), (flux_e3, 0.0, 3.5), (flux_bl, 1.0, 0.0)]:
            front = geap_project(riemann_chain(flux, u_L, u_R, 1.0, 641))
            env = build_envelope(flux, u_L, u_R)
            env_pairs = sorted((min(s.u_a, s.u_b), max(s.u_a, s.u_b))
                               for s in env.segments if isinstance(s, Secant))
            got_pairs = sorted((s.u_bot, s.u_top) for s in front.shocks)
            assert len(env_pairs) == len(got_pairs)
            for (a, b), (c, d) in zip(got_pairs, env_pairs):
                assert abs(a - c) < 1e-6 and abs(b - d) < 1e-6

    def test_kept_spans_single_valued(self, flux_e3):
        front = geap_project(riemann_chain(flux_e3, 0.0, 3.5, 1.0, 101))
        chain = front.chain
        for a, b in front.kept_spans:
            ss = np.linspace(a, b, 101)
            xs = np.array([chain.x_at(float(s)) for s in ss])
            assert np.all(np.diff(xs) >= -1e-12)
