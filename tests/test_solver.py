import math

import numpy as np
import pytest

from conftest import BL_SPEED, BL_USTAR, E1_SPEED, E1_USTAR, E3_A, E3_B, E3_SPEED
from eqarea.characteristics import InitialData, Piece
from eqarea.errors import FanOverlap, ProjectionFailure
from eqarea.flux import polynomial_flux
from eqarea.solver import solve_piecewise, solve_riemann_exact, solve_riemann_numerical


class TestExact:
    def test_example1(self, flux_e1):
        prof = solve_riemann_exact(flux_e1, 2.0, 0.0, 0.0, 1.0)
        assert prof.waves == ["S", "R", "S"]
        xs = sorted(s.x_s for s in prof.shocks)
        assert xs == pytest.approx([-E1_SPEED, E1_SPEED], abs=1e-12)
        # rarefaction spans u in [2/3, 4/3] over x in (-32/27, 32/27)
        inside = (prof.xs > -E1_SPEED + 1e-6) & (prof.xs < E1_SPEED - 1e-6)
        assert prof.us[inside].min() >= E1_USTAR - 1e-9
        assert prof.us[inside].max() <= 2.0 - E1_USTAR + 1e-9

    def test_example2_standing_wave(self, flux_e1):
        prof = solve_riemann_exact(flux_e1, 0.0, 2.0, 0.0, 1.0)
        assert prof.waves == ["S"]
        assert prof.shocks[0].x_s == pytest.approx(0.0, abs=1e-15)
        assert prof.shocks[0].speed == pytest.approx(0.0, abs=1e-15)

    def test_buckley(self, flux_bl):
        prof = solve_riemann_exact(flux_bl, 1.0, 0.0, 0.0, 1.0)
        assert prof.waves == ["R", "S"]
        assert prof.shocks[0].x_s == pytest.approx(BL_SPEED, abs=1e-12)

    def test_rarefaction_consistency(self, flux_e3):
        t = 1.0
        prof = solve_riemann_exact(flux_e3, 0.0, 3.5, 0.0, t)
        lo = flux_e3(E3_A, 1) * t
        fan1 = (prof.xs > 1e-9) & (prof.xs < lo - 1e-9)
        resid = np.abs(flux_e3(prof.us[fan1], 1) - prof.xs[fan1] / t)
        assert np.all(resid <= 1e-10)

    def test_profile_invariants(self, flux_e1, flux_e3, flux_bl):
        for flux, u_L, u_R in [(flux_e1, 2.0, 0.0), (flux_e3, 0.0, 3.5), (flux_bl, 1.0, 0.0)]:
            prof = solve_riemann_exact(flux, u_L, u_R, 0.0, 1.0)
            assert np.all(np.diff(prof.xs) > 0)
            lo, hi = min(u_L, u_R), max(u_L, u_R)
            assert prof.us.min() >= lo - 1e-12
            assert prof.us.max() <= hi + 1e-12
            for s in prof.shocks:
                assert prof.xs[0] < s.x_s < prof.xs[-1]


class TestNumerical:
    def test_matches_exact_structure(self, flux_e1, flux_e3, flux_bl):
        for flux, u_L, u_R in [(flux_e1, 2.0, 0.0), (flux_e1, 0.0, 2.0),
                               (flux_e3, 0.0, 3.5), (flux_bl, 1.0, 0.0)]:
            ex = solve_riemann_exact(flux, u_L, u_R, 0.0, 1.0)
            nu = solve_riemann_numerical(flux, u_L, u_R, 0.0, 1.0, 41)
            assert nu.waves == ex.waves
            assert len(nu.shocks) == len(ex.shocks)

    def test_example1_positions(self, flux_e1):
        prof = solve_riemann_numerical(flux_e1, 2.0, 0.0, 0.0, 1.0, 161)
        xs = sorted(s.x_s for s in prof.shocks)
        assert xs == pytest.approx([-E1_SPEED, E1_SPEED], abs=1e-9)

    def test_example2_exact_at_any_resolution(self, flux_e1):
        for n in (10, 23, 80):
            prof = solve_riemann_numerical(flux_e1, 0.0, 2.0, 0.0, 1.0, n)
            assert abs(prof.shocks[0].x_s) <= 1e-12

    def test_example3_coarse_structure(self, flux_e3):
        prof = solve_riemann_numerical(flux_e3, 0.0, 3.5, 0.0, 1.0, 9)
        assert prof.waves == ["R", "S", "R"]

    def test_speed_definition(self, flux_bl):
        t = 2.0
        prof = solve_riemann_numerical(flux_bl, 1.0, 0.0, 0.5, t, 81)
        s = prof.shocks[0]
        assert s.speed == pytest.approx((s.x_s - 0.5) / t, abs=0.0)
        assert s.speed == pytest.approx(BL_SPEED, abs=1e-8)

    def test_maximum_principle_and_monotone_samples(self, flux_e3):
        prof = solve_riemann_numerical(flux_e3, 0.0, 3.5, 0.0, 1.0, 81)
        assert np.all(np.diff(prof.xs) > 0)
        assert prof.us.min() >= -1e-9
        assert prof.us.max() <= 3.5 + 1e-9

    def test_conservation_against_boundary_flux(self, flux_e1):
        # mass change over a window equals the boundary flux difference
        t = 1.0
        u_L, u_R = 2.0, 0.0
        prof = solve_riemann_numerical(flux_e1, u_L, u_R, 0.0, t, 161)
        front = prof.front
        a, b = prof.window
        mass_now = front.window_area(a, b)
        mass_start = u_L * (0.0 - a) + u_R * (b - 0.0)
        drift = mass_now - mass_start
        expected = t * (flux_e1(u_L) - flux_e1(u_R))
        assert drift == pytest.approx(expected, abs=1e-9)


class TestWeakWaves:
    # a convex quadratic: every rising jump is one rarefaction
    FLUX = polynomial_flux([0.0, 1.1574799770837125, 0.4367339276615804])

    @pytest.mark.parametrize("n", [41, 81, 160, 321, 640])
    def test_weak_rarefaction_on_convex_flux(self, n):
        # nearly straight front at |x| ~ 1: the r2 coefficient of the
        # area-preserving segments is rounding noise and must fall back
        prof = solve_riemann_numerical(self.FLUX, -0.10090768669173622,
                                       -0.09187338123496591, 0.0, 1.0, n)
        assert prof.waves == ["R"]
        assert prof.shocks == []

    def test_weak_rarefaction_sweep(self):
        failed = []
        for base in (-0.7, -0.1, 0.3):
            for width in (0.03, 0.01, 0.003, 0.001):
                for n in (41, 160, 640):
                    try:
                        prof = solve_riemann_numerical(self.FLUX, base, base + width,
                                                       0.0, 1.0, n)
                        ok = prof.waves == ["R"] and prof.shocks == []
                    except ProjectionFailure:
                        ok = False
                    if not ok:
                        failed.append((base, width, n))
        assert not failed


class TestPiecewise:
    def test_box_means_two_fans(self, flux_e3):
        init = InitialData.box(0.0, 5.0, 5.0, 0.0)
        prof = solve_piecewise(flux_e3, init, 0.2, 121)
        assert prof.waves == ["R", "S", "R", "S"]
        left = [s for s in prof.shocks if s.x_s < 2.0]
        right = [s for s in prof.shocks if s.x_s > 2.0]
        assert len(left) == 1 and len(right) == 1
        assert left[0].x_s == pytest.approx(E3_SPEED * 0.2, abs=1e-9)
        assert (left[0].u_bot, left[0].u_top) == pytest.approx((E3_A, E3_B), abs=1e-7)
        full_slope = flux_e3(5.0) / 5.0
        assert right[0].x_s == pytest.approx(5.0 + full_slope * 0.2, abs=1e-10)
        assert (right[0].u_bot, right[0].u_top) == (0.0, 5.0)

    def test_box_exact_matches_numerical(self, flux_e3):
        init = InitialData.box(0.0, 5.0, 5.0, 0.0)
        exact = solve_piecewise(flux_e3, init, 0.2, 121, exact=True)
        numerical = solve_piecewise(flux_e3, init, 0.2, 121)
        assert exact.waves == numerical.waves == ["R", "S", "R", "S"]
        assert [s.x_s for s in exact.shocks] == pytest.approx(
            [s.x_s for s in numerical.shocks], abs=1e-9)
        assert exact.window == numerical.window and exact.front is None
        mismatch = np.abs(exact.us - numerical.us) > 1e-6
        assert np.count_nonzero(mismatch) <= 2  # samples straddling a shock

    def test_single_jump_reduces_to_riemann(self, flux_e1):
        init = InitialData.riemann(0.0, 2.0, 0.0)
        a = solve_piecewise(flux_e1, init, 1.0, 81)
        b = solve_riemann_numerical(flux_e1, 2.0, 0.0, 0.0, 1.0, 81)
        assert sorted(s.x_s for s in a.shocks) == pytest.approx(
            sorted(s.x_s for s in b.shocks), abs=0.0)

    def test_smooth_tanh_shock_at_origin(self):
        conv = polynomial_flux([0.0, 0.0, 0.5])  # u^2/2
        piece = Piece(-8.0, 8.0, lambda x: -math.tanh(x),
                      lambda x: -1.0 / math.cosh(x) ** 2)
        prof = solve_piecewise(conv, InitialData(pieces=(piece,)), 2.0, 201)
        assert len(prof.shocks) == 1
        assert prof.shocks[0].x_s == pytest.approx(0.0, abs=1e-10)
        assert prof.shocks[0].u_top == pytest.approx(-prof.shocks[0].u_bot, abs=1e-10)

    def test_fan_overlap_rejected(self, flux_e1):
        # two close jumps whose shocks collide quickly
        init = InitialData(
            pieces=(Piece.constant(-1.0, 0.0, 2.0),
                    Piece.constant(0.0, 0.05, 0.0),
                    Piece.constant(0.05, 1.0, 2.0)),
            jumps=((0.0, 2.0, 0.0), (0.05, 0.0, 2.0)),
        )
        with pytest.raises(FanOverlap):
            solve_piecewise(flux_e1, init, 1.0, 41)
