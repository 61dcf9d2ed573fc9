import numpy as np
import pytest

from conftest import BL_SPEED, BL_USTAR, E1_SPEED, E1_USTAR, E3_A, E3_B, E3_SPEED, E3_T1, E3_T2
from eqarea.envelope import (
    Arc,
    Secant,
    build_envelope,
    double_tangent,
    envelope_to_wavefan,
    oracle_envelope,
    wave_speed_range,
    Rarefaction,
    Shock,
)
from eqarea.flux import polynomial_flux


def envelope_value(env, flux, u):
    """Oracle: the envelope's value at each u of an array."""
    out = np.empty_like(u)
    for seg in env.segments:
        mask = (u >= seg.u_a) & (u <= seg.u_b)
        if isinstance(seg, Secant):
            out[mask] = flux(seg.u_a) + seg.slope * (u[mask] - seg.u_a)
        else:
            out[mask] = flux(u[mask])
    return out


class TestTangencyRoots:
    def test_example1_from_zero(self, flux_e1):
        roots = flux_e1.tangent_points(0.0, 0.0, 2.0)
        assert roots == pytest.approx([E1_USTAR], abs=1e-13)

    def test_example3_from_zero(self, flux_e3):
        roots = flux_e3.tangent_points(0.0, 0.0, 3.5)
        assert roots == pytest.approx([E3_T1, E3_T2], abs=1e-12)

    def test_convex_flux_empty(self, flux_square):
        assert flux_square.tangent_points(0.0, 0.0, 1.0) == []

    def test_grid_scan_oracle(self, flux_e1):
        # brute-force check that each reported root zeroes the residual and
        # no further sign change hides between grid points
        us = np.linspace(1e-6, 2.0 - 1e-6, 40001)
        res = flux_e1(us) - flux_e1(0.0) - flux_e1(us, 1) * us
        signs = np.sign(res)
        changes = np.flatnonzero(signs[1:] * signs[:-1] < 0)
        assert len(changes) == 1
        assert abs(us[changes[0]] - E1_USTAR) < 1e-4


class TestDoubleTangent:
    def test_example3_bitangent(self, flux_e3):
        pairs = double_tangent(flux_e3, (0.0, 3.5))
        assert len(pairs) == 1
        bt = pairs[0]
        assert bt.a == pytest.approx(E3_A, abs=1e-12)
        assert bt.b == pytest.approx(E3_B, abs=1e-12)
        assert bt.slope == pytest.approx(E3_SPEED, abs=1e-11)
        # both defining residuals vanish
        assert flux_e3(bt.a, 1) == pytest.approx(flux_e3(bt.b, 1), abs=1e-10)
        secant = (flux_e3(bt.b) - flux_e3(bt.a)) / (bt.b - bt.a)
        assert secant == pytest.approx(bt.slope, abs=1e-10)

    def test_example1_endpoint_bitangent(self, flux_e1):
        # the symmetric double tangent of (u^2-2u)^2 on [0, 2] is the
        # horizontal chord touching both endpoints
        pairs = double_tangent(flux_e1, (0.0, 2.0))
        assert len(pairs) == 1
        assert (pairs[0].a, pairs[0].b) == pytest.approx((0.0, 2.0), abs=1e-10)
        assert pairs[0].slope == pytest.approx(0.0, abs=1e-12)

    def test_convex_flux_empty(self, flux_square):
        assert double_tangent(flux_square, (-2.0, 3.0)) == []


class TestBuildEnvelope:
    def test_example1_upper(self, flux_e1):
        env = build_envelope(flux_e1, 2.0, 0.0)
        assert env.side == "upper"
        kinds = [type(s) for s in env.segments]
        assert kinds == [Secant, Arc, Secant]
        s0, arc, s1 = env.segments
        assert (s0.u_a, s0.u_b) == pytest.approx((0.0, E1_USTAR), abs=1e-12)
        assert s0.slope == pytest.approx(E1_SPEED, abs=1e-12)
        assert (arc.u_a, arc.u_b) == pytest.approx((E1_USTAR, 2.0 - E1_USTAR), abs=1e-12)
        assert s1.slope == pytest.approx(-E1_SPEED, abs=1e-12)

    def test_example2_lower_single_secant(self, flux_e1):
        env = build_envelope(flux_e1, 0.0, 2.0)
        assert env.side == "lower"
        assert len(env.segments) == 1
        seg = env.segments[0]
        assert isinstance(seg, Secant)
        assert seg.slope == pytest.approx(0.0, abs=1e-15)

    def test_buckley_leverett(self, flux_bl):
        env = build_envelope(flux_bl, 1.0, 0.0)
        assert [type(s) for s in env.segments] == [Secant, Arc]
        sec = env.segments[0]
        assert sec.u_b == pytest.approx(BL_USTAR, abs=1e-12)
        assert sec.slope == pytest.approx(BL_SPEED, abs=1e-12)

    def test_example3_lower(self, flux_e3):
        env = build_envelope(flux_e3, 0.0, 3.5)
        assert [type(s) for s in env.segments] == [Arc, Secant, Arc]
        assert env.segments[1].slope == pytest.approx(E3_SPEED, abs=1e-11)

    def test_segments_cover_interval(self, flux_e1, flux_e3, flux_bl):
        rng = np.random.default_rng(5)
        for flux, span in [(flux_e1, (-0.5, 2.5)), (flux_e3, (-0.5, 4.0)), (flux_bl, (0.0, 1.0))]:
            for _ in range(25):
                a, b = sorted(rng.uniform(*span, 2))
                if b - a < 1e-2:
                    continue
                env = build_envelope(flux, b, a)
                assert env.segments[0].u_a == pytest.approx(a, abs=1e-12)
                assert env.segments[-1].u_b == pytest.approx(b, abs=1e-12)
                for s0, s1 in zip(env.segments[:-1], env.segments[1:]):
                    assert s0.u_b == pytest.approx(s1.u_a, abs=1e-10)

    def test_majorization(self, flux_e1, flux_e3, flux_bl):
        us_pairs = [(flux_e1, 2.0, 0.0), (flux_e1, 0.0, 2.0),
                    (flux_e3, 0.0, 3.5), (flux_bl, 1.0, 0.0)]
        for flux, u_L, u_R in us_pairs:
            env = build_envelope(flux, u_L, u_R)
            grid = np.linspace(env.u_lo, env.u_hi, 10001)
            vals = envelope_value(env, flux, grid)
            fs = flux(grid)
            if env.side == "upper":
                assert np.all(vals >= fs - 1e-10)
            else:
                assert np.all(vals <= fs + 1e-10)

    def test_secant_slopes_match_rankine_hugoniot(self, flux_e3):
        env = build_envelope(flux_e3, 3.5, 0.0)
        for seg in env.segments:
            if isinstance(seg, Secant):
                rh = (flux_e3(seg.u_b) - flux_e3(seg.u_a)) / (seg.u_b - seg.u_a)
                assert seg.slope == pytest.approx(rh, rel=1e-12)

    def test_arc_concavity_sign(self, flux_e1):
        env = build_envelope(flux_e1, 2.0, 0.0)
        for seg in env.segments:
            if isinstance(seg, Arc):
                us = np.linspace(seg.u_a + 1e-9, seg.u_b - 1e-9, 501)
                assert np.all(flux_e1(us, 2) <= 1e-10)

    def test_tangent_point_next_to_inflection(self, flux_e1):
        # u_R sits 1.4e-4 below the inflection at 1 - 1/sqrt(3); the tangent
        # point lies 2.1e-4 from it (50-digit mpmath root below)
        env = build_envelope(flux_e1, 2.3358, 0.42251)
        assert [type(s) for s in env.segments] == [Secant, Arc, Secant]
        assert env.segments[0].u_b == pytest.approx(0.42271959938607334, abs=1e-14)
        oracle = oracle_envelope(flux_e1, 2.3358, 0.42251, 10**5)
        assert [type(s) for s in oracle.segments] == [Secant, Arc, Secant]

    def test_reflection_duality(self, flux_e3):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = sorted(rng.uniform(-0.5, 4.0, 2))
            if b - a < 0.05:
                continue
            env = build_envelope(flux_e3, b, a)           # upper
            mirror = build_envelope(-flux_e3, a, b)       # lower of the negated flux
            assert env.side == "upper" and mirror.side == "lower"
            assert len(env.segments) == len(mirror.segments)
            for s, m in zip(env.segments, mirror.segments):
                assert type(s) is type(m)
                assert s.u_a == m.u_a and s.u_b == m.u_b
                if isinstance(s, Secant):
                    assert s.slope == pytest.approx(-m.slope, abs=0.0)


class TestOracle:
    def test_example1_breakpoints(self, flux_e1):
        env = oracle_envelope(flux_e1, 2.0, 0.0, 10**5)
        assert [type(s) for s in env.segments] == [Secant, Arc, Secant]
        bps = env.breakpoints()
        assert abs(bps[0] - E1_USTAR) < 1e-4
        assert abs(bps[1] - (2.0 - E1_USTAR)) < 1e-4

    def test_linear_flux_single_secant(self):
        lin = polynomial_flux([1.0, 3.0])
        env = oracle_envelope(lin, 0.7, -0.2, 64)
        assert len(env.segments) == 1
        assert isinstance(env.segments[0], Secant)
        assert env.segments[0].slope == pytest.approx(3.0, abs=1e-12)

    def test_convex_flux_single_arc(self, flux_square):
        env = oracle_envelope(flux_square, 0.0, 1.0, 1024)
        assert env.side == "lower"
        assert len(env.segments) == 1
        assert isinstance(env.segments[0], Arc)
        assert (env.segments[0].u_a, env.segments[0].u_b) == (0.0, 1.0)

    def test_matches_construction_on_random_states(self, flux_e1, flux_e3, flux_bl):
        rng = np.random.default_rng(3)
        for flux, span in [(flux_e1, (-0.5, 2.5)), (flux_e3, (-0.5, 4.0)), (flux_bl, (0.0, 1.0))]:
            for _ in range(10):
                u_L, u_R = rng.uniform(*span, 2)
                if abs(u_L - u_R) < 1e-2:
                    continue
                built = build_envelope(flux, u_L, u_R)
                oracle = oracle_envelope(flux, u_L, u_R, 10**5)
                assert len(built.segments) == len(oracle.segments)
                for b, o in zip(built.breakpoints(), oracle.breakpoints()):
                    assert abs(b - o) < 1e-3


class TestWaveFan:
    def test_example1_fan(self, flux_e1):
        env = build_envelope(flux_e1, 2.0, 0.0)
        fan = envelope_to_wavefan(env, flux_e1, 0.0)
        kinds = [type(w) for w in fan.waves]
        assert kinds == [Shock, Rarefaction, Shock]
        assert fan.waves[0].speed == pytest.approx(-E1_SPEED, abs=1e-12)
        assert fan.waves[2].speed == pytest.approx(E1_SPEED, abs=1e-12)
        assert (fan.waves[2].u_left, fan.waves[2].u_right) == pytest.approx((E1_USTAR, 0.0), abs=1e-12)

    def test_example2_standing_wave(self, flux_e1):
        fan = envelope_to_wavefan(build_envelope(flux_e1, 0.0, 2.0), flux_e1, 0.0)
        assert len(fan.waves) == 1
        assert fan.waves[0].speed == pytest.approx(0.0, abs=1e-15)

    def test_example3_fan(self, flux_e3):
        fan = envelope_to_wavefan(build_envelope(flux_e3, 0.0, 3.5), flux_e3, 0.0)
        kinds = [type(w) for w in fan.waves]
        assert kinds == [Rarefaction, Shock, Rarefaction]
        assert fan.waves[1].speed == pytest.approx(E3_SPEED, abs=1e-11)

    def test_speeds_nondecreasing(self, flux_e1, flux_e3, flux_bl):
        rng = np.random.default_rng(9)
        for flux, span in [(flux_e1, (-0.5, 2.5)), (flux_e3, (-0.5, 4.0)), (flux_bl, (0.0, 1.0))]:
            for _ in range(15):
                u_L, u_R = rng.uniform(*span, 2)
                if abs(u_L - u_R) < 1e-2:
                    continue
                env = build_envelope(flux, u_L, u_R)
                fan = envelope_to_wavefan(env, flux, 0.0)
                prev_hi = -np.inf
                for w in fan.waves:
                    lo, hi = wave_speed_range(w, flux)
                    assert lo >= prev_hi - 1e-9
                    prev_hi = hi


# Spans of acceptance criterion 1, with exact mpmath forms of their fluxes.
MP_FLUXES = {
    "ex1": lambda u: (u * u - 2 * u) ** 2,
    "ex3": lambda u: u ** 4 / 4 - 5 * u ** 3 / 3 + 3 * u ** 2,
    "bl": lambda u: u * u / (u * u + (1 - u) ** 2 / 2),
}
CRITERION_1_SPANS = [("ex1", (-0.5, 2.5)), ("ex1", (-1.0, 3.0)),
                     ("ex3", (-0.5, 4.0)), ("bl", (0.0, 1.0))]


@pytest.fixture(scope="module")
def fluxes_by_name(flux_e1, flux_e3, flux_bl):
    return {"ex1": flux_e1, "ex3": flux_e3, "bl": flux_bl}


def _mp_tangent_point(name, anchor, guess):
    """50-digit root of (F(u) - F(a) - F'(u)(u - a)) / (u - a)^2 near guess."""
    mpmath = pytest.importorskip("mpmath")
    F = MP_FLUXES[name]
    with mpmath.workdps(50):
        a = mpmath.mpf(anchor)

        def deflated(u):
            return (F(u) - F(a) - mpmath.diff(F, u) * (u - a)) / (u - a) ** 2

        width = mpmath.mpf(1e-8) * (1 + abs(guess))
        return float(mpmath.findroot(deflated, (guess - width, guess + width),
                                     solver="anderson"))


def test_state_anchored_tangent_points_match_mpmath(fluxes_by_name):
    # every secant of a built envelope that starts or ends at a state and
    # touches the flux at its other end is a tangent from that state
    rng = np.random.default_rng(41)
    checked = 0
    for name, span in CRITERION_1_SPANS:
        flux = fluxes_by_name[name]
        for _ in range(150):
            u_L, u_R = rng.uniform(*span, 2)
            env = build_envelope(flux, u_L, u_R)
            for seg in env.segments:
                if not isinstance(seg, Secant):
                    continue
                ends = {seg.u_a, seg.u_b}
                for anchor, touch in ((env.u_lo, seg.u_b), (env.u_hi, seg.u_a)):
                    if anchor in ends and touch not in (env.u_lo, env.u_hi):
                        exact = _mp_tangent_point(name, anchor, touch)
                        err = abs(touch - exact) / (1.0 + abs(exact))
                        assert err <= 5e-14, (name, u_L, u_R, touch, exact)
                        checked += 1
    assert checked > 200, checked


def _inflections(name, span):
    """Sign changes of F'' on a fine grid, refined with mpmath."""
    mpmath = pytest.importorskip("mpmath")
    F = MP_FLUXES[name]
    d2 = lambda u: mpmath.diff(F, u, 2)  # noqa: E731
    grid = np.linspace(*span, 401).tolist()
    with mpmath.workdps(30):
        vals = [d2(mpmath.mpf(u)) for u in grid]
        return [float(mpmath.findroot(d2, (mpmath.mpf(a), mpmath.mpf(b)), solver="anderson"))
                for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:])
                if (fa > 0) != (fb > 0)]


def test_envelope_near_inflections_is_a_hull(fluxes_by_name):
    # one state within 1e-3 of an inflection: arcs keep the hull's
    # curvature sign, secants stay on the hull side, pieces join exactly
    rng = np.random.default_rng(17)
    cases = 0
    for name, span in CRITERION_1_SPANS:
        flux = fluxes_by_name[name]
        for c in _inflections(name, span):
            for _ in range(60):
                near = c + rng.uniform(-1e-3, 1e-3)
                other = rng.uniform(*span)
                u_L, u_R = (near, other) if rng.random() < 0.5 else (other, near)
                env = build_envelope(flux, u_L, u_R)
                sign = -1.0 if env.side == "upper" else 1.0
                scale = 1.0 + abs(float(flux(u_L))) + abs(float(flux(u_R)))
                assert env.segments[0].u_a == env.u_lo and env.segments[-1].u_b == env.u_hi
                for s0, s1 in zip(env.segments[:-1], env.segments[1:]):
                    assert s0.u_b == s1.u_a
                for seg in env.segments:
                    us = np.linspace(seg.u_a, seg.u_b, 2001)
                    if isinstance(seg, Arc):
                        d2 = sign * flux(us[1:-1], 2)
                        assert np.all(d2 >= -1e-12 * scale), (name, u_L, u_R, seg)
                    else:
                        gap = sign * (flux(us) - flux(seg.u_a) - seg.slope * (us - seg.u_a))
                        assert np.all(gap >= -1e-10 * scale), (name, u_L, u_R, seg)
                cases += 1
    assert cases >= 300, cases
