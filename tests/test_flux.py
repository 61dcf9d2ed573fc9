import numpy as np
import pytest

from eqarea.envelope import Arc, build_envelope, oracle_envelope
from eqarea.errors import DomainError, InvalidOrder, ParseError, UnknownNamedFlux
from eqarea.flux import (
    NamedSpec,
    PolynomialSpec,
    RationalSpec,
    buckley_leverett,
    parse_flux_spec,
    polynomial_flux,
    rational_flux,
)
from eqarea.solver import solve_riemann_exact, solve_riemann_numerical


def test_example1_flux_values(flux_e1):
    assert flux_e1(2.0) == 0.0
    assert flux_e1(2.0 / 3.0, 1) == pytest.approx(32.0 / 27.0, abs=1e-15)


def test_buckley_leverett_values(flux_bl):
    assert flux_bl(1.0) == 1.0
    assert flux_bl(0.0) == 0.0
    ustar = 1.0 / np.sqrt(3.0)
    assert flux_bl(ustar) / ustar == pytest.approx((1.0 + np.sqrt(3.0)) / 2.0, abs=1e-14)


def test_invalid_order(flux_e1):
    with pytest.raises(InvalidOrder):
        flux_e1(1.0, 3)


def test_rational_domain_error():
    f = rational_flux([1.0], [-1.0, 1.0])  # 1/(u-1)
    with pytest.raises(DomainError):
        f(1.0)
    assert f(2.0) == 1.0


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_consistency_centered_difference(flux_e1, flux_e3, flux_bl, order):
    rng = np.random.default_rng(7)
    h = 1e-5
    for flux, span in [(flux_e1, (-0.5, 2.5)), (flux_e3, (-0.5, 4.0)), (flux_bl, (0.02, 0.98))]:
        u = rng.uniform(*span, 100)
        fd = (flux(u + h, order - 1) - flux(u - h, order - 1)) / (2 * h)
        exact = flux(u, order)
        assert np.all(np.abs(fd - exact) <= 1e-8 * (1.0 + np.abs(exact)))


def test_polynomial_second_derivative_exact_on_integers():
    # integer coefficients and inputs stay exact through Horner
    f = polynomial_flux([3.0, -2.0, 5.0, 1.0])  # 3 - 2u + 5u^2 + u^3
    for u in (-3.0, -1.0, 0.0, 2.0, 4.0):
        assert f(u, 2) == 10.0 + 6.0 * u


def test_vectorized_evaluation_matches_scalar(flux_bl):
    us = np.linspace(0.05, 0.95, 17)
    vec = flux_bl(us, 1)
    # scalar pow and numpy pow may differ in the last ulp
    assert vec == pytest.approx([flux_bl(float(u), 1) for u in us], rel=4e-16)


def test_negation(flux_e3):
    g = -flux_e3
    us = np.linspace(-1.0, 4.0, 23)
    for order in (0, 1, 2):
        assert np.allclose(g(us, order), -flux_e3(us, order), atol=0.0)


class TestParse:
    def test_polynomial(self):
        f = parse_flux_spec("polynomial:[0,0,4,-4,1]")
        assert isinstance(f.spec, PolynomialSpec)
        assert f(2.0) == 0.0
        assert f(1.0) == 1.0  # (1 - 2)^2

    def test_named_buckley(self):
        f = parse_flux_spec("named:buckley-leverett{M:0.5}")
        assert isinstance(f.spec, NamedSpec)
        u = 0.3
        ref = u**2 / (u**2 + 0.5 * (1 - u) ** 2)
        assert f(u) == pytest.approx(ref, abs=1e-16)

    def test_named_default_parameter(self):
        f = parse_flux_spec("named:buckley-leverett{}")
        assert f(0.5) == pytest.approx(buckley_leverett(0.5)(0.5), abs=0.0)

    def test_rational(self):
        f = parse_flux_spec("rational:[0,0,1]/[0.5,-1,1.5]")
        assert isinstance(f.spec, RationalSpec)
        assert f(1.0) == 1.0

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ParseError):
            parse_flux_spec("polynomial:[]")

    def test_unknown_named(self):
        with pytest.raises(UnknownNamedFlux):
            parse_flux_spec("named:whatever{}")

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_flux_spec("polynomial:[1,2")
        assert err.value.position is not None

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_flux_spec("polynomial:[1,2] tail")

    def test_nonpositive_m_rejected(self):
        with pytest.raises(ParseError):
            parse_flux_spec("named:buckley-leverett{M:-1}")

    @pytest.mark.parametrize("text", ["polynomial:[0,1e400]", "polynomial:[0,0,1e308,1e308]",
                                      "rational:[0,1e200]/[1,1e200]",
                                      "named:buckley-leverett{M:1e400}"])
    def test_non_finite_coefficients_rejected(self, text):
        # a coefficient of F, or of the F' or F'' numerator derived from it
        with pytest.raises(ParseError, match="not finite"):
            parse_flux_spec(text)


# a simple pole at 0, a simple pole at 0.3 and a double pole at 0.3
POLE_FLUXES = {"simple-0": ("rational:[1]/[0,1]", "u = 0,"),
               "simple-0.3": ("rational:[1]/[-0.3,1]", "u = 0.3,"),
               "double-0.3": ("rational:[1]/[0.09,-0.6,1]", "u = 0.3,")}
POLE_PATHS = {
    "numerical": lambda f: solve_riemann_numerical(f, -1.0, 1.0, 0.0, 1.0, 40, samples=9),
    "exact": lambda f: solve_riemann_exact(f, -1.0, 1.0, 0.0, 1.0, samples=9),
    "envelope": lambda f: build_envelope(f, 1.0, -1.0),
    "oracle": lambda f: oracle_envelope(f, -1.0, 1.0, 1000),
}


@pytest.mark.parametrize("path", POLE_PATHS)
@pytest.mark.parametrize("name", POLE_FLUXES)
def test_pole_inside_state_interval_rejected(name, path):
    text, root = POLE_FLUXES[name]
    with pytest.raises(DomainError) as info:
        POLE_PATHS[path](parse_flux_spec(text))
    assert root in str(info.value) and "[-1, 1]" in str(info.value)


def test_pole_outside_state_interval_solves():
    # 1/(u - 0.3)^2 is convex on [0.5, 1]: a single rarefaction both ways
    flux = parse_flux_spec("rational:[1]/[0.09,-0.6,1]")
    flux.check_no_pole(0.5, 1.0)
    flux.check_no_pole(1.0, 0.31)
    numerical = solve_riemann_numerical(flux, 0.5, 1.0, 0.0, 1.0, 40)
    exact = solve_riemann_exact(flux, 0.5, 1.0, 0.0, 1.0)
    assert numerical.waves == exact.waves == ["R"]
    assert [type(s) for s in oracle_envelope(flux, 0.5, 1.0, 1000).segments] == [Arc]
    assert np.max(np.abs(np.interp(exact.xs, numerical.xs, numerical.us) - exact.us)) < 1e-3


def test_pole_check_ignores_polynomials_and_complex_roots(flux_e1, flux_bl):
    flux_e1.check_no_pole(-10.0, 10.0)
    flux_bl.check_no_pole(0.0, 1.0)  # denominator roots are complex


@pytest.mark.parametrize("text, span", [
    ("named:buckley-leverett{M:0.5}", (0.0, 1.0)),
    ("rational:[0.0,0.35746712316898616,0.19099248938301286]/[1,0.21991591018707474,0.5]",
     (-1.0, 1.0)),
])
def test_float_and_array_give_the_same_bits(text, span):
    # the scalar and vectorized paths of the solver must agree exactly
    flux = parse_flux_spec(text)
    us = np.random.default_rng(8).uniform(*span, 50_000)
    for order in (0, 1, 2):
        scalar = np.array([flux(u, order) for u in us.tolist()])
        assert np.array_equal(scalar, flux(us, order)), order
