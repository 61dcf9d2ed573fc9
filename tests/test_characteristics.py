import math

import numpy as np
import pytest

from eqarea.characteristics import InitialData, Piece, flow, seed_riemann, seed_smooth
from eqarea.errors import DegenerateStates
from eqarea.projection import interpolate_chain


def flowed_areas(flux, piece, t, n=11):
    """Flowed nodes of a smooth piece and their parametric areas from the first."""
    moved = flow(seed_smooth(piece, n), flux, t)
    return moved, [nd.cum_area - moved[0].cum_area for nd in moved]


def test_seed_riemann_front_nodes():
    nodes = seed_riemann(2.0, 0.0, 0.0, 3)
    assert [nd.u for nd in nodes] == [2.0, 1.0, 0.0]
    assert all(nd.x == 0.0 for nd in nodes)
    assert [nd.s for nd in nodes] == [0.0, 0.5, 1.0]


def test_seed_riemann_rising():
    nodes = seed_riemann(0.0, 2.0, 0.0, 2)
    assert [nd.u for nd in nodes] == [0.0, 2.0]


def test_seed_riemann_degenerate():
    with pytest.raises(DegenerateStates):
        seed_riemann(1.0, 1.0, 0.0, 2)


def test_flow_trivials(flux_e1):
    nodes = seed_riemann(2.0, 0.0, 0.0, 3)
    moved = flow(nodes, flux_e1, 1.0)
    top = [nd for nd in moved if nd.u == 2.0][0]
    assert top.x == 0.0  # F'(2) = 0
    same = flow(nodes, flux_e1, 0.0)
    assert [nd.x for nd in same] == [nd.x for nd in nodes]


def test_flow_tangency_node(flux_e1):
    nodes = seed_riemann(2.0, 0.0, 0.0, 4)  # hits u = 2/3 exactly
    moved = flow(nodes, flux_e1, 1.0)
    nd = [n for n in moved if abs(n.u - 2.0 / 3.0) < 1e-12][0]
    assert nd.x == pytest.approx(32.0 / 27.0, abs=1e-14)


def test_flow_linear_in_time(flux_e3):
    nodes = seed_riemann(0.0, 3.5, 0.0, 7)
    rng = np.random.default_rng(2)
    for t in rng.uniform(0.1, 4.0, 20):
        moved = flow(nodes, flux_e3, float(t))
        for nd in moved:
            assert nd.x == pytest.approx(t * flux_e3(nd.u, 1), rel=1e-15, abs=1e-15)


def test_parametric_area_constant_piece(flux_e1):
    # nodes at 0, 0.1, ..., 1: the area from 0.2 to 0.9 under g = 3 at any t
    piece = Piece.constant(0.0, 1.0, 3.0)
    for t in (0.0, 0.7, 5.0):
        _, areas = flowed_areas(flux_e1, piece, t)
        assert areas[9] - areas[2] == pytest.approx(2.1, abs=1e-14)
        assert areas == pytest.approx([3.0 * k / 10 for k in range(11)], abs=1e-14)


def test_parametric_area_linear_piece(flux_e1):
    piece = Piece.linear(0.0, 1.0, 2.0, -2.0)  # g = 2 - 2x
    assert flowed_areas(flux_e1, piece, 0.0)[1][-1] == pytest.approx(1.0, abs=1e-15)
    # F and F' vanish at both endpoint values, so the boundary term cancels
    moved, areas = flowed_areas(flux_e1, piece, 1.0)
    assert areas[-1] == pytest.approx(1.0, abs=1e-14)
    # in between, the area moves by t times the boundary term phi = F'(u) u - F(u)
    for nd, area in zip(moved, areas):
        x = nd.x0
        phi = flux_e1(nd.u, 1) * nd.u - flux_e1(nd.u)
        assert area == pytest.approx(2.0 * x - x * x + phi, abs=1e-13)


def test_parametric_area_time_invariant_for_closed_ends(flux_e3):
    hump = Piece(0.0, 1.0,
                 lambda x: math.sin(math.pi * x) ** 2,
                 lambda x: math.pi * math.sin(2.0 * math.pi * x))
    rng = np.random.default_rng(6)
    base = flowed_areas(flux_e3, hump, 0.0)[1][-1]
    assert base == pytest.approx(0.5, abs=1e-14)
    for t in rng.uniform(0.0, 10.0, 20):
        assert flowed_areas(flux_e3, hump, float(t))[1][-1] == pytest.approx(base, abs=1e-13)


def test_parametric_area_tanh_piece(flux_square):
    # g = -tanh x on [-4, 4]: the seeded area is log cosh 4 - log cosh x, and
    # flowing to time t adds t (phi(g(x)) - phi(g(-4))) with phi(u) = u^2
    piece = Piece(-4.0, 4.0, lambda x: -math.tanh(x), lambda x: -1.0 / math.cosh(x) ** 2)
    for t in (0.0, 0.2, 2.0):
        moved, areas = flowed_areas(flux_square, piece, t, 17)
        for nd, area in zip(moved, areas):
            want = (math.log(math.cosh(4.0)) - math.log(math.cosh(nd.x0))
                    + t * (math.tanh(nd.x0) ** 2 - math.tanh(4.0) ** 2))
            assert area == pytest.approx(want, abs=1e-13)


def test_quadrature_piece_integral():
    piece = Piece(0.0, math.pi, math.sin, math.cos)
    assert piece.integral(0.0, math.pi) == pytest.approx(2.0, abs=1e-13)


def test_detect_overturn_riemann(flux_e1):
    moved = flow(seed_riemann(2.0, 0.0, 0.0, 9), flux_e1, 1.0)
    assert interpolate_chain(moved).fold_params()  # overturns immediately for t > 0
    # flat data never overturns
    flat = flow(seed_smooth(Piece.constant(0.0, 1.0, 1.0), 9), flux_e1, 3.0)
    assert interpolate_chain(flat).fold_params() == []


def test_detect_overturn_smooth_before_breaking(flux_square):
    piece = Piece(-4.0, 4.0, lambda x: -math.tanh(x), lambda x: -1.0 / math.cosh(x) ** 2)
    # flux u^2 with min g' = -1 breaks at t = 1 / (F'' |min g'|) = 0.5
    early = flow(seed_smooth(piece, 33), flux_square, 0.2)
    late = flow(seed_smooth(piece, 33), flux_square, 2.0)
    assert interpolate_chain(early).fold_params() == []
    assert interpolate_chain(late).fold_params()


def test_cum_area_matches_boundary_term(flux_e1):
    moved = flow(seed_riemann(2.0, 0.0, 0.0, 11), flux_e1, 1.3)

    def phi(u):
        return flux_e1(u, 1) * u - flux_e1(u)

    for nd in moved:
        assert nd.cum_area == pytest.approx(1.3 * (phi(nd.u) - phi(2.0)), abs=1e-13)


def test_initial_data_riemann_and_box():
    data = InitialData.riemann(0.5, 2.0, 0.0)
    assert data.jumps == ((0.5, 2.0, 0.0),)
    box = InitialData.box(0.0, 5.0, 5.0, 0.0)
    assert box.jumps == ((0.0, 0.0, 5.0), (5.0, 5.0, 0.0))
    assert [p.value for p in box.pieces] == [0.0, 5.0, 0.0]
