"""Pinned numerical results: a refactor must not move them.

The stored values are the numerical shock positions on every rung of
``converge``'s ``10x2^5`` ladder for examples 1, 3 and 4 (n interpolants,
n + 1 nodes, solved as ``converge`` solves them) and example 5's shock
table. Changes to the solver that are meant to leave results alone must
keep every value within 1e-13; a change that moves them on purpose must
say so and update this file.
"""

import math

import pytest

from eqarea.cli import EXAMPLES, _profile_for_example, parse_ladder
from eqarea.flux import parse_flux_spec
from eqarea.solver import solve_riemann_numerical

TOL = 1e-13

LADDER_SHOCKS = {
    1: {
        10: [-1.1851653034460767, 1.1851819606083076],
        20: [-1.1851847536269395, 1.18518507184448],
        40: [-1.1851851824836515, 1.185185183562841],
        80: [-1.1851851851404014, 1.1851851851515325],
        160: [-1.185185185184596, 1.1851851851846678],
        320: [-1.1851851851851791, 1.1851851851851793],
    },
    3: {
        10: [0.7407383891307149],
        20: [0.7407407759483535],
        40: [0.7407407416360972],
        80: [0.7407407407360161],
        160: [0.7407407407404689],
        320: [0.7407407407407689],
    },
    4: {
        10: [1.3660235866376822],
        20: [1.3660252365890817],
        40: [1.366025404081918],
        80: [1.3660254039612751],
        160: [1.3660254037729473],
        320: [1.3660254037844013],
    },
}

# example 5 (box data at its registered time and node count): x_s, u_top, u_bot, speed
EXAMPLE5_SHOCKS = [
    (0.1481481481482539, 3.1941918984362445, 0.13914143491558292, 0.7407407407412694),
    (5.916666666666666, 5.0, 0.0, 4.58333333333333),
]


@pytest.mark.parametrize("example_id", sorted(LADDER_SHOCKS))
def test_ladder_shock_positions_pinned(example_id):
    spec = EXAMPLES[example_id]
    flux = parse_flux_spec(spec.flux_text)
    x0, u_L, u_R = spec.params
    assert parse_ladder("10x2^5") == sorted(LADDER_SHOCKS[example_id])
    for n, want in LADDER_SHOCKS[example_id].items():
        prof = solve_riemann_numerical(flux, u_L, u_R, x0, spec.time, n + 1, samples=9)
        got = sorted(s.x_s for s in prof.shocks)
        assert len(got) == len(want), f"n={n}: {len(got)} shocks"
        assert got == pytest.approx(want, abs=TOL, rel=0.0), f"n={n}"


def test_example5_shock_table_pinned():
    spec = EXAMPLES[5]
    prof = _profile_for_example(spec, spec.time, spec.nodes)
    got = [(s.x_s, s.u_top, s.u_bot, s.speed) for s in prof.shocks]
    assert len(got) == len(EXAMPLE5_SHOCKS)
    for row, want in zip(got, EXAMPLE5_SHOCKS):
        assert all(math.isfinite(v) for v in row)
        assert row == pytest.approx(want, abs=TOL, rel=0.0)
