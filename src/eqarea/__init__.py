"""Equal-area shock fitting for 1-D scalar conservation laws.

Solves u_t + (F(u))_x = 0 for non-convex flux F by flowing initial data
along characteristics, interpolating the flowed curve with area-preserving
cubic Bezier segments, and projecting multivalued regions onto
entropy-admissible fronts with equal-area vertical shock lines. Exact
reference solutions come from upper/lower convex envelopes of the flux.
"""

from .errors import (
    BracketingFailure,
    DegenerateSegment,
    DegenerateStates,
    DomainError,
    EnvelopeFailure,
    EqAreaError,
    FanOverlap,
    InvalidOrder,
    ParseError,
    ProjectionFailure,
    QuadratureFailure,
    UnknownNamedFlux,
)
from .characteristics import InitialData, Piece
from .envelope import build_envelope, envelope_to_wavefan, oracle_envelope
from .flux import (
    FluxFunction,
    NamedSpec,
    PolynomialSpec,
    RationalSpec,
    buckley_leverett,
    parse_flux_spec,
    polynomial_flux,
    rational_flux,
)
from .solver import solve_piecewise, solve_riemann_exact, solve_riemann_numerical

__version__ = "0.1.0"
