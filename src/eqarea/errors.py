"""Exception hierarchy shared across the package."""


class EqAreaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EqAreaError):
    """Flux evaluation requested at a point where it is undefined."""


class InvalidOrder(EqAreaError):
    """Derivative order outside the supported set {0, 1, 2}."""


class ParseError(EqAreaError):
    """Malformed flux or configuration text.

    Carries the character position where parsing failed.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownNamedFlux(ParseError):
    """Named flux identifier not present in the registry."""


class BracketingFailure(EqAreaError):
    """A sign-change scan detected a root that could not be refined."""


class EnvelopeFailure(EqAreaError):
    """Envelope segment assembly could not cover the state interval."""


class DegenerateStates(EqAreaError):
    """Riemann states coincide; there is no jump to resolve."""


class QuadratureFailure(EqAreaError):
    """Adaptive quadrature exceeded its refinement depth."""


class DegenerateSegment(EqAreaError):
    """Interpolation data has zero horizontal extent (vertical jump)."""


class ProjectionFailure(EqAreaError):
    """Equal-area projection could not separate or resolve shocks."""


class FanOverlap(EqAreaError):
    """Wave fans from distinct jumps would interact before the target time."""
