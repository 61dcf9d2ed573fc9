"""Characteristic flow of initial data and exact parametric areas.

Nodes sample the initial curve; the flow moves each node from its seed
position by t F'(u) while u rides along unchanged. Tangents and cumulative
areas update by evaluation only: the time-dependent part of the parametric
area is a boundary term, so the integral of g is computed once at seeding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DegenerateStates, QuadratureFailure
from .flux import FluxFunction

__all__ = [
    "CharNode",
    "Piece",
    "InitialData",
    "seed_riemann",
    "seed_smooth",
    "flow",
]


@dataclass(frozen=True)
class CharNode:
    """One sample of the (possibly flowed) initial curve.

    s is the curve parameter: the jump-front fraction in [0, 1] for Riemann
    seeds and the seed position x0 for smooth data samples. Seed quantities
    (x0 and the t = 0 tangent) stay on the node so the flow map is always
    evaluated from time zero.
    """

    s: float
    u: float
    x0: float
    tx0: float  # d x / d s at t = 0
    tu: float   # d u / d s (time-invariant)
    base_area: float  # integral of g ds from the chain start, t-independent
    x: float = 0.0
    tx: float = 0.0
    cum_area: float = 0.0


def _phi(flux: FluxFunction, u: float) -> float:
    """Boundary-term potential F'(u) u - F(u)."""
    return float(flux(u, 1)) * u - float(flux(u))


@dataclass(frozen=True)
class Piece:
    """One smooth piece of initial data on [x_lo, x_hi)."""

    x_lo: float
    x_hi: float
    g: Callable[[float], float]
    g1: Callable[[float], float]
    kind: str = "generic"        # "constant" | "linear" | "generic"
    value: float | None = None   # constant value
    slope: float | None = None   # linear slope (g = value + slope (x - x_lo))

    @staticmethod
    def constant(x_lo: float, x_hi: float, value: float) -> "Piece":
        return Piece(x_lo, x_hi, lambda x: value, lambda x: 0.0, "constant", value=value)

    @staticmethod
    def linear(x_lo: float, x_hi: float, value: float, slope: float) -> "Piece":
        return Piece(x_lo, x_hi,
                     lambda x: value + slope * (x - x_lo),
                     lambda x: slope, "linear", value=value, slope=slope)

    def integral(self, a: float, b: float) -> float:
        """Exact integral of g over [a, b] within this piece."""
        if self.kind == "constant":
            return self.value * (b - a)
        if self.kind == "linear":
            ga = self.value + self.slope * (a - self.x_lo)
            gb = self.value + self.slope * (b - self.x_lo)
            return 0.5 * (ga + gb) * (b - a)
        return _adaptive_quad(self.g, a, b)


@dataclass(frozen=True)
class InitialData:
    """Ordered, contiguous smooth pieces plus the recorded jump positions."""

    pieces: tuple[Piece, ...]
    jumps: tuple[tuple[float, float, float], ...] = ()  # (x0, u_left, u_right)

    @staticmethod
    def riemann(x0: float, u_left: float, u_right: float, extent: float = 1.0) -> "InitialData":
        if u_left == u_right:
            raise DegenerateStates("Riemann data needs distinct states")
        return InitialData(
            pieces=(Piece.constant(x0 - extent, x0, u_left),
                    Piece.constant(x0, x0 + extent, u_right)),
            jumps=((x0, u_left, u_right),),
        )

    @staticmethod
    def box(x0: float, x1: float, u_inner: float, u_outer: float, extent: float = 1.0) -> "InitialData":
        if u_inner == u_outer:
            raise DegenerateStates("box data needs distinct inner and outer states")
        return InitialData(
            pieces=(Piece.constant(x0 - extent, x0, u_outer),
                    Piece.constant(x0, x1, u_inner),
                    Piece.constant(x1, x1 + extent, u_outer)),
            jumps=((x0, u_outer, u_inner), (x1, u_inner, u_outer)),
        )


# 12-point Gauss-Legendre nodes/weights on [-1, 1], generated at import
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _gl12(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = mid + half * _GL_NODES
    return half * float(np.sum(_GL_WEIGHTS * np.array([f(x) for x in xs])))


def _adaptive_quad(f, a, b, tol: float = 1e-14, depth: int = 40) -> float:
    """Adaptive Gauss-Legendre with interval halving to absolute tolerance."""
    if a == b:
        return 0.0
    whole = _gl12(f, a, b)
    return _adapt(f, a, b, whole, tol, depth)


def _adapt(f, a, b, whole, tol, depth):
    if depth <= 0:
        raise QuadratureFailure(f"quadrature depth exhausted on [{a}, {b}]")
    mid = 0.5 * (a + b)
    left = _gl12(f, a, mid)
    right = _gl12(f, mid, b)
    if abs(left + right - whole) <= tol:
        return left + right
    half_tol = 0.5 * tol
    return (_adapt(f, a, mid, left, half_tol, depth - 1)
            + _adapt(f, mid, b, right, half_tol, depth - 1))


def seed_riemann(u_L: float, u_R: float, x0: float, n: int) -> list[CharNode]:
    """Nodes for a Riemann jump front.

    The front is parametrized by s in [0, 1] with u(s) = u_R s + (1 - s) u_L
    at x = x0. Front cumulative areas omit the (zero) vertical-line
    integral, so they are pure boundary terms once the front is flowed.
    """
    if n < 2:
        raise ValueError("need at least two front nodes")
    if u_L == u_R:
        raise DegenerateStates("equal states leave nothing to parametrize")
    du = u_R - u_L
    nodes = []
    for i in range(n):
        s = i / (n - 1)
        nodes.append(CharNode(s=s, u=u_L + du * s, x0=x0, tx0=0.0, tu=du,
                              base_area=0.0, x=x0, tx=0.0))
    return nodes


def seed_smooth(piece: Piece, n: int) -> list[CharNode]:
    """Uniform seeding of one smooth piece; s is the seed position itself."""
    if n < 2:
        raise ValueError("need at least two nodes")
    xs = np.linspace(piece.x_lo, piece.x_hi, n)
    nodes = []
    base = 0.0
    prev = float(xs[0])
    for i, xi in enumerate(xs):
        xi = float(xi)
        if i > 0:
            base += piece.integral(prev, xi)
        nodes.append(CharNode(s=xi, u=float(piece.g(xi)), x0=xi, tx0=1.0,
                              tu=float(piece.g1(xi)), base_area=base, x=xi,
                              tx=1.0, cum_area=base))
        prev = xi
    return nodes


def flow(nodes: list[CharNode], flux: FluxFunction, t: float) -> list[CharNode]:
    """Transport nodes to absolute time t along their characteristics.

    Positions move linearly, x = x0 + t F'(u); tangents pick up
    t F''(u) du/ds in the horizontal component; cumulative areas update by
    evaluating the boundary term against the first chain node.
    """
    if t < 0.0:
        raise ValueError("flow runs forward in time only")
    if not nodes:
        return []
    phi0 = _phi(flux, nodes[0].u)
    out = []
    for nd in nodes:
        fp = float(flux(nd.u, 1))
        fpp = float(flux(nd.u, 2))
        out.append(replace(nd, x=nd.x0 + fp * t,
                           tx=nd.tx0 + t * fpp * nd.tu,
                           cum_area=nd.base_area + t * (_phi(flux, nd.u) - phi0)))
    return out
