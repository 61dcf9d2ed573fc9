"""Flux functions with exact first and second derivatives.

A flux is described declaratively (polynomial, rational, or a registered
named model) and differentiated symbolically at construction time, so that
``evaluate(u, order)`` returns closed-form values for orders 0, 1 and 2.
Runtime finite differences are never used: the downstream interpolation is
fifth-order accurate and sensitive to derivative noise.

Text form (also used by the CLI):

    polynomial:[c0,c1,...]          coefficients low-to-high degree
    rational:[p0,p1,...]/[q0,...]   numerator / denominator
    named:<id>{key:value,...}       e.g. named:buckley-leverett{M:0.5}
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DomainError, InvalidOrder, ParseError, UnknownNamedFlux
from .rootfind import poly_roots

__all__ = [
    "FluxFunction",
    "PolynomialSpec",
    "RationalSpec",
    "NamedSpec",
    "parse_flux_spec",
    "polynomial_flux",
    "rational_flux",
    "buckley_leverett",
]

# Denominator magnitudes below this (relative to coefficient scale) count
# as a vanishing denominator.
_DENOM_TOL = 1e-14


def _polyval(coeffs, u):
    """Horner evaluation of coefficients stored low-to-high degree."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def _polyder(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs) if k > 0) or (0.0,)


def _polymul(a, b):
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _polysub(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (0.0,) * (n - len(a))
    b = tuple(b) + (0.0,) * (n - len(b))
    return tuple(x - y for x, y in zip(a, b))


def _polyscale(a, s):
    return tuple(s * c for c in a)


@dataclass(frozen=True)
class PolynomialSpec:
    """F(u) = sum c_k u^k, coefficients low-to-high degree."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ParseError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))


@dataclass(frozen=True)
class RationalSpec:
    """F(u) = P(u)/Q(u) with polynomial numerator and denominator."""

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self):
        if len(self.num) == 0 or len(self.den) == 0:
            raise ParseError("rational flux needs non-empty coefficient lists")
        object.__setattr__(self, "num", tuple(float(c) for c in self.num))
        object.__setattr__(self, "den", tuple(float(c) for c in self.den))
        if not any(c != 0.0 for c in self.den):
            raise ParseError("rational flux denominator is identically zero")


@dataclass(frozen=True)
class NamedSpec:
    """Registered model identified by name plus a parameter map."""

    name: str
    params: dict[str, float] = field(default_factory=dict)


FluxSpec = PolynomialSpec | RationalSpec | NamedSpec


def _lower_named(spec: NamedSpec) -> RationalSpec:
    """Reduce a named model to its rational form."""
    if spec.name != "buckley-leverett":
        raise UnknownNamedFlux(f"unknown named flux {spec.name!r}")
    m = float(spec.params.get("M", 0.5))
    if not m > 0.0:
        raise ParseError(f"buckley-leverett requires M > 0, got {m}")
    # u^2 / (u^2 + M (1-u)^2) = u^2 / ((1+M) u^2 - 2M u + M)
    return RationalSpec(num=(0.0, 0.0, 1.0), den=(m, -2.0 * m, 1.0 + m))


class FluxFunction:
    """Evaluatable flux with exact derivatives of order 0, 1 and 2.

    Instances are immutable after construction and safe to share between
    threads. ``evaluate`` accepts scalars or numpy arrays.
    """

    def __init__(self, spec: FluxSpec):
        self.spec = spec
        base = _lower_named(spec) if isinstance(spec, NamedSpec) else spec
        if isinstance(base, PolynomialSpec):
            p = base.coeffs
            self._num = (p, _polyder(p), _polyder(_polyder(p)))
            self._den = None
        else:
            p, q = base.num, base.den
            dp, dq = _polyder(p), _polyder(q)
            # F' = N1 / Q^2 with N1 = P'Q - PQ'
            n1 = _polysub(_polymul(dp, q), _polymul(p, dq))
            # F'' = (N1'Q - 2 N1 Q') / Q^3
            n2 = _polysub(_polymul(_polyder(n1), q), _polyscale(_polymul(n1, dq), 2.0))
            self._num = (p, n1, n2)
            self._den = q
            self._den_scale = max(abs(c) for c in q)

    def evaluate(self, u, order: int = 0):
        """Return F(u), F'(u) or F''(u) for scalar or array ``u``."""
        if order not in (0, 1, 2):
            raise InvalidOrder(f"derivative order must be 0, 1 or 2, got {order}")
        if self._den is None:
            return _polyval(self._num[order], u)
        q = _polyval(self._den, u)
        bad = np.abs(q) <= _DENOM_TOL * self._den_scale
        if np.any(bad):
            raise DomainError("flux denominator vanishes at a queried point")
        # products, not q ** k: numpy and Python round powers differently
        den = q * q * q if order == 2 else q * q if order == 1 else q
        return _polyval(self._num[order], u) / den

    def __call__(self, u, order: int = 0):
        return self.evaluate(u, order)

    def tangent_points(self, anchor: float, lo: float, hi: float) -> list[float]:
        """Points u in (lo, hi) whose tangent line passes through (anchor, F(anchor)).

        They are the roots of F(u) - F(a) - F'(u)(u - a) times Q^2, the
        polynomial P Q - F(a) Q^2 - N1 (u - a), which has a double root at
        the anchor a; that root is divided out before the roots are taken.
        """
        p, n1 = self._num[0], self._num[1]
        q = self._den or (1.0,)
        f_a = float(self.evaluate(anchor))
        r = _polysub(_polysub(_polymul(p, q), _polyscale(_polymul(q, q), f_a)),
                     _polymul(n1, (-anchor, 1.0)))
        return poly_roots(P.polydiv(r, (anchor * anchor, -2.0 * anchor, 1.0))[0], lo, hi)

    def slope_points(self, m: float, lo: float, hi: float) -> list[float]:
        """Points u in (lo, hi) with F'(u) = m: the roots of N1 - m Q^2."""
        q = self._den or (1.0,)
        return poly_roots(_polysub(self._num[1], _polyscale(_polymul(q, q), m)), lo, hi)

    def inflections(self, lo: float, hi: float) -> list[float]:
        """Roots of F'' in (lo, hi): the roots of its numerator N2."""
        return poly_roots(self._num[2], lo, hi)

    def check_no_pole(self, u_a: float, u_b: float) -> None:
        """Raise DomainError if Q has a root of any order between the states.

        That is a root of Q inside the interval, or |Q| below the vanishing
        tolerance at one of its ends.
        """
        if self._den is None:
            return
        q = self._den
        lo, hi = min(u_a, u_b), max(u_a, u_b)
        tol = _DENOM_TOL * self._den_scale
        poles = [u for u in (lo, hi) if abs(_polyval(q, u)) <= tol] + poly_roots(q, lo, hi)
        if poles:
            raise DomainError(f"flux denominator vanishes at u = {min(poles):.12g}, "
                              f"inside the state interval [{lo:.12g}, {hi:.12g}]")

    def __neg__(self) -> "FluxFunction":
        base = _lower_named(self.spec) if isinstance(self.spec, NamedSpec) else self.spec
        if isinstance(base, PolynomialSpec):
            return FluxFunction(PolynomialSpec(_polyscale(base.coeffs, -1.0)))
        return FluxFunction(RationalSpec(_polyscale(base.num, -1.0), base.den))

    def __repr__(self):
        return f"FluxFunction({self.spec!r})"


def polynomial_flux(coeffs) -> FluxFunction:
    return FluxFunction(PolynomialSpec(tuple(coeffs)))


def rational_flux(num, den) -> FluxFunction:
    return FluxFunction(RationalSpec(tuple(num), tuple(den)))


def buckley_leverett(m: float = 0.5) -> FluxFunction:
    return FluxFunction(NamedSpec("buckley-leverett", {"M": float(m)}))


class _Scanner:
    """Minimal cursor over the flux grammar, tracking position for errors."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        # "\0" sentinel at end-of-text: `"" in <str>` is always True, which
        # would turn the membership tests below into infinite loops.
        return self.text[self.pos] if self.pos < len(self.text) else "\0"

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def skip_ws(self):
        while self.peek() in " \t":
            self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.peek().isalnum() or self.peek() in "-_":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an identifier", self.pos)
        return self.text[start:self.pos]

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        while self.peek() in "+-.0123456789eE":
            self.pos += 1
        token = self.text[start:self.pos]
        try:
            return float(token)
        except ValueError:
            raise ParseError(f"expected a number, got {token!r}", start) from None

    def number_list(self) -> list[float]:
        self.skip_ws()
        self.expect("[")
        values = []
        self.skip_ws()
        while self.peek() != "]":
            values.append(self.number())
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
        self.expect("]")
        return values


def parse_flux_spec(text: str) -> FluxFunction:
    """Parse the documented flux grammar into a FluxFunction.

    Raises ParseError (with position) on malformed input and
    UnknownNamedFlux for unregistered named models.
    """
    sc = _Scanner(text.strip())
    kind = sc.ident()
    sc.expect(":")
    if kind == "polynomial":
        coeffs = sc.number_list()
        if not coeffs:
            raise ParseError("empty coefficient list", sc.pos)
        spec: FluxSpec = PolynomialSpec(tuple(coeffs))
    elif kind == "rational":
        num = sc.number_list()
        sc.skip_ws()
        sc.expect("/")
        den = sc.number_list()
        if not num or not den:
            raise ParseError("empty coefficient list", sc.pos)
        spec = RationalSpec(tuple(num), tuple(den))
    elif kind == "named":
        name = sc.ident()
        params: dict[str, float] = {}
        sc.skip_ws()
        if sc.peek() == "{":
            sc.pos += 1
            sc.skip_ws()
            while sc.peek() != "}":
                key = sc.ident()
                sc.expect(":")
                params[key] = sc.number()
                sc.skip_ws()
                if sc.peek() == ",":
                    sc.pos += 1
                    sc.skip_ws()
            sc.expect("}")
        spec = NamedSpec(name, params)
        _lower_named(spec)  # validate name and parameters eagerly
    else:
        raise ParseError(f"unknown flux kind {kind!r}", 0)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError("trailing characters after flux spec", sc.pos)
    return FluxFunction(spec)
