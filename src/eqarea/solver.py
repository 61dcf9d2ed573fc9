"""End-to-end solvers: exact wave fans and the numerical projection path.

The exact route builds the convex envelope between the Riemann states and
samples the resulting fan; the numerical route seeds the jump, flows it,
interpolates with area-preserving segments and projects the overturned
curve. Both produce a SolutionProfile with identical structure so the
convergence harness can difference shock positions directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import envelope as env_mod
from .characteristics import InitialData, flow, seed_riemann, seed_smooth
from .envelope import Shock, WaveFan, build_envelope, envelope_to_wavefan
from .errors import FanOverlap
from .flux import FluxFunction
from .projection import ProjectedFront, geap_project, interpolate_chain
from .rootfind import bisect_many

__all__ = [
    "ShockInfo",
    "SolutionProfile",
    "solve_riemann_exact",
    "solve_riemann_numerical",
    "solve_piecewise",
]


@dataclass(frozen=True)
class ShockInfo:
    x_s: float
    u_top: float
    u_bot: float
    speed: float


@dataclass
class SolutionProfile:
    """Sampled solution at one time plus its discontinuity table."""

    t: float
    xs: np.ndarray
    us: np.ndarray
    shocks: list[ShockInfo]
    waves: list[str]  # "S"/"R" left to right
    window: tuple[float, float]  # the sampled x interval
    front: ProjectedFront | None = None  # numerical Riemann solves only


def _invert_fprime_monotone(flux: FluxFunction, targets: np.ndarray,
                            u_a: float, u_b: float) -> np.ndarray:
    """Solve F'(u) = target for u between u_a and u_b, vectorized bisection."""
    lo = np.full_like(targets, min(u_a, u_b))
    hi = np.full_like(targets, max(u_a, u_b))
    # the residual keeps its sign at every lower end, so one evaluation fixes it
    lo_positive = flux(lo, 1) - targets > 0
    return bisect_many(lambda mid: (flux(mid, 1) - targets > 0) == lo_positive, lo, hi, 1e-13)


def _fan_speed_range(fan: WaveFan, flux: FluxFunction) -> tuple[float, float]:
    speeds = [env_mod.wave_speed_range(w, flux) for w in fan.waves]
    return min(s for s, _ in speeds), max(s for _, s in speeds)


def sample_wavefan(fan: WaveFan, flux: FluxFunction, u_L: float,
                   t: float, xs: np.ndarray) -> np.ndarray:
    """Evaluate the exact fan profile at the given positions."""
    us = np.full_like(xs, u_L, dtype=float)
    for wave in fan.waves:
        if isinstance(wave, Shock):
            pos = fan.x0 + wave.speed * t
            us[xs >= pos] = wave.u_right
        else:
            lo_speed = float(flux(wave.u_left, 1))
            hi_speed = float(flux(wave.u_right, 1))
            a = fan.x0 + lo_speed * t
            b = fan.x0 + hi_speed * t
            inside = (xs >= a) & (xs <= b)
            if np.any(inside):
                us[inside] = _invert_fprime_monotone(
                    flux, (xs[inside] - fan.x0) / t, wave.u_left, wave.u_right)
            us[xs > b] = wave.u_right
    return us


def _fan_shocks(fan: WaveFan, t: float) -> list[ShockInfo]:
    out = []
    for wave in fan.waves:
        if isinstance(wave, Shock):
            out.append(ShockInfo(fan.x0 + wave.speed * t,
                                 max(wave.u_left, wave.u_right),
                                 min(wave.u_left, wave.u_right),
                                 wave.speed))
    return out


def _fan_waves(fan: WaveFan) -> list[str]:
    return ["S" if isinstance(w, Shock) else "R" for w in fan.waves]


def _exact_fan(flux: FluxFunction, u_L: float, u_R: float, x0: float, t: float) -> WaveFan:
    if t <= 0.0:
        raise ValueError("exact sampling needs t > 0")
    return envelope_to_wavefan(build_envelope(flux, u_L, u_R), flux, x0)


def solve_riemann_exact(flux: FluxFunction, u_L: float, u_R: float, x0: float,
                        t: float, window: tuple[float, float] | None = None,
                        samples: int = 2001) -> SolutionProfile:
    """Exact Riemann solution from the flux envelope between the states."""
    fan = _exact_fan(flux, u_L, u_R, x0, t)
    smin, smax = _fan_speed_range(fan, flux)
    if window is None:
        window = (x0 + smin * t - 1.0, x0 + smax * t + 1.0)
    xs = np.linspace(window[0], window[1], samples)
    us = sample_wavefan(fan, flux, u_L, t, xs)
    return SolutionProfile(t, xs, us, _fan_shocks(fan, t), _fan_waves(fan), window)


def _fill_forward(us: np.ndarray, first: float) -> np.ndarray:
    """Fill every NaN of ``us`` in place with the nearest value on its left.

    A gap at the start takes ``first``. Same values as filling index by
    index, ``us[i] = us[i - 1]``, from left to right.
    """
    gaps = np.isnan(us)
    if np.any(gaps):
        last = np.maximum.accumulate(np.where(gaps, -1, np.arange(us.size)))[gaps]
        us[gaps] = np.where(last >= 0, us[np.maximum(last, 0)], first)
    return us


def sample_front(front: ProjectedFront, xs: np.ndarray) -> np.ndarray:
    """Evaluate the projected front at the given positions."""
    chain = front.chain
    us = np.full_like(xs, chain.left_state, dtype=float)
    us[xs > front.left_cut_x] = np.nan
    for sa, sb in front.kept_spans:  # ascending in x
        xa, xb = chain.x_at(sa), chain.x_at(sb)
        mask = (xs >= xa - 1e-12) & (xs <= xb + 1e-12) & np.isnan(us)
        if not np.any(mask):
            continue
        us[mask] = _invert_chain_span(chain, sa, sb, xs[mask])
    # remaining gaps: constant states between pieces resolve by nearest
    # piece boundary; anything right of the last cut is the right state
    us[np.isnan(us) & (xs >= front.right_cut_x)] = chain.right_state
    # between-piece plateaus (only when fans detach): fill from the left
    return _fill_forward(us, chain.left_state)


def _invert_chain_span(chain, sa: float, sb: float, xq: np.ndarray) -> np.ndarray:
    """Invert x(s) on a fold-free span, vectorized bisection in s."""
    increasing = chain.x_at(sb) >= chain.x_at(sa)

    def right_of(mid):
        x_mid = chain.x_at_many(mid)
        return (x_mid < xq) if increasing else (x_mid > xq)

    s = bisect_many(right_of, np.full_like(xq, sa), np.full_like(xq, sb), 1e-14)
    return chain.u_at_many(s)


def _riemann_front(flux: FluxFunction, u_L: float, u_R: float, x0: float,
                   t: float, n: int) -> tuple[ProjectedFront, list[ShockInfo], list[str]]:
    """Projected front of one jump, with its shock table and wave sequence."""
    if n < 8:
        raise ValueError("need at least eight front nodes")
    if t <= 0.0:
        raise ValueError("the numerical front needs t > 0")
    flux.check_no_pole(u_L, u_R)
    nodes = flow(seed_riemann(u_L, u_R, x0, n), flux, t)
    front = geap_project(interpolate_chain(nodes))
    chain = front.chain
    shocks = [ShockInfo(s.x_s, s.u_top, s.u_bot, (s.x_s - x0) / t)
              for s in front.shocks]

    events: list[tuple[float, str]] = []
    uscale = 1e-8 * (1.0 + abs(u_L) + abs(u_R))
    for rec in front.shocks:
        events.append((rec.x_s, "S"))
    for sa, sb in front.kept_spans:
        if abs(chain.u_at(sb) - chain.u_at(sa)) > uscale:
            events.append((0.5 * (chain.x_at(sa) + chain.x_at(sb)), "R"))
    return front, shocks, [kind for _, kind in sorted(events)]


def solve_riemann_numerical(flux: FluxFunction, u_L: float, u_R: float, x0: float,
                            t: float, n: int, window: tuple[float, float] | None = None,
                            samples: int = 2001) -> SolutionProfile:
    """Riemann solution via flow, interpolation and equal-area projection.

    ``n`` is the number of front nodes (n - 1 interpolants).
    """
    front, shocks, waves = _riemann_front(flux, u_L, u_R, x0, t, n)
    if window is None:
        xs = np.append(front.chain.nodes.x, (front.left_cut_x, front.right_cut_x))
        window = (xs.min() - 1.0, xs.max() + 1.0)
    xs = np.linspace(window[0], window[1], samples)
    us = sample_front(front, xs)
    return SolutionProfile(t, xs, us, shocks, waves, window, front)


def _front_extent(front: ProjectedFront) -> tuple[float, float, float, float]:
    """(x_lo, x_hi, left state, right state) of a projected front."""
    return (front.left_cut_x, front.right_cut_x,
            front.chain.left_state, front.chain.right_state)


def solve_piecewise(flux: FluxFunction, init: InitialData, t: float,
                    n_per_piece: int, window: tuple[float, float] | None = None,
                    samples: int = 2001, exact: bool = False) -> SolutionProfile:
    """Piecewise-constant or smooth initial data, one fan per feature.

    Each jump gets the Riemann machinery; each non-constant smooth piece
    gets the flow/projection machinery. Fans must not collide: the check
    rejects configurations where a shock from one feature would cross a
    shock from the next by time t (grazing rarefaction tails perturb only
    vanishing neighbourhoods of the profile and are tolerated).
    """
    # one entry per jump or smooth piece: (x0, shocks, waves, sampler, extent),
    # extent being (x_lo, x_hi, left state, right state)
    features = []
    for x0, u_left, u_right in init.jumps:
        if exact:
            fan = _exact_fan(flux, u_left, u_right, x0, t)
            smin, smax = _fan_speed_range(fan, flux)
            features.append((x0, _fan_shocks(fan, t), _fan_waves(fan),
                             partial(sample_wavefan, fan, flux, u_left, t),
                             (x0 + smin * t, x0 + smax * t, u_left, u_right)))
        else:
            front, shocks, waves = _riemann_front(flux, u_left, u_right, x0, t, n_per_piece)
            features.append((x0, shocks, waves, partial(sample_front, front),
                             _front_extent(front)))
    for piece in init.pieces:
        if piece.kind != "constant":
            nodes = flow(seed_smooth(piece, n_per_piece), flux, t)
            front = geap_project(interpolate_chain(nodes))
            shocks = [ShockInfo(s.x_s, s.u_top, s.u_bot, float("nan")) for s in front.shocks]
            features.append((piece.x_lo, shocks, [], partial(sample_front, front),
                             _front_extent(front)))

    features.sort(key=lambda f: f[0])
    for (_, left, *_), (_, right, *_) in zip(features[:-1], features[1:]):
        if left and right and max(s.x_s for s in left) > min(s.x_s for s in right):
            raise FanOverlap(f"shock fronts from adjacent features collide by t={t}")

    extents = [extent for *_, extent in features]
    if window is None:
        window = (min(e[0] for e in extents) - 1.0, max(e[1] for e in extents) + 1.0)
    xs = np.linspace(window[0], window[1], samples)
    us = np.full_like(xs, np.nan)
    # later (rightward) fans overwrite: where fans graze, the right shock
    # structure takes precedence over a rarefaction tail
    for *_, sample, (lo_x, hi_x, _, _) in features:
        span_mask = (xs >= lo_x) & (xs <= hi_x)
        us[span_mask] = sample(xs[span_mask])
    # constant plateaus outside and between the fans
    still = np.isnan(us)
    us[still & (xs < extents[0][0])] = extents[0][2]
    for (_, hi_x, _, u_right), (lo_next, _, _, _) in zip(extents[:-1], extents[1:]):
        us[still & (xs > hi_x) & (xs < lo_next)] = u_right
    us[still & (xs > extents[-1][1])] = extents[-1][3]
    _fill_forward(us, extents[0][2])

    shocks = sorted((s for f in features for s in f[1]), key=lambda s: s.x_s)
    waves = [w for f in features for w in f[2]]
    return SolutionProfile(t, xs, us, shocks, waves, window)
