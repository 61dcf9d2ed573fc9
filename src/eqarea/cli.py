"""Command-line surface: solve, envelope dumps, registered example runs and
convergence studies, all emitting deterministic CSV files.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .characteristics import InitialData
from .envelope import ConvexEnvelope, Secant, build_envelope, oracle_envelope
from .errors import EqAreaError, ParseError
from .flux import FluxFunction, parse_flux_spec
from .solver import SolutionProfile, solve_piecewise, solve_riemann_exact, solve_riemann_numerical

__all__ = ["main", "run_example", "converge", "EXAMPLES"]


@dataclass(frozen=True)
class ExampleSpec:
    flux_text: str
    kind: str                  # "riemann" | "box"
    params: tuple[float, ...]  # riemann: (x0, uL, uR); box: (x0, x1, u_in, u_out)
    time: float
    nodes: int
    convergence: bool


EXAMPLES: dict[int, ExampleSpec] = {
    1: ExampleSpec("polynomial:[0,0,4,-4,1]", "riemann", (0.0, 2.0, 0.0), 1.0, 160, True),
    2: ExampleSpec("polynomial:[0,0,4,-4,1]", "riemann", (0.0, 0.0, 2.0), 1.0, 160, False),
    3: ExampleSpec("polynomial:[0,0,3,-1.6666666666666667,0.25]", "riemann",
                   (0.0, 0.0, 3.5), 1.0, 160, True),
    4: ExampleSpec("named:buckley-leverett{M:0.5}", "riemann", (0.0, 1.0, 0.0), 1.0, 160, True),
    5: ExampleSpec("polynomial:[0,0,3,-1.6666666666666667,0.25]", "box",
                   (0.0, 5.0, 5.0, 0.0), 0.2, 160, False),
}

_DEFAULT_LADDER = "10x2^5"


def _fmt(x: float) -> str:
    return f"{float(x) + 0.0:.17g}"  # + 0.0 folds negative zero


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_profile_csv(path: Path, profile: SolutionProfile) -> None:
    _write_csv(path, "x,u",
               ((_fmt(x), _fmt(u)) for x, u in zip(profile.xs, profile.us)))


def write_shocks_csv(path: Path, profile: SolutionProfile) -> None:
    _write_csv(path, "x_s,u_top,u_bot,speed",
               ((_fmt(s.x_s), _fmt(s.u_top), _fmt(s.u_bot), _fmt(s.speed))
                for s in profile.shocks))


def write_envelope_csv(path: Path, envs: list[ConvexEnvelope]) -> None:
    rows = []
    for env in envs:
        for seg in env.segments:
            if isinstance(seg, Secant):
                rows.append(("secant", _fmt(seg.u_a), _fmt(seg.u_b), _fmt(seg.slope)))
            else:
                rows.append(("arc", _fmt(seg.u_a), _fmt(seg.u_b), ""))
    _write_csv(path, "kind,u_a,u_b,slope", rows)


def parse_ladder(text: str) -> list[int]:
    """Node ladders like ``10x2^5``: base 10, doubling, six rungs."""
    try:
        base_s, rest = text.split("x", 1)
        factor_s, kmax_s = rest.split("^", 1)
        base, factor, kmax = int(base_s), int(factor_s), int(kmax_s)
    except ValueError:
        raise ParseError(f"bad ladder spec {text!r}; expected like 10x2^5") from None
    if base < 2 or factor < 2 or kmax < 0:
        raise ParseError(f"bad ladder spec {text!r}")
    return [base * factor ** k for k in range(kmax + 1)]


def exact_shock_positions(flux: FluxFunction, x0: float, u_L: float, u_R: float,
                          t: float) -> list[float]:
    prof = solve_riemann_exact(flux, u_L, u_R, x0, t, samples=9)
    return sorted(s.x_s for s in prof.shocks)


def converge(example_id: int, ladder: list[int], t: float | None = None):
    """Convergence rows (n, err, order) for one registered Riemann example.

    Ladder entries count interpolants, following the doubling protocol; the
    numerical solve uses one more node than interpolants. The order column
    stays empty unless both errors are finite and above roundoff (1e-12):
    the standing-wave example sits at roundoff at every resolution, and a
    rung with the wrong wave count has an infinite error.
    """
    spec = EXAMPLES[example_id]
    if spec.kind != "riemann":
        raise ParseError(f"example {example_id} has no exact Riemann reference")
    flux = parse_flux_spec(spec.flux_text)
    x0, u_L, u_R = spec.params
    t = spec.time if t is None else t
    exact = exact_shock_positions(flux, x0, u_L, u_R, t)
    rows = []
    prev_err = None
    for n in ladder:
        prof = solve_riemann_numerical(flux, u_L, u_R, x0, t, n + 1, samples=9)
        got = sorted(s.x_s for s in prof.shocks)
        if len(got) != len(exact):
            err = float("inf")
        else:
            err = max(abs(a - b) for a, b in zip(got, exact))
        order = ""
        if prev_err is not None and all(1e-12 < e < math.inf for e in (prev_err, err)):
            order = _fmt(np.log2(prev_err / err))
        rows.append((n, err, order))
        prev_err = err
    return rows


def _profile_for_example(spec: ExampleSpec, t: float, n: int) -> SolutionProfile:
    flux = parse_flux_spec(spec.flux_text)
    if spec.kind == "riemann":
        x0, u_L, u_R = spec.params
        return solve_riemann_numerical(flux, u_L, u_R, x0, t, n)
    x0, x1, u_in, u_out = spec.params
    init = InitialData.box(x0, x1, u_in, u_out)
    return solve_piecewise(flux, init, t, n)


def run_example(example_id: int, t: float | None, n: int | None, out_dir: Path) -> None:
    """Profile, shock and envelope CSVs (plus convergence where shown)."""
    spec = EXAMPLES[example_id]
    t = spec.time if t is None else t
    n = spec.nodes if n is None else n
    flux = parse_flux_spec(spec.flux_text)
    out_dir.mkdir(parents=True, exist_ok=True)

    profile = _profile_for_example(spec, t, n)
    write_profile_csv(out_dir / "profile.csv", profile)
    write_shocks_csv(out_dir / "shocks.csv", profile)

    if spec.kind == "riemann":
        x0, u_L, u_R = spec.params
        envs = [build_envelope(flux, u_L, u_R)]
    else:
        x0, x1, u_in, u_out = spec.params
        envs = [build_envelope(flux, u_out, u_in), build_envelope(flux, u_in, u_out)]
    write_envelope_csv(out_dir / "envelope.csv", envs)

    if spec.convergence:
        rows = converge(example_id, parse_ladder(_DEFAULT_LADDER), t)
        _write_csv(out_dir / "convergence.csv", "n,err,order",
                   ((str(n_), _fmt(err), order) for n_, err, order in rows))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    cfg = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"config line {lineno}: expected key:value")
        key, value = line.split(":", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _finite_floats(text: str, flag: str, expected: str) -> list[float]:
    """Comma-separated flag value as floats; NaN and infinities are rejected."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = []
    if len(values) != len(expected.split(",")):
        raise ParseError(f"bad {flag} value {text!r}; expected {expected}")
    if not all(math.isfinite(v) for v in values):
        raise ParseError(f"{flag} needs finite numbers, got {text!r}")
    return values


def _parse_flux(text: str) -> FluxFunction:
    try:
        return parse_flux_spec(text)
    except ParseError as exc:
        raise ParseError(f"bad --flux value {text!r}: {exc}") from None


def _check_time(t: float | None) -> None:
    if t is not None and not math.isfinite(t):
        raise ParseError(f"--time needs a finite number, got {t}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="eqarea", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one Riemann problem")
    p_solve.add_argument("--flux", required=False)
    p_solve.add_argument("--riemann", required=False, help="x0,uL,uR")
    p_solve.add_argument("--time", type=float, default=1.0)
    p_solve.add_argument("--nodes", type=int, default=160)
    p_solve.add_argument("--samples", type=int, default=2001)
    p_solve.add_argument("--exact", action="store_true")
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--config")

    p_env = sub.add_parser("envelope", help="dump envelope and oracle CSVs")
    p_env.add_argument("--flux", required=False)
    p_env.add_argument("--states", required=False, help="uL,uR")
    p_env.add_argument("--oracle-n", type=int, default=100000)
    p_env.add_argument("--out", required=True)
    p_env.add_argument("--config")

    p_conv = sub.add_parser("converge", help="shock-position convergence study")
    p_conv.add_argument("--example", type=int, required=True)
    p_conv.add_argument("--ladder", default=_DEFAULT_LADDER)
    p_conv.add_argument("--time", type=float)
    p_conv.add_argument("--out", required=True)

    p_ex = sub.add_parser("example", help="run a registered example")
    p_ex.add_argument("--id", type=int, required=True)
    p_ex.add_argument("--time", type=float)
    p_ex.add_argument("--nodes", type=int)
    p_ex.add_argument("--out", required=True)
    return parser


def _cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    flux_text = args.flux or cfg.get("flux")
    riemann = args.riemann or cfg.get("riemann")
    if not flux_text or not riemann:
        raise _UsageError("solve needs --flux and --riemann (flags or config)")
    flux = _parse_flux(flux_text)
    x0, u_L, u_R = _finite_floats(riemann, "--riemann", "x0,uL,uR")
    _check_time(args.time)
    if args.samples < 2:
        raise ParseError(f"--samples must be at least 2, got {args.samples}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.exact:
        prof = solve_riemann_exact(flux, u_L, u_R, x0, args.time, samples=args.samples)
    else:
        prof = solve_riemann_numerical(flux, u_L, u_R, x0, args.time, args.nodes,
                                       samples=args.samples)
    write_profile_csv(out / "profile.csv", prof)
    write_shocks_csv(out / "shocks.csv", prof)
    return 0


def _cmd_envelope(args) -> int:
    cfg = _load_config(args.config)
    flux_text = args.flux or cfg.get("flux")
    states = args.states or cfg.get("states")
    if not flux_text or not states:
        raise _UsageError("envelope needs --flux and --states (flags or config)")
    flux = _parse_flux(flux_text)
    u_L, u_R = _finite_floats(states, "--states", "uL,uR")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_envelope_csv(out / "envelope.csv", [build_envelope(flux, u_L, u_R)])
    write_envelope_csv(out / "envelope_oracle.csv",
                       [oracle_envelope(flux, u_L, u_R, args.oracle_n)])
    return 0


def _cmd_converge(args) -> int:
    if args.example not in EXAMPLES:
        raise _UsageError(f"unknown example id {args.example}")
    _check_time(args.time)
    rows = converge(args.example, parse_ladder(args.ladder), args.time)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "convergence.csv", "n,err,order",
               ((str(n), _fmt(err), order) for n, err, order in rows))
    return 0


def _cmd_example(args) -> int:
    if args.id not in EXAMPLES:
        raise _UsageError(f"unknown example id {args.id}")
    _check_time(args.time)
    run_example(args.id, args.time, args.nodes, Path(args.out))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "envelope":
            return _cmd_envelope(args)
        if args.command == "converge":
            return _cmd_converge(args)
        return _cmd_example(args)
    except (_UsageError, ParseError, ValueError, OSError) as exc:
        print(f"eqarea: configuration error: {exc}", file=sys.stderr)
        return 1
    except EqAreaError as exc:
        print(f"eqarea: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
