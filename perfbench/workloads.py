"""Seeded operation streams for the three workloads.

Every workload cycles over the paper's three fluxes on the state spans of
acceptance criterion 1. States follow a Halton sequence (bases 2 and 3)
over the (u_L, u_R) square, one per flux and node count, shifted by a
seeded random offset (Cranley-Patterson rotation). Any prefix of such a
sequence covers the square evenly, so every run gets nearly the same mix
of cheap (shock-only) and expensive (wide rarefaction) states whatever its
length, and the draw adds little to the run-to-run spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (name, CLI flux text, state span)
FLUXES = (
    ("ex1", "polynomial:[0,0,4,-4,1]", (-0.5, 2.5)),
    ("ex3", "polynomial:[0,0,3,-1.6666666666666667,0.25]", (-0.5, 4.0)),
    ("bl", "named:buckley-leverett{M:0.5}", (0.0, 1.0)),
)
# the registered examples 1, 3 and 4 on the same fluxes, as (x0, u_L, u_R)
PAPER_STATES = {"ex1": (0.0, 2.0, 0.0), "ex3": (0.0, 0.0, 3.5), "bl": (0.0, 1.0, 0.0)}

WORKLOADS = ("profile", "ladder", "exact")
PROFILE_NODES = 160
LADDER_NODES = (40, 160, 640)
LADDER_SAMPLES = 9
TIME = 1.0
MIN_JUMP = 1e-3     # criterion 1 skips pairs closer than this
# distinct cases per second of --seconds: about half the paired (eqarea
# plus reference) op rate on a 2-vCPU VM, so one pass over the pool
# normally ends well inside the run and the rest of it repeats the pool
POOL_RATE = {"profile": 1.5, "ladder": 4.5, "exact": 10.0}
POOL_STEP = 9       # whole ladder cycles: 3 fluxes x 3 node counts


@dataclass(frozen=True)
class Case:
    """One Riemann problem and the node count the op solves it with."""

    flux_name: str
    flux_text: str
    x0: float
    u_L: float
    u_R: float
    t: float
    nodes: int | None  # None for the exact path


def _nodes(workload: str, i: int) -> int | None:
    if workload == "profile":
        return PROFILE_NODES
    if workload == "ladder":
        # flux cycles with i, node count with i // 3: nine-op cycle
        return LADDER_NODES[(i // len(FLUXES)) % len(LADDER_NODES)]
    return None


def _radical_inverse(k: int, base: int) -> float:
    inv, scale = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        inv += digit * scale
        scale /= base
    return inv


def cases(workload: str, seed: int):
    """Endless seeded stream of cases for one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    streams: dict[tuple, list] = {}  # (flux, nodes) -> [Halton index, shift]
    i = 0
    while True:
        name, text, (lo, hi) = FLUXES[i % len(FLUXES)]
        nodes = _nodes(workload, i)
        stream = streams.setdefault((name, nodes), [0, rng.random(2)])
        while True:
            stream[0] += 1
            a, b = (np.array([_radical_inverse(stream[0], 2),
                              _radical_inverse(stream[0], 3)]) + stream[1]) % 1.0
            u_L, u_R = lo + a * (hi - lo), lo + b * (hi - lo)
            if abs(u_L - u_R) >= MIN_JUMP:
                break
        x0 = rng.uniform(-1.0, 1.0)
        yield Case(name, text, float(x0), float(u_L), float(u_R), TIME, nodes)
        i += 1


def case_pool(workload: str, seed: int, seconds: float) -> list[Case]:
    """The distinct cases one run checks, fixed by the seed and --seconds.

    A run cycles over them until its time is up, so how many of them fail
    does not depend on how fast the host is.
    """
    size = max(POOL_STEP, int(POOL_RATE[workload] * seconds) // POOL_STEP * POOL_STEP)
    stream = cases(workload, seed)
    return [next(stream) for _ in range(size)]


def paper_cases(workload: str) -> list[Case]:
    """Fixed cases on the registered examples: warm-up and accuracy probe.

    The ladder gets one case per (example, node count).
    """
    out = []
    for name, text, _ in FLUXES:
        x0, u_L, u_R = PAPER_STATES[name]
        if workload == "ladder":
            out += [Case(name, text, x0, u_L, u_R, TIME, n) for n in LADDER_NODES]
        else:
            out.append(Case(name, text, x0, u_L, u_R, TIME, _nodes(workload, 0)))
    return out


def warmup_cases(workload: str) -> list[Case]:
    """One registered example per flux; on the ladder each at another n."""
    examples = paper_cases(workload)
    return examples[::len(LADDER_NODES) + 1] if workload == "ladder" else examples


def op_argvs(workload: str, case: Case, out_dir: str) -> list[list[str]]:
    """``eqarea.cli.main`` argument lists making up one op.

    Every value goes in ``--flag=value`` form: argparse reads a separate
    value that starts with ``-`` as a flag, so ``--states -0.3,0.5`` exits 1.
    """
    flux = f"--flux={case.flux_text}"
    riemann = f"--riemann={case.x0!r},{case.u_L!r},{case.u_R!r}"
    common = [flux, riemann, f"--time={case.t!r}", f"--out={out_dir}"]
    if workload == "profile":
        return [["solve", *common, f"--nodes={case.nodes}"]]
    if workload == "ladder":
        return [["solve", *common, f"--nodes={case.nodes}", f"--samples={LADDER_SAMPLES}"]]
    return [["envelope", flux, f"--states={case.u_L!r},{case.u_R!r}", f"--out={out_dir}"],
            ["solve", *common, "--exact"]]


def outputs(workload: str) -> tuple[str, ...]:
    """CSV files one op writes."""
    if workload == "exact":
        return ("envelope.csv", "envelope_oracle.csv", "profile.csv", "shocks.csv")
    return ("profile.csv", "shocks.csv")
