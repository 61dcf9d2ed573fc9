"""Layer spans recorded around calls into eqarea's modules.

``Tracer.install`` replaces module attributes with timing wrappers at the
places where one module calls into another (``eqarea.cli`` calling the
solver and envelope, ``eqarea.solver`` calling characteristics, projection
and envelope), and swaps the parsed flux for a counting subclass. Nothing
in ``src/`` changes and an untraced op runs the original functions.

A span records name, start, end, parent span and op id. Spans stay in
memory; results returned through the wrappers are kept until the op ends
and turned into work counters there, outside the op's time.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import eqarea.cli  # noqa: F401  (loads eqarea.solver too)
from eqarea.flux import FluxFunction

# (owner under eqarea, attribute, span name); each wrapper times one call
# into a layer. argparse runs inside main through ``_Parser.parse_args``.
HOOKS = (
    ("cli", "_build_parser", "cli.parse"),
    ("cli._Parser", "parse_args", "cli.parse"),
    ("cli", "parse_flux_spec", "flux.parse"),
    ("cli", "solve_riemann_numerical", "solver.solve"),
    ("cli", "solve_riemann_exact", "solver.solve"),
    ("cli", "build_envelope", "envelope.build"),
    ("cli", "oracle_envelope", "envelope.oracle"),
    ("cli", "write_profile_csv", "cli.write"),
    ("cli", "write_shocks_csv", "cli.write"),
    ("cli", "write_envelope_csv", "cli.write"),
    ("solver", "seed_riemann", "characteristics.seed_flow"),
    ("solver", "flow", "characteristics.seed_flow"),
    ("solver", "interpolate_chain", "projection.interpolate"),
    ("solver", "geap_project", "projection.project"),
    ("solver", "sample_front", "solver.sample"),
    ("solver", "build_envelope", "envelope.build"),
    ("solver", "envelope_to_wavefan", "envelope.to_wavefan"),
    ("solver", "sample_wavefan", "solver.wavefan"),
)

# per-layer metric -> span name whose times it sums, per op
TIMED = {
    "cli.parse_ms": "cli.parse",
    "cli.write_ms": "cli.write",
    "characteristics.seed_flow_ms": "characteristics.seed_flow",
    "projection.interpolate_ms": "projection.interpolate",
    "projection.project_ms": "projection.project",
    "solver.sample_ms": "solver.sample",
    "solver.wavefan_ms": "solver.wavefan",
    "envelope.build_ms": "envelope.build",
    "envelope.oracle_ms": "envelope.oracle",
}
# counters averaged per op
COUNTED = ("characteristics.nodes", "bezier.segments", "bezier.fallbacks",
           "projection.shocks", "projection.kept_spans", "solver.sample_points",
           "envelope.segments", "flux.calls", "flux.points", "cli.bytes_out")
# residuals reported as their maximum over ops
WORST = ("bezier.area_drift", "projection.mass_drift")
# every per-layer metric and its unit
UNITS = {**{name: "ms" for name in (*TIMED, "flux.ms")},
         **{name: "count" for name in COUNTED}, "cli.bytes_out": "bytes",
         **{name: "area" for name in WORST},
         "trace.unattributed_frac": "frac", "trace.overhead_frac": "frac"}

_INHERITED = object()  # marks a hooked method that the class only inherits


class CountingFlux(FluxFunction):
    """FluxFunction that reports every evaluation to the tracer.

    Negation keeps counting, so the mirrored flux ``build_envelope`` uses
    for rising data is counted too.
    """

    def __init__(self, spec, tracer: "Tracer"):
        super().__init__(spec)
        self._tracer = tracer

    def evaluate(self, u, order: int = 0):
        start = perf_counter_ns()
        try:
            return super().evaluate(u, order)
        finally:
            self._tracer.flux_call(np.size(u), perf_counter_ns() - start)

    def __neg__(self) -> "CountingFlux":
        return CountingFlux(super().__neg__().spec, self._tracer)


class Tracer:
    """In-memory spans and counters for a traced run."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []  # name, start, end, parent, op
        self.ops: dict[int, dict] = {}
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._op = -1
        self._kept: list[tuple[str, tuple, object]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._root = -1
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter_ns(), 0, parent, self._op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, perf_counter_ns(), parent, op)

    def begin_op(self, op_id: int, meta: dict) -> None:
        self._op = op_id
        self.ops[op_id] = dict(meta)
        self._root = self._open("op")

    def end_op(self) -> None:
        self._close(self._root)

    def flux_call(self, points: int, ns: int) -> None:
        c = self.counts[self._op]
        c["flux.calls"] += 1
        c["flux.points"] += points
        c["flux.ns"] += ns

    # -- hooks -------------------------------------------------------------

    def _wrap(self, fn, name: str, attr: str):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._kept.append((attr, args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace the hooked attributes; ``uninstall`` restores them."""
        for path, attr, name in HOOKS:
            owner = eqarea
            for part in path.split("."):
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                # a renamed hook leaves its layer at zero; the report lists it
                self.missing.append(f"{path}.{attr}")
                continue
            if attr == "parse_flux_spec":
                orig_call = self._counting_parse(orig)
            else:
                orig_call = orig
            # inherited methods are restored by deleting the override
            self._saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
            setattr(owner, attr, self._wrap(orig_call, name, attr))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            if orig is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._saved.clear()

    def _counting_parse(self, parse):
        def parse_counting(text):
            return CountingFlux(parse(text).spec, self)
        return parse_counting

    # -- counters, computed after the op from the kept results --------------

    def settle_op(self, out_files) -> None:
        c = self.counts[self._op]
        for attr, args, result in self._kept:
            if attr == "flow":
                c["characteristics.nodes"] += len(result)
            elif attr == "interpolate_chain":
                chain = result
                c["bezier.segments"] += len(chain.segments)
                c["bezier.fallbacks"] += sum(seg.fallback for seg in chain.segments)
                want = chain.nodes[-1].cum_area - chain.nodes[0].cum_area
                _worst(c, "bezier.area_drift", abs(chain.total_area() - want))
            elif attr == "geap_project":
                front, chain = result, result.chain
                c["projection.shocks"] += len(front.shocks)
                c["projection.kept_spans"] += len(front.kept_spans)
                xs = [nd.x for nd in chain.nodes] + [front.left_cut_x, front.right_cut_x]
                window = (min(xs) - 1.0, max(xs) + 1.0)
                _worst(c, "projection.mass_drift",
                       abs(front.window_area(*window) - chain.window_area(*window)))
            elif attr == "sample_front":
                front, xs = args[0], np.asarray(args[1])
                for a, b in front.kept_spans:
                    xa, xb = front.chain.x_at(a), front.chain.x_at(b)
                    c["solver.sample_points"] += int(np.count_nonzero(
                        (xs >= xa - 1e-12) & (xs <= xb + 1e-12)))
            elif attr == "build_envelope":
                c["envelope.segments"] += len(result.segments)
        self._kept.clear()
        c["cli.bytes_out"] += sum(Path(p).stat().st_size for p in out_files if Path(p).exists())

    # -- report --------------------------------------------------------------

    def layer_ms(self) -> dict[int, dict[str, float]]:
        """Per op: summed span time of each layer, op time and unattributed time."""
        per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent, op in self.spans:
            ms = (end - start) / 1e6
            row = per_op[op]
            if name == "op":
                row["op_ms"] += ms
                row["unattributed_ms"] += ms
                continue
            row[name] += ms
            if parent >= 0 and self.spans[parent][0] == "op":
                row["unattributed_ms"] -= ms
        for op, c in self.counts.items():
            per_op[op]["flux.ms"] += c.get("flux.ns", 0.0) / 1e6
        return per_op

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_frac``."""
        per_op = self.layer_ms()
        n_ops = max(len(self.ops), 1)
        out: dict[str, float] = {}
        for metric, span in TIMED.items():
            out[metric] = sum(row.get(span, 0.0) for row in per_op.values()) / n_ops
        out["flux.ms"] = sum(row.get("flux.ms", 0.0) for row in per_op.values()) / n_ops
        for name in COUNTED:
            out[name] = sum(c.get(name, 0.0) for c in self.counts.values()) / n_ops
        for name in WORST:
            out[name] = max((c.get(name, 0.0) for c in self.counts.values()), default=0.0)
        op_total = sum(row["op_ms"] for row in per_op.values())
        out["trace.unattributed_frac"] = (
            sum(row["unattributed_ms"] for row in per_op.values()) / op_total if op_total else 0.0)
        return out

    def grouped(self) -> list[dict]:
        """Median layer times per (workload, flux, nodes) group, for the report."""
        per_op = self.layer_ms()
        groups: dict[tuple, list[dict]] = defaultdict(list)
        for op, meta in self.ops.items():
            groups[(meta["workload"], meta["flux"], meta["nodes"])].append(per_op[op])
        names = ["op_ms", *TIMED.values(), "envelope.to_wavefan", "flux.parse",
                 "solver.solve", "flux.ms", "unattributed_ms"]
        rows = []
        for (workload, flux, nodes), ops in sorted(groups.items(),
                                                   key=lambda kv: (*kv[0][:2], kv[0][2] or 0)):
            med = {n: round(statistics.median(r.get(n, 0.0) for r in ops), 3)
                   for n in names if any(n in r for r in ops)}
            rows.append({"workload": workload, "flux": flux, "nodes": nodes, "ops": len(ops),
                         "median_ms": med})
        return rows

    def dump(self, path: Path) -> None:
        """Write spans (one JSON object per line) and op metadata."""
        with open(path, "w") as fh:
            for op, meta in self.ops.items():
                fh.write(json.dumps({"op": op, **meta}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"span": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


def _worst(counts: dict, name: str, value: float) -> None:
    counts[name] = max(counts.get(name, 0.0), value)
