"""Closed-loop benchmark of the eqarea CLI.

    python3 perfbench/run.py --workload profile|ladder|exact --seed N \
        --seconds S --trace 0|1

One client, one thread, in one process: each op calls ``eqarea.cli.main``
in-process and waits for it to return before the next starts. Every op's
CSVs are checked against the exact envelope path after it returns, outside
its time.

``--trace 0`` reports the end-to-end metrics. Each op also runs, right
before or after, on ``perfbench/reference``: a frozen copy of eqarea as it
was when this benchmark was added. Run times on a shared host drift by 20%
and more from one minute to the next, and the paired reference drifts with
them, so the times are reported relative to it. ``--trace 1`` runs each op
untraced and traced and reports the per-layer metrics. Either way, ops
cycle over a pool of distinct cases that the seed and ``--seconds`` fix:
one whole pass, then on until their summed time reaches ``--seconds``.
``attempted`` and ``failed`` count the cases, so they do not depend on
the host's speed. The last line of
standard output is the result as one JSON object; the lines before it are
the machine stamp, the failed ops, the accuracy probe and block and, when
traced, median layer times per flux and node count, for the drawn states
and for the registered examples.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# set by main before numpy loads: one thread per process on a shared host
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# numpy, eqarea and the sibling modules (which import them) load lazily
# inside functions, so that a setup probe's clock covers their import.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
MIN_OPS = 100  # so that at least ten latencies lie beyond p90
SETUP_TIMEOUT_S = 60


def import_program():
    """Import eqarea from this checkout's ``src/`` and from nowhere else."""
    if not (SRC / "eqarea" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no eqarea sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import eqarea
    if Path(eqarea.__file__).resolve().parent != (SRC / "eqarea").resolve():
        raise SystemExit(f"perfbench: eqarea imported from {eqarea.__file__}, not {SRC}")


def run_op(argvs, cli=None) -> tuple[float, list]:
    """Run one op's CLI calls back to back; (seconds, exit codes).

    ``cli`` is eqarea's CLI module unless the frozen reference is given.
    """
    if cli is None:
        from eqarea import cli
    codes: list = []
    start = time.perf_counter()
    for argv in argvs:
        try:
            codes.append(cli.main(argv))
        except Exception as exc:  # an op that crashes is a failed op, not a failed run
            codes.append(f"uncaught {type(exc).__name__}: {exc}")
    return time.perf_counter() - start, codes


def clear(out_dir: Path, names) -> None:
    for name in names:
        (out_dir / name).unlink(missing_ok=True)


def warm_up(workload: str, out_dir: Path, cli=None) -> None:
    from perfbench.workloads import op_argvs, warmup_cases
    out_dir.mkdir(parents=True, exist_ok=True)
    for case in warmup_cases(workload):
        run_op(op_argvs(workload, case, str(out_dir)), cli)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup_probe(workload: str) -> None:
    """Child process: time importing eqarea plus the warm-up ops."""
    start = time.perf_counter()
    import_program()
    import eqarea.cli  # noqa: F401
    warm_up(workload, WORK / f"setup-{os.getpid()}")
    elapsed = time.perf_counter() - start
    shutil.rmtree(WORK / f"setup-{os.getpid()}", ignore_errors=True)
    print(json.dumps({"setup_s": elapsed, "peak_rss_mb": peak_rss_mb()}))


def measure_setup(workload: str) -> list[dict]:
    """Setup probes in fresh interpreters that load eqarea and nothing else."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def stamp() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "eqarea").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads_env": {k: os.environ.get(k) for k in PINNED},
    }


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values), q))


def hd_quantile(values, q: float, fine: int = 64) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics, weighted by the Beta(q(n+1), (1-q)(n+1))
    mass on each ((i-1)/n, i/n]. It spreads less from run to run than the
    one or two order statistics ``percentile`` interpolates between: over
    eight 25 s runs on a 2-vCPU VM, the interquartile spread of the p90
    ratio fell from 0.041 to 0.014 on ``ladder``.
    """
    import numpy as np
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    if min(a, b) <= 1:  # density unbounded at an end: too few values
        return percentile(x, 100 * q)
    grid = np.linspace(0.0, 1.0, fine * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])  # trapezoids
    return float(np.diff(cdf[::fine] / cdf[-1]) @ x)


class Runner:
    """Closed loop over one workload's seeded ops, checking each op."""

    def __init__(self, workload: str, out_dir: Path):
        from perfbench.checks import Checker
        from perfbench.workloads import outputs
        self.workload = workload
        self.out_dir = out_dir
        self.outputs = outputs(workload)
        self.checker = Checker()
        self.failures: list[dict] = []

    def op(self, case, workload: str | None = None, tracer=None):
        """Run one op, then check its output; (seconds, verdict).

        With a tracer, the hooks are in place for the op's CLI calls only.
        """
        from perfbench.workloads import op_argvs
        workload = workload or self.workload
        clear(self.out_dir, self.outputs)
        argvs = op_argvs(workload, case, str(self.out_dir))
        if tracer is None:
            dt, codes = run_op(argvs)
        else:
            tracer.install()
            tracer.begin_op(len(tracer.ops), {"workload": workload, "flux": case.flux_name,
                                              "nodes": case.nodes})
            try:
                dt, codes = run_op(argvs)
            finally:
                tracer.end_op()
                tracer.uninstall()
            tracer.settle_op([self.out_dir / n for n in self.outputs])
        return dt, self.checker.check(workload, case, self.out_dir, codes)

    def record_failure(self, case, verdict) -> None:
        if len(self.failures) < 20:
            self.failures.append({"case": vars(case), "reason": verdict.reason})

    def reference_op(self, case) -> float:
        """Time one op on the frozen reference; its output is not checked."""
        from perfbench.reference import cli as reference_cli
        from perfbench.workloads import op_argvs
        ref_dir = self.out_dir / "reference"
        clear(ref_dir, self.outputs)
        return run_op(op_argvs(self.workload, case, str(ref_dir)), reference_cli)[0]

    def loop(self, seed: int, seconds: float) -> dict:
        """Each op on eqarea and on the reference, alternating which goes first.

        Ops cycle over the seeded case pool: at least one whole pass, then
        on until their summed time reaches ``seconds``. A case fails if any
        of its ops fails, and counts once.
        """
        from perfbench.workloads import case_pool
        pool = case_pool(self.workload, seed, seconds)
        latencies, reference, busy, failed = [], [], 0.0, set()
        i = 0
        while i < len(pool) or busy < seconds:
            k = i % len(pool)
            if i % 2:
                reference.append(self.reference_op(pool[k]))
            dt, verdict = self.op(pool[k])
            if not i % 2:
                reference.append(self.reference_op(pool[k]))
            latencies.append(dt)
            busy += dt + reference[-1]
            self.tally(failed, k, pool[k], verdict)
            i += 1
        return {"latencies": latencies, "reference": reference,
                "attempted": len(pool), "failed": len(failed)}

    def traced_loop(self, seed: int, seconds: float, tracer) -> dict:
        """Each op untraced and traced, alternating which goes first.

        Cycles over the case pool as ``loop`` does.
        """
        from perfbench.workloads import case_pool
        pool = case_pool(self.workload, seed, seconds)
        plain = traced = 0.0
        failed: set = set()
        i = 0
        while i < len(pool) or plain + traced < seconds:
            k = i % len(pool)
            runs = {}
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                dt, verdict = self.op(pool[k], tracer=tracer if with_trace else None)
                runs[with_trace] = (dt, verdict, self.snapshot())
            plain += runs[False][0]
            traced += runs[True][0]
            verdict = runs[True][1]
            if verdict.ok and runs[True][2] != runs[False][2]:
                verdict.ok, verdict.reason = False, "traced output differs from untraced"
            self.tally(failed, k, pool[k], verdict)
            i += 1
        return {"plain": plain, "traced": traced, "ops": i,
                "attempted": len(pool), "failed": len(failed)}

    def tally(self, failed: set, k: int, case, verdict) -> None:
        if not verdict.ok and k not in failed:
            failed.add(k)
            self.record_failure(case, verdict)

    def snapshot(self) -> dict:
        return {n: (self.out_dir / n).read_bytes() if (self.out_dir / n).exists() else None
                for n in self.outputs}

    def probe(self, tracer=None) -> dict:
        """Accuracy on the registered examples, through every op kind.

        With a tracer, its spans give the stage times of the registered
        examples, the inputs of the ROADMAP baseline.
        """
        from perfbench.workloads import WORKLOADS, paper_cases
        shock = profile = gap = 0.0
        ok = True
        for workload in WORKLOADS:
            for case in paper_cases(workload):
                _, v = self.op(case, workload, tracer)
                if not v.ok:
                    ok = False
                    self.record_failure(case, v)
                if workload == "exact":
                    gap = max(gap, v.hull_gap)
                else:
                    shock = max(shock, v.shock_err)
                if workload == "profile":
                    profile = max(profile, v.profile_err)
        return {"ok": ok, "shock_err_max": shock, "profile_err_max": profile,
                "hull_gap_max": gap}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    os.environ.update(PINNED)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("profile", "ladder", "exact"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    import_program()
    out_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup = [] if args.trace else measure_setup(args.workload)
        warm_up(args.workload, out_dir)
        if not args.trace:
            from perfbench.reference import cli as reference_cli
            warm_up(args.workload, out_dir / "reference", reference_cli)
        runner = Runner(args.workload, out_dir)
        print(json.dumps({"stamp": stamp()}))

        if args.trace:
            from perfbench.tracing import UNITS, Tracer
            tracer = Tracer()
            res = runner.traced_loop(args.seed, args.seconds, tracer)
            attempted, failed = res["attempted"], res["failed"]
            layers = tracer.metrics()
            layers["trace.overhead_frac"] = (res["traced"] / res["plain"] - 1.0
                                             if res["plain"] else 0.0)
            print(json.dumps({"ops": res["ops"], "cases": attempted,
                              "layers_by_flux_nodes": tracer.grouped(),
                              "missing_hooks": tracer.missing}))
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics = {name: metric(layers[name], unit) for name, unit in UNITS.items()}
        else:
            res = runner.loop(args.seed, args.seconds)
            attempted, failed = res["attempted"], res["failed"]
            lat, ref = res["latencies"], res["reference"]
            wall = {side: {"ops_per_s": len(xs) / sum(xs),
                           "latency_ms_p50": 1e3 * percentile(xs, 50),
                           "latency_ms_p90": 1e3 * percentile(xs, 90)}
                    for side, xs in (("eqarea", lat), ("reference", ref))}
            metrics = {
                "setup_s": metric(statistics.median(p["setup_s"] for p in setup), "s"),
                "ops_per_s_rel": metric(sum(ref) / sum(lat), "ratio"),
                # the median op sits between the cheap and the expensive
                # cluster, so the per-op ratio is steadier than a ratio of
                # the two medians
                "latency_p50_rel": metric(statistics.median(a / b for a, b in zip(lat, ref)),
                                          "ratio"),
                "latency_p90_rel": metric(hd_quantile(lat, 0.9) / hd_quantile(ref, 0.9),
                                          "ratio"),
                "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in setup), "MB"),
            }
            print(json.dumps({
                "ops": len(lat), "cases": attempted, "failed_frac": failed / attempted,
                "wall_clock": wall,
                "setup_probes": setup,
                "benchmark_peak_rss_mb": peak_rss_mb()}))
            if len(lat) < MIN_OPS:
                print(json.dumps({"warning": f"{len(lat)} ops < {MIN_OPS}: p90 is thin"}))

        from perfbench.checks import accuracy_block
        if args.trace:
            examples = Tracer()
            probe = runner.probe(examples)
            print(json.dumps({"examples_by_flux_nodes": examples.grouped()}))
        else:
            probe = runner.probe()
        print(json.dumps({"accuracy_probe": probe}))
        print(json.dumps({"accuracy_block": accuracy_block()}))
        print(json.dumps({"failures": runner.failures}))
        if not args.trace:
            for name in ("shock_err_max", "profile_err_max", "hull_gap_max"):
                unit = "x-units" if name == "shock_err_max" else "u-units"
                metrics[name] = metric(probe[name], unit)
        result = {"correct": bool(probe["ok"] and attempted >= 1), "attempted": attempted,
                  "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
