"""jtcurv benchmark: seeded workloads run in one process, one operation at a
time (a closed loop with a single caller), each result checked by an oracle.

    python3 bench/run.py --workload model-algebra --seed 1 --seconds 20 --trace 0

Run it from the root of a jtcurv checkout; it imports jtcurv from ``src/``.

A pass is SETUPS_PER_PASS back-to-back set-ups (import jtcurv afresh, build
the inputs from the pass's seed), then every pass operation of the workload
on the last set-up's inputs.  Pass 0 draws its inputs from ``--seed``, pass
k from a seed derived from it (``pass_seed``), so a run covers several
draws of the random inputs and its figures depend less on any one of them.
A run makes passes until the next one would end after ``--seconds``, and
always at least one.  The scans (see workloads.py) are left out of the
passes.

With ``--trace 0`` a run reports the end-to-end metrics.  With ``--trace 1``
it makes one untraced pass, runs the scans untraced once, makes one traced
pass and reports the per-layer metrics (see tracing.py).  The last stdout
line is the result object; the line before it holds the environment, the
tail percentile, failures and per-operation medians.

End-to-end metrics: ``wall_s`` is the mean over passes of a pass's time from
the first operation to the last verdict (the oracles' time taken out), so
that it covers the whole run, as the other figures do: host speed on a
shared machine drifts over seconds.  ``op_p50_ms`` and ``op_tail_ms`` are
the median and the tail percentile of the latencies of all operations of all
passes.  The tail percentile is fixed per workload: the highest whole
percentile that leaves at least ten of TAIL_PASSES passes' operations beyond
it (percentile and sample counts are in the report line).  ``setup_s`` is
the median of all set-ups and ``peak_rss_mb`` the process's peak resident
memory.  A failed or raising operation counts in ``failed``; ``error_ratio``
(failed / attempted) is a per-layer metric because it is zero whenever the
program is right.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import oracles as O
import tracing
import workloads as W

#: set-ups timed back to back before each pass: one takes about 0.1 s, too
#: short to time steadily alone
SETUPS_PER_PASS = 5
TAIL_BEYOND = 10
#: the tail percentile is the highest one with TAIL_BEYOND samples beyond it
#: in this many passes (a run makes three or four), so that every run reads
#: off the same percentile
TAIL_PASSES = 3

END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: traced entry points: (stat, exported fields); every one also exports
#: errors except those in NO_ERRORS
SPANS = (
    ("models.check_property", ("calls", "busy_s")),
    ("models.Operator.matmul", ("calls", "busy_s")),
    ("models.Operator.addsub", ("calls", "busy_s")),
    ("models.operator_build", ("calls", "busy_s")),
    ("models.validate_curvature_symmetries", ("busy_s",)),
    ("symmetry.is_symmetry", ("calls", "busy_s")),
    ("linalg.rref", ("calls", "busy_s")),
    ("linalg.mat_inv", ("calls", "busy_s")),
    ("linalg.solve", ("calls", "busy_s")),
    ("linalg.BilinearForm.apply", ("calls", "busy_s")),
    ("planewave.cov_engine", ("busy_s",)),
    ("planewave.covariant_derivative_R", ()),
    ("planewave.nabla_R_frame", ("calls", "busy_s")),
    ("planewave.curvature", ("calls", "busy_s")),
    ("planewave.dpsi_val", ("calls",)),
    ("expr.FnExpr.eval", ("calls", "busy_s")),
    ("expr.FnExpr.diff", ("calls", "busy_s")),
    ("realizations.verify_0_model", ("calls", "busy_s", "self_s")),
    ("realizations.normalize_basis", ("busy_s",)),
    ("realizations.xi_invariant", ("busy_s",)),
    ("realizations.symmetric_space_check", ("busy_s",)),
    ("planewave.quad", ("calls", "busy_s")),
    ("planewave.integrand", ("calls",)),
    ("planewave.geodesic", ("busy_s",)),
    ("planewave.exp_inverse", ("busy_s",)),
    ("planewave.geodesic_residual", ("busy_s",)),
    ("poly.Poly.ops", ("calls", "busy_s")),
    ("cli.main", ("calls", "busy_s", "self_s")),
)

#: the integrand runs inside quad, whose errors count any exception it
#: raises; leaving its own count out keeps the manifest at 128 per-layer
#: metrics, the most it may list
NO_ERRORS = ("planewave.integrand",)

DERIVED = (
    ("models.check_property.pairs_checked", "count"),
    ("planewave.cov_engine.value_calls", "count"),
    ("planewave.cov_engine.computes", "count"),
    ("planewave.cov_engine.hit_ratio", "ratio"),
    ("planewave.covariant_derivative_R.k1.busy_s", "s"),
    ("planewave.covariant_derivative_R.k2.busy_s", "s"),
    ("realizations.components_checked", "count"),
    ("planewave.quad.warnings", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
    ("error_ratio", "ratio"),
)

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "errors": "count"}


def per_layer_names():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = []
    for stat, fields in SPANS:
        if stat not in NO_ERRORS:
            fields += ("errors",)
        out += [(f"{stat}.{f}", UNITS[f]) for f in fields]
    out += list(DERIVED)
    kinds = dict.fromkeys(k for w in W.WORKLOADS.values() for k in w.kinds)
    out += [(f"op.{k}.p50_ms", "ms") for k in kinds]
    return out


# ---------------------------------------------------------------------------


class Pass:
    def __init__(self):
        self.latencies = []   # (kind, seconds)
        self.failures = []    # (kind, problem)

    @property
    def times(self):
        return [dt for _, dt in self.latencies]

    @property
    def wall(self):
        """First operation to last verdict, oracle time taken out."""
        return sum(self.times)


def run_pass(ops, kinds, tracer=None):
    """Run the operations in order, each checked by its oracle (with the
    tracer's wrappers taken out while it checks)."""
    res = Pass()
    clock = time.perf_counter
    for op in ops:
        if op.kind not in kinds:
            raise ValueError(f"operation kind {op.kind!r} is not declared")
        t0 = clock()
        try:
            out = op.call()
        except Exception as err:  # a raising operation is a failed one
            res.latencies.append((op.kind, clock() - t0))
            res.failures.append((op.kind, f"raised {err!r}: "
                                 + traceback.format_exc(limit=-2)[-300:]))
            continue
        res.latencies.append((op.kind, clock() - t0))
        try:
            with tracer.paused() if tracer else contextlib.nullcontext():
                problem = op.check(out)
        except Exception as err:
            problem = f"oracle raised {err!r}"
        if problem:
            res.failures.append((op.kind, problem))
    return res


def timed_setup(workload, seed, workdir):
    """Set up once: (J, pass operations, scans, seconds).  The earlier
    import's garbage is collected before returning, so its collection pause
    does not land inside a timed operation."""
    t0 = time.perf_counter()
    J = W.load_jtcurv()
    ops, scans = workload.setup(J, seed, workdir)
    dt = time.perf_counter() - t0
    gc.collect()
    return J, ops, scans, dt


def set_up_pass(workload, seed, workdir, times):
    """SETUPS_PER_PASS set-ups, their times appended to times; returns the
    last one's (J, pass operations, scans)."""
    for _ in range(SETUPS_PER_PASS):
        J, ops, scans, dt = timed_setup(workload, seed, workdir)
        times.append(dt)
    return J, ops, scans


def pass_seed(seed, k):
    """Seed of pass k's inputs: the run's seed for pass 0."""
    return seed if k == 0 else random.Random(f"{seed}:pass:{k}").randrange(2 ** 31)


def tail_percentile(n):
    """The highest whole percentile with at least TAIL_BEYOND of n samples
    beyond it, by the nearest-rank rule."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    return 100


def percentile(values, p):
    """Nearest-rank percentile p of values."""
    xs = sorted(values)
    return xs[max(1, math.ceil(p * len(xs) / 100)) - 1]


def environment(root, seed, trace):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "seed": seed, "trace": bool(trace)}


def op_table(passes, kinds):
    lat = {}
    for p in passes:
        for kind, dt in p.latencies:
            lat.setdefault(kind, []).append(dt)
    return {k: {"count": len(lat[k]), "p50_ms": statistics.median(lat[k]) * 1e3,
                "roadmap_ms": O.ROADMAP_BASELINE_MS.get(k)}
            for k in kinds if k in lat}


def layer_metrics(tracer, traced, untraced, ops_p50, error_ratio):
    st = tracer.stats
    metrics = {}
    for name, unit in per_layer_names():
        stat, _, field = name.rpartition(".")
        value = 0
        if stat in st and field in UNITS:
            s = st[stat]
            value = {"calls": s.calls, "busy_s": s.busy, "self_s": s.self_s,
                     "errors": s.errors}[field]
        metrics[name] = {"value": value, "unit": unit}
    value_calls = st["planewave.cov_engine"].calls
    computes = st["planewave.cov_engine.computes"].calls
    derived = {
        "models.check_property.pairs_checked": tracer.tallies["pairs_checked"],
        "planewave.cov_engine.value_calls": value_calls,
        "planewave.cov_engine.computes": computes,
        "planewave.cov_engine.hit_ratio":
            1 - computes / value_calls if value_calls else 0.0,
        "realizations.components_checked": tracer.tallies["components_checked"],
        "planewave.quad.warnings": tracer.quad_warnings,
        "trace.overhead_ratio": traced.wall / untraced.wall,
        "trace.unattributed_s": traced.wall - tracer.top_busy,
        "error_ratio": error_ratio,
    }
    by_order = [s for name, s in st.items()
                if name.startswith("planewave.covariant_derivative_R.k")]
    derived["planewave.covariant_derivative_R.errors"] = sum(s.errors for s in by_order)
    for k in (1, 2):
        s = st.get(f"planewave.covariant_derivative_R.k{k}")
        derived[f"planewave.covariant_derivative_R.k{k}.busy_s"] = s.busy if s else 0.0
    for name, value in derived.items():
        metrics[name]["value"] = value
    for kind, row in ops_p50.items():
        metrics[f"op.{kind}.p50_ms"]["value"] = row["p50_ms"]
    return metrics


def run(workload, seed, seconds, trace, root, workdir):
    if workload.needs_scipy:
        import scipy.integrate  # noqa: F401  the float path imports it lazily
    kinds = set(workload.kinds)
    setups = []
    passes = []
    if trace:
        _, ops, scans = set_up_pass(workload, seed, workdir, setups)
        passes.append(run_pass(ops, kinds))
        scanned = run_pass(scans, kinds)
        del ops, scans
        J, ops, _ = set_up_pass(workload, seed, workdir, setups)
        tracer = tracing.Tracer()
        tracer.install(J)
        try:
            traced = run_pass(ops, kinds, tracer)
        finally:
            tracer.uninstall()
        extra = [scanned, traced]
    else:
        def one_pass():
            """A pass on fresh inputs, which are garbage once it returns."""
            _, ops, _ = set_up_pass(workload, pass_seed(seed, len(passes)),
                                    workdir, setups)
            return run_pass(ops, kinds)

        start = time.perf_counter()
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            passes.append(one_pass())
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - start + longest > seconds:
                break
        extra = []
    failures = [f for p in passes + extra for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes + extra)
    per_pass = len(passes[0].latencies)
    tail_p = tail_percentile(TAIL_PASSES * per_pass)
    pooled = [dt for p in passes for dt in p.times]

    if trace:
        ops_p50 = op_table([passes[0], scanned], workload.kinds)
        metrics = layer_metrics(tracer, traced, passes[0], ops_p50,
                                len(failures) / attempted)
        trace_walls = {"untraced_wall_s": passes[0].wall, "traced_wall_s": traced.wall,
                       "attributed_s": tracer.top_busy, "scans_s": scanned.wall}
    else:
        ops_p50 = op_table(passes, workload.kinds)
        trace_walls = None
        metrics = {
            "wall_s": statistics.fmean(p.wall for p in passes),
            "op_p50_ms": statistics.median(pooled) * 1e3,
            "op_tail_ms": percentile(pooled, tail_p) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END}

    report = {
        "workload": workload.name,
        "env": environment(root, seed, trace),
        "passes": len(passes) + (1 if trace else 0),
        "pass_wall_s": [p.wall for p in passes],
        "setups": len(setups),
        "pass_seeds": [pass_seed(seed, k) for k in range(len(passes))],
        "op_tail": {"percentile": tail_p, "samples": len(pooled),
                    "beyond": len(pooled) - math.ceil(tail_p * len(pooled) / 100)},
        "error_ratio": len(failures) / attempted,
        "failures": [{"kind": k, "problem": p} for k, p in failures[:20]],
        "ops": ops_p50,
        "trace": trace_walls,
    }
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return report, result


def print_table(report):
    err = sys.stderr
    print(f"{report['workload']}: operation medians beside the ROADMAP "
          "baseline (2 CPUs, Python 3.11)", file=err)
    print(f"  {'operation':32} {'n':>4} {'p50 ms':>10} {'ROADMAP ms':>11}", file=err)
    for kind, row in report["ops"].items():
        base = row["roadmap_ms"]
        base = f"{base:11.1f}" if base is not None else f"{'-':>11}"
        print(f"  {kind:32} {row['count']:4d} {row['p50_ms']:10.2f} {base}", file=err)
    env = report["env"]
    print(f"  host: {env['cpu']} x{env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}", file=err)
    for f in report["failures"]:
        print(f"  FAILED {f['kind']}: {f['problem']}", file=err)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    src = root / "src"
    if not (src / "jtcurv" / "__init__.py").is_file():
        print(f"error: no jtcurv sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = root / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report, result = run(W.WORKLOADS[args.workload], args.seed,
                             args.seconds, args.trace, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    jtcurv_file = Path(sys.modules["jtcurv"].__file__).resolve()
    if src.resolve() not in jtcurv_file.parents:
        print(f"error: jtcurv was imported from {jtcurv_file}, not {src}",
              file=sys.stderr)
        return 2
    print_table(report)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
