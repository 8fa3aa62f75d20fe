"""Self-test of the benchmark harness; run from the checkout root:

    python3 bench/selftest.py

It checks that BENCHMARK.json names exactly the workloads and metrics the
harness reports, that the tail rule leaves ten samples beyond the tail, that
a deliberately corrupted expected value makes the error ratio nonzero while
the true values keep it at zero, and that the nabla^2 R oracle accepts a
metric whose nabla^2 R vanishes and rejects a scaled tensor.  Exits 0 when
all checks pass.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import oracles as O
import run
import workloads as W


def check_manifest(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS), "workloads"
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END), "end_to_end metrics"
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_names(), "per_layer metrics"


def check_tail():
    values = list(range(1, 101))
    p = run.tail_percentile(len(values))
    value = run.percentile(values, p)
    assert (value, p) == (90, 90), (value, p)
    assert sum(v > value for v in values) == run.TAIL_BEYOND


def error_ratio(workload, kinds, seed, workdir):
    _, ops, scans, _ = run.timed_setup(W.WORKLOADS[workload], seed, workdir)
    ops = [op for op in ops + scans if op.kind in kinds]
    res = run.run_pass(ops, set(kinds))
    return len(res.failures) / len(res.latencies)


def check_corruption(workdir):
    """Each corrupted expected value must be caught by a cheap oracle."""
    witnesses = dict(O.M14_WITNESSES)
    pairs, witness = witnesses["skew-tsankov"]
    witnesses["skew-tsankov"] = (pairs + 1, witness)
    cases = [
        ("model-algebra", ("skew-tsankov",), "M14_WITNESSES", witnesses),
        ("curvature-realization", ("verify-0-model-float",),
         "COMPONENTS_CHECKED", O.COMPONENTS_CHECKED - 1),
        ("geodesics", ("geodesic-residual-exact",), "TOL_GEODESIC_RESIDUAL", 0.0),
    ]
    for workload, kinds, name, corrupted in cases:
        assert error_ratio(workload, kinds, 7, workdir) == 0, (workload, "clean")
        original = getattr(O, name)
        setattr(O, name, corrupted)
        try:
            assert error_ratio(workload, kinds, 7, workdir) > 0, (workload, name)
        finally:
            setattr(O, name, original)


def check_nabla2_oracle(workdir):
    """Seed 1829316348 draws a metric with vanishing nabla^2 R; seed 7 one
    with nonzero components, which doubled keep their symmetries but break
    the textbook formula."""
    for seed, vanishes in ((1829316348, True), (7, False)):
        _, ops, _, _ = run.timed_setup(W.WORKLOADS["curvature-realization"],
                                       seed, workdir)
        op = next(o for o in ops if o.kind == "nabla-r-k2-small")
        T = op.call()
        assert (not T.comps) == vanishes, (seed, "vanishing")
        assert op.check(T) is None, (seed, "clean")
        if not vanishes:
            T.comps.update({k: 2 * v for k, v in T.comps.items()})
            assert op.check(T) is not None, (seed, "doubled")


def main():
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".bench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_manifest(root)
        check_tail()
        check_corruption(workdir)
        check_nabla2_oracle(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
