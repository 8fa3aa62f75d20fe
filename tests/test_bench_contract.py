"""The benchmark's traced runs (bench/tracing.py) wrap jtcurv entry points by
name.  Installing the wrappers on the imported modules fails with a KeyError or
AttributeError as soon as a refactor removes or renames one of those names."""

import importlib
import importlib.util
import pathlib
import types
from fractions import Fraction

import pytest

from jtcurv import models, planewave, realizations
from jtcurv.expr import FnExpr

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = ("models", "linalg", "symmetry", "planewave", "realizations", "expr",
           "poly", "cli")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def modules():
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"jtcurv.{m}") for m in MODULES})


def test_tracer_hooks_exist_and_uninstall():
    ns = modules()
    geo = planewave._Geodesic
    before = (planewave.christoffel, geo.__dict__["_F"], geo.__dict__["_G"])
    tracer = load_tracing().Tracer()
    try:
        tracer.install(ns)
        assert planewave.christoffel is not before[0]
        assert geo.__dict__["_F"] is not before[1]
    finally:
        tracer.uninstall()
    assert (planewave.christoffel, geo.__dict__["_F"], geo.__dict__["_G"]) == before


def test_traced_scans_reach_the_operator_layer(m14):
    """Operator products are looked up on the class at call time, so a traced
    run charges the checks' products to models.Operator.matmul."""
    tracer = load_tracing().Tracer()
    try:
        tracer.install(modules())
        for kind in ("jacobi-tsankov", "2-step-jacobi-nilpotent"):
            before = tracer.stat("models.Operator.matmul").calls
            models.check_property(m14, kind)
            assert tracer.stat("models.Operator.matmul").calls > before, kind
    finally:
        tracer.uninstall()


def test_traced_verify_0_model_keeps_span_and_tally(ones_metric):
    """verify_0_model stays a traced span whose reports feed the
    components_checked tally; the names the tracer patches in realizations
    (nabla_R_frame, solve) stay importable there."""
    tracer = load_tracing().Tracer()
    try:
        tracer.install(modules())
        P = (1, 2, -1) + (0,) * 5 + (1,) + (0,) * 5
        rep = realizations.verify_0_model(ones_metric, P)
    finally:
        tracer.uninstall()
    assert rep.holds, rep.witness
    assert tracer.stat("realizations.verify_0_model").calls == 1
    assert tracer.tallies["components_checked"] == 4186


def test_traced_float_geodesic_counts_integrand_samples():
    """The float geodesic samples y'' and x*'' through _Geodesic._F and _G,
    which the tracer counts as planewave.integrand calls; scipy's quad is no
    longer called."""
    x1 = FnExpr.var(1)
    M = realizations.build_M_Phi(
        realizations.phi_family_specialized(x1.exp(), -((-x1).exp())))
    tracer = load_tracing().Tracer()
    try:
        tracer.install(modules())
        end = planewave.geodesic(M, (0.1,) * 14, (0.2,) * 14, 1.0)
    finally:
        tracer.uninstall()
    assert len(end) == 14
    assert tracer.stat("planewave.geodesic").calls == 1
    assert tracer.stat("planewave.integrand").calls > 0
    assert tracer.stat("planewave.quad").calls == 0


def test_planewave_binds_the_geodesic_cascade():
    """The tracer reads and patches the cascade's names in planewave.__dict__,
    so planewave binds each to the object jtcurv.geodesic defines."""
    cascade = importlib.import_module("jtcurv.geodesic")
    for name in ("_Geodesic", "geodesic", "geodesic_fit", "geodesic_residual",
                 "exp_inverse", "geodesic_trace_csv"):
        assert planewave.__dict__[name] is cascade.__dict__[name], name


def test_traced_exact_residual_charges_its_christoffel_call(ones_metric):
    """An exact residual reads planewave.christoffel at call time, so the
    tracer charges its one Christoffel evaluation to planewave.curvature."""
    P = (1, 2, -1) + (0,) * 5 + (1,) + (0,) * 5
    v = (Fraction(1, 2), 1, 0, 1) + (0,) * 6 + (2,) + (0,) * 3
    tracer = load_tracing().Tracer()
    try:
        tracer.install(modules())
        residual = planewave.geodesic_residual(ones_metric, P, v, Fraction(3, 2))
    finally:
        tracer.uninstall()
    assert residual == 0 and type(residual) is Fraction
    assert tracer.stat("planewave.geodesic_residual").calls == 1
    assert tracer.stat("planewave.curvature").calls == 1


def test_traced_check_model_keeps_validation_span_and_products(capsys):
    """The CLI's curvature validation stays one traced span, and the
    jacobi-tsankov scan keeps its 132 products on m14: building the operator
    families takes no product."""
    from jtcurv import cli

    tracer = load_tracing().Tracer()
    try:
        tracer.install(modules())
        rc = cli.main(["check-model", "m14", "--properties", "jacobi-tsankov"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    assert tracer.stat("models.validate_curvature_symmetries").calls == 1
    assert tracer.stat("models.check_property").calls == 1
    assert tracer.stat("models.Operator.matmul").calls == 132


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 1439348317])
def test_curvature_realization_nabla_ops_pass_their_oracles(seed, tmp_path, monkeypatch):
    """The benchmark's nabla-r-*, symmetric-* and xi-* operations of the
    curvature-realization workload, set up from bench/ as it stands, each
    pass their oracle on five seeded draws and on the pass seed 1439348317.
    There nabla^2 R of the small metric has a k = 1 component that is an
    empty sum along x1; returned as int 0, the oracle's interpolated
    derivative divided ints into floats and no longer matched exactly."""
    monkeypatch.syspath_prepend(str(TRACING.parent))
    workloads = importlib.import_module("workloads")
    ops, scans = workloads.setup_curvature_realization(modules(), seed, tmp_path)
    picked = [op for op in ops + scans
              if op.kind.startswith(("nabla-r-", "symmetric-", "xi-"))]
    assert {op.kind for op in picked} == {
        "nabla-r-k1", "nabla-r-k2", "nabla-r-k2-small", "symmetric-hand-solved",
        "symmetric-random", "xi-frame", "xi-direct"}
    for op in picked:
        assert op.check(op.call()) is None, (seed, op.kind)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_isometry_ops_pass_their_oracles(seed, tmp_path, monkeypatch, capsys):
    """The benchmark's is-symmetry and cli-symmetry operations of the
    model-algebra workload and its verify-0-model-* operations of the
    curvature-realization workload, set up from bench/ as it stands, each
    pass their oracle on five seeded draws.  All of them go through
    symmetry.check_pullback; the kernel-element operations run too, since
    they draw the matrices the kernel is-symmetry operations check."""
    monkeypatch.syspath_prepend(str(TRACING.parent))
    workloads = importlib.import_module("workloads")
    picked = []
    for setup in (workloads.setup_model_algebra,
                  workloads.setup_curvature_realization):
        ops, _ = setup(modules(), seed, tmp_path)
        picked += [op for op in ops if op.kind.startswith(
            ("is-symmetry", "cli-symmetry", "kernel-element", "verify-0-model-"))]
    assert {op.kind for op in picked} == {
        "is-symmetry", "cli-symmetry", "kernel-element",
        "verify-0-model-exact", "verify-0-model-float"}
    for op in picked:
        assert op.check(op.call()) is None, (seed, op.kind)
    capsys.readouterr()
