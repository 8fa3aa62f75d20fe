"""The benchmark's traced runs (bench/tracing.py) wrap jtcurv entry points by
name.  Installing the wrappers on the imported modules fails with a KeyError or
AttributeError as soon as a refactor removes or renames one of those names."""

import importlib
import importlib.util
import pathlib
import types

from jtcurv import planewave

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = ("models", "linalg", "symmetry", "planewave", "realizations", "expr",
           "poly", "cli")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_hooks_exist_and_uninstall():
    ns = types.SimpleNamespace(
        **{m: importlib.import_module(f"jtcurv.{m}") for m in MODULES})
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
