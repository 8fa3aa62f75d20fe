"""Golden records of the geodesic cascade: at, velocity, acceleration,
residual, exp_inverse, fit, span and the CSV trace on seeded draws, compared
by repr for exact values and by float.hex for floats, so a change of type
(Fraction against int) or of the last bit of a float shows.

The records in data/geodesic_golden.json were written by the implementation
that kept separate exact and float copies of every stage.  Regenerate them
only for an intended change of output:
    PYTHONPATH=src python3 tests/test_geodesic_golden.py > tests/data/geodesic_golden.json
"""

import importlib
import io
import json
import pathlib
import random
import sys
import warnings
from fractions import Fraction

from jtcurv.expr import FnExpr
from jtcurv.planewave import (PlaneWaveMetric, exp_inverse, geodesic,
                              geodesic_fit, geodesic_trace_csv)
from jtcurv.poly import Poly
from jtcurv.realizations import build_M_A, build_M_Phi, phi_family_specialized

from conftest import random_afamily, rational_point
from helpers import PolyReference
from test_geometry import random_metric

#: the module jtcurv.geodesic (the package attribute of that name is the function)
cascade = importlib.import_module("jtcurv.geodesic")

GOLDEN = pathlib.Path(__file__).parent / "data" / "geodesic_golden.json"

EXACT_TS = (Fraction(1, 2), 1, Fraction(-3, 2), 0, 0.75, -1.25)
FLOAT_TS = (0.5, 1, -0.7, 2.5, 0.0)


def enc(x):
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [enc(c) for c in x]
    if isinstance(x, dict):
        return {k: enc(v) for k, v in x.items()}
    return repr(x)


def evaluations(g, ts):
    """at, velocity, acceleration and residual at each t, with the fit and
    span after each (a float t outside the span widens it)."""
    return [{"t": enc(t), "at": enc(g.at(t)), "velocity": enc(g.velocity(t)),
             "acceleration": enc(g.acceleration(t)),
             "residual": enc(g.residual(t)), "fit": enc(g.fit),
             "span": enc(g.span)} for t in ts]


def exact_records(seed):
    rng = random.Random(seed)
    M = build_M_A(random_afamily(rng))
    P = rational_point(rng, num=2, den=2)
    v = rational_point(rng, num=2, den=2)
    Q = rational_point(rng, num=2, den=2)
    g = geodesic_fit(M, P, v, (Fraction(1),))
    return {"quadrature": g.quadrature, "evaluations": evaluations(g, EXACT_TS),
            "geodesic": enc(geodesic(M, P, v, Fraction(2))),
            "exp_inverse": enc(exp_inverse(M, P, Q))}


def int_records(seed):
    """Integer P and v, which the path holds as Fractions, and targets Q
    with float entries, which take the float path from exact P."""
    rng = random.Random(seed)
    M = build_M_A(random_afamily(rng))
    P = tuple(rng.randint(-2, 2) for _ in range(14))
    v = tuple(rng.randint(-2, 2) for _ in range(14))
    Q = rational_point(rng)
    mixed = Q[:3] + tuple(float(c) for c in Q[3:])
    g = geodesic_fit(M, P, v)
    return {"quadrature": g.quadrature,
            "evaluations": evaluations(g, (1, Fraction(1, 2), 0.5, 0)),
            "exp_inverse_mixed": enc(exp_inverse(M, P, mixed)),
            "exp_inverse_float": enc(exp_inverse(M, P, [float(c) for c in Q]))}


def exp_metric():
    x1 = FnExpr.var(1)
    return build_M_Phi(phi_family_specialized(x1.exp(), -((-x1).exp())))


def float_records(seed):
    rng = random.Random(seed)
    M = exp_metric()
    P = tuple(rng.uniform(-0.5, 0.5) for _ in range(14))
    v = tuple(rng.uniform(-0.5, 0.5) for _ in range(14))
    g = geodesic_fit(M, P, v, (1.0,))
    buf = io.StringIO()
    geodesic_trace_csv(M, P, v, (0.0, 0.5, 1.0), buf)
    return {"quadrature": g.quadrature, "fit": enc(g.fit), "span": enc(g.span),
            "evaluations": evaluations(g, FLOAT_TS),
            "exp_inverse": enc(exp_inverse(M, P, geodesic(M, P, v, 1.0))),
            "trace": buf.getvalue()}


def rational_function_records():
    """Exact data on a non-polynomial metric: the float cascade, at exact
    and float t."""
    x1, x2 = FnExpr.var(1), FnExpr.var(2)
    M = PlaneWaveMetric(2, 2, [[0, 1], [1, 0]],
                        {(0, 0): [1 / (x1 + 3), x2], (0, 1): [x1, FnExpr.const(0)]})
    P = (Fraction(1, 2), Fraction(-1, 3), 1, Fraction(2), Fraction(-1), Fraction(1, 4))
    Q = (Fraction(1), Fraction(1, 3), Fraction(-1, 2), 0, Fraction(3, 2), 1)
    v = (Fraction(1, 2), Fraction(2, 3), 0, 0, Fraction(1), Fraction(-1, 2))
    g = geodesic_fit(M, P, v, (1,))
    return {"quadrature": g.quadrature,
            "evaluations": evaluations(g, (1, Fraction(1, 2), -0.5)),
            "exp_inverse": enc(exp_inverse(M, P, Q))}


def records():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return {"exact": [exact_records(s) for s in (1, 2, 3)],
                "int": [int_records(s) for s in (1, 2)],
                "float": [float_records(s) for s in (1, 2, 3)],
                "rational-function": rational_function_records()}


def test_geodesic_outputs_match_the_golden_records():
    want = json.loads(GOLDEN.read_text())
    got = records()
    for kind in ("exact", "int", "float"):
        for k, (g, w) in enumerate(zip(got[kind], want[kind])):
            assert g == w, (kind, k)
    assert got == want


def cascade_records(seed):
    """The exact cascade beyond the golden M_A records: a seeded degree-3
    metric (cubic psi, so Polys of higher degree) and an M_A draw, at exact
    and float t, and exp_inverse; with the Polys the fits hold."""
    rng = random.Random(seed)
    out, fits = [], []
    for M in (random_metric(rng), build_M_A(random_afamily(rng))):
        P, v, Q = (rational_point(rng, M.n, num=3, den=3) for _ in range(3))
        g = geodesic_fit(M, P, v, (Fraction(1),))
        out.append({"quadrature": g.quadrature,
                    "evaluations": evaluations(g, (Fraction(1, 2), 1, Fraction(-2, 3),
                                                   0, 0.75, -1.25)),
                    "exp_inverse": enc(exp_inverse(M, P, Q))})
        fits += g._yacc + g._xacc
    return out, fits


def test_exact_cascade_matches_the_fraction_polynomial_reference(monkeypatch):
    """Every exact output of the cascade, by repr and float.hex, equals the
    one it gives with the cascade's Poly replaced by the Fraction-coefficient
    helpers.PolyReference."""
    got, fits = zip(*map(cascade_records, range(5)))
    monkeypatch.setattr(cascade, "Poly", PolyReference)
    monkeypatch.setattr(cascade, "_T", PolyReference.t())
    want, ref_fits = zip(*map(cascade_records, range(5)))
    assert got == want
    assert all(r["quadrature"] == "exact-poly" for rs in got for r in rs)
    # both runs fitted their own polynomials, of degree above 3 somewhere
    assert {type(p) for fs in fits for p in fs} == {Poly}
    assert {type(p) for fs in ref_fits for p in fs} == {PolyReference}
    assert max(p.degree for fs in fits for p in fs) > 3


if __name__ == "__main__":
    json.dump(records(), sys.stdout, indent=1, sort_keys=True)
    print()
