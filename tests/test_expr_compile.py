"""The compiled float path: FnExpr.compiled against FnExpr.eval on random
trees, and the term tables and geodesics on it against the tree walk."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jtcurv import expr
from jtcurv.expr import FnExpr
from jtcurv.planewave import (christoffel, covariant_derivative_R, curvature_at,
                              curvature_generic, geodesic_fit)
from jtcurv.realizations import build_M_A, build_M_Phi

from conftest import random_afamily, rational_point
from test_realizations import exp_mix_phi_family, exp_phi_family

X1, X2 = FnExpr.var(1), FnExpr.var(2)
ZERO_DIFF = FnExpr("-", (FnExpr.const(1), FnExpr.const(1)))

consts = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(800), 0.5, -0.0]),
).map(FnExpr.const)
leaves = st.one_of(consts, st.integers(1, 3).map(FnExpr.var))


def _grow(kids):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), kids, kids).map(
            lambda t: FnExpr(t[0], t[1:])),
        st.tuples(st.sampled_from(["exp", "log", "sin", "cos"]), kids).map(
            lambda t: FnExpr(t[0], t[1:])),
        st.tuples(kids, st.integers(-3, 3)).map(lambda t: t[0] ** t[1]),
        # the inner arguments are often constants: compose keeps the tree walk
        st.tuples(kids, kids, kids, kids).map(lambda t: FnExpr.compose(*t)))


trees = st.recursive(leaves, _grow, max_leaves=10)
floats = st.one_of(st.floats(min_value=-30, max_value=30),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0, 750.0]))


def outcome(fn, x):
    """What fn(x) gives: its type and exact text (float.hex for floats), or
    the class of what it raises."""
    try:
        v = fn(x)
    except (ArithmeticError, ValueError) as exc:
        return "raises", type(exc)
    return type(v), v.hex() if isinstance(v, float) else repr(v)


@given(trees, st.tuples(floats, floats, floats))
@settings(max_examples=400, deadline=None)
@example(FnExpr.const(-1), (0.5, 0.5, 0.5))
@example(FnExpr.const(2) * FnExpr.const(Fraction(1, 3)), (0.0, 0.0, 0.0))
@example(X1 / ZERO_DIFF, (2.0, 0.0, 0.0))
@example(FnExpr.const(1) / ZERO_DIFF + X1, (2.0, 0.0, 0.0))
@example(X1.log(), (-1.0, 0.0, 0.0))
@example(FnExpr.const(-2).log() * X1, (1.0, 0.0, 0.0))
@example((X1 - X1) ** -2, (3.0, 0.0, 0.0))
@example(FnExpr.const(0) ** -1 + X1, (3.0, 0.0, 0.0))
@example((X1 * FnExpr.const(100)).exp(), (10.0, 0.0, 0.0))
@example(FnExpr.const(800).exp() * X1, (1.0, 0.0, 0.0))
@example(FnExpr.compose(X1 * X2, FnExpr.const(3), X1 + 1), (0.25, 0.0, 0.0))
@example(FnExpr.compose(X1 * X2, X1.exp(), X1 + 1), (0.25, 0.0, 0.0))
@example(FnExpr.compose(FnExpr.const(5), X1.exp()), (750.0, 0.0, 0.0))
def test_compiled_closure_matches_eval(tree, x):
    kind, fn = tree.compiled()  # compiling never raises
    want = outcome(tree.eval, x)
    assert outcome(fn, x) == want
    assert tree.compiled()[1] is fn
    if kind == "float" and want[0] != "raises":
        assert want[0] is float
    if kind == "const":
        assert outcome(fn, ()) == want


def test_variable_free_trees_keep_their_exact_value():
    for tree, value in ((FnExpr.const(-1), Fraction(-1)),
                        (FnExpr.const(2) * FnExpr.const(Fraction(1, 3)), Fraction(2, 3)),
                        (FnExpr.const(0).exp(), Fraction(1))):
        kind, fn = tree.compiled()
        got = fn((0.5,))
        assert kind == "const" and type(got) is Fraction and got == value


def _tree_walk(monkeypatch, fn):
    """fn() with every term table entry evaluated by the tree walk."""
    with monkeypatch.context() as m:
        m.setattr(expr, "_plan", lambda *args: None)
        return fn()


def _same(got, want):
    assert list(got) == list(want)
    for k in want:
        assert type(got[k]) is type(want[k]) and repr(got[k]) == repr(want[k]), k


BUILDERS = {"m-a": lambda: build_M_A(random_afamily(random.Random(5))),
            "m-phi": lambda: build_M_Phi(exp_phi_family()),
            "m-phi-mix": lambda: build_M_Phi(exp_mix_phi_family())}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_term_tables_match_the_tree_walk(rng, monkeypatch, name):
    """christoffel, curvature_at, curvature_generic and nabla R (k = 1) at
    float points, at points with exact x and float y, and at points with
    float x and exact y: the values, types and order of the tree walk, which
    the second copy of the metric is only ever evaluated by."""
    M, ref = BUILDERS[name](), BUILDERS[name]()
    for _ in range(3):
        f = [rng.uniform(-0.5, 0.5) for _ in range(14)]
        e = list(rational_point(rng))
        for P in (f, e[:3] + f[3:], f[:3] + e[3:], f[:3] + [0] * 11):
            for op in (christoffel, curvature_at, curvature_generic,
                       lambda M, P: covariant_derivative_R(M, P, 1)):
                want = _tree_walk(monkeypatch, lambda: op(ref, P)).comps
                _same(op(M, P).comps, want)
                _same(op(M, P).comps, want)  # from the cached compiled entries


def test_float_geodesic_matches_the_tree_walk(rng, monkeypatch):
    """The float cascade on compiled closures gives the tree walk's geodesic
    bit for bit."""
    P = [rng.uniform(-0.5, 0.5) for _ in range(14)]
    v = [rng.uniform(-0.5, 0.5) for _ in range(14)]

    def run():
        g = geodesic_fit(build_M_Phi(exp_mix_phi_family()), P, v, (1.0, -0.5))
        return [*g.at(1.0), *g.velocity(-0.5), *g.acceleration(0.3), g.residual(0.7)]

    got = run()
    monkeypatch.setattr(FnExpr, "compiled", lambda self: ("any", self.eval))
    assert [c.hex() for c in got] == [c.hex() for c in run()]
