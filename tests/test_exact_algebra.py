"""Unit and property tests for the scalar, linear-algebra, expression,
jet and polynomial layers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtcurv import scalars
from jtcurv.expr import EvalError, FnExpr
from jtcurv.jets import jet_eval, jet_univariate
from jtcurv.linalg import (BilinearForm, DegenerateFormError,
                           SingularMatrixError, identity, in_span, mat_inv,
                           mat_mul, nullspace_basis, rank, row_space_basis,
                           rref, solve)
from jtcurv.poly import Poly, TranscendentalError

fractions_st = st.fractions(min_value=-20, max_value=20,
                            max_denominator=12)


# ---------------------------------------------------------------------------
# scalars


def test_close_exact_vs_float():
    assert scalars.close(Fraction(1, 3), Fraction(1, 3))
    assert not scalars.close(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**15))
    assert scalars.close(0.1 + 0.2, 0.3)
    assert not scalars.close(1.0, 1.0 + 1e-6)


def test_iszero():
    assert scalars.iszero(Fraction(0))
    assert not scalars.iszero(Fraction(1, 10**18))
    assert scalars.iszero(1e-13)
    assert not scalars.iszero(1e-6)


@given(fractions_st)
def test_scalar_json_roundtrip(q):
    assert scalars.scalar_from_json(scalars.scalar_to_json(q)) == q


def test_scalar_json_large_values_stay_exact():
    q = Fraction(10**40 + 1, 10**40)
    assert scalars.scalar_from_json(scalars.scalar_to_json(q)) == q


# ---------------------------------------------------------------------------
# linear algebra

sq_matrix_st = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(fractions_st, min_size=n, max_size=n),
                       min_size=n, max_size=n))


@given(sq_matrix_st)
@settings(max_examples=60, deadline=None)
def test_mat_inv_roundtrip(A):
    n = len(A)
    try:
        Ainv = mat_inv(A)
    except SingularMatrixError:
        assert rank(A) < n
        return
    assert mat_mul(A, Ainv) == identity(n)
    assert mat_mul(Ainv, A) == identity(n)


@given(sq_matrix_st)
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity(A):
    n = len(A[0])
    assert rank(A) + len(nullspace_basis(A)) == n
    for v in nullspace_basis(A):
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in A)


def test_rref_idempotent():
    A = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(2), Fraction(4), Fraction(7)]]
    R, pivots = rref(A)
    assert rref(R)[0] == R
    assert pivots == [0, 2]


def test_solve_consistency():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = solve(A, [Fraction(5), Fraction(10)])
    assert [sum(r * v for r, v in zip(row, x)) for row in A] == [5, 10]
    with pytest.raises(SingularMatrixError):
        solve([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]],
              [Fraction(0), Fraction(1)])


def test_span_helpers():
    basis = row_space_basis([(Fraction(1), Fraction(0), Fraction(1)),
                             (Fraction(0), Fraction(1), Fraction(1)),
                             (Fraction(1), Fraction(1), Fraction(2))])
    assert len(basis) == 2
    assert in_span((Fraction(2), Fraction(3), Fraction(5)), basis)
    assert not in_span((Fraction(0), Fraction(0), Fraction(1)), basis)


def test_signature_of_hyperbolic_pair():
    # an isotropic pair <u,v>=1 contributes (1,1)
    form = BilinearForm([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert form.signature() == (1, 1)


def test_signature_counts_negative_part_first():
    # eigenvalues -1/4 and -3/4: two negative directions
    form = BilinearForm([
        [Fraction(-1, 2), Fraction(1, 4)],
        [Fraction(1, 4), Fraction(-1, 2)]])
    assert form.signature() == (2, 0)


def test_degenerate_form_rejected():
    form = BilinearForm([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    with pytest.raises(DegenerateFormError):
        form.signature()


def test_form_inverse_and_apply():
    form = BilinearForm([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    inv = form.inverse()
    assert inv.entries == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert form.apply((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))) == 10


# ---------------------------------------------------------------------------
# expressions


def test_expr_eval_and_call():
    x1, x2 = FnExpr.var(1), FnExpr.var(2)
    f = x1 * x1 + 2 * x2 - Fraction(1, 2)
    assert f.eval([Fraction(3), Fraction(1)]) == Fraction(21, 2)
    assert f(Fraction(3), Fraction(1)) == Fraction(21, 2)


def test_expr_diff_polynomial():
    x1, x2 = FnExpr.var(1), FnExpr.var(2)
    f = x1 ** 3 * x2 + x2 ** 2
    assert f.diff(1).eval([Fraction(2), Fraction(5)]) == 3 * 4 * 5
    assert f.diff(2).eval([Fraction(2), Fraction(5)]) == 8 + 10


def test_expr_transcendental_eval():
    x = FnExpr.var(1)
    f = x.exp() * x.sin() + x.cos()
    t = 0.7
    expect = math.exp(t) * math.sin(t) + math.cos(t)
    assert abs(f.eval([t]) - expect) < 1e-12
    dexpect = math.exp(t) * (math.sin(t) + math.cos(t)) - math.sin(t)
    assert abs(f.diff(1).eval([t]) - dexpect) < 1e-12


def test_expr_exact_special_points():
    x = FnExpr.var(1)
    v = x.exp().eval([Fraction(0)])
    assert v == 1 and isinstance(v, Fraction)
    w = x.log().eval([Fraction(1)])
    assert w == 0 and isinstance(w, Fraction)
    # away from the exact special points evaluation degrades to float
    assert isinstance(x.exp().eval([Fraction(1)]), float)
    with pytest.raises(EvalError):
        x.log().eval([Fraction(-2)])


def test_expr_division_and_log_derivative():
    x = FnExpr.var(1)
    f = x.log()
    assert abs(f.diff(1).eval([2.0]) - 0.5) < 1e-12
    g = FnExpr.const(1) / x
    assert g.eval([Fraction(4)]) == Fraction(1, 4)


def test_expr_json_roundtrip():
    x1, x2 = FnExpr.var(1), FnExpr.var(2)
    f = (x1 ** 2 * x2 - Fraction(3, 7)).exp() + x2.sin() / (x1 + 1)
    g = FnExpr.from_json(f.to_json())
    pt = [0.3, -1.2]
    assert abs(f.eval(pt) - g.eval(pt)) < 1e-15
    assert g.has_transcendental()


@given(st.lists(fractions_st, min_size=4, max_size=4), fractions_st)
@settings(max_examples=50, deadline=None)
def test_expr_product_rule(coeffs, t):
    x = FnExpr.var(1)
    a, b, c, d = coeffs
    f = FnExpr.const(a) * x ** 2 + FnExpr.const(b)
    g = FnExpr.const(c) * x + FnExpr.const(d)
    lhs = (f * g).diff(1).eval([t])
    rhs = f.diff(1).eval([t]) * g.eval([t]) + f.eval([t]) * g.diff(1).eval([t])
    assert lhs == rhs


# ---------------------------------------------------------------------------
# jets


def test_jet_eval_mixed_partials():
    x1, x2 = FnExpr.var(1), FnExpr.var(2)
    f = x1 ** 2 * x2 ** 3
    jet = jet_eval(f, [Fraction(2), Fraction(3)], dirs=(1, 2), k=2)
    # d^2 f / dx1 dx2 = 2 x1 * 3 x2^2
    assert jet[(1, 1)] == 2 * 2 * 3 * 9
    assert jet.value == 4 * 27


def test_jet_univariate_exponential():
    f = FnExpr.var(1).exp()
    vals = jet_univariate(f, 0.5, 3)
    e = math.exp(0.5)
    for v in vals:
        assert abs(v - e) < 1e-12


@given(st.lists(fractions_st, min_size=3, max_size=3), fractions_st)
@settings(max_examples=40, deadline=None)
def test_jet_univariate_matches_direct_diff(coeffs, t):
    a, b, c = coeffs
    x = FnExpr.var(1)
    f = FnExpr.const(a) * x ** 3 + FnExpr.const(b) * x + FnExpr.const(c)
    f0, f1, f2, f3 = jet_univariate(f, t, 3)
    assert f0 == f.eval([t])
    assert f1 == 3 * a * t * t + b
    assert f2 == 6 * a * t
    assert f3 == 6 * a


# ---------------------------------------------------------------------------
# polynomials

poly_st = st.lists(fractions_st, min_size=0, max_size=6).map(Poly)


@given(poly_st, poly_st, fractions_st)
@settings(max_examples=60, deadline=None)
def test_poly_product_rule(p, q, t):
    lhs = (p * q).deriv().eval(t)
    rhs = (p.deriv() * q + p * q.deriv()).eval(t)
    assert lhs == rhs


@given(poly_st)
@settings(max_examples=60, deadline=None)
def test_poly_integrate_then_derive(p):
    assert p.integrate().deriv() == p


def test_poly_arithmetic_with_fractions():
    t = Poly.t()
    p = (1 - t) * (1 + t)
    assert p == Poly([Fraction(1), Fraction(0), Fraction(-1)])
    assert (p ** 2).degree == 4
    assert (p / 2).eval(Fraction(3)) == Fraction(-8, 2)


def test_poly_transcendental_hooks_refuse():
    with pytest.raises(TranscendentalError):
        Poly.t().exp()
    # constants are fine only where an exact value exists
    assert Poly.const(Fraction(0)).exp() == Poly.const(Fraction(1))
