"""Unit and property tests for the scalar, linear-algebra, expression and
polynomial layers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jtcurv import linalg, scalars
from jtcurv.expr import EvalError, FnExpr
from jtcurv.linalg import (BilinearForm, DegenerateFormError,
                           SingularMatrixError, identity, mat_inv,
                           mat_mul, nullspace_basis, rank, row_space_basis,
                           rref, solve)
from jtcurv.poly import Poly

from helpers import PolyReference, rref_reference, typed

fractions_st = st.fractions(min_value=-20, max_value=20,
                            max_denominator=12)


# ---------------------------------------------------------------------------
# scalars


def test_close_exact_vs_float():
    assert scalars.close(Fraction(1, 3), Fraction(1, 3))
    assert not scalars.close(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**15))
    assert scalars.close(0.1 + 0.2, 0.3)
    assert not scalars.close(1.0, 1.0 + 1e-6)


def test_close_refuses_infinite_and_nan_values():
    """An infinite value made the tolerance infinite, so it was close to
    every number; now a non-finite value is close to nothing."""
    inf, nan = math.inf, math.nan
    assert not scalars.close(inf, 1)
    assert not scalars.close(1, -inf)
    assert not scalars.close(-inf, inf)
    assert not scalars.close(inf, inf)
    assert not scalars.close(nan, nan)
    assert not scalars.close(1.0, 2.0, scale=inf)
    assert scalars.close(1.0, 1.0, scale=inf)


def test_non_symmetric_form_with_an_infinite_entry_is_refused():
    with pytest.raises(ValueError, match="symmetric"):
        BilinearForm([[0.0, math.inf], [3.0, 0.0]])


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_scalar_json_refuses_non_finite_floats(x):
    with pytest.raises(ValueError, match="finite"):
        scalars.scalar_from_json(x)


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


def test_integer_input_stays_exact():
    A = [[2, 1], [1, 3]]
    assert mat_inv(A) == [[Fraction(3, 5), Fraction(-1, 5)],
                          [Fraction(-1, 5), Fraction(2, 5)]]
    assert solve(A, [1, 1]) == (Fraction(2, 5), Fraction(1, 5))
    R, _ = rref(A)
    assert all(isinstance(x, Fraction) for row in R for x in row)
    assert BilinearForm([[0, 1], [1, 0]]).signature() == (1, 1)


def _sparse_matrices(rng):
    """Seeded matrices of the kinds rref meets, most entries zero: exact
    (Fraction, with int entries), float (zeros of both signs), mixed like
    the float shift rows of normalize_basis_0 (Fraction(0) beside nonzero
    floats and a few exact nonzeros), exact ones with a few floats or with
    one row of floats or float zeros, and each with a dependent row
    appended."""

    def exact():
        if rng.random() < 0.6:
            return rng.choice([Fraction(0), 0])
        return rng.choice([Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                           rng.randint(-3, 3)])

    def floating():
        if rng.random() < 0.5:
            return rng.choice([0.0, -0.0])
        return rng.uniform(-2.0, 2.0)

    def mixed():
        u = rng.random()
        if u < 0.55:
            return Fraction(0)
        if u < 0.65:
            return rng.choice([0, 0.0, -0.0, Fraction(rng.randint(-3, 3), 2)])
        return rng.uniform(-2.0, 2.0)

    def float_zeros():
        x = exact()
        return x if x else rng.choice([0.0, -0.0])

    def sprinkled():
        return floating() if rng.random() < 0.15 else exact()

    out = []
    kinds = [(exact, exact), (floating, floating), (mixed, mixed),
             # exact pivot rows that a float factor reduces later; exact
             # rows below one with float zeros, which exact factors carry
             # into them
             (sprinkled, sprinkled), (floating, exact), (float_zeros, exact)]
    for first, rest in kinds:
        for rows, cols in ((6, 25), (8, 16), (10, 7), (5, 5), (7, 7)):
            A = [[(rest if r else first)() for _ in range(cols)] for r in range(rows)]
            out.append(A)
            out.append(A + [[x - 2 * y for x, y in zip(A[0], A[1])]])
    return out


def test_sparse_rref_matches_dense_reference(monkeypatch):
    """rref skips the arithmetic on the exact zeros of the pivot row: every
    entry of rref, solve, nullspace_basis and mat_inv still equals the dense
    elimination's in value, type and sign (helpers.typed)."""

    def results(A):
        out = [typed(rref(A)), typed(nullspace_basis(A))]
        for f, args in ((solve, ([row[:-1] for row in A], [row[-1] for row in A])),
                        (mat_inv, ([row[:len(A)] for row in A],))):
            try:
                out.append(typed(f(*args)))
            except SingularMatrixError as err:
                out.append(str(err))
        return out

    mats = _sparse_matrices(random.Random(22))
    got = [results(A) for A in mats]
    monkeypatch.setattr(linalg, "rref", rref_reference)
    want = [results(A) for A in mats]
    assert got == want
    # the cases reach both outcomes of solve and of mat_inv
    assert {type(g[2]) for g in got} == {type(g[3]) for g in got} == {list, str}


def test_solve_consistency():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = solve(A, [Fraction(5), Fraction(10)])
    assert [sum(r * v for r, v in zip(row, x)) for row in A] == [5, 10]
    with pytest.raises(SingularMatrixError):
        solve([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]],
              [Fraction(0), Fraction(1)])


def test_float_elimination_pivots_on_the_largest_entry():
    """A tiny leading entry above the pivot threshold must not be the pivot:
    the float solve and inverse stay within 1e-14 of the exact ones."""
    A = [[2e-12, 1.3], [0.7, 1.1]]
    b = [0.9, 1.7]
    exact = [[Fraction(x) for x in row] for row in A]

    def near(x, want):
        return abs(Fraction(x) - want) <= Fraction(1e-14) * abs(want)

    x, want = solve(A, b), solve(exact, [Fraction(v) for v in b])
    assert all(near(u, v) for u, v in zip(x, want))
    inv, want = mat_inv(A), mat_inv(exact)
    assert all(near(u, v) for r, s in zip(inv, want) for u, v in zip(r, s))


def test_span_helpers():
    basis = row_space_basis([(Fraction(1), Fraction(0), Fraction(1)),
                             (Fraction(0), Fraction(1), Fraction(1)),
                             (Fraction(1), Fraction(1), Fraction(2))])
    assert len(basis) == 2
    assert rank(basis + [(Fraction(2), Fraction(3), Fraction(5))]) == len(basis)
    assert rank(basis + [(Fraction(0), Fraction(0), Fraction(1))]) > len(basis)


def test_bilinear_form_equality():
    assert BilinearForm([]) == BilinearForm([])
    assert BilinearForm([[1, 2], [2, 3]]) == BilinearForm([[1, 2], [2, 3]])
    assert BilinearForm([[1]]) != BilinearForm([[2]])
    assert BilinearForm([[1]]) != BilinearForm([[1, 0], [0, 1]])
    assert BilinearForm([[1]]) != [[1]]


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


def test_expr_is_polynomial():
    from jtcurv.realizations import AFamily, build_M_A, build_M_Phi, \
        phi_family_specialized
    x1 = FnExpr.var(1)
    ones = AFamily({(i, j): Fraction(1) for i in (1, 2, 3) for j in (1, 2)})
    M_A = build_M_A(ones)
    assert all(f.is_polynomial() for fns in M_A.psi.values() for f in fns)
    assert M_A.is_polynomial()
    assert (x1 / 2).is_polynomial()
    assert (FnExpr.const(2) ** -1 * x1).is_polynomial()
    M_Phi = build_M_Phi(phi_family_specialized(x1.exp(), -((-x1).exp())))
    assert not M_Phi.is_polynomial()
    assert not (1 / (x1 + 3)).is_polynomial()
    assert not (x1 ** -1).is_polynomial()
    # a float coefficient is not exact data
    assert not (0.5 * x1).is_polynomial()


def test_expr_variables_read_compose_through_its_inner_arguments():
    x1, x2 = FnExpr.var(1), FnExpr.var(2)
    assert (x1 * x2.exp() + 3).variables() == {1, 2}
    assert FnExpr.compose(x1 * x2, x2, FnExpr.const(3)).variables() == {2}
    # dividing by a composition with constant inner arguments is polynomial
    f = x1 / FnExpr.compose(1 + x1, FnExpr.const(2))
    assert f.is_polynomial()
    assert f.eval([Poly([0, 1])]) == Poly([0, Fraction(1, 3)])
    with pytest.raises(ValueError, match="reads x2"):
        FnExpr.compose(x2, x1)
    with pytest.raises(ValueError, match="reads x2"):
        FnExpr.from_json({"op": "compose", "args": [{"var": 2}, {"var": 1}]})


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


def test_poly_negative_power_is_refused():
    # the square-and-multiply loop would never end on a negative exponent
    with pytest.raises(TypeError):
        Poly.t() ** -1


#: every Poly method the benchmark tracer patches, with its operand count
POLY_TRACED = {"__add__": 1, "__radd__": 1, "__sub__": 1, "__rsub__": 1,
               "__neg__": 0, "__mul__": 1, "__rmul__": 1, "__truediv__": 1,
               "__pow__": 1, "eval": 1, "__call__": 1, "deriv": 0, "integrate": 0}

#: coefficients, some with numerators and denominators past 2**53, where
#: float(n) / den would round twice
coeff_lists_st = st.lists(st.one_of(
    st.integers(-40, 40), fractions_st,
    st.fractions(-10**6, 10**6, max_denominator=10**25)), max_size=6)
#: an operand: an int, a Fraction, a float (which arithmetic refuses) or
#: the coefficients of a polynomial
operand_st = st.one_of(st.integers(-8, 8), fractions_st, st.floats(-4, 4),
                       coeff_lists_st.map(tuple))


def _canonical(p):
    """Poly's canonical form: int numerators with no trailing zero over a
    positive denominator that shares no factor with all of them."""
    n, d = p.nums, p.den
    assert type(n) is tuple and all(type(c) is int for c in n) and type(d) is int
    assert d > 0 and (not n or n[-1] != 0) and math.gcd(d, *n) == 1


def _outcome(f, *args):
    """What f(*args) gives, comparable across the two classes: a polynomial
    by its typed coefficients, degree, repr and hash, a scalar by
    helpers.typed (a float by float.hex), an ArithmeticError by class and
    text.  A refused operand is "refused", whether the method returns
    NotImplemented or raises TypeError (whose text names the class)."""
    try:
        r = f(*args)
    except ArithmeticError as err:
        return ("raises", type(err).__name__, str(err))
    except TypeError:
        return "refused"
    if isinstance(r, Poly):
        _canonical(r)
    if isinstance(r, (Poly, PolyReference)):
        return ("poly", typed(list(r.coeffs)), r.degree, r.is_zero(), repr(r), hash(r))
    return "refused" if r is NotImplemented else typed(r)


def _poly_outcomes(cls, cs, other, x, k):
    p = cls(cs)
    o = cls(other) if isinstance(other, tuple) else other
    out = [_outcome(cls, cs), _outcome(cls.t), _outcome(lambda: p == o),
           _outcome(lambda: o == p)]
    if not isinstance(other, tuple):
        out.append(_outcome(cls.const, other))
    for name, arity in POLY_TRACED.items():
        f = getattr(p, name)
        if name == "__pow__":
            out += [_outcome(f, k), _outcome(f, Fraction(k, 2))]
        elif name in ("eval", "__call__"):
            points = [x, float(x)] if not isinstance(x, float) else \
                [x, Fraction(x), int(x)] if math.isfinite(x) else [x]
            out += [_outcome(f, y) for y in points]
        else:
            out.append(_outcome(f, *[o] * arity))
    return out


@given(coeff_lists_st, operand_st, st.one_of(st.integers(-9, 9), fractions_st,
                                             st.floats(allow_nan=True)),
       st.integers(-2, 4))
@example([1, Fraction(1, 2)], 0, Fraction(1, 3), -1)
@example([Fraction(2, 3), 0, -4], Fraction(0), 2.5, -2)
@example([], (), 0.0, 0)
@settings(max_examples=300, deadline=None)
def test_poly_matches_the_fraction_reference(cs, other, x, k):
    """Poly on integer numerators over one denominator against the tuple of
    Fractions it replaced (helpers.PolyReference), through every traced
    method, the constructors, degree, is_zero, ==, hash and repr, with int,
    Fraction, float and polynomial operands; division by zero and negative
    exponents included, eval at int, Fraction and float points."""
    assert _poly_outcomes(Poly, cs, other, x, k) == \
        _poly_outcomes(PolyReference, cs, other, x, k)
