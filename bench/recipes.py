"""Seeded input recipes for the benchmark workloads.

These are copies of the recipes the test suite uses (``rational_point``,
``random_afamily``, ``random_metric``, ``product_model``, the exponential and
mixed-exponential phi families), kept here so that edits to ``tests/`` cannot
change what the benchmark measures.  Every function takes ``J``, the namespace
of freshly imported jtcurv modules, and a ``random.Random`` where it draws.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def rational_point(rng, n=14, num=6, den=4):
    return tuple(Fraction(rng.randint(-num, num), rng.randint(1, den))
                 for _ in range(n))


def rational_velocity(rng):
    """rational_point(rng, num=2, den=2) with nonzero x components (the first
    three), so every exact geodesic integrates the full cascade."""
    head = tuple(Fraction(rng.choice((1, -1)) * rng.randint(1, 2), rng.randint(1, 2))
                 for _ in range(3))
    return head + rational_point(rng, 11, num=2, den=2)


def float_point(rng):
    return tuple(rng.uniform(-0.5, 0.5) for _ in range(14))


def random_afamily(J, rng):
    return J.realizations.AFamily(
        {(i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
         for i in (1, 2, 3) for j in (1, 2)})


def ones_afamily(J):
    """Every a_ij = 1: the README's ones.json."""
    return J.realizations.AFamily({(i, j): Fraction(1)
                                   for i in (1, 2, 3) for j in (1, 2)})


def symmetric_afamily(J):
    """The hand-solved locally symmetric parameter set."""
    return J.realizations.AFamily(
        {(1, 1): Fraction(1), (2, 2): Fraction(1),
         (2, 1): Fraction(2, 3), (1, 2): Fraction(2, 3),
         (3, 1): Fraction(0), (3, 2): Fraction(0)})


def random_poly_fn(J, rng, nvars):
    """A random polynomial of degree at most 3."""
    FnExpr = J.expr.FnExpr
    terms = FnExpr.const(Fraction(rng.randint(-2, 2)))
    for _ in range(rng.randint(1, 3)):
        t = FnExpr.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for _ in range(rng.randint(1, 3)):
            t = t * FnExpr.var(rng.randint(1, nvars))
        terms = terms + t
    return terms


def random_metric(J, rng, a, b):
    """Random polynomial plane-wave metric (hyperbolic y block)."""
    C = [[Fraction(0)] * b for _ in range(b)]
    for mu in range(0, b - 1, 2):
        C[mu][mu + 1] = C[mu + 1][mu] = Fraction(1)
    if b % 2:
        C[b - 1][b - 1] = Fraction(rng.choice([-2, -1, 1, 2]))
    zero = J.expr.FnExpr.const(0)
    psi = {}
    for i in range(a):
        for j in range(i, a):
            psi[(i, j)] = tuple(
                random_poly_fn(J, rng, a) if rng.random() < 0.6
                else zero for _ in range(b))
    return J.planewave.PlaneWaveMetric(a, b, C, psi)


def product_model(J, S, form_entries):
    """A(x,y,z,w) = S(x,w)S(y,z) - S(x,z)S(y,w) for symmetric S."""
    md = J.models
    n = len(S)
    t = md.CurvatureTensor(n)
    seen = set()
    for idx in itertools.product(range(n), repeat=4):
        canon, _ = md.canonicalize_riemann(idx)
        if canon is None or canon in seen:
            continue
        seen.add(canon)
        i, j, k, l = canon
        t.set(canon, S[i][l] * S[j][k] - S[i][k] * S[j][l])
    return md.Model0(J.linalg.BilinearForm(form_entries), t)


def random_product_model(J, rng):
    """One draw of the small sparse product models of the commuting claim:
    (S, form, model)."""
    n = rng.randint(4, 6)
    S = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.4:
                S[i][j] = S[j][i] = Fraction(rng.randint(-2, 2))
    form = [[Fraction(int(i == j)) * (1 if i < n // 2 + 1 else -1)
             for j in range(n)] for i in range(n)]
    return S, form, product_model(J, S, form)


def nonzero_rational(rng):
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 5))


def pythagorean_rotation(rng):
    """(c, s) with c^2 + s^2 = 1 from a random primitive-ish triple."""
    p = rng.randint(2, 9)
    q = rng.randint(1, p - 1)
    h = p * p + q * q
    sign = rng.choice((1, -1))
    return Fraction(p * p - q * q, h), sign * Fraction(2 * p * q, h)


def unit_dilatation(rng):
    """(a1, a2, a3) with a1 a2 a3 = 1."""
    a1, a2 = nonzero_rational(rng), nonzero_rational(rng)
    return a1, a2, 1 / (a1 * a2)


def exp_phi_family(J):
    x1 = J.expr.FnExpr.var(1)
    return J.realizations.phi_family_specialized(x1.exp(), -((-x1).exp()))


def exp_mix_phi_family(J):
    """phi'_{1,1} = e^t + e^{2t}; the reciprocal antiderivative is
    -e^{-t} - t + log(1 + e^t)."""
    FnExpr = J.expr.FnExpr
    x1 = FnExpr.var(1)
    phi11 = x1.exp() + FnExpr.const(Fraction(1, 2)) * (2 * x1).exp()
    phi12 = -((-x1).exp()) - x1 + (1 + x1.exp()).log()
    return J.realizations.phi_family_specialized(phi11, phi12)
