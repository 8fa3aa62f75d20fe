"""The gamma, riemann and nabla^k R tables of fresh metrics, built from the
live psi only, against the dense loops kept in tests/helpers.py: every term
list equal in order (the coefficient's value and type, repr of the
expression, y), and the one inverse of a shared C block."""

import random
from fractions import Fraction

from jtcurv.expr import FnExpr
from jtcurv.linalg import mat_inv
from jtcurv.planewave import PlaneWaveMetric, _support_entries, covariant_derivative_R
from jtcurv.realizations import build_M_A, build_M_Phi

from conftest import SYMMETRIC_A, random_afamily, rational_point
from helpers import (gamma_reference, nabla_entries_reference, riemann_reference,
                     terms_signature)
from test_geometry import random_metric
from test_realizations import exp_mix_phi_family, exp_phi_family


def gamma_listing(tbl):
    return [(uv, f, terms_signature(terms))
            for uv, row in tbl.items() for f, terms in row.items()]


def riemann_listing(tbl):
    return [(key, terms_signature(terms)) for key, terms in tbl.items()]


def table_metrics(rng):
    """M_A draws, both M_Phi families and random metrics with b in 1..8,
    among them ones with all-zero psi rows, missing psi pairs and a float C."""
    out = [build_M_A(A) for A in (SYMMETRIC_A, random_afamily(rng), random_afamily(rng))]
    out += [build_M_Phi(fam) for fam in (exp_phi_family(), exp_mix_phi_family())]
    for b in range(1, 9):
        M = random_metric(rng, a=rng.choice((2, 3)), b=b, degree=2)
        psi = dict(M.psi)
        dead = rng.choice(sorted(psi))
        psi[dead] = [FnExpr.const(0)] * b
        del psi[rng.choice([p for p in sorted(psi) if p != dead])]
        out += [M, PlaneWaveMetric(M.a, b, M.C.entries, psi)]
        if b % 3 == 0:
            C = [[float(c) for c in row] for row in M.C.entries]
            out.append(PlaneWaveMetric(M.a, b, C, M.psi))
    return out


def test_gamma_and_riemann_equal_the_dense_loops():
    """Same keys in the same order, and the same terms in the same order, as
    the loops over every mu."""
    for M in table_metrics(random.Random(20261201)):
        assert gamma_listing(M.gamma) == gamma_listing(gamma_reference(M))
        assert riemann_listing(M.riemann) == riemann_listing(riemann_reference(M))


def test_nabla_entries_equal_the_full_recursion():
    """Every entry a k <= 2 scan reads equals the recursion that makes every
    Gamma substitution, and the table holds the same nonempty entries; the
    return ahead of the Gamma sweep builds no entry outside the support."""
    rng = random.Random(20261202)
    for M in table_metrics(rng):
        P = rational_point(rng, M.n)
        if not isinstance(M.C.entries[0][0], Fraction):
            P = tuple(float(c) for c in P)
        ref = nabla_entries_reference(M)
        ys = range(2 * M.a, M.n)
        for k in range(3):
            covariant_derivative_R(M, P, k)
            for key, dirs in _support_entries(M, k, ys):
                got, want = M.nabla_riemann(key, dirs), ref(key, dirs)
                assert terms_signature(got) == terms_signature(want), (key, dirs)
        assert not any(M.outside_support(key + dirs) for key, dirs in M._nabla)
        nonempty = {kd for kd, terms in M._nabla.items() if terms}
        assert nonempty == {kd for kd, terms in ref.memo.items() if terms}


def test_c_inverse_follows_the_form_object():
    """A float C and an exact C of equal values (equal, and hashing alike,
    entry by entry) each get the inverse mat_inv gives for them, whichever
    comes first; M_A and M_Phi share the form of the model's beta block
    and its one inverse."""
    exact = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    floats = [[float(c) for c in row] for row in exact]
    psi = {(0, 0): [FnExpr.var(2), FnExpr.const(0)]}
    for order in ((exact, floats), (floats, exact)):
        for C in order:
            M = PlaneWaveMetric(2, 2, C, psi)
            assert repr(M.cinv) == repr(mat_inv(C))
            assert M.cinv is M.C.inv
    assert repr(mat_inv(exact)) != repr(mat_inv(floats))
    MA, MP = build_M_A(SYMMETRIC_A), build_M_Phi(exp_phi_family())
    assert MA.C is MP.C and MA.cinv is MP.cinv
    assert repr(MA.cinv) == repr(mat_inv(MA.C.entries))
