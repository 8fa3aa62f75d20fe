"""Plane-wave geometry engine tests against independent oracles: Koszul
formula for Christoffel symbols, interpolation-based derivatives for nabla R,
and a Runge-Kutta integrator for geodesics."""

import csv
import io
import itertools
import random
from fractions import Fraction

import pytest

from jtcurv import planewave
from jtcurv.expr import FnExpr, terms_evaluator
from jtcurv.linalg import BilinearForm
from jtcurv.models import canonicalize_riemann, riemann_orbit
from jtcurv.planewave import (CoordTensor, PlaneWaveMetric,
                              christoffel, covariant_derivative_R, curvature_at,
                              curvature_generic, exp_inverse, geodesic,
                              geodesic_fit, geodesic_residual,
                              geodesic_trace_csv, metric_at, nabla_R_component,
                              nabla_R_frame)
from jtcurv.poly import Poly
from jtcurv.realizations import build_M_A, build_M_Phi, phi_family_specialized
from jtcurv.scalars import close

from conftest import random_afamily, rational_point
from helpers import (curvature_reference, metric_at_reference,
                     r_partial_reference, typed)


# ---------------------------------------------------------------------------
# random polynomial metrics


def random_poly_fn(rng, nvars, degree=3):
    terms = FnExpr.const(Fraction(rng.randint(-2, 2)))
    for _ in range(rng.randint(1, 3)):
        t = FnExpr.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for _ in range(rng.randint(1, degree)):
            t = t * FnExpr.var(rng.randint(1, nvars))
        terms = terms + t
    return terms


def random_metric(rng, a=None, b=None, degree=3):
    a = a or rng.randint(2, 3)
    b = b or rng.randint(2, 4)
    # block form on the y part: hyperbolic pairs plus a diagonal tail
    C = [[Fraction(0)] * b for _ in range(b)]
    for mu in range(0, b - 1, 2):
        C[mu][mu + 1] = C[mu + 1][mu] = Fraction(1)
    if b % 2:
        C[b - 1][b - 1] = Fraction(rng.choice([-2, -1, 1, 2]))
    psi = {}
    for i in range(a):
        for j in range(i, a):
            psi[(i, j)] = tuple(
                random_poly_fn(rng, a, degree) if rng.random() < 0.6
                else FnExpr.const(0) for _ in range(b))
    return PlaneWaveMetric(a, b, C, psi)


# ---------------------------------------------------------------------------
# metric assembly and serialization


def metric_entry_exprs(M):
    """All g_{uv} as expressions over the full coordinate list (1-based)."""
    n, a, b = M.n, M.a, M.b
    zero = FnExpr.const(0)
    G = [[zero] * n for _ in range(n)]
    for i in range(a):
        G[i][M.xsi(i)] = G[M.xsi(i)][i] = FnExpr.const(1)
        for j in range(i, a):
            s = zero
            for mu in range(b):
                f = M.psi_fn(i, j, mu)
                if f is not None and not f.is_zero_const():
                    s = s + 2 * FnExpr.var(M.yi(mu) + 1) * f
            G[i][j] = G[j][i] = s
    for mu in range(b):
        for nu in range(b):
            G[M.yi(mu)][M.yi(nu)] = FnExpr.const(M.C.entries[mu][nu])
    return G


def test_metric_at_matches_symbolic_assembly(rng):
    for _ in range(5):
        M = random_metric(rng)
        P = rational_point(rng, M.n)
        G = metric_at(M, P).entries
        Ge = metric_entry_exprs(M)
        for u in range(M.n):
            for v in range(M.n):
                assert G[u][v] == Ge[u][v].eval(P)


def test_metric_at_matches_dense_reference(rng):
    """metric_at sums over the live psi; each entry still equals the sum
    over every mu, zero constants included, in value, type and sign: at
    exact, float and mixed points, with zero y coordinates, and with a
    float zero constant."""
    metrics = [random_metric(rng, b=rng.randint(2, 8)) for _ in range(12)]
    metrics.append(PlaneWaveMetric.from_json({
        "a": 2, "b": 3, "C": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
        "psi": {"1,1": [0.0, {"var": 1}, 0], "1,2": [0.0, 0, -0.0]}}))
    for M in metrics:
        n = M.n
        for P in (rational_point(rng, n), tuple(rng.uniform(-1, 1) for _ in range(n)),
                  tuple(rng.choice([0, 0.0, Fraction(0), 2, Fraction(-1, 2), 0.5, -1.5])
                        for _ in range(n))):
            assert typed(metric_at(M, P).entries) == \
                typed(metric_at_reference(M, P).entries)


def test_metric_json_roundtrip(rng):
    M = random_metric(rng)
    M2 = PlaneWaveMetric.from_json(M.to_json())
    P = rational_point(rng, M.n)
    assert metric_at(M, P).entries == metric_at(M2, P).entries
    assert curvature_at(M, P).comps == curvature_at(M2, P).comps


def test_metric_is_nondegenerate(rng):
    M = random_metric(rng)
    P = rational_point(rng, M.n)
    p, q = metric_at(M, P).signature()
    assert p + q == M.n


# ---------------------------------------------------------------------------
# Christoffel symbols against the Koszul formula


def koszul_first_kind(M, P):
    Ge = metric_entry_exprs(M)
    n = M.n
    vals = {}
    for u in range(n):
        for v in range(n):
            for w in range(n):
                s = (Ge[v][w].diff(u + 1).eval(P) + Ge[u][w].diff(v + 1).eval(P)
                     - Ge[u][v].diff(w + 1).eval(P))
                if s != 0:
                    vals[(u, v, w)] = s / 2
    return vals


def test_christoffel_second_kind_raises_with_inverse_metric(rng):
    M = random_metric(rng)
    P = rational_point(rng, M.n)
    ginv = metric_at(M, P).inverse().entries
    first = koszul_first_kind(M, P)
    second = christoffel(M, P)
    n = M.n
    for u in range(n):
        for v in range(n):
            for f in range(n):
                want = sum(ginv[f][w] * first[(u, v, w)] for w in range(n)
                           if (u, v, w) in first)
                assert second.value(u, v, f) == want, (u, v, f)


def test_christoffel_refuses_other_kinds(rng):
    M = random_metric(rng)
    P = rational_point(rng, M.n)
    for kind in ("first", "Second"):
        with pytest.raises(ValueError, match="only 'second'"):
            christoffel(M, P, kind=kind)


# ---------------------------------------------------------------------------
# curvature: closed form vs generic assembly, symmetries


def test_curvature_closed_form_equals_generic(rng):
    for _ in range(10):
        M = random_metric(rng)
        P = rational_point(rng, M.n)
        T1 = curvature_at(M, P)
        T2 = curvature_generic(M, P)
        keys = set(T1.comps) | set(T2.comps)
        for key in keys:
            assert T1.value(*key) == T2.value(*key), key


def riemann_support(M):
    """One tuple per symmetry orbit that can be nonzero: the pure-x canonical
    indices and R(x_i, x_j, x_k, y) with i < j."""
    xs = range(M.a)
    pairs = [(i, j) for i in xs for j in xs if i < j]
    yield from (p + q for p in pairs for q in pairs if p <= q)
    yield from (p + (k, M.yi(mu)) for p in pairs for k in xs for mu in range(M.b))


def partials_upto_2(M):
    coords = list(range(M.a)) + [M.yi(mu) for mu in range(M.b)]
    return [()] + [(c,) for c in coords] \
        + list(itertools.combinations_with_replacement(coords, 2))


def table_partial(M, P, idx4, dirs, partials):
    """The partial by partials of (nabla^k R)(idx4; dirs) at P, read off the
    table entry by the tree walk, sign * terms_evaluator(P, a)(entry, xs,
    dy).  Entries read no x* coordinate and are affine in y, so an x*
    partial or a second y partial vanishes."""
    kinds = [M.coord_kind(p) for p in partials]
    canon, sign = canonicalize_riemann(tuple(idx4))
    if canon is None or "x*" in kinds or kinds.count("y") > 1:
        return Fraction(0)
    xs = tuple(p for p, k in zip(partials, kinds) if k == "x")
    dy = next((p for p, k in zip(partials, kinds) if k == "y"), None)
    return sign * terms_evaluator(P, M.a)(M.nabla_riemann(canon, tuple(dirs)), xs, dy)


def assert_table_matches_reference(M, P, rng, same):
    """curvature_at and the table's R partials (x and y, orders 0..2, on a
    random member of every orbit) against the closed-form reference loops."""
    got, want = curvature_at(M, P).comps, curvature_reference(M, P).comps
    assert set(got) == set(want)
    assert all(same(got[k], want[k]) for k in want)
    for idx in riemann_support(M):
        tup, _ = rng.choice(riemann_orbit(idx))
        for partials in partials_upto_2(M):
            v = table_partial(M, P, tup, (), partials)
            w = r_partial_reference(M, P, tup, partials)
            assert same(v, w), (tup, partials, v, w)


def test_riemann_table_matches_the_reference_loops(rng):
    metrics = [random_metric(rng) for _ in range(4)]
    metrics += [build_M_A(random_afamily(rng)) for _ in range(2)]
    for M in metrics:
        P = rational_point(rng, M.n)
        assert_table_matches_reference(M, P, rng, lambda u, v: u == v)


def test_riemann_table_matches_the_reference_loops_on_m_phi(rng):
    from test_realizations import exp_mix_phi_family, exp_phi_family
    for fam in (exp_phi_family(), exp_mix_phi_family()):
        M = build_M_Phi(fam)
        for _ in range(2):
            P = tuple(rng.uniform(-0.5, 0.5) for _ in range(M.n))
            assert_table_matches_reference(M, P, rng,
                                           lambda u, v: close(u, v, rel=1e-12))


def test_riemann_table_structure(rng):
    """The k = 0 support facts, read off the table: no key has an x* index
    or two y indices, and y factors occur on pure-x keys only."""
    from test_realizations import exp_mix_phi_family
    metrics = [random_metric(rng, b=rng.randint(2, 8)) for _ in range(6)]
    metrics += [build_M_A(random_afamily(rng)), build_M_Phi(exp_mix_phi_family())]
    for M in metrics:
        assert M.riemann
        for key, terms in M.riemann.items():
            assert canonicalize_riemann(key) == (key, 1)
            kinds = [M.coord_kind(t) for t in key]
            assert "x*" not in kinds
            assert kinds.count("y") <= 1
            if any(y is not None for _, _, y in terms):
                assert kinds == ["x"] * 4, key


def test_curvature_pointwise_symmetries(rng):
    M = random_metric(rng)
    P = rational_point(rng, M.n)
    T = curvature_at(M, P)
    for (i, j, k, l), v in list(T.comps.items())[:200]:
        assert T.value(j, i, k, l) == -v
        assert T.value(i, j, l, k) == -v
        assert T.value(k, l, i, j) == v
        assert T.value(i, j, k, l) + T.value(j, k, i, l) + T.value(k, i, j, l) == 0


def test_contract_agrees_with_components(rng):
    M = random_metric(rng)
    P = rational_point(rng, M.n)
    T = curvature_at(M, P)
    e = [tuple(Fraction(int(i == t)) for t in range(M.n)) for i in range(M.n)]
    for idx, v in list(T.comps.items())[:10]:
        assert nabla_R_frame(M, P, [e[i] for i in idx], []) == v
    vecs = [rational_point(rng, M.n) for _ in range(4)]
    want = sum(v * vecs[0][i] * vecs[1][j] * vecs[2][k] * vecs[3][l]
               for (i, j, k, l), v in T.comps.items())
    assert nabla_R_frame(M, P, vecs, []) == want


# ---------------------------------------------------------------------------
# covariant derivatives of R


def poly_derivative_along(samples):
    """p'(0) from exact samples p(0), p(1), ..., via Newton interpolation."""
    pts = [Fraction(k) for k in range(len(samples))]
    # divided differences
    coef = list(samples)
    for lvl in range(1, len(samples)):
        for k in range(len(samples) - 1, lvl - 1, -1):
            coef[k] = (coef[k] - coef[k - 1]) / (pts[k] - pts[k - lvl])
    p = Poly.const(coef[-1])
    for k in range(len(samples) - 2, -1, -1):
        p = p * (Poly.t() - pts[k]) + Poly.const(coef[k])
    return p.deriv().eval(Fraction(0))


def nabla_r_oracle(M, P, idx4, e):
    """First covariant derivative by the textbook formula, with the partial
    of R obtained from exact polynomial interpolation along coordinate e."""
    samples = []
    for k in range(9):
        Q = list(P)
        Q[e] += k
        samples.append(curvature_at(M, tuple(Q)).value(*idx4))
    total = poly_derivative_along(samples)
    gam = christoffel(M, P, kind="second")
    R = curvature_at(M, P)
    for slot in range(4):
        for f in range(M.n):
            c = gam.value(e, idx4[slot], f)
            if c != 0:
                sub = idx4[:slot] + (f,) + idx4[slot + 1:]
                total -= c * R.value(*sub)
    return total


def test_nabla_r_matches_interpolation_oracle(rng):
    for _ in range(3):
        M = random_metric(rng, a=2, b=2, degree=2)
        P = rational_point(rng, M.n)
        T = covariant_derivative_R(M, P, 1)
        hits = 0
        for idx in list(T.comps)[:6]:
            want = nabla_r_oracle(M, P, idx[:4], idx[4])
            assert T.value(*idx) == want, idx
            hits += 1
        # and a few structurally zero positions
        for e in range(M.n):
            assert T.value(0, 1, 1, 0, e) == nabla_r_oracle(M, P, (0, 1, 1, 0), e)
        assert hits > 0


def test_nabla_r_support_rules(rng):
    M = random_metric(rng, a=3, b=2)
    P = rational_point(rng, M.n)
    # any x* tensor index kills the component
    assert nabla_R_component(M, P, (M.xsi(0), 0, 1, M.yi(0)), (0,)) == 0
    assert nabla_R_component(M, P, (0, 1, 1, 0), (M.xsi(1),)) == 0
    # two y entries among indices and directions kill it too
    assert nabla_R_component(M, P, (0, 1, 1, M.yi(0)), (M.yi(1),)) == 0
    assert nabla_R_component(M, P, (M.yi(0), 1, 1, M.yi(1)), (0,)) == 0


def test_second_bianchi_identity(rng):
    for _ in range(2):
        M = random_metric(rng, a=3, b=2, degree=2)
        P = rational_point(rng, M.n)
        for (aa, bb) in ((0, 1), (1, 2)):
            for (c, d, e) in ((0, 1, 2), (0, 2, M.yi(0)), (1, 2, M.yi(1))):
                s = (nabla_R_component(M, P, (aa, bb, c, d), (e,))
                     + nabla_R_component(M, P, (aa, bb, d, e), (c,))
                     + nabla_R_component(M, P, (aa, bb, e, c), (d,)))
                assert s == 0, (aa, bb, c, d, e)


def test_higher_order_tensor_collects_components(rng):
    M = random_metric(rng, a=2, b=2, degree=2)
    P = rational_point(rng, M.n)
    T2 = covariant_derivative_R(M, P, 2)
    assert T2.valence == (4, 2)
    for idx, v in list(T2.comps.items())[:5]:
        assert nabla_R_component(M, P, idx[:4], idx[4:]) == v


# ---------------------------------------------------------------------------
# geodesics


def rk4_geodesic(M, P, v, t1, steps=400):
    """Fixed-step classical Runge-Kutta on the second-order geodesic system."""
    n = M.n
    pos = [float(c) for c in P]
    vel = [float(c) for c in v]

    def acc(state_pos, state_vel):
        gam = christoffel(M, tuple(state_pos), kind="second")
        out = [0.0] * n
        for (u, w, f), val in gam.comps.items():
            c = state_vel[u] * state_vel[w]
            if c != 0.0:
                out[f] -= float(val) * c
        return out

    h = t1 / steps
    for _ in range(steps):
        k1p, k1v = vel, acc(pos, vel)
        p2 = [p + h / 2 * q for p, q in zip(pos, k1p)]
        v2 = [p + h / 2 * q for p, q in zip(vel, k1v)]
        k2p, k2v = v2, acc(p2, v2)
        p3 = [p + h / 2 * q for p, q in zip(pos, k2p)]
        v3 = [p + h / 2 * q for p, q in zip(vel, k2v)]
        k3p, k3v = v3, acc(p3, v3)
        p4 = [p + h * q for p, q in zip(pos, k3p)]
        v4 = [p + h * q for p, q in zip(vel, k3v)]
        k4p, k4v = v4, acc(p4, v4)
        pos = [p + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
               for p, a1, a2, a3, a4 in zip(pos, k1p, k2p, k3p, k4p)]
        vel = [p + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
               for p, a1, a2, a3, a4 in zip(vel, k1v, k2v, k3v, k4v)]
    return pos


def test_geodesic_x_components_affine(rng):
    M = random_metric(rng, a=3, b=2, degree=2)
    P = rational_point(rng, M.n)
    v = rational_point(rng, M.n)
    for t in (Fraction(1, 3), Fraction(1), Fraction(5, 2)):
        Q = geodesic(M, P, v, t, quadrature="exact-poly")
        for i in range(M.a):
            assert Q[i] == P[i] + t * v[i]


def test_geodesic_residual_vanishes_exactly(rng):
    M = random_metric(rng, a=2, b=2, degree=2)
    P = rational_point(rng, M.n)
    v = rational_point(rng, M.n)
    for t in (Fraction(0), Fraction(1, 2), Fraction(2)):
        res = geodesic_residual(M, P, v, t, quadrature="exact-poly")
        assert res == 0


def test_geodesic_matches_rk4(rng):
    M = random_metric(rng, a=2, b=2, degree=2)
    P = rational_point(rng, M.n, num=2, den=2)
    v = rational_point(rng, M.n, num=2, den=2)
    exact = geodesic(M, P, v, Fraction(1), quadrature="exact-poly")
    approx = rk4_geodesic(M, P, v, 1.0)
    for c_exact, c_rk in zip(exact, approx):
        assert abs(float(c_exact) - c_rk) < 1e-8


def test_geodesic_path_consistency(rng):
    M = random_metric(rng, a=2, b=2, degree=2)
    P = rational_point(rng, M.n)
    v = rational_point(rng, M.n)
    ts = [Fraction(k, 4) for k in range(5)]
    g = geodesic_fit(M, P, v, ts, quadrature="exact-poly")
    path = [g.at(t) for t in ts]
    assert len(path) == 5
    assert tuple(path[0]) == tuple(P)
    for t, point in zip(ts, path):
        assert tuple(point) == tuple(geodesic(M, P, v, t, quadrature="exact-poly"))


def test_exp_inverse_roundtrip_exact(rng):
    M = random_metric(rng, a=2, b=2, degree=2)
    P = rational_point(rng, M.n)
    Q = rational_point(rng, M.n)
    v = exp_inverse(M, P, Q, quadrature="exact-poly")
    reached = geodesic(M, P, v, Fraction(1), quadrature="exact-poly")
    assert tuple(reached) == tuple(Q)


def test_adaptive_quadrature_agrees_with_exact(rng):
    M = random_metric(rng, a=2, b=2, degree=2)
    P = rational_point(rng, M.n, num=2, den=2)
    v = rational_point(rng, M.n, num=2, den=2)
    exact = geodesic(M, P, v, Fraction(1), quadrature="exact-poly")
    approx = geodesic(M, tuple(float(c) for c in P), tuple(float(c) for c in v), 1.0)
    for c_exact, c_adapt in zip(exact, approx):
        assert abs(float(c_exact) - c_adapt) < 1e-9


def test_unknown_quadrature_is_refused(rng):
    """A misspelt quadrature is an error, not a silent float fit; "adaptive"
    is what float data select, not an input."""
    M = random_metric(rng, a=2, b=2, degree=2)
    P = rational_point(rng, M.n)
    v = rational_point(rng, M.n)
    for name in ("exakt-poly", "adaptive", "Auto"):
        for call in (lambda: geodesic(M, P, v, 1, quadrature=name),
                     lambda: geodesic_fit(M, P, v, quadrature=name),
                     lambda: exp_inverse(M, P, v, quadrature=name)):
            with pytest.raises(ValueError, match="unknown quadrature"):
                call()
    assert geodesic_fit(M, P, v).quadrature == "exact-poly"


def exp_metric():
    x1 = FnExpr.var(1)
    return build_M_Phi(phi_family_specialized(x1.exp(), -((-x1).exp())))


def float_draw(rng):
    return (tuple(rng.uniform(-0.5, 0.5) for _ in range(14)),
            tuple(rng.uniform(-0.5, 0.5) for _ in range(14)))


def assert_points_close(got, want, tol=1e-13):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= tol * max(1.0, abs(w)), (got, want)


def test_float_fit_rebuilds_on_the_widened_hull(rng):
    """A t below 0 or beyond the fitted interval widens it; the point there
    matches a geodesic fitted on [0, t] alone."""
    M = exp_metric()
    for _ in range(3):
        P, v = float_draw(rng)
        g = geodesic_fit(M, P, v, (1.0,))
        assert g.span == (0.0, 1.0)
        for t, span in ((-0.7, (-0.7, 1.0)), (2.5, (-0.7, 2.5))):
            assert_points_close(g.at(t), geodesic(M, P, v, t))
            assert g.span == span
            assert g.converged
        assert g.at(0.0) == tuple(P)


def test_float_trace_rows_match_geodesic(rng):
    M = exp_metric()
    P, v = float_draw(rng)
    ts = (-0.5, 0.0, 0.4, 1.0, 2.0)
    buf = io.StringIO()
    geodesic_trace_csv(M, P, v, ts, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["t"] + M.labels()
    assert len(rows) == len(ts) + 1
    for t, row in zip(ts, rows[1:]):
        assert float(row[0]) == t
        assert_points_close([float(c) for c in row[1:]], geodesic(M, P, v, t))


def test_float_trace_builds_once(rng, monkeypatch):
    """The y'' samples of a three-point trace are those of one fit over
    [0, 1]; evaluating the series at each t samples nothing."""
    calls = []
    F = planewave._Geodesic._F

    def counted(self, f, s):
        calls.append(s)
        return F(self, f, s)

    monkeypatch.setattr(planewave._Geodesic, "_F", counted)
    M = exp_metric()
    P, v = float_draw(rng)
    geodesic_fit(M, P, v, (1.0,))
    one_build = len(calls)
    assert one_build > 0
    calls.clear()
    geodesic_trace_csv(M, P, v, (0.25, 0.5, 1.0), io.StringIO())
    assert len(calls) == one_build


def test_float_fit_rejects_non_finite_t(rng, ones_metric):
    """Float and exact-poly geodesics alike refuse a non-finite parameter,
    at every evaluation."""
    exact = (ones_metric, rational_point(rng), rational_point(rng))
    for M, P, v in ((exp_metric(),) + float_draw(rng), exact):
        g = geodesic_fit(M, P, v, (1,))
        for t in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                geodesic(M, P, v, t)
            for evaluate in (g.at, g.velocity, g.acceleration):
                with pytest.raises(ValueError, match="finite"):
                    evaluate(t)
    assert g.quadrature == "exact-poly"


def rational_function_metric():
    """A metric whose psi is the rational function 1/(x1 + 3): exact data
    that no polynomial integrates."""
    x1, x2 = FnExpr.var(1), FnExpr.var(2)
    return PlaneWaveMetric(2, 2, [[0, 1], [1, 0]],
                           {(0, 0): [1 / (x1 + 3), x2], (0, 1): [x1, FnExpr.const(0)]})


def test_rational_function_psi_takes_the_chebyshev_fit():
    M = rational_function_metric()
    assert not M.has_transcendental() and not M.is_polynomial()
    P = (Fraction(1, 2), Fraction(-1, 3), 1, Fraction(2), Fraction(-1), Fraction(1, 4))
    Q = (Fraction(1), Fraction(1, 3), Fraction(-1, 2), 0, Fraction(3, 2), 1)
    v = (Fraction(1, 2), Fraction(2, 3), 0, 0, Fraction(1), Fraction(-1, 2))
    with pytest.raises(ValueError, match="exact-poly"):
        geodesic(M, P, v, 1, quadrature="exact-poly")
    g = geodesic_fit(M, P, v, (1,))
    assert g.quadrature == "adaptive" and g.converged and g.fit["cheb_degree"] >= 16
    assert geodesic_residual(M, P, v, Fraction(1, 2)) < 1e-12
    w = exp_inverse(M, P, Q)
    assert_points_close(geodesic(M, P, w, 1), [float(c) for c in Q], 1e-12)


def test_float_fit_matches_exact_poly_to_rounding(rng):
    """On polynomial warping functions the Chebyshev fit reproduces the exact
    polynomial geodesic (points and velocities) up to rounding, before 0 and
    past 1 alike."""
    ts = (-0.7, 0.5, 1.0, 2.5)
    for _ in range(4):
        M = random_metric(rng, a=2, b=2, degree=2)
        P = rational_point(rng, M.n, num=2, den=2)
        v = rational_point(rng, M.n, num=2, den=2)
        exact = geodesic_fit(M, P, v, quadrature="exact-poly")
        fit = geodesic_fit(M, [float(c) for c in P], [float(c) for c in v], ts)
        assert fit.converged
        for t in ts:
            want = exact.at(Fraction(t))
            assert_points_close(fit.at(t), [float(c) for c in want], 1e-12)
            want = exact.velocity(Fraction(t))
            assert_points_close(fit.velocity(t), [float(c) for c in want], 1e-12)
