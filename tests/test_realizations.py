"""The two concrete 14-dimensional families: metric layout, published
curvature fixtures, frame normalization, the Xi invariant and the
local-symmetry criterion."""

import random
from fractions import Fraction

import pytest

from jtcurv import planewave, realizations
from jtcurv.expr import FnExpr
from jtcurv.planewave import (christoffel, covariant_derivative_R,
                              curvature_at, geodesic, metric_at,
                              nabla_R_component)
from jtcurv.realizations import (AFamily, PhiFamily, build_M_A, build_M_Phi,
                                 normalize_basis_0, normalize_basis_1,
                                 phi_family_specialized,
                                 symmetric_space_check,
                                 symmetric_space_residuals, verify_0_model,
                                 xi_from_frame, xi_invariant)

import helpers
from conftest import SYMMETRIC_A, random_afamily, rational_point
from helpers import (XXXX_BASIS_REFERENCE, YIDX, curvature_unit_fixtures,
                     curvature_xxxx_fixtures,
                     metric_at_reference, nabla_r_expected_full,
                     nabla_r_fixtures, normalize_basis_0_reference, typed,
                     verify_0_model_reference)


def linear_phi_family():
    """A polynomial family: phi_{1,j} linear with reciprocal slopes."""
    x1 = FnExpr.var(1)
    return phi_family_specialized(2 * x1 + 1, FnExpr.const(Fraction(1, 2)) * x1 - 3)


def exp_phi_family():
    x1 = FnExpr.var(1)
    return phi_family_specialized(x1.exp(), -((-x1).exp()))


def exp_mix_phi_family():
    # phi'_{1,1} = e^t + e^{2t}; the reciprocal antiderivative is
    # -e^{-t} - t + log(1 + e^t)
    x1 = FnExpr.var(1)
    phi11 = x1.exp() + FnExpr.const(Fraction(1, 2)) * (2 * x1).exp()
    phi12 = -((-x1).exp()) - x1 + (1 + x1.exp()).log()
    return phi_family_specialized(phi11, phi12)


# ---------------------------------------------------------------------------
# metric layout


def test_phi_family_rejects_non_reciprocal_pairs():
    x1 = FnExpr.var(1)
    with pytest.raises(ValueError):
        phi_family_specialized(2 * x1, 2 * x1)


def test_m_phi_metric_layout(rng):
    phi = linear_phi_family()
    M = build_M_Phi(phi)
    P = rational_point(rng, 14)
    g = metric_at(M, P).entries
    x1, x2, x3 = P[0], P[1], P[2]
    y = {pair: P[YIDX[pair]] for pair in YIDX}
    assert g[0][0] == -2 * x2 * y[(2, 1)] - 2 * x3 * y[(3, 1)]
    assert g[1][1] == -2 * x3 * y[(3, 2)] - 2 * phi[(1, 2)].eval(P[:1]) * y[(1, 2)]
    assert g[2][2] == (-2 * phi[(1, 1)].eval(P[:1]) * y[(1, 1)]
                       - 2 * x2 * y[(2, 2)])
    assert g[1][2] == x1 * y[(4, 1)]
    assert g[0][2] == x2 * y[(4, 2)]
    assert g[0][1] == 0
    for i in range(3):
        assert g[i][3 + i] == 1
    for i in (1, 2, 3):
        assert g[YIDX[(i, 1)]][YIDX[(i, 2)]] == 1
    assert g[YIDX[(4, 1)]][YIDX[(4, 1)]] == Fraction(-1, 2)
    assert g[YIDX[(4, 1)]][YIDX[(4, 2)]] == Fraction(1, 4)


def test_m_a_metric_layout(rng):
    A = random_afamily(rng)
    a = A.a
    M = build_M_A(A)
    P = rational_point(rng, 14)
    g = metric_at(M, P).entries
    x1, x2, x3 = P[0], P[1], P[2]
    y = {pair: P[YIDX[pair]] for pair in YIDX}
    assert g[0][0] == -2 * a[(2, 1)] * x2 * y[(2, 1)] - 2 * a[(3, 1)] * x3 * y[(3, 1)]
    assert g[1][1] == -2 * a[(3, 2)] * x3 * y[(3, 2)] - 2 * a[(1, 2)] * x1 * y[(1, 2)]
    assert g[2][2] == -2 * a[(1, 1)] * x1 * y[(1, 1)] - 2 * a[(2, 2)] * x2 * y[(2, 2)]
    assert g[0][1] == (2 * (1 - a[(2, 1)]) * x1 * y[(2, 1)]
                       + 2 * (1 - a[(1, 2)]) * x2 * y[(1, 2)])
    assert g[1][2] == (x1 * y[(4, 1)] + 2 * (1 - a[(3, 2)]) * x2 * y[(3, 2)]
                       + 2 * (1 - a[(2, 2)]) * x3 * y[(2, 2)])
    assert g[0][2] == (x2 * y[(4, 2)] + 2 * (1 - a[(3, 1)]) * x1 * y[(3, 1)]
                       + 2 * (1 - a[(1, 1)]) * x3 * y[(1, 1)])
    metric_at(M, P).signature()  # nondegenerate everywhere


# ---------------------------------------------------------------------------
# published component fixtures for the constant-coefficient family


def test_m_a_curvature_unit_components(rng):
    for _ in range(3):
        A = random_afamily(rng)
        M = build_M_A(A)
        P = rational_point(rng, 14)
        R = curvature_at(M, P)
        for idx, val in curvature_unit_fixtures().items():
            assert R.value(*idx) == val, idx


def test_m_a_curvature_xxxx_components(rng):
    for _ in range(3):
        A = random_afamily(rng)
        M = build_M_A(A)
        P = rational_point(rng, 14)
        R = curvature_at(M, P)
        for idx, val in curvature_xxxx_fixtures(A, P).items():
            assert R.value(*idx) == val, idx


def test_m_a_christoffel_table(rng):
    A = random_afamily(rng)
    a = A.a
    M = build_M_A(A)
    P = rational_point(rng, 14)
    gam = christoffel(M, P, kind="second")
    x1, x2, x3 = P[0], P[1], P[2]
    y = {pair: P[YIDX[pair]] for pair in YIDX}

    def col(i, j):
        return {f: gam.value(i, j, f) for f in range(14) if gam.value(i, j, f) != 0}

    assert col(0, 0) == {k: v for k, v in {
        4: (2 - a[(2, 1)]) * y[(2, 1)], 5: (2 - a[(3, 1)]) * y[(3, 1)],
        YIDX[(2, 2)]: a[(2, 1)] * x2, YIDX[(3, 2)]: a[(3, 1)] * x3}.items() if v != 0}
    assert col(1, 1) == {k: v for k, v in {
        3: (2 - a[(1, 2)]) * y[(1, 2)], 5: (2 - a[(3, 2)]) * y[(3, 2)],
        YIDX[(1, 1)]: a[(1, 2)] * x1, YIDX[(3, 1)]: a[(3, 2)] * x3}.items() if v != 0}
    assert col(2, 2) == {k: v for k, v in {
        3: (2 - a[(1, 1)]) * y[(1, 1)], 4: (2 - a[(2, 2)]) * y[(2, 2)],
        YIDX[(2, 1)]: a[(2, 2)] * x2, YIDX[(1, 2)]: a[(1, 1)] * x1}.items() if v != 0}
    assert col(0, 1) == {k: v for k, v in {
        3: -a[(2, 1)] * y[(2, 1)], 4: -a[(1, 2)] * y[(1, 2)],
        5: (y[(4, 1)] + y[(4, 2)]) / 2,
        YIDX[(1, 1)]: (a[(1, 2)] - 1) * x2,
        YIDX[(2, 2)]: (a[(2, 1)] - 1) * x1}.items() if v != 0}
    assert col(0, 2) == {k: v for k, v in {
        3: -a[(3, 1)] * y[(3, 1)], 4: (y[(4, 1)] - y[(4, 2)]) / 2,
        5: -a[(1, 1)] * y[(1, 1)],
        YIDX[(1, 2)]: (a[(1, 1)] - 1) * x3,
        YIDX[(3, 2)]: (a[(3, 1)] - 1) * x1,
        YIDX[(4, 1)]: Fraction(2, 3) * x2,
        YIDX[(4, 2)]: Fraction(4, 3) * x2}.items() if v != 0}
    assert col(1, 2) == {k: v for k, v in {
        3: (-y[(4, 1)] + y[(4, 2)]) / 2, 4: -a[(3, 2)] * y[(3, 2)],
        5: -a[(2, 2)] * y[(2, 2)],
        YIDX[(2, 1)]: (a[(2, 2)] - 1) * x3,
        YIDX[(3, 1)]: (a[(3, 2)] - 1) * x2,
        YIDX[(4, 1)]: Fraction(4, 3) * x1,
        YIDX[(4, 2)]: Fraction(2, 3) * x1}.items() if v != 0}


def test_m_a_nabla_r_matches_published_table(rng):
    A = random_afamily(rng)
    M = build_M_A(A)
    P = rational_point(rng, 14)
    for (idx4, e), val in nabla_r_fixtures(A, P).items():
        assert nabla_R_component(M, P, idx4, (e,)) == val, (idx4, e)


def test_m_a_nabla_r_support_is_exactly_the_table(rng):
    A = random_afamily(rng)
    M = build_M_A(A)
    P = rational_point(rng, 14)
    T = covariant_derivative_R(M, P, 1)
    assert dict(T.comps) == nabla_r_expected_full(A, P)


def test_all_ones_nabla_r_fixture():
    A = AFamily({(i, j): Fraction(1) for i in (1, 2, 3) for j in (1, 2)})
    M = build_M_A(A)
    P = tuple(Fraction(c) for c in (1, 2, 5, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1))
    assert nabla_R_component(M, P, (0, 1, 1, 0), (2,)) == -2 * P[2]


# ---------------------------------------------------------------------------
# frame normalization and the 0-model verification


def test_normalize_basis_0_reproduces_model(rng):
    A = random_afamily(rng)
    M = build_M_A(A)
    P = rational_point(rng, 14)
    rep = verify_0_model(M, P)
    assert rep.holds, rep.witness
    assert rep.stats["components_checked"] > 4000


def test_normalize_basis_0_matches_xxxx_basis_reference(monkeypatch):
    """The shift solve reads symmetry._KERNEL_TUPLES; the list it once had,
    five of whose components have the other sign, flips its rows and
    right-hand side together and gives the same frames, in value and type:
    exact and float M_A, and float M_Phi."""
    rng = random.Random(21)

    def float_point():
        return tuple(rng.uniform(-2.0, 2.0) for _ in range(14))

    cases = [(build_M_A(random_afamily(rng)), rational_point(rng)) for _ in range(5)]
    cases += [(build_M_A(AFamily({k: float(v) for k, v in random_afamily(rng).a.items()})),
               float_point()) for _ in range(5)]
    mphi = build_M_Phi(exp_phi_family())
    cases += [(mphi, float_point()) for _ in range(5)]
    frames = [normalize_basis_0(M, P).vectors for M, P in cases]
    monkeypatch.setattr(realizations, "_KERNEL_TUPLES", XXXX_BASIS_REFERENCE)
    for (M, P), got in zip(cases, frames):
        want = normalize_basis_0(M, P).vectors
        assert got == want
        assert {k: [type(x) for x in v] for k, v in got.items()} == \
            {k: [type(x) for x in v] for k, v in want.items()}


def frame_cases():
    """(metric, point) on both families: exact and float M_A (random, all
    a_ij = 1 and the hand-solved set) at exact, float and mixed points and
    with y = 0; M_Phi on the exponential and mixed families at float
    points and at the Xi points (x1, 0, ..., 0), |x1| up to 27."""
    rng = random.Random(22)
    ones = AFamily({(i, j): Fraction(1) for i in (1, 2, 3) for j in (1, 2)})
    cases = []
    for A in [random_afamily(rng) for _ in range(3)] + [ones, SYMMETRIC_A]:
        M = build_M_A(A)
        Mf = build_M_A(AFamily({k: float(v) for k, v in A.a.items()}))
        mixed = list(rational_point(rng))
        mixed[1], mixed[7], mixed[12] = 0.75, 0.25, -1.5
        cases += [(M, rational_point(rng)), (M, tuple(mixed)),
                  (M, rational_point(rng)[:6] + (Fraction(0),) * 8),
                  (Mf, tuple(rng.uniform(-2.0, 2.0) for _ in range(14))),
                  (Mf, rational_point(rng))]
    for M in (build_M_Phi(exp_phi_family()), build_M_Phi(exp_mix_phi_family())):
        cases += [(M, tuple(rng.uniform(-2.0, 2.0) for _ in range(14)))
                  for _ in range(4)]
        cases += [(M, (x1,) + (0.0,) * 13)
                  for x1 in (-27.0, -6.5, -0.3, 0.4, 2.25, 13.0, 27.0)]
    return cases


def test_normalize_basis_0_matches_dense_reference():
    """The frame is built from the nonzero data (R at the held keys, the
    nonzero C entries, the sparse shift solve); every vector entry and the
    metric it carries equal the dense construction's in value, type and
    sign (helpers.typed), and a degenerate point raises in both."""
    built = 0
    for M, P in frame_cases():
        try:
            want = normalize_basis_0_reference(M, P)
        except ValueError:
            with pytest.raises(ValueError):
                normalize_basis_0(M, P)
            continue
        frame = normalize_basis_0(M, P)
        assert list(frame.vectors) == list(want)
        assert typed(frame.vectors) == typed(want)
        assert typed(frame.metric.entries) == typed(metric_at_reference(M, P).entries)
        built += 1
    assert built >= 45


def test_shift_sums_turn_float_where_the_dense_sums_do(rng, monkeypatch):
    """A shift solve mixing a float t_i^1 with exact t_i^7 and t_i^8 (a
    point mixing exact and float coordinates can give one): the dense sum
    over mu turns float at t_i^1, before it adds the two exact terms 1/10
    and 1/5 of b4,1's x* entries, and so does the frame's sum."""
    t = [Fraction(0)] * 24
    for i in range(3):
        t[8 * i], t[8 * i + 6], t[8 * i + 7] = 0.5, Fraction(-1, 5), Fraction(4, 5)
    monkeypatch.setattr(realizations, "solve", lambda A, b: tuple(t))
    monkeypatch.setattr(helpers, "_solve_reference", lambda A, b: tuple(t))
    M, P = build_M_A(random_afamily(rng)), rational_point(rng)
    got = normalize_basis_0(M, P).vectors
    assert typed(got) == typed(normalize_basis_0_reference(M, P))
    assert got["b4,1"][3:6] == (-(0.1 + 0.2),) * 3 != (-0.3,) * 3


def test_frame_reads_held_keys_through_one_engine(rng, monkeypatch):
    """normalize_basis_0 computes R at the canonical keys M.riemann holds
    only, and verify_0_model and xi_invariant each build one _CovREngine:
    the frame's, which they read on."""
    engines, computed = [], []
    init, compute = planewave._CovREngine.__init__, planewave._CovREngine._compute

    def counted(self, *args):
        engines.append(self)
        init(self, *args)

    def recorded(self, idx4, dirs):
        computed.append((idx4, dirs))
        return compute(self, idx4, dirs)

    monkeypatch.setattr(planewave._CovREngine, "__init__", counted)
    monkeypatch.setattr(planewave._CovREngine, "_compute", recorded)
    mphi = build_M_Phi(exp_phi_family())
    for M, P in [(build_M_A(random_afamily(rng)), rational_point(rng)),
                 (mphi, tuple(rng.uniform(-1.0, 1.0) for _ in range(14)))]:
        frame = normalize_basis_0(M, P)
        assert computed and all(d == () and k in M.riemann for k, d in computed)
        assert engines == [frame.engine]
        engines.clear()
        assert verify_0_model(M, P, rel=1e-10).holds
        assert len(engines) == 1
        engines.clear()
        computed.clear()
    xi_invariant(build_M_Phi(exp_mix_phi_family()), (0.4,) + (0.0,) * 13)
    assert len(engines) == 1


def test_verify_0_model_m_phi_polynomial(rng):
    M = build_M_Phi(linear_phi_family())
    P = rational_point(rng, 14)
    assert verify_0_model(M, P).holds


def test_verify_0_model_m_phi_exponential(rng):
    M = build_M_Phi(exp_phi_family())
    P = tuple(rng.uniform(-1.0, 1.0) for _ in range(14))
    assert verify_0_model(M, P, rel=1e-10).holds


def assert_same_report(rep, ref, tol=0):
    """Equal verdicts, stats and witnesses; a float witness value may differ
    by tol, since the two paths sum in different orders."""
    assert (rep.holds, rep.stats) == (ref.holds, ref.stats)
    got, want = dict(rep.witness or {}), dict(ref.witness or {})
    g, w = got.pop("got", 0), want.pop("got", 0)
    assert got == want
    assert g == w if tol == 0 else abs(g - w) <= tol


def test_verify_0_model_matches_reference_exact(rng):
    for _ in range(3):
        M = build_M_A(random_afamily(rng))
        for _ in range(2):
            P = rational_point(rng)
            rep = verify_0_model(M, P)
            assert rep.holds and rep.stats == {"components_checked": 4186}
            assert_same_report(rep, verify_0_model_reference(M, P))


def test_verify_0_model_matches_reference_float(rng):
    M = build_M_Phi(exp_phi_family())
    for _ in range(3):
        P = tuple(rng.uniform(-0.5, 0.5) for _ in range(14))
        assert_same_report(verify_0_model(M, P, rel=1e-10),
                           verify_0_model_reference(M, P, rel=1e-10), 1e-12)


@pytest.mark.parametrize("P", [
    # large y coordinates: rounding errors beyond the absolute floor of
    # close(), in the inner products and in the curvature respectively
    (0.14, -0.35, 0.13, 0.37, 0.02, 0.24,
     343.0, -872.0, 516.0, 182.0, -397.0, -938.0, 731.0, -55.0),
    (0.27, -0.47, 0.07, 0.24, -0.19, -0.28, 60762.0, -52261.0, -62521.0,
     -12953.0, 39613.0, -79632.0, -35607.0, -33249.0),
    # phi'_{1,1} = e^{x_1} is below the zero threshold: degenerate point
    (-30.0,) + (0.0,) * 13,
])
def test_verify_0_model_matches_reference_failing_float(P):
    M = build_M_Phi(exp_phi_family())
    rep = verify_0_model(M, P, rel=1e-17)
    assert not rep.holds
    assert_same_report(rep, verify_0_model_reference(M, P, rel=1e-17), 1e-12)


def test_verify_0_model_float_form_at_large_coordinates():
    """<a1,a1> sums terms of size about 1e3 here and rounds to -2.9e-11:
    the form entries are compared against the size of their terms, so the
    point realizes the model at the default tolerance."""
    M = build_M_Phi(exp_phi_family())
    P = (0.14, -0.35, 0.13, 0.37, 0.02, 0.24,
         343, -872, 516, 182, -397, -938, 731, -55)
    g = metric_at(M, P)
    a1 = normalize_basis_0(M, P).vector("a1")
    assert g.apply(a1, a1) != 0 and abs(g.apply(a1, a1)) < 1e-10
    assert verify_0_model(M, P).holds
    assert verify_0_model_reference(M, P).holds


@pytest.mark.parametrize("canon", [(0, 1, 1, 7), (0, 1, 0, 1), (6, 7, 8, 9)])
def test_verify_0_model_matches_reference_altered_model(rng, monkeypatch, canon):
    """A model with one changed component fails at the same first index."""
    build = realizations.build_m14

    def altered():
        m = build()
        m.tensor.data[canon] = m.tensor.data.get(canon, 0) + Fraction(1, 3)
        return m

    monkeypatch.setattr(realizations, "build_m14", altered)
    cases = [(build_M_A(random_afamily(rng)), rational_point(rng), 0),
             (build_M_Phi(exp_phi_family()),
              tuple(rng.uniform(-0.5, 0.5) for _ in range(14)), 1e-12)]
    for M, P, tol in cases:
        rep = verify_0_model(M, P)
        assert not rep.holds and rep.witness["part"] == "tensor"
        assert_same_report(rep, verify_0_model_reference(M, P), tol)


def test_model_is_built_once_per_build_function(rng, monkeypatch):
    """verify_0_model and the family constructors share one model per build
    function: a replaced build_m14 is called once, however many points and
    families."""
    calls = []
    build = realizations.build_m14

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(realizations, "build_m14", counted)
    for _ in range(2):
        M = build_M_A(random_afamily(rng))
        for _ in range(3):
            assert verify_0_model(M, rational_point(rng)).holds
    assert verify_0_model(build_M_Phi(exp_phi_family()),
                          tuple(rng.uniform(-0.5, 0.5) for _ in range(14))).holds
    assert len(calls) == 1


def test_frame_is_deterministic(rng):
    A = random_afamily(rng)
    M = build_M_A(A)
    P = rational_point(rng, 14)
    f1 = normalize_basis_0(M, P)
    f2 = normalize_basis_0(M, P)
    assert f1.vectors == f2.vectors
    assert f1.ordered()[0] == f1.vector("a1")


# ---------------------------------------------------------------------------
# the Xi invariant


def test_xi_frame_equals_direct(rng):
    M = build_M_Phi(exp_mix_phi_family())
    for _ in range(3):
        P = [0.0] * 14
        P[0] = rng.uniform(-0.5, 1.0)
        frame_xi = xi_invariant(M, tuple(P), mode="frame")
        direct_xi = xi_invariant(M, tuple(P), mode="direct")
        assert abs(frame_xi.value - direct_xi.value) <= 1e-9 * max(
            1.0, abs(direct_xi.value))


def test_xi_exponential_family_vanishes():
    M = build_M_Phi(exp_phi_family())
    for x1 in (0.0, 0.3, 1.0, -0.7):
        P = [0.0] * 14
        P[0] = x1
        assert abs(xi_invariant(M, tuple(P), mode="direct").value) < 1e-12


def test_xi_mixed_family_not_constant():
    M = build_M_Phi(exp_mix_phi_family())

    def at(x1):
        P = [0.0] * 14
        P[0] = x1
        return xi_invariant(M, tuple(P), mode="direct").value

    assert abs(at(0.3) - at(1.1)) > 1e-3


def test_xi_invariant_under_admissible_frame_change(rng):
    M = build_M_Phi(exp_mix_phi_family())
    P = [0.0] * 14
    P[0] = 0.4
    P = tuple(P)
    frame = normalize_basis_1(M, P)
    base = xi_from_frame(M, P, frame.vectors).value

    def scaled(vecs, factors):
        return tuple(tuple(f * c for c in v) for v, f in zip(vecs, factors))

    a1v, a2v, a3v = (frame.vector(f"a{i}") for i in (1, 2, 3))
    b11, b12 = frame.vector("b1,1"), frame.vector("b1,2")
    for (s1, s2, s3) in ((2.0, 3.0, 1 / 6), (-2.0, 1.0, 0.5)):
        eps = s1 * s2 * s3
        assert abs(abs(eps) - 1.0) < 1e-12
        # diagonal rescaling of the normalized frame
        ta1, ta2, ta3 = scaled((a1v, a2v, a3v), (s1, s2, s3))
        tb11 = tuple(eps * s2 / s3 * c for c in b11)
        tb12 = tuple(eps * s3 / s2 * c for c in b12)
        v = xi_from_frame(M, P, {"a1": ta1, "a2": ta2, "a3": ta3,
                                 "b1,1": tb11, "b1,2": tb12}).value
        assert abs(v - base) <= 1e-10 * max(1.0, abs(base))
        # rescaling combined with exchanging the second and third directions
        tb11s = tuple(eps * s3 / s2 * c for c in b12)
        tb12s = tuple(eps * s2 / s3 * c for c in b11)
        v2 = xi_from_frame(M, P, {"a1": ta1, "a2": ta3, "a3": ta2,
                                  "b1,1": tb11s, "b1,2": tb12s}).value
        assert abs(v2 - base) <= 1e-10 * max(1.0, abs(base))


def test_normalize_basis_1_rejects_a_vanishing_pattern():
    """On the symmetric M_A the first required contraction vanishes."""
    M = build_M_A(SYMMETRIC_A)
    with pytest.raises(ValueError) as err:
        normalize_basis_1(M, (1, 2, -1) + (0,) * 11)
    assert str(err.value) == ("derivative pattern ('a1', 'a3', 'a3', 'b1,1', "
                              "'a1') vanishes; the point violates the "
                              "normalization hypotheses")


def test_normalize_basis_1_rejects_an_unexpected_component():
    """With phi_{2,j} exponential as well, a contraction outside the two
    patterns survives; the message names it by its frame labels."""
    def exp(i, s):
        """s exp(s x_i), as the README's phi.json writes it"""
        x = {"var": i} if s == 1 else {"op": "*", "args": [-1, {"var": i}]}
        e = {"op": "exp", "args": [x]}
        return e if s == 1 else {"op": "*", "args": [-1, e]}

    phi = {"1,1": exp(1, 1), "1,2": exp(1, -1), "2,1": exp(2, 1),
           "2,2": exp(2, -1), "3,1": {"var": 3}, "3,2": {"var": 3}}
    M = build_M_Phi(PhiFamily.from_json({"phi": phi}))
    with pytest.raises(ValueError) as err:
        normalize_basis_1(M, (0.5, 0.25) + (0.0,) * 12)
    head, _, val = str(err.value).partition("): ")
    assert head == ("unexpected nonzero derivative component ('a1', 'a2', "
                    "'a1', 'b2,1', 'a2'")
    assert abs(float(val) + 1) < 1e-12


# ---------------------------------------------------------------------------
# the local-symmetry criterion


def test_symmetric_space_residuals_all_ones():
    A = AFamily({(i, j): Fraction(1) for i in (1, 2, 3) for j in (1, 2)})
    assert symmetric_space_residuals(A) == (1, 5, 5)


def test_hand_solved_set_is_locally_symmetric():
    assert symmetric_space_residuals(SYMMETRIC_A) == (0, 0, 0)
    rep = symmetric_space_check(SYMMETRIC_A, points=4)
    assert rep.holds


def test_hand_solved_set_nabla_r_vanishes_exactly(rng):
    M = build_M_A(SYMMETRIC_A)
    for _ in range(3):
        P = rational_point(rng, 14)
        assert covariant_derivative_R(M, P, 1).is_zero()


def test_non_symmetric_draw_is_rejected(rng):
    A = random_afamily(rng)
    if all(r == 0 for r in symmetric_space_residuals(A)):
        pytest.skip("random draw accidentally symmetric")
    rep = symmetric_space_check(A, points=3)
    assert not rep.holds
    assert rep.witness["nabla_R_index"] is not None


def test_equations_match_published_coefficients():
    # residuals are linear in each single coefficient around zero
    zero = AFamily({(i, j): Fraction(0) for i in (1, 2, 3) for j in (1, 2)})
    r0 = symmetric_space_residuals(zero)
    assert r0 == (-2, -4, -4)


# ---------------------------------------------------------------------------
# geodesics through the concrete families


def test_m_a_geodesic_exact(rng):
    M = build_M_A(random_afamily(rng))
    P = rational_point(rng, 14)
    v = rational_point(rng, 14)
    Q = geodesic(M, P, v, Fraction(1), quadrature="exact-poly")
    for i in range(3):
        assert Q[i] == P[i] + v[i]


def test_family_json_roundtrips(rng):
    A = random_afamily(rng)
    A2 = AFamily.from_json(A.to_json())
    assert A2.a == A.a
    phi = linear_phi_family()
    phi2 = PhiFamily.from_json(phi.to_json())
    pt = [Fraction(1, 2)]
    for key in phi.phi:
        i = key[0]
        xs = [Fraction(1, 2)] * i
        assert phi[key].eval(xs) == phi2[key].eval(xs)
