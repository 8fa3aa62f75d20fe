"""The nabla^k R table (PlaneWaveMetric.nabla_riemann) and its point
evaluator _CovREngine, against the pointwise recursion kept in
helpers.nabla_R_reference (assert_matches_reference says what is compared).
Exact values must agree in value and type, floats to 1e-12 relative."""

import itertools
import random
from fractions import Fraction

from jtcurv.models import canonicalize_riemann
from jtcurv.expr import FnExpr
from jtcurv.planewave import (PlaneWaveMetric, _CovREngine, covariant_derivative_R,
                              first_nonzero_component, nabla_R_contract,
                              nabla_R_frame)
from jtcurv.realizations import build_M_A, build_M_Phi, symmetric_space_check
from jtcurv.scalars import is_exact

from conftest import SYMMETRIC_A, random_afamily, rational_point
from helpers import (covariant_derivative_R_reference, first_nonzero_reference,
                     nabla_R_frame_reference, nabla_R_reference, nabla_R_support,
                     symmetric_space_check_reference)
from test_geometry import partials_upto_2, random_metric, table_partial
from test_realizations import exp_mix_phi_family, exp_phi_family

FLOAT_REL = 1e-12


#: largest relative difference seen on float components
WORST = {"rel": 0.0}


def same(v, w):
    """Exact: equal values, and equal types unless both are zero (the
    reference's empty sums are int 0).  Float: within
    FLOAT_REL of the larger magnitude, or of 1 below it; a component that
    the pair symmetries force to vanish is an exact 0 in the table."""
    if is_exact(w):
        return v == w and (w == 0 or type(v) is type(w))
    rel = abs(v - w) / max(1.0, abs(v), abs(w))
    WORST["rel"] = max(WORST["rel"], rel)
    return (not is_exact(v) or v == 0) and rel <= FLOAT_REL


def sparse_vector(rng, n, exact):
    """Two random coordinates of n set, so contractions stay small."""
    v = [0] * n
    for i in rng.sample(range(n), 2):
        v[i] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return tuple(v) if exact else tuple(float(c) for c in v)


def assert_matches_reference(M, P, rng, canonical_k2=False):
    """Every support index for k <= 2 (with canonical_k2, for k = 2 only
    those whose first four indices are canonical: the table is keyed by
    them, and the signs of the other ones are checked at k <= 1); partials
    up to order 2 for k <= 1 on six indices of each order, read off the table
    entries by table_partial; contractions on sparse random vectors for
    k <= 2."""
    eng, ref = _CovREngine(M, P), nabla_R_reference(M, P)
    for k in range(3):
        for idx in nabla_R_support(M, k):
            if k == 2 and canonical_k2 and canonicalize_riemann(idx[:4])[0] != idx[:4]:
                continue
            v, w = eng.value(idx[:4], idx[4:]), ref.value(idx[:4], idx[4:])
            assert same(v, w), (k, idx, v, w)
    partials = partials_upto_2(M)
    for k in range(2):
        for idx in rng.sample(list(nabla_R_support(M, k)), 6):
            for p in partials:
                v = table_partial(M, P, idx[:4], idx[4:], p)
                w = ref.value(idx[:4], idx[4:], p)
                assert same(v, w), (k, idx, p, v, w)
    for k in range(3):
        vecs = [sparse_vector(rng, M.n, is_exact(P[0])) for _ in range(4 + k)]
        v = nabla_R_frame(M, P, vecs[:4], vecs[4:])
        w = nabla_R_frame(M, P, vecs[:4], vecs[4:], engine=ref)
        assert same(v, w), (k, v, w)


def test_nabla_table_matches_reference_on_random_metrics():
    rng = random.Random(20261018)
    for _ in range(40):
        M = random_metric(rng, a=rng.choice((2, 3)), b=rng.randint(1, 8))
        assert_matches_reference(M, rational_point(rng, M.n), rng, canonical_k2=True)


def test_nabla_table_matches_reference_on_m_a():
    rng = random.Random(20261019)
    ones = {(i, j): Fraction(1) for i in (1, 2, 3) for j in (1, 2)}
    for A in (random_afamily(rng), SYMMETRIC_A, type(SYMMETRIC_A)(ones)):
        M = build_M_A(A)
        assert_matches_reference(M, rational_point(rng), rng)


def test_nabla_table_matches_reference_on_m_phi():
    rng = random.Random(20261020)
    for fam in (exp_phi_family(), exp_mix_phi_family()):
        M = build_M_Phi(fam)
        P = tuple(rng.uniform(-0.5, 0.5) for _ in range(M.n))
        assert_matches_reference(M, P, rng)
    print(f"largest relative float difference: {WORST['rel']:.3g}")


def test_nabla_table_support_rule(rng):
    """Entries with an x* index or two y indices are empty, y factors occur
    on pure-x keys only, and every key is canonical."""
    M = random_metric(rng, a=3, b=3)
    ys = [M.yi(mu) for mu in range(M.b)]
    assert M.nabla_riemann((0, 1, 0, M.xsi(2)), (1,)) == []
    assert M.nabla_riemann((0, 1, 0, ys[0]), (ys[1],)) == []
    covariant_derivative_R(M, rational_point(rng, M.n), 2)
    assert M._nabla
    for (key, dirs), terms in M._nabla.items():
        assert canonicalize_riemann(key) == (key, 1), key
        kinds = [M.coord_kind(t) for t in key + dirs]
        if "x*" in kinds or kinds.count("y") > 1:
            assert terms == []
        if any(y is not None for _, _, y in terms):
            assert kinds == ["x"] * len(kinds), (key, dirs)


def test_exact_components_are_fractions(rng):
    """At an exact point every component is a Fraction, the empty sums and
    the pair-symmetry zeros included."""
    M = random_metric(rng, a=2, b=3)
    eng = _CovREngine(M, rational_point(rng, M.n))
    indices = itertools.chain(itertools.product(range(M.n), repeat=4),
                              itertools.product(range(M.n), repeat=5),
                              nabla_R_support(M, 2))
    for idx in indices:
        assert type(eng.value(idx[:4], idx[4:])) is Fraction, idx


def test_nabla_build_leaves_the_other_tables_alone(rng):
    """Building nabla^2 R reads M.riemann and M.gamma and writes neither."""
    for M in (random_metric(rng, a=3, b=5), build_M_A(random_afamily(rng))):
        riemann = {k: list(v) for k, v in M.riemann.items()}
        gamma = {k: {f: list(t) for f, t in row.items()} for k, row in M.gamma.items()}
        covariant_derivative_R(M, rational_point(rng, M.n), 2)
        assert M.riemann == riemann
        assert M.gamma == gamma


def test_tables_are_lazy():
    """A fresh metric holds no built table."""
    M = build_M_A(random_afamily(random.Random(3)))
    assert (M._gamma, M._riemann, M._nabla) == (None, None, {})


# ---------------------------------------------------------------------------
# canonical-entry scans and the frame contraction against the plain loops of
# tests/helpers.py: dicts in the same order, values of the same type


def random_point(rng, n, exact):
    P = rational_point(rng, n)
    return P if exact else tuple(float(c) for c in P)


def test_covariant_derivative_matches_support_scan():
    """Keys, values, types and iteration order of the nabla^k R dict equal
    the scan of every support tuple, k <= 2, at exact and float points."""
    rng = random.Random(20261101)
    for trial in range(12):
        M = random_metric(rng, a=rng.choice((2, 3)), b=rng.randint(1, 4))
        P = random_point(rng, M.n, exact=trial % 2 == 0)
        for k in range(3):
            got = covariant_derivative_R(M, P, k).comps
            want = covariant_derivative_R_reference(M, P, k).comps
            assert repr(list(got.items())) == repr(list(want.items())), (trial, k)
    for A in (random_afamily(rng), SYMMETRIC_A):
        M, P = build_M_A(A), rational_point(rng)
        got = covariant_derivative_R(M, P, 1).comps
        want = covariant_derivative_R_reference(M, P, 1).comps
        assert repr(list(got.items())) == repr(list(want.items()))


def test_frame_contraction_matches_support_product():
    """nabla_R_contract (one call for many requests) and nabla_R_frame equal
    the product over the coordinate supports, on sparse random vectors that
    include x* entries and repeated vectors: exact values in value and type
    (an int 0 where nothing nonzero is reached), floats to FLOAT_REL."""
    rng = random.Random(20261102)
    for trial in range(16):
        M = random_metric(rng, a=rng.choice((2, 3)), b=rng.randint(1, 4))
        exact = trial % 2 == 0
        P = random_point(rng, M.n, exact)
        vecs = []
        for _ in range(6):
            v = [0] * M.n
            for i in rng.sample(range(M.n), 3):
                v[i] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            vecs.append(tuple(v) if exact else tuple(float(c) for c in v))
        requests = [tuple(rng.randrange(6) for _ in range(4 + rng.randint(0, 2)))
                    for _ in range(24)]
        requests += [(0, 0, 1, 2), (0, 1, 1, 0, 2), (2, 3, 2, 3, 4, 4)]
        got = nabla_R_contract(M, P, vecs, requests)
        for req, v in zip(requests, got):
            w = nabla_R_frame_reference(M, P, [vecs[s] for s in req[:4]],
                                        [vecs[s] for s in req[4:]])
            if exact:
                assert repr(v) == repr(w), (trial, req, v, w)
            else:
                assert type(v) is type(w) and same(v, w), (trial, req, v, w)
            assert repr(nabla_R_frame(M, P, [vecs[s] for s in req[:4]],
                                      [vecs[s] for s in req[4:]])) == repr(v)


def test_first_nonzero_matches_lazy_scan():
    """The witness of the symmetric scan is the first nonzero component in
    the order of nabla_R_support, on M_A draws (symmetric or not) and on
    random metrics."""
    rng = random.Random(20261103)
    cases = [(build_M_A(A), rational_point(rng))
             for A in (SYMMETRIC_A, random_afamily(rng), random_afamily(rng))]
    for _ in range(8):
        M = random_metric(rng, a=rng.choice((2, 3)), b=rng.randint(1, 3), degree=2)
        cases.append((M, rational_point(rng, M.n)))
    for M, P in cases:
        for k in (1, 2):
            got = first_nonzero_component(M, P, k)
            assert repr(got) == repr(first_nonzero_reference(M, P, k)), k


def test_first_nonzero_with_a_y_index():
    """psi_11 = x2^2 (a = 2, b = 1, C = [[1]]) at x2 = y1 = 0: every
    nonzero nabla R component has a y index, so a search over the x-type
    entries alone finds nothing."""
    M = PlaneWaveMetric(2, 1, [[Fraction(1)]], {(0, 0): [FnExpr.var(2) ** 2]})
    P = (Fraction(1, 3), Fraction(0), Fraction(2), Fraction(-1), Fraction(0))
    comps = covariant_derivative_R(M, P, 1).comps
    assert len(comps) == 12
    assert all(M.yi(0) in idx for idx in comps)
    first = first_nonzero_component(M, P, 1)
    assert first == ((4, 0, 0, 1, 1), Fraction(-2)) == next(iter(comps.items()))
    assert repr(first) == repr(first_nonzero_reference(M, P, 1))


def test_symmetric_check_matches_lazy_scan():
    """Reports (verdict, stats, witness) equal those of the lazy scan over
    nabla_R_support, for the hand-solved symmetric set and random draws."""
    rng = random.Random(20261104)
    for d, A in enumerate([SYMMETRIC_A] + [random_afamily(rng) for _ in range(5)]):
        got = symmetric_space_check(A, rng=random.Random(d), points=3)
        want = symmetric_space_check_reference(A, rng=random.Random(d), points=3)
        assert repr(got) == repr(want), d
