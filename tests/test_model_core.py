"""Algebraic checks of the 14-dimensional model: construction, operator
tables, curvature-commutation properties and their witnesses."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtcurv import (CurvatureTensor, Model0, Operator, build_m14,
                    check_property, invariant_spans, jacobi, jacobi_polarized,
                    skew, validate_curvature_symmetries)
from jtcurv import models
from jtcurv.linalg import BilinearForm, rank
from jtcurv.models import (M14_LABELS, PROPERTY_KINDS, canonicalize_riemann,
                           riemann_orbit)
from jtcurv.scalars import iszero

from helpers import canonicalize_riemann_reference, dense

HALF = Fraction(1, 2)


def vec(m, *terms):
    """Linear combination of labelled basis vectors: vec(m, (c, 'b1,1'), ...)."""
    out = [Fraction(0)] * m.n
    for c, name in terms:
        out[M14_LABELS.index(name)] += Fraction(c)
    return tuple(out)


# ---------------------------------------------------------------------------
# orbit bookkeeping

idx_st = st.tuples(*[st.integers(min_value=0, max_value=5)] * 4)


def test_canonicalize_riemann_is_the_orbit_minimum():
    """The closed form returns the least signed tuple of the orbit, with an
    int sign, on every index 4-tuple over the 14 coordinates of the model,
    the (None, 0) cases included."""
    for idx in itertools.product(range(14), repeat=4):
        got, want = canonicalize_riemann(idx), canonicalize_riemann_reference(idx)
        assert got == want and type(got[1]) is int, (idx, got, want)


@given(idx_st)
def test_orbit_members_share_canonical_form(idx):
    canon, sign = canonicalize_riemann(idx)
    if canon is None:
        assert idx[0] == idx[1] or idx[2] == idx[3]
        return
    assert sign in (1, -1)
    for tup, s in riemann_orbit(idx):
        c2, s2 = canonicalize_riemann(tup)
        assert c2 == canon
        assert s2 * s == sign


def test_tensor_set_rejects_conflicts():
    t = CurvatureTensor(4)
    t.set((0, 1, 2, 3), Fraction(1))
    # same orbit, opposite sign under a single transposition
    assert t.value(1, 0, 2, 3) == -1
    assert t.value(2, 3, 0, 1) == 1
    with pytest.raises(ValueError):
        t.set((1, 0, 2, 3), Fraction(1))
    with pytest.raises(ValueError):
        t.set((0, 0, 2, 3), Fraction(1))


def test_bianchi_violation_detected():
    t = CurvatureTensor(4)
    t.set((0, 1, 2, 3), Fraction(1))  # lone component cannot satisfy Bianchi
    rep = validate_curvature_symmetries(t)
    assert not rep.holds
    assert rep.witness == {"bianchi_tuple": (0, 1, 2, 3), "residual": 1}
    # the full scan's position of (0, 1, 2, 3) over the support {0, 1, 2, 3}
    assert rep.stats == {"tuples_checked": ((0 * 4 + 1) * 4 + 2) * 4 + 3 + 1}


def bianchi_full_scan(t):
    """(holds, witness, stats) of validate_curvature_symmetries, by the
    four-deep loop over every 4-tuple of the support, in lexicographic order,
    stopping at the first nonzero Bianchi sum."""
    idxs = sorted({i for idx in t.data for i in idx})
    count = 0
    for i, j, k, l in itertools.product(idxs, repeat=4):
        s = t.value(i, j, k, l) + t.value(j, k, i, l) + t.value(k, i, j, l)
        count += 1
        if not iszero(s):
            w = {"bianchi_tuple": (i, j, k, l), "residual": s}
            return False, w, {"tuples_checked": count}
    return True, None, {"tuples_checked": count}


def _bianchi_report(t):
    rep = validate_curvature_symmetries(t)
    return rep.holds, rep.witness, rep.stats


def _random_tensor(rng, n, entry):
    """A product-model tensor (Bianchi holds) or an empty one, plus up to
    three random components drawn by entry(rng)."""
    t = CurvatureTensor(n)
    if rng.random() < 0.5:
        S = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    S[i][j] = S[j][i] = Fraction(rng.randint(-2, 2))
        t = product_model(S, [[int(i == j) for j in range(n)] for i in range(n)]).tensor
    for _ in range(rng.randint(0, 3)):
        canon, _ = canonicalize_riemann(tuple(rng.randrange(n) for _ in range(4)))
        if canon is not None:
            t.data[canon] = entry(rng)
    return t


def test_bianchi_matches_full_scan(m14):
    assert _bianchi_report(m14.tensor) == bianchi_full_scan(m14.tensor)
    # the support of m14's tensor has 11 indices
    assert _bianchi_report(m14.tensor)[2] == {"tuples_checked": 11 ** 4}
    verdicts = set()
    for seed in range(300):
        rng = random.Random(seed)
        t = _random_tensor(rng, rng.randint(3, 7), lambda r: Fraction(
            r.choice([-2, -1, 1, 3]), r.randint(1, 3)))
        got = _bianchi_report(t)
        assert got == bianchi_full_scan(t), seed
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_bianchi_float_tensor_matches_full_scan():
    # a float entry takes the full scan: a product model with float S holds
    # up to round-off, and a stray float component fails
    S = [[0.1, 0.7, 0.0], [0.7, 0.3, -1.3], [0.0, -1.3, 0.2]]
    t = product_model(S, [[int(i == j) for j in range(3)] for i in range(3)]).tensor
    assert _bianchi_report(t) == bianchi_full_scan(t)
    assert _bianchi_report(t)[0]
    for seed in range(20):
        rng = random.Random(seed)
        t = _random_tensor(rng, rng.randint(3, 6), lambda r: r.uniform(-2, 2))
        assert _bianchi_report(t) == bianchi_full_scan(t), seed


# ---------------------------------------------------------------------------
# the 14-dimensional model itself


def test_m14_signature(m14):
    assert m14.form.signature() == (8, 6)


def test_m14_curvature_symmetries(m14):
    assert validate_curvature_symmetries(m14.tensor).holds


def test_m14_json_roundtrip(m14):
    clone = Model0.from_json(m14.to_json())
    assert clone.form.entries == m14.form.entries
    assert clone.tensor == m14.tensor
    assert clone.labels == m14.labels


# the full polarized-operator table J(alpha_i, alpha_j) alpha_k
JTABLE = {
    (1, 1, 2): [(1, "b2,2")], (1, 1, 3): [(1, "b3,2")],
    (2, 2, 1): [(1, "b1,1")], (2, 2, 3): [(1, "b3,1")],
    (3, 3, 1): [(1, "b1,2")], (3, 3, 2): [(1, "b2,1")],
    (1, 2, 1): [(-HALF, "b2,2")], (1, 2, 2): [(-HALF, "b1,1")],
    (1, 3, 1): [(-HALF, "b3,2")], (1, 3, 3): [(-HALF, "b1,2")],
    (2, 3, 2): [(-HALF, "b3,1")], (2, 3, 3): [(-HALF, "b2,1")],
    (1, 3, 2): [(1, "b4,2")], (2, 3, 1): [(1, "b4,1")],
    (1, 2, 3): [(-1, "b4,1"), (-1, "b4,2")],
}


def test_polarized_jacobi_table(m14):
    alpha = {i: m14.labelled_vector(f"a{i}") for i in (1, 2, 3)}
    for i in (1, 2, 3):
        for j in (i, i + 1, i + 2):
            if j > 3:
                continue
            op = jacobi_polarized(m14, alpha[i], alpha[j])
            for k in (1, 2, 3):
                got = op.apply(alpha[k])
                want = vec(m14, *JTABLE.get((i, j, k), []))
                assert got == want, (i, j, k)


def test_beta4_dual_basis(m14):
    b41s = vec(m14, (Fraction(-8, 3), "b4,1"), (Fraction(-4, 3), "b4,2"))
    b42s = vec(m14, (Fraction(-4, 3), "b4,1"), (Fraction(-8, 3), "b4,2"))
    for dual, row in ((b41s, (1, 0)), (b42s, (0, 1))):
        for col, name in enumerate(("b4,1", "b4,2")):
            got = m14.form.apply(dual, m14.labelled_vector(name))
            assert got == row[col]


def _jtable_vectors(m14):
    return {key: vec(m14, *terms) for key, terms in JTABLE.items()}


# the displayed nonzero inner products; star entries evaluate to -1/2
JPAIR_TABLE = {
    ((1, 1, 2), (3, 3, 2)): 1, ((1, 1, 2), (2, 3, 3)): -HALF,
    ((1, 2, 1), (3, 3, 2)): -HALF, ((1, 2, 1), (2, 3, 3)): HALF / 2,
    ((1, 1, 3), (2, 2, 3)): 1, ((1, 1, 3), (2, 3, 2)): -HALF,
    ((1, 3, 1), (2, 2, 3)): -HALF, ((2, 3, 2), (1, 3, 1)): HALF / 2,
    ((2, 2, 1), (3, 3, 1)): 1, ((2, 2, 1), (1, 3, 3)): -HALF,
    ((1, 2, 2), (3, 3, 1)): -HALF, ((1, 2, 2), (1, 3, 3)): HALF / 2,
    ((1, 2, 3), (1, 2, 3)): -HALF, ((1, 2, 3), (1, 3, 2)): HALF / 2,
    ((1, 2, 3), (2, 3, 1)): HALF / 2, ((1, 3, 2), (1, 3, 2)): -HALF,
    ((1, 3, 2), (2, 3, 1)): HALF / 2, ((2, 3, 1), (2, 3, 1)): -HALF,
}


def test_jacobi_image_inner_products_exhaustive(m14):
    jvec = _jtable_vectors(m14)
    keys = sorted(set(JTABLE) | {(i, j, k) for i in (1, 2, 3)
                                 for j in (i, i + 1, i + 2) if j <= 3
                                 for k in (1, 2, 3)})
    table = {}
    for a in keys:
        for b in keys:
            if a > b:
                continue
            u = jvec.get(a, vec(m14))
            v = jvec.get(b, vec(m14))
            p = m14.form.apply(u, v)
            if p != 0:
                table[(a, b)] = p
    normalized = {tuple(sorted(k)): v for k, v in JPAIR_TABLE.items()}
    assert table == normalized


def test_inner_product_symmetry_pairings(m14):
    jvec = _jtable_vectors(m14)

    def ip(a, b):
        return m14.form.apply(jvec.get(a, vec(m14)), jvec.get(b, vec(m14)))

    # the six displayed equalities certifying commutation
    assert ip((1, 1, 2), (2, 3, 3)) == -HALF == ip((1, 1, 3), (2, 3, 2))
    assert ip((1, 2, 3), (1, 3, 2)) == HALF / 2 == ip((1, 2, 2), (1, 3, 3))
    assert ip((1, 2, 1), (3, 3, 2)) == -HALF == ip((1, 2, 2), (3, 3, 1))
    assert ip((1, 2, 3), (2, 3, 1)) == HALF / 2 == ip((1, 2, 1), (2, 3, 3))
    assert ip((1, 3, 1), (2, 2, 3)) == -HALF == ip((1, 3, 3), (2, 2, 1))
    assert ip((1, 3, 2), (2, 3, 1)) == HALF / 2 == ip((1, 3, 1), (2, 3, 2))


# ---------------------------------------------------------------------------
# witnesses


def test_iterated_jacobi_witness(m14):
    a1 = m14.labelled_vector("a1")
    j2 = jacobi(m14, m14.labelled_vector("a2"))
    j3 = jacobi(m14, m14.labelled_vector("a3"))
    assert j2.apply(a1) == m14.labelled_vector("b1,1")
    assert j3.apply(j2.apply(a1)) == m14.labelled_vector("a1*")


def test_skew_noncommutation_witness(m14):
    a = {i: m14.labelled_vector(f"a{i}") for i in (1, 2, 3)}
    A12 = skew(m14, a[1], a[2])
    A13 = skew(m14, a[1], a[3])
    lhs = A12.apply(A13.apply(a[3]))
    rhs = A13.apply(A12.apply(a[3]))
    assert lhs == vec(m14, (-1, "a2*"))
    assert rhs == vec(m14, (Fraction(1, 3), "a2*"))


# ---------------------------------------------------------------------------
# property checkers


def test_jacobi_tsankov_holds(m14):
    rep = check_property(m14, "jacobi-tsankov")
    assert rep.holds
    assert rep.stats["pairs_checked"] == 105 * 104 // 2


def test_mixed_tsankov_holds(m14):
    rep = check_property(m14, "mixed-tsankov")
    assert rep.holds
    assert rep.stats["pairs_checked"] == 91 * 105


def test_jacobi_square_zero_holds(m14):
    assert check_property(m14, "jacobi-square-zero").holds


def test_two_step_jacobi_fails_with_witness(m14):
    rep = check_property(m14, "2-step-jacobi-nilpotent")
    assert not rep.holds
    w = rep.witness
    assert w["vector"].startswith("a")
    # the residual lands in the alpha* block
    nz = [M14_LABELS[i] for i, v in enumerate(w["residual"]) if v != 0]
    assert nz and all(name.endswith("*") for name in nz)


def test_skew_tsankov_fails(m14):
    assert not check_property(m14, "skew-tsankov").holds


def test_remaining_kinds_fail(m14):
    assert not check_property(m14, "2-step-skew-nilpotent").holds
    assert not check_property(m14, "mixed-nilpotent-tsankov").holds


def test_unknown_kind_rejected(m14):
    with pytest.raises(ValueError):
        check_property(m14, "no-such-kind")


# ---------------------------------------------------------------------------
# invariant subspaces


def in_span(v, basis):
    return rank(list(basis) + [v]) == len(basis)


def test_invariant_spans(m14):
    v1, v2 = invariant_spans(m14)
    assert len(v1) == 11  # span of all beta and alpha* directions
    assert len(v2) == 3   # span of the alpha* directions
    for name in ("b1,1", "b4,2", "a2*"):
        assert in_span(m14.labelled_vector(name), v1)
    for name in ("a1*", "a2*", "a3*"):
        assert in_span(m14.labelled_vector(name), v2)
    assert not in_span(m14.labelled_vector("a1"), v1)
    assert not in_span(m14.labelled_vector("b1,1"), v2)


def test_jacobi_images_land_in_invariant_spans(m14, rng):
    v1, v2 = invariant_spans(m14)
    for _ in range(5):
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(14))
        y = tuple(Fraction(rng.randint(-3, 3)) for _ in range(14))
        img = jacobi(m14, x).apply(y)
        assert in_span(img, v1)
        img2 = jacobi(m14, y).apply(img)
        assert in_span(img2, v2)


# ---------------------------------------------------------------------------
# a constant-curvature style cross model (exercises the checkers off m14)


def product_model(S, form_entries):
    """A(x,y,z,w) = S(x,w)S(y,z) - S(x,z)S(y,w) for symmetric S."""
    n = len(S)
    t = CurvatureTensor(n)
    seen = set()
    for idx in itertools.product(range(n), repeat=4):
        canon, _ = canonicalize_riemann(idx)
        if canon is None or canon in seen:
            continue
        seen.add(canon)
        i, j, k, l = canon
        t.set(canon, S[i][l] * S[j][k] - S[i][k] * S[j][l])
    return Model0(BilinearForm(form_entries), t)


def test_product_model_is_valid_curvature(rng):
    n = 4
    S = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            S[i][j] = S[j][i] = Fraction(rng.randint(-2, 2))
    form = [[Fraction(int(i == j)) * (1 if i < 2 else -1) for j in range(n)]
            for i in range(n)]
    m = product_model(S, form)
    assert validate_curvature_symmetries(m.tensor).holds


# ---------------------------------------------------------------------------
# reference: the full scan over every original pair or monomial, no span


def _nonzero_or_last(*ops):
    return next((op for op in ops if not op.is_zero()), ops[-1])


def full_scan(m, kind):
    """(holds, witness, stats) of check_property, by evaluating the relation
    on every pair of polarized basis operators (every quartic monomial for
    jacobi-square-zero) in scan order and stopping at the first failure."""
    n = m.n
    e = [m.basis_vector(i) for i in range(n)]
    jp = [(i, j) for i in range(n) for j in range(i, n)]
    sp = [(i, j) for i in range(n) for j in range(i + 1, n)]
    J = {p: jacobi_polarized(m, e[p[0]], e[p[1]]) for p in jp}
    A = {p: skew(m, e[p[0]], e[p[1]]) for p in sp}

    def witness(wkind, left, right, op):
        mat = dense(op)
        col = next(c for c in range(n) if any(row[c] for row in mat))
        return {"kind": wkind, "left_pair": [m.label(i) for i in left],
                "right_pair": [m.label(i) for i in right],
                "vector": m.label(col),
                "residual": [row[col] for row in mat]}

    if kind == "jacobi-square-zero":
        quads = list(itertools.combinations_with_replacement(range(n), 4))
        for count, quad in enumerate(quads, 1):
            total = Operator(n, {})
            for perm in set(itertools.permutations(quad)):
                p, q = tuple(sorted(perm[:2])), tuple(sorted(perm[2:]))
                # whole products: an entry that cancelled to 0.0 stays 0.0
                total = total + J[p] @ J[q]
            if not total.is_zero():
                w = witness("square-coefficient", quad[:2], quad[2:], total)
                return False, w, {"monomials_checked": count}
        return True, None, {"monomials_checked": len(quads)}

    if kind == "jacobi-tsankov":
        cases = ((p, q, "commutator", J[p].commutator(J[q]))
                 for a, p in enumerate(jp) for q in jp[a + 1:])
    elif kind == "2-step-jacobi-nilpotent":
        cases = ((p, q, "product", J[p] @ J[q]) for p in jp for q in jp)
    elif kind == "skew-tsankov":
        cases = ((p, q, kind, A[p].commutator(A[q]))
                 for a, p in enumerate(sp) for q in sp[a + 1:])
    elif kind == "2-step-skew-nilpotent":
        cases = ((p, q, kind, A[p] @ A[q]) for p in sp for q in sp)
    elif kind == "mixed-tsankov":
        cases = ((p, q, kind, A[p].commutator(J[q])) for p in sp for q in jp)
    else:
        assert kind == "mixed-nilpotent-tsankov"
        cases = ((p, q, kind, _nonzero_or_last(A[p] @ J[q], J[q] @ A[p]))
                 for p in sp for q in jp)
    count = 0
    for left, right, wkind, res in cases:
        count += 1
        if not res.is_zero():
            w = witness(wkind, left, right, res)
            return False, w, {"pairs_checked": count}
    stats = {"pairs_checked": count}
    if kind == "jacobi-tsankov":
        stats["polarized_operators"] = len(jp)
    return True, None, stats


def _report(m, kind):
    rep = check_property(m, kind)
    return rep.holds, rep.witness, rep.stats


@pytest.mark.parametrize("kind", ["2-step-jacobi-nilpotent", "skew-tsankov",
                                  "2-step-skew-nilpotent",
                                  "mixed-nilpotent-tsankov"])
def test_m14_failing_kinds_match_full_scan(m14, kind):
    assert repr(_report(m14, kind)) == repr(full_scan(m14, kind))


def seeded_product_model(seed, exact):
    """A product model on 3-6 dimensions with S entries k (exact) or 0.7 k
    (float), k in -2..2, drawn from seed."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    density = 0.4 if seed % 2 else 0.2  # sparser S: some properties hold
    S = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                v = rng.randint(-2, 2)
                S[i][j] = S[j][i] = Fraction(v) if exact else 0.7 * v
    form = [[Fraction(int(i == j)) * (1 if i < n // 2 + 1 else -1)
             for j in range(n)] for i in range(n)]
    return product_model(S, form)


def test_product_models_match_full_scan():
    """Seeds 0-29 are exact models, 30-39 float ones.  Reports are compared
    by repr: == takes 0.0 for Fraction(0) and would hide a changed type."""
    outcomes = {(kind, exact): set() for kind in PROPERTY_KINDS
                for exact in (True, False)}
    for seed in range(40):
        exact = seed < 30
        m = seeded_product_model(seed, exact)
        for kind in PROPERTY_KINDS:
            got = _report(m, kind)
            assert repr(got) == repr(full_scan(m, kind)), (seed, kind)
            outcomes[kind, exact].add(got[0])
    # every kind both holds and fails on exact and on float models, so no
    # branch is vacuous
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


@pytest.mark.parametrize("seed", [45, 57])
def test_square_zero_float_witness_keeps_cancelled_entries(seed):
    """On these float models a residual entry of the jacobi-square-zero
    witness cancels to 0.0: it reads 0.0, as in the pair kinds, not
    Fraction(0)."""
    m = seeded_product_model(seed, exact=False)
    got = _report(m, "jacobi-square-zero")
    assert repr(got) == repr(full_scan(m, "jacobi-square-zero"))
    residual = got[1]["residual"]
    assert any(type(v) is float and v == 0 for v in residual), residual


# ---------------------------------------------------------------------------
# the operator families, built once per model


def _assert_families_match_single_builds(m):
    e = [m.basis_vector(i) for i in range(m.n)]
    jpairs, jops = m.families["jacobi"]
    spairs, sops = m.families["skew"]
    assert jpairs == [(i, j) for i in range(m.n) for j in range(i, m.n)]
    assert spairs == [(i, j) for i in range(m.n) for j in range(i + 1, m.n)]
    for (i, j), op in zip(jpairs, jops):
        got, ref = dense(op), dense(jacobi_polarized(m, e[i], e[j]))
        assert got == ref, ("jacobi", i, j)
        assert [[type(v) for v in row] for row in got] == \
            [[type(v) for v in row] for row in ref]
    for (i, j), op in zip(spairs, sops):
        got, ref = dense(op), dense(skew(m, e[i], e[j]))
        assert got == ref, ("skew", i, j)
        assert [[type(v) for v in row] for row in got] == \
            [[type(v) for v in row] for row in ref]


def test_families_equal_single_builds(m14):
    _assert_families_match_single_builds(m14)
    for seed in range(6):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        S = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    S[i][j] = S[j][i] = Fraction(rng.randint(-2, 2))
        form = [[Fraction(int(i == j)) * (1 if i < n // 2 + 1 else -1)
                 for j in range(n)] for i in range(n)]
        if seed == 0:  # float form entries: float raising, same summation order
            form = [[0.3 if i == j else 0.1 for j in range(n)] for i in range(n)]
            S[0][1] = S[1][0] = 0.7
        _assert_families_match_single_builds(product_model(S, form))


def test_families_are_built_once_per_model(monkeypatch):
    calls = []
    build = models._basis_families
    monkeypatch.setattr(models, "_basis_families",
                        lambda m: calls.append(m) or build(m))
    m = build_m14()
    first = check_property(m, "skew-tsankov")
    again = check_property(m, "skew-tsankov")
    check_property(m, "mixed-tsankov")
    invariant_spans(m)
    assert len(calls) == 1
    assert (first.holds, first.witness, first.stats) == \
        (again.holds, again.witness, again.stats)
