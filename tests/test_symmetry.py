"""Symmetry group of the 14-dimensional model: explicit generators, the
restriction to the alpha* block, and the 21-parameter kernel."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtcurv import (dilatation, is_symmetry, kernel_basis_b,
                    kernel_constraint_matrix, kernel_element,
                    random_kernel_element, rotation, swap_first_second,
                    swap_first_third, tau)
from jtcurv import symmetry
from jtcurv.expr import FnExpr
from jtcurv.linalg import (BilinearForm, identity, mat_inv, mat_mul, rank,
                           transpose)
from jtcurv.models import (M14_LABELS, CurvatureTensor, Model0,
                           canonicalize_riemann, riemann_orbit)
from jtcurv.planewave import curvature_at
from jtcurv.realizations import (build_M_A, build_M_Phi, normalize_basis_0,
                                 phi_family_specialized)
from jtcurv.scalars import REL_TOL, close
from jtcurv.symmetry import lift, pullback

from conftest import random_afamily, rational_point
from helpers import (canonical_part, dilatation_reference,
                     kernel_matrix_reference, pullback_reference,
                     random_kernel_element_reference, rotation_reference,
                     swap_first_second_reference, swap_first_third_reference,
                     tensor_value_reference, typed)


def det3(T):
    return (T[0][0] * (T[1][1] * T[2][2] - T[1][2] * T[2][1])
            - T[0][1] * (T[1][0] * T[2][2] - T[1][2] * T[2][0])
            + T[0][2] * (T[1][0] * T[2][1] - T[1][1] * T[2][0]))


def test_swap_generators(m14):
    for T in (swap_first_second(), swap_first_third()):
        assert is_symmetry(m14, T).holds
        assert mat_mul(T, T) == identity(14)  # involutions
        assert det3(tau(T)) == -1


def test_rotation_generator(m14):
    T = rotation(Fraction(3, 5), Fraction(4, 5))
    assert is_symmetry(m14, T).holds
    assert det3(tau(T)) == 1


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_rotation_pythagorean_family(m14, p, q):
    # (c, s) = ((p^2-q^2)/(p^2+q^2), 2pq/(p^2+q^2)) is always on the circle
    d = p * p + q * q
    c, s = Fraction(p * p - q * q, d), Fraction(2 * p * q, d)
    assert is_symmetry(m14, rotation(c, s)).holds


def test_rotation_rejects_off_circle():
    with pytest.raises(ValueError):
        rotation(Fraction(1, 2), Fraction(1, 2))


def test_dilatation_generator(m14):
    T = dilatation(Fraction(2), Fraction(1, 2), Fraction(1))
    assert is_symmetry(m14, T).holds
    t = tau(T)
    assert t == [[Fraction(1, 2), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(1)]]


def test_dilatation_requires_unit_product():
    with pytest.raises(ValueError):
        dilatation(Fraction(2), Fraction(1), Fraction(1))


def assert_same_matrix(got, want):
    """Equal in value and in the type of every entry."""
    assert got == want
    assert [[type(x) for x in row] for row in got] == \
        [[type(x) for x in row] for row in want]


def test_generators_match_reference_tables():
    """lift of the four generators' 3x3 matrices gives the hand-derived
    tables, in value and type: the README parameters, every pythagorean pair
    with 1 <= q < p <= 6 under all four sign choices, and every unit
    dilatation with entries in {+-1, +-2, +-1/2, +-3, +-1/3}."""
    assert_same_matrix(swap_first_second(), swap_first_second_reference())
    assert_same_matrix(swap_first_third(), swap_first_third_reference())
    rotations = [(Fraction(3, 5), Fraction(4, 5))]
    for p in range(2, 7):
        for q in range(1, p):
            d = p * p + q * q
            c, s = Fraction(p * p - q * q, d), Fraction(2 * p * q, d)
            rotations += [(u * c, v * s) for u in (1, -1) for v in (1, -1)]
    for c, s in rotations:
        assert_same_matrix(rotation(c, s), rotation_reference(c, s))
    units = [u * a for u in (1, -1)
             for a in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(1, 3))]
    dilatations = [(Fraction(2), Fraction(1, 2), Fraction(1))]
    dilatations += [a for a in itertools.product(units, repeat=3)
                    if a[0] * a[1] * a[2] == 1]
    assert len(dilatations) > 40
    for a in dilatations:
        assert_same_matrix(dilatation(*a), dilatation_reference(*a))


def random_sl_pm3(rng):
    """A rational 3x3 matrix of determinant +-1: a product of shears
    1 + t E_ij, a unit diagonal and, half the time, a swap."""
    g = identity(3)
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(3), 2)
        shear = identity(3)
        shear[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        g = mat_mul(g, shear)
    a = Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 3))
    g = mat_mul(g, [[a, 0, 0], [0, 1 / a, 0], [0, 0, Fraction(1)]])
    if rng.random() < 0.5:
        i, j = rng.sample(range(3), 2)
        swap = identity(3)
        swap[i][i] = swap[j][j] = Fraction(0)
        swap[i][j] = swap[j][i] = Fraction(1)
        g = mat_mul(swap, g)
    return g


def test_lift_is_a_homomorphism_into_the_symmetries(m14):
    """On seeded rational elements of SL_pm(3), shears among them:
    lift(g h) = lift(g) lift(h), tau(lift(g)) = g^-t, and lift(g) is a
    symmetry."""
    rng = random.Random(21)
    gs = [random_sl_pm3(rng) for _ in range(21)]
    assert {det3(g) for g in gs} == {1, -1}
    lifts = [lift(g) for g in gs]
    for g, T in zip(gs, lifts):
        assert tau(T) == transpose(mat_inv(g))
        assert is_symmetry(m14, T).holds
    for k in range(len(gs) - 1):
        assert lift(mat_mul(gs[k], gs[k + 1])) == mat_mul(lifts[k], lifts[k + 1])


def test_lift_rejects_determinant_two():
    with pytest.raises(ValueError):
        lift([[Fraction(2), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]])


def test_non_symmetry_has_witness(m14):
    T = identity(14)
    T[0][0] = Fraction(2)  # scale a1 alone: breaks <a1, a1*> = 1
    rep = is_symmetry(m14, T)
    assert not rep.holds
    assert rep.witness["part"] == "form"


def test_tensor_witness_when_form_preserved(m14):
    # swap the two beta_4 directions only: preserves the form block but
    # permutes curvature components
    T = identity(14)
    i, j = M14_LABELS.index("b4,1"), M14_LABELS.index("b4,2")
    T[i][i] = T[j][j] = Fraction(0)
    T[i][j] = T[j][i] = Fraction(1)
    rep = is_symmetry(m14, T)
    assert not rep.holds
    # the first canonical index, in sorted order, whose component moved
    assert rep.witness == {"part": "tensor", "index": ("a1", "a2", "a3", "b4,1"),
                           "expected": Fraction(-1, 2), "got": Fraction(1, 2)}
    assert rep.stats == {}


def test_composition_closure(m14):
    T = mat_mul(swap_first_second(),
                mat_mul(rotation(Fraction(3, 5), Fraction(4, 5)),
                        dilatation(Fraction(3), Fraction(1, 3), Fraction(1))))
    assert is_symmetry(m14, T).holds
    assert abs(det3(tau(T))) == 1


def test_pullback_identity(m14):
    # pullback returns the canonical components only, which for T = 1 are
    # the model's own
    T = identity(14)
    G = m14.form.entries
    assert mat_mul(transpose(T), mat_mul(G, T)) == G
    assert pullback(m14.tensor.data, T) == m14.tensor.data


def assert_pullback_matches_reference(comps, T, rel=None):
    """pullback of the canonical components comps through T equals the
    canonical part of the slot-by-slot contraction of their full orbit: in
    value and type when rel is None, otherwise within rel times the largest
    component."""
    got = pullback(comps, T)
    full = {tup: s * v for key, v in comps.items() for tup, s in riemann_orbit(key)}
    want = canonical_part(pullback_reference(full, T))
    if rel is None:
        assert got == want
        assert {k: type(v) for k, v in got.items()} == \
            {k: type(v) for k, v in want.items()}
        return
    scale = max(abs(v) for v in want.values())
    for idx in got.keys() | want.keys():
        assert abs(got.get(idx, 0) - want.get(idx, 0)) <= rel * scale, idx


#: the CLI's generators, with the README's parameters
GENERATORS = {
    "swap12": swap_first_second, "swap13": swap_first_third,
    "rotation": lambda: rotation(Fraction(3, 5), Fraction(4, 5)),
    "dilatation": lambda: dilatation(Fraction(2), Fraction(1, 2), Fraction(1)),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_pullback_matches_slot_reference_on_generators(m14, name):
    T = GENERATORS[name]()
    assert_pullback_matches_reference(m14.tensor.data, T)
    floats = [[float(x) for x in row] for row in T]
    assert_pullback_matches_reference(m14.tensor.data, floats, rel=1e-12)


def test_pullback_matches_slot_reference_on_kernel_elements(m14):
    rng = random.Random(14)
    for _ in range(20):
        T = random_kernel_element(m14, rng)
        assert_pullback_matches_reference(m14.tensor.data, T)
        floats = [[float(x) for x in row] for row in T]
        assert_pullback_matches_reference(m14.tensor.data, floats, rel=1e-12)


def sparse_matrix(rng, n, density):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             if rng.random() < density else Fraction(0) for _ in range(n)]
            for _ in range(n)]


def canonical_tensor(rng, n, count):
    """Random nonzero components on count random canonical indices
    i<j, k<l, (i,j) <= (k,l) of dimension n (no Bianchi identity)."""
    pairs = list(itertools.combinations(range(n), 2))
    comps = {}
    for _ in range(count):
        p, q = sorted(rng.choices(pairs, k=2))
        comps[p + q] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))
    return comps


def test_pullback_matches_slot_reference_on_random_sparse_matrices(m14):
    rng = random.Random(15)
    for _ in range(20):
        T = sparse_matrix(rng, 14, 0.15)
        assert_pullback_matches_reference(m14.tensor.data, T)
        comps = canonical_tensor(rng, 6, 12)
        assert_pullback_matches_reference(comps, sparse_matrix(rng, 6, 0.4))


def test_pullbacks_compose(m14):
    """Input and output share the canonical format, so pull-backs compose:
    pulling back through T1 and then T2 is pulling back through T1 T2."""
    rng = random.Random(18)
    Ts = [make() for make in GENERATORS.values()]
    Ts += [random_kernel_element(m14, rng) for _ in range(3)]
    Ts += [sparse_matrix(rng, 14, 0.1) for _ in range(3)]
    A = m14.tensor.data
    for T1 in Ts:
        A1 = pullback(A, T1)
        for T2 in Ts:
            assert pullback(A1, T2) == pullback(A, mat_mul(T1, T2))


def test_pullback_matches_slot_reference_on_frames():
    """The normalized frames verify_0_model pulls curvature_at back through:
    exact on M_A at rational points, to rounding on M_Phi at float points."""
    rng = random.Random(16)
    cases = [(build_M_A(random_afamily(rng)), rational_point(rng), None)
             for _ in range(4)]
    x1 = FnExpr.var(1)
    mphi = build_M_Phi(phi_family_specialized(x1.exp(), -((-x1).exp())))
    cases += [(mphi, tuple(rng.uniform(-0.5, 0.5) for _ in range(14)), 1e-12)
              for _ in range(3)]
    for M, P, rel in cases:
        T = transpose(normalize_basis_0(M, P).ordered())
        assert_pullback_matches_reference(canonical_part(curvature_at(M, P).comps), T, rel)


def form_witness_reference(m, T, rel=REL_TOL):
    """The first u <= v where mat_mul(T^t, G T) differs from G, as
    check_pullback reports it, or None."""
    cols = transpose(T)
    got = mat_mul(cols, mat_mul(m.form.entries, T))
    want = m.form.entries
    for u in range(m.n):
        for v in range(u, m.n):
            if not close(got[u][v], want[u][v], rel=rel) and not close(
                    got[u][v], want[u][v], rel=rel,
                    scale=m.form.scale(cols[u], cols[v])):
                return {"part": "form", "index": (m.label(u), m.label(v)),
                        "expected": want[u][v], "got": got[u][v]}
    return None


def test_form_witness_matches_mat_mul_reference(m14):
    """The form side sums only the entries u <= v of T^t G T; its witness is
    mat_mul's, in value and type, for Fraction, float and int matrices."""
    rng = random.Random(17)
    swap = [[int(x) for x in row] for row in swap_first_second()]
    for _ in range(10):
        K = random_kernel_element(m14, rng)
        for base in (K, [[float(x) for x in row] for row in K], swap):
            T = [row[:] for row in base]
            T[rng.randrange(14)][rng.randrange(14)] += rng.choice(
                [Fraction(1, 7), -2, 1])
            # and with a column cleared, so that an entry sums no term
            cleared = [row[:] for row in T]
            c = rng.randrange(14)
            for row in cleared:
                row[c] = 0
            for broken in (T, cleared):
                want = form_witness_reference(m14, broken)
                assert want is not None
                rep = is_symmetry(m14, broken)
                assert rep.witness == want
                assert type(rep.witness["got"]) is type(want["got"])


def test_symmetry_counts_the_canonical_components(m14):
    # p = 14 * 13 / 2 index pairs, p (p + 1) / 2 canonical components
    assert is_symmetry(m14, identity(14)).stats == {"components_checked": 4186}


def test_float_symmetry_compares_form_against_its_terms(m14):
    """A float kernel element with b of size about 400: its inner products
    sum terms of size about 1e5 and round to about 1e-11 off the model's
    values, beyond the absolute floor of close().  Each is compared against
    the size of the terms it sums, so rounding alone does not reject T."""
    rng = random.Random(0)
    flat = [Fraction(0)] * 24
    for v in kernel_basis_b(m14):
        c = Fraction(rng.randint(-3, 3) * 1000, 7)
        flat = [x + c * y for x, y in zip(flat, v)]
    T = kernel_element(m14, [flat[8 * i:8 * (i + 1)] for i in range(3)])
    T = [[float(x) for x in row] for row in T]
    G = m14.form.entries
    Gp = mat_mul(transpose(T), mat_mul(G, T))
    assert any(abs(Gp[u][v] - G[u][v]) > 1e-12
               for u in range(14) for v in range(u, 14))
    assert is_symmetry(m14, T).holds


# ---------------------------------------------------------------------------
# kernel of the restriction homomorphism


def test_kernel_constraint_rank(m14):
    rows = kernel_constraint_matrix(m14)
    assert len(rows) == 6 and len(rows[0]) == 24
    assert rank(rows) == 6
    basis = kernel_basis_b(m14)
    assert len(basis) == 18
    # 18 translation parameters plus 3 skew parameters
    assert len(basis) + 3 == 21


def test_kernel_elements_are_symmetries(m14):
    rng = random.Random(11)
    for _ in range(20):
        T = random_kernel_element(m14, rng)
        assert is_symmetry(m14, T).holds
        assert tau(T) == identity(3)


def test_random_kernel_element_builds_constraints_once(m14, monkeypatch):
    calls = []
    build = symmetry.kernel_constraint_matrix
    monkeypatch.setattr(symmetry, "kernel_constraint_matrix",
                        lambda m: calls.append(m) or build(m))
    rng = random.Random(11)
    for k in range(1, 4):
        random_kernel_element(m14, rng)
        assert len(calls) == k


def test_kernel_element_rejects_bad_b(m14):
    bad = [[Fraction(1)] + [Fraction(0)] * 7 for _ in range(3)]
    rows = kernel_constraint_matrix(m14)
    flat = [x for row in bad for x in row]
    if all(sum(r * x for r, x in zip(row, flat)) == 0 for row in rows):
        pytest.skip("chosen b accidentally admissible")
    with pytest.raises(ValueError):
        kernel_element(m14, bad)


def test_kernel_element_rejects_non_skew_c(m14):
    b = [[Fraction(0)] * 8 for _ in range(3)]
    c = [[Fraction(1) if i == j else Fraction(0) for j in range(3)]
         for i in range(3)]
    with pytest.raises(ValueError):
        kernel_element(m14, b, c)


def test_kernel_skew_only_element(m14):
    b = [[Fraction(0)] * 8 for _ in range(3)]
    c = [[0, Fraction(2), 0], [Fraction(-2), 0, Fraction(5)],
         [0, Fraction(-5), 0]]
    T = kernel_element(m14, b, c)
    assert is_symmetry(m14, T).holds
    assert tau(T) == identity(3)


# ---------------------------------------------------------------------------
# the sparse kernel sums and tensor reads against the dense ones, entry for
# entry in value and type (typed compares floats by float.hex)


def _float_variants(m):
    """m with a float form (its zeros 0.0 too), a float tensor, or both."""
    G = [[float(x) for x in row] for row in m.form.entries]
    A = CurvatureTensor(m.n)
    A.data = {idx: float(v) for idx, v in m.tensor.data.items()}
    return {"form": Model0(BilinearForm(G), m.tensor, labels=m.labels),
            "tensor": Model0(m.form, A, labels=m.labels),
            "both": Model0(BilinearForm(G), A, labels=m.labels)}


def _admissible_b(m, rng):
    flat = [Fraction(0)] * 24
    for v in kernel_basis_b(m):
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 4)))  # dyadic: exact as a float
        flat = [x + c * y for x, y in zip(flat, v)]
    return [flat[8 * i:8 * (i + 1)] for i in range(3)]


def test_random_kernel_elements_match_dense_reference(m14):
    """200 seeded draws: every entry of T is the dense combination's, and
    both take the same draws (their generators end in the same state)."""
    rng, ref = random.Random(23), random.Random(23)
    for _ in range(200):
        T = random_kernel_element(m14, rng)
        assert typed(T) == typed(random_kernel_element_reference(m14, ref))
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("variant", ["form", "tensor", "both"])
def test_random_kernel_elements_match_dense_reference_on_float_models(m14, variant):
    m = _float_variants(m14)[variant]
    rng, ref = random.Random(5), random.Random(5)
    for _ in range(10):
        T = random_kernel_element(m, rng)
        assert typed(T) == typed(random_kernel_element_reference(m, ref))


@pytest.mark.parametrize("c_skew", [
    None, [[0] * 3] * 3,
    [[0, Fraction(2), Fraction(-1, 3)], [Fraction(-2), 0, 5], [Fraction(1, 3), -5, 0]],
    [[0.0, 0.5, -0.0], [-0.5, 0.0, 0.0], [0.0, -0.0, 0.0]],
])
@pytest.mark.parametrize("variant", ["exact", "form", "tensor", "both"])
def test_kernel_element_matches_dense_reference(m14, c_skew, variant):
    m = m14 if variant == "exact" else _float_variants(m14)[variant]
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    rng = random.Random(7)
    for b in [[[Fraction(0)] * 8 for _ in range(3)]] + [_admissible_b(m14, rng) for _ in range(5)]:
        want = kernel_matrix_reference(m, b, zero if c_skew is None else c_skew)
        assert typed(kernel_element(m, b, c_skew)) == typed(want)


def test_tensor_value_matches_signed_product(m14):
    """Every 4-tuple of indices, exact and float tensors: an absent or
    forced component is Fraction(0), and a negated float is -1 * v bit for
    bit."""
    A = CurvatureTensor(14)
    A.data = {idx: float(v) for idx, v in m14.tensor.data.items()}
    A.data[0, 1, 0, 1] = 1e-300
    A.data[0, 1, 0, 2] = -1 / 3
    for tensor in (m14.tensor, A):
        for idx in itertools.product(range(14), repeat=4):
            assert typed(tensor.value(*idx)) == typed(tensor_value_reference(tensor, *idx))
    for (i, j, k, l), v in A.data.items():
        assert canonicalize_riemann((j, i, k, l)) == ((i, j, k, l), -1)
        assert A.value(j, i, k, l).hex() == (-1 * v).hex()


def test_float_lift_outside_binary64_is_rejected(m14):
    """An entry that overflows (a1/a2 = 1e320) or a product of nonzero
    factors that underflows to 0.0 raises ValueError naming the entry;
    inside the range the float lift is a symmetry."""
    for a in ((1e160, 1e-160, 1.0), (1e-250, 1e125, 1e125)):
        with pytest.raises(ValueError, match=r"lift entry \(b\d,\d, b\d,\d\) leaves binary64"):
            dilatation(*a)
    assert is_symmetry(m14, dilatation(1e150, 1e-150, 1.0)).holds
