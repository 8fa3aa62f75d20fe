"""Symmetry group of a 0-model, specialized helpers for the 14-dimensional
model: the lift of SL_pm(3) and its four named generators, the restriction
homomorphism tau, and the 21-parameter kernel of tau.

Matrices act on column vectors; column j of T holds the image of basis
vector e_j.

T is a symmetry when it carries the inner product and the curvature tensor
to themselves: T^t G T = G, and A(T e_u, T e_v, T e_w, T e_z) = A(u,v,w,z)
on the canonical indices u<v, w<z, (u,v) <= (w,z).  Both sides are one
congruence X^t S X, _congruence: S = G with the rows of T, and, as A is
antisymmetric within each index pair, S = A on the exterior square with the
wedge rows W[(i,j)][(u,v)] = T_iu T_jv - T_ju T_iv for pairs i<j, u<v:

    A'(uv, wz) = sum over pairs p, q of W[p][uv] A(p, q) W[q][wz].

Only the entries u <= v are formed, so only the canonical components of A'.

Group structure.  With beta_nu identified with the trace-free matrix X_nu
of _BETA_MATRICES, lift(g) for g in SL_pm(3) acts as g on the alphas, as
g^-t on the alpha*s and as det(g) Ad(g) on the betas (without the det twist
no identification intertwines the four generators).  lift is a homomorphism
and tau(lift(g)) = g^-t, so the symmetries that preserve span(alpha*) with
det tau = +-1 are ker tau x| lift(SL_pm(3)), of Lie algebra dimension
8 + 21 = 29: sl(3), and the b (18) and skew c (3) parameters of
kernel_element.  That every symmetry is one of these is the paper's claim,
not computed here.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .linalg import nullspace_basis, transpose
from .models import M14_LABELS, CheckReport, Model0
from .scalars import REL_TOL, as_divisor, close, is_exact

_LAB = {name: i for i, name in enumerate(M14_LABELS)}

#: column order of the b-coefficient variables (the nu index of beta_nu)
BETA_LABELS = tuple(name for name in M14_LABELS if name.startswith("b"))
_BETA_IDX = [_LAB[b] for b in BETA_LABELS]
_ALPHA = [_LAB["a1"], _LAB["a2"], _LAB["a3"]]
_STAR = [_LAB["a1*"], _LAB["a2*"], _LAB["a3*"]]

_ZERO, _ONE, _HALF = Fraction(0), Fraction(1), Fraction(1, 2)
#: X_nu, in BETA_LABELS order, as {(p, q): x} over the 0-based matrix units:
#: E23, -E32, E31, -E13, -E21, E12, (E33 - E22) / 2 and (E11 - E33) / 2
_BETA_MATRICES = ({(1, 2): 1}, {(2, 1): -1}, {(2, 0): 1}, {(0, 2): -1},
                  {(1, 0): -1}, {(0, 1): 1}, {(2, 2): _HALF, (1, 1): -_HALF},
                  {(0, 0): _HALF, (2, 2): -_HALF})
#: each X_nu has one entry x off (2, 2), where no other X_mu has one, so the
#: beta_nu coordinate of a trace-free Y is Y there over x: {(r, s): (nu, 1/x)}
_BETA_READ = {rs: (nu, int(1 / Fraction(x))) for nu, X in enumerate(_BETA_MATRICES)
              for rs, x in X.items() if rs != (2, 2)}


def _cofactors(g):
    """(C, det g) for a 3x3 matrix g, C = det(g) g^-t its cofactor matrix,
    each sign from the cyclic order of rows and columns."""
    C = [[g[(i + 1) % 3][(j + 1) % 3] * g[(i + 2) % 3][(j + 2) % 3]
          - g[(i + 1) % 3][(j + 2) % 3] * g[(i + 2) % 3][(j + 1) % 3]
          for j in range(3)] for i in range(3)]
    return C, sum(g[0][j] * C[0][j] for j in range(3))


def det3(g):
    """Determinant of a 3x3 matrix, expanded along its first row."""
    return _cofactors(g)[1]


def lift(g):
    """The symmetry over g in SL_pm(3) (module docstring): alpha_j ->
    sum_i g_ij alpha_i, alpha* block g^-t = det(g) C, and beta_nu ->
    det(g) g X_nu g^-1 = g X_nu C^t, as det(g) = +-1; no elimination runs.
    Zeros stay Fraction(0), and exact g gives Fraction entries; a float
    entry that overflows, or underflows to 0.0, raises ValueError."""
    C, det = _cofactors(g)
    if not close(abs(det), 1):
        raise ValueError("lift requires det g = 1 or -1")
    acc = {}
    for i, j in itertools.product(range(3), repeat=2):
        _add(acc, (_ALPHA[i], _ALPHA[j]), g[i][j])
        _add(acc, (_STAR[i], _STAR[j]), C[i][j] if det > 0 else -C[i][j])
    for nu, X in enumerate(_BETA_MATRICES):
        for ((p, q), x), ((r, s), (mu, k)) in itertools.product(X.items(), _BETA_READ.items()):
            if g[r][p] and C[s][q]:  # (g E_pq C^t)_rs = g_rp C_sq
                t = k * x * g[r][p] * C[s][q]  # 0.0 by underflow only: made inf
                _add(acc, (_BETA_IDX[mu], _BETA_IDX[nu]), t if t else math.inf)
    T = [[Fraction(0)] * len(M14_LABELS) for _ in M14_LABELS]
    for (i, j), v in acc.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"lift entry ({M14_LABELS[i]}, {M14_LABELS[j]}) leaves binary64")
        if v:
            T[i][j] = as_divisor(v)  # an int becomes a Fraction, as in Fraction(0) + v
    return T


def swap_first_second():
    """Symmetry exchanging the first two alpha coordinates."""
    return lift([[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def swap_first_third():
    """Symmetry exchanging the first and third alpha coordinates."""
    return lift([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def rotation(c, s):
    """Rotation by angle theta in the first two coordinates, given
    c = cos(theta), s = sin(theta) with c^2 + s^2 = 1 (exact rational
    pythagorean pairs keep the check exact)."""
    if not close(c * c + s * s, 1):
        raise ValueError("rotation parameters must satisfy c^2 + s^2 = 1")
    return lift([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def dilatation(a1, a2, a3):
    """Diagonal symmetry scaling alpha_i by a_i; requires a1 a2 a3 = 1."""
    if not close(a1 * a2 * a3, 1):
        raise ValueError("dilatation requires a1*a2*a3 = 1")
    return lift([[a1, 0, 0], [0, a2, 0], [0, 0, a3]])


# ---------------------------------------------------------------------------
# pullbacks and the symmetry test


def pullback(comps, T):
    """The algebraic curvature tensor comps pulled back through T, where
    T[old][new] is the coefficient of old index `old` in new index `new`.

    comps and the result hold the components on the canonical indices i<j,
    k<l, (i,j) <= (k,l), as CurvatureTensor.data and PlaneWaveMetric.riemann
    do; the result only the nonzero ones.  The pull-back is the congruence
    W^t A W on the exterior square (module docstring), and only the pairs
    that occur in comps get a W row."""
    rows = [[(i, t) for i, t in enumerate(row) if t] for row in T]

    @functools.cache
    def w_row(pair):
        return [(uv, x) for uv, x in wedge(rows[pair[0]], rows[pair[1]]).items() if x]

    out = _congruence({(idx[:2], idx[2:]): a for idx, a in comps.items()}, w_row)
    return {uv + wz: v for (uv, wz), v in out.items() if v}


def _congruence(upper, row):
    """{(u, v): (X^t S X)_uv} on u <= v, for the symmetric S given by its
    entries upper[(p, q)], p <= q, and the rows X[p] = row(p) as sparse
    (u, x) lists.  When upper iterates in index order, both products sum
    in mat_mul's order: S X over increasing q, then X^t (S X) over p."""
    half = {}
    for (p, q), s in upper.items():
        for a, b in ((p, q), (q, p)) if p != q else ((p, q),):
            acc = half.setdefault(a, {})
            for v, x in row(b):
                _add(acc, v, s * x)
    out = {}
    for p in sorted(half):
        for u, x in row(p):
            for v, h in half[p].items():
                if u <= v:
                    _add(out, (u, v), x * h)
    return out


def wedge(xs, ys):
    """X ^ Y = {(u, v): X_u Y_v - X_v Y_u} for sparse vectors given as
    (index, coefficient) lists, on every pair u < v they reach (a cancelled
    coefficient included): the W rows of pullback, and the pair slots of
    planewave.nabla_R_contract."""
    acc = {}
    for u, a in xs:
        for v, b in ys:
            if u < v:
                _add(acc, (u, v), a * b)
            elif v < u:
                _add(acc, (v, u), -(a * b))
    return acc


def _add(acc, key, x):
    """acc[key] += x, the first term stored as it is: adding it to 0 would
    cost a Fraction addition and change no nonzero sum."""
    acc[key] = acc[key] + x if key in acc else x


def check_pullback(name, m: Model0, form, comps, T,
                   rel: float = REL_TOL) -> CheckReport:
    """Does T carry the bilinear form `form` and the curvature tensor `comps`
    (canonical components, as pullback takes them) to m's?

    Both sides are the one congruence _congruence: T^t G T on u <= v, in
    mat_mul's order, and pullback(comps, T) on the canonical indices.  A
    float form entry that fails is compared again against form.scale of the
    two columns, the size of the terms it sums, which also bounds the
    rounding of the product.  Away from the nonzero components of
    pullback(comps, T) and m.tensor.data both sides vanish, so only those
    are compared, in index order: the witness is the first mismatch of the
    full scan."""
    G = form.entries
    rows = [[(v, t) for v, t in enumerate(row) if t] for row in T]
    got = _congruence({(p, q): G[p][q] for p in range(m.n)
                       for q in range(p, m.n) if G[p][q]}, rows.__getitem__)
    cols = transpose(T)
    want = m.form.entries
    for u in range(m.n):
        for v in range(u, m.n):
            value = got.get((u, v), 0)
            if not close(value, want[u][v], rel=rel) and not close(
                    value, want[u][v], rel=rel, scale=form.scale(cols[u], cols[v])):
                # Fraction(0) + value is the entry mat_mul(T^t, G T) gives
                return CheckReport(name, False, witness={
                    "part": "form", "index": (m.label(u), m.label(v)),
                    "expected": want[u][v], "got": Fraction(0) + value})
    got = pullback(comps, T)
    want = m.tensor.data
    for idx in sorted(got.keys() | want.keys()):
        value, expected = got.get(idx, 0), want.get(idx, Fraction(0))
        if not close(value, expected, rel=rel):
            return CheckReport(name, False, witness={
                "part": "tensor", "index": tuple(m.label(i) for i in idx),
                "expected": expected, "got": value})
    pairs = m.n * (m.n - 1) // 2
    return CheckReport(name, True,
                       stats={"components_checked": pairs * (pairs + 1) // 2})


def is_symmetry(m: Model0, T, rel: float = REL_TOL) -> CheckReport:
    """Does T preserve both the inner product and the curvature tensor?"""
    return check_pullback("symmetry", m, m.form, m.tensor.data, T, rel)


def tau(T):
    """Restriction of a symmetry of the 14-dimensional model to the invariant
    alpha* block, as a 3x3 matrix."""
    for j in _STAR:
        for i in range(len(T)):
            if i not in _STAR and T[i][j] != 0:
                raise ValueError("matrix does not preserve the alpha* subspace")
    return [[T[i][j] for j in _STAR] for i in _STAR]


# ---------------------------------------------------------------------------
# kernel of tau

#: the six independent 4-alpha curvature components (0-based); linearised,
#: they pin down the b coefficients here and normalize_basis_0's x shifts
_KERNEL_TUPLES = [(1, 0, 0, 1), (2, 0, 0, 2), (2, 1, 1, 2),
                  (1, 0, 0, 2), (0, 1, 1, 2), (0, 2, 2, 1)]


def kernel_constraint_matrix(m: Model0):
    """6x24 matrix of the linear conditions on b = (b_i^nu) for a unipotent
    T alpha_i = alpha_i + sum_nu b_i^nu beta_nu + ... to preserve A.

    Derived by expanding A(T alpha_., ...) multilinearly: terms with two or
    more beta slots vanish identically, so the conditions are linear in b.
    """
    return beta_shift_rows(_KERNEL_TUPLES, _BETA_IDX,
                           lambda idx: m.tensor.value(*idx), [1] * 8)


def beta_shift_rows(tuples, beta, value, weight):
    """The 4-alpha components `tuples` linearised in the shifts alpha_i ->
    alpha_i + sum_nu t_i^nu weight[nu] beta_nu: one row per tuple, column
    8 i + nu summing weight[nu] value(idx) over the slots holding alpha_i,
    with beta[nu] put in that slot."""
    rows = []
    for tup in tuples:
        row = [Fraction(0)] * 24
        for slot, i in enumerate(tup):
            for nu, b in enumerate(beta):
                v = value(tup[:slot] + (b,) + tup[slot + 1:])
                if v != 0:
                    row[8 * i + nu] += weight[nu] * v
        rows.append(row)
    return rows


def kernel_basis_b(m: Model0):
    """Basis (as flat length-24 vectors) of admissible b coefficient arrays."""
    return nullspace_basis(kernel_constraint_matrix(m))


def kernel_element(m: Model0, b, c_skew=None):
    """Symmetry in ker(tau) from admissible b (3x8) and a skew 3x3 c part.

    The symmetric part of c and all of d are forced by <.,.>-preservation:
    d_nu^i = -sum_mu <beta_nu, beta_mu> b_i^mu and
    c_(ij) = -1/2 sum <beta_nu, beta_mu> b_i^nu b_j^mu = 1/2 sum_nu b_i^nu d_nu^j.
    The admissibility sums skip zero constraint entries, and _kernel_matrix
    the zero terms of exact data: T is the dense sums' in value and type.
    """
    b = [[Fraction(x) for x in row] for row in b]
    flat = [x for row in b for x in row]
    for row in kernel_constraint_matrix(m):
        if sum(r * x for r, x in zip(row, flat) if r) != 0:
            raise ValueError("b coefficients violate the curvature constraints")
    if c_skew is None:
        c_skew = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            if c_skew[i][j] != -c_skew[j][i]:
                raise ValueError("c_skew must be antisymmetric")
    return _kernel_matrix(m, b, c_skew)


def _kernel_matrix(m: Model0, b, c_skew):
    """kernel_element's T for b and c_skew, without its checks.  When b and
    the beta-Gram block are exact, its sums skip the zero terms, each an
    exact zero; either way they give the dense sums in value and type."""
    G = m.form.entries
    block = [[G[p][q] for q in _BETA_IDX] for p in _BETA_IDX]
    exact = all(map(is_exact, itertools.chain(*b, *block)))
    T = [[_ONE if i == j else _ZERO for j in range(m.n)] for i in range(m.n)]
    gram = [[(mu, g) for mu, g in enumerate(row) if g or not exact] for row in block]
    d = [[-sum((g * bi[mu] for mu, g in row if bi[mu] or not exact), _ZERO)
          for row in gram] for bi in b]  # d[i][nu] = d_nu^i, summed from _ZERO as from 0
    for i in range(3):
        for nu in range(8):
            if b[i][nu] or not exact:
                T[_BETA_IDX[nu]][_ALPHA[i]] += b[i][nu]
            if d[i][nu] or not exact:
                T[_STAR[i]][_BETA_IDX[nu]] += d[i][nu]
        for j in range(3):
            c_sym = _HALF * sum((x * y for x, y in zip(b[i], d[j])
                                 if x and y or not exact), _ZERO)
            T[_STAR[j]][_ALPHA[i]] += c_sym + Fraction(c_skew[i][j])
    return T


def random_kernel_element(m: Model0, rng):
    """A random element of ker(tau) with small integer parameters.  The
    combination of the basis skips only exact-zero terms c * y."""
    flat = [_ZERO] * 24
    for v in kernel_basis_b(m):
        c = Fraction(rng.randint(-3, 3))
        for k, y in enumerate(v):
            if y and c or not is_exact(y):
                flat[k] += c * y
    b = [flat[8 * i:8 * (i + 1)] for i in range(3)]
    s01, s02, s12 = (Fraction(rng.randint(-3, 3)) for _ in range(3))
    c_skew = [[0, s01, s02], [-s01, 0, s12], [-s02, -s12, 0]]
    return _kernel_matrix(m, b, c_skew)
