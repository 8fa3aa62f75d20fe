"""0-models: algebraic curvature tensors, Jacobi/skew operators and the
commutation checkers, plus the canonical 14-dimensional model.

Curvature tensors are stored sparsely under a canonical representative of
each symmetry orbit; lookups apply the orbit signs on the fly, so the pair
symmetries hold by construction and only the first Bianchi identity needs
exhaustive verification.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import BilinearForm, mat_inv, row_space_basis
from .scalars import is_exact, iszero, scalar_from_json, scalar_to_json

# basis layout of the 14-dimensional model
M14_LABELS = (
    "a1", "a2", "a3", "a1*", "a2*", "a3*",
    "b1,1", "b1,2", "b2,1", "b2,2", "b3,1", "b3,2", "b4,1", "b4,2",
)

PROPERTY_KINDS = (
    "jacobi-tsankov",
    "2-step-jacobi-nilpotent",
    "skew-tsankov",
    "2-step-skew-nilpotent",
    "mixed-tsankov",
    "mixed-nilpotent-tsankov",
    "jacobi-square-zero",
)


def riemann_orbit(idx):
    """The 8 signed index tuples equivalent to idx under the pair symmetries."""
    i, j, k, l = idx
    half = [((i, j, k, l), 1), ((j, i, k, l), -1), ((i, j, l, k), -1), ((j, i, l, k), 1)]
    return half + [((a[2], a[3], a[0], a[1]), s) for a, s in half]


def canonicalize_riemann(idx):
    """Canonical (tuple, sign) for a Riemann-symmetric index 4-tuple.

    Returns (None, 0) when the symmetries force the component to vanish
    (repeated index within an antisymmetric pair).
    """
    i, j, k, l = idx
    if i == j or k == l:
        return None, 0
    best, sign = min(riemann_orbit(idx), key=lambda t: t[0])
    return best, sign


class CurvatureTensor:
    """Sparse algebraic curvature tensor on an n-dimensional space."""

    def __init__(self, n):
        self.n = n
        self.data = {}

    def set(self, idx, value):
        """Set component A[idx]; consistent with previously set orbit values."""
        canon, sign = canonicalize_riemann(idx)
        if canon is None:
            if not iszero(value):
                raise ValueError(f"component {idx} is forced to zero by antisymmetry")
            return
        v = sign * value
        if canon in self.data and self.data[canon] != v:
            raise ValueError(f"conflicting values for symmetry orbit of {idx}")
        if iszero(v):
            self.data.pop(canon, None)
        else:
            self.data[canon] = v

    def value(self, i, j, k, l):
        canon, sign = canonicalize_riemann((i, j, k, l))
        if canon is None:
            return Fraction(0)
        return sign * self.data.get(canon, Fraction(0))

    def items_full(self):
        """All nonzero components, expanded over the full symmetry orbits."""
        out = {}
        for canon, v in self.data.items():
            for tup, s in riemann_orbit(canon):
                out[tup] = s * v
        return list(out.items())

    def __eq__(self, other):
        return isinstance(other, CurvatureTensor) and self.n == other.n \
            and self.data == other.data


@dataclass
class CheckReport:
    """Outcome of a verification: verdict plus a concrete witness on failure."""

    name: str
    holds: bool
    witness: dict | None = None
    stats: dict = field(default_factory=dict)

    def to_json(self):
        def conv(o):
            if isinstance(o, Fraction):
                return scalar_to_json(o)
            if isinstance(o, dict):
                return {str(k): conv(v) for k, v in o.items()}
            if isinstance(o, (list, tuple)):
                return [conv(v) for v in o]
            return o

        return {"property": self.name,
                "verdict": "holds" if self.holds else "fails",
                "witness": conv(self.witness),
                "stats": conv(self.stats)}


class Model0:
    """(V, <.,.>, A): inner-product space plus algebraic curvature tensor."""

    def __init__(self, form: BilinearForm, tensor: CurvatureTensor, labels=None):
        if form.n != tensor.n:
            raise ValueError("form and tensor dimensions differ")
        self.n = form.n
        self.form = form
        self.tensor = tensor
        self.labels = tuple(labels) if labels else None
        self._ginv = None
        self._full = None

    @property
    def ginv(self):
        if self._ginv is None:
            self._ginv = mat_inv(self.form.entries)
        return self._ginv

    @property
    def full_entries(self):
        if self._full is None:
            self._full = self.tensor.items_full()
        return self._full

    def label(self, i):
        return self.labels[i] if self.labels else f"e{i}"

    def basis_vector(self, i):
        return tuple(Fraction(int(j == i)) for j in range(self.n))

    def labelled_vector(self, name):
        return self.basis_vector(self.labels.index(name))

    # -- serialization -------------------------------------------------
    def to_json(self):
        return {
            "dim": self.n,
            "form": [[scalar_to_json(x) for x in row] for row in self.form.entries],
            "tensor": [{"idx": list(idx), "val": scalar_to_json(v)}
                       for idx, v in sorted(self.tensor.data.items())],
            "labels": list(self.labels) if self.labels else None,
        }

    @staticmethod
    def from_json(obj):
        form = BilinearForm([[scalar_from_json(x) for x in row] for row in obj["form"]])
        tensor = CurvatureTensor(obj["dim"])
        for ent in obj["tensor"]:
            tensor.set(tuple(ent["idx"]), scalar_from_json(ent["val"]))
        return Model0(form, tensor, labels=obj.get("labels"))


def validate_curvature_symmetries(tensor: CurvatureTensor) -> CheckReport:
    """Pair symmetries plus the exhaustive first Bianchi identity."""
    # pair symmetries hold by canonical storage; verify Bianchi on the
    # support closure (any 4-tuple outside it sums three zeros)
    support = set()
    for (i, j, k, l) in tensor.data:
        support.update((i, j, k, l))
    idxs = sorted(support)
    checked = 0
    for i in idxs:
        for j in idxs:
            for k in idxs:
                for l in idxs:
                    s = tensor.value(i, j, k, l) + tensor.value(j, k, i, l) \
                        + tensor.value(k, i, j, l)
                    checked += 1
                    if not iszero(s):
                        return CheckReport(
                            "curvature-symmetries", False,
                            witness={"bianchi_tuple": (i, j, k, l), "residual": s},
                            stats={"tuples_checked": checked})
    return CheckReport("curvature-symmetries", True, stats={"tuples_checked": checked})


def build_m14() -> Model0:
    """The 14-dimensional Jacobi-Tsankov model that is not 2-step nilpotent."""
    n = 14
    lab = {name: i for i, name in enumerate(M14_LABELS)}
    G = [[Fraction(0)] * n for _ in range(n)]

    def setg(u, v, val):
        G[lab[u]][lab[v]] = G[lab[v]][lab[u]] = Fraction(val)

    for i in (1, 2, 3):
        setg(f"a{i}", f"a{i}*", 1)
        setg(f"b{i},1", f"b{i},2", 1)
    setg("b4,1", "b4,1", Fraction(-1, 2))
    setg("b4,2", "b4,2", Fraction(-1, 2))
    setg("b4,1", "b4,2", Fraction(1, 4))

    A = CurvatureTensor(n)

    def seta(u1, u2, u3, u4, val):
        A.set((lab[u1], lab[u2], lab[u3], lab[u4]), Fraction(val))

    seta("a2", "a1", "a1", "b2,1", 1)
    seta("a3", "a1", "a1", "b3,1", 1)
    seta("a3", "a2", "a2", "b3,2", 1)
    seta("a1", "a2", "a2", "b1,2", 1)
    seta("a1", "a3", "a3", "b1,1", 1)
    seta("a2", "a3", "a3", "b2,2", 1)
    seta("a1", "a2", "a3", "b4,1", Fraction(-1, 2))
    seta("a1", "a3", "a2", "b4,1", Fraction(-1, 2))
    seta("a2", "a3", "a1", "b4,2", Fraction(-1, 2))
    seta("a2", "a1", "a3", "b4,2", Fraction(-1, 2))

    return Model0(BilinearForm(G), A, labels=M14_LABELS)


# ---------------------------------------------------------------------------
# operators


class Operator:
    """An n x n linear operator on the model space."""

    def __init__(self, matrix):
        self.matrix = [list(r) for r in matrix]
        self.n = len(matrix)
        self._nnz = None
        self._rows = None

    @property
    def nnz(self):
        if self._nnz is None:
            self._nnz = [(i, j, v) for i, row in enumerate(self.matrix)
                         for j, v in enumerate(row) if v != 0]
        return self._nnz

    @property
    def rows_nnz(self):
        if self._rows is None:
            self._rows = [[(j, v) for j, v in enumerate(row) if v != 0]
                          for row in self.matrix]
        return self._rows

    def is_zero(self):
        return not self.nnz

    def apply(self, vec):
        out = [Fraction(0)] * self.n
        for i, j, v in self.nnz:
            if vec[j] != 0:
                out[i] += v * vec[j]
        return tuple(out)

    def __matmul__(self, other):
        out = [[Fraction(0)] * self.n for _ in range(self.n)]
        rows_b = other.rows_nnz
        for i, k, a in self.nnz:
            for j, b in rows_b[k]:
                out[i][j] += a * b
        return Operator(out)

    def __sub__(self, other):
        return Operator([[a - b for a, b in zip(ra, rb)]
                         for ra, rb in zip(self.matrix, other.matrix)])

    def __add__(self, other):
        return Operator([[a + b for a, b in zip(ra, rb)]
                         for ra, rb in zip(self.matrix, other.matrix)])

    def commutator(self, other):
        return (self @ other) - (other @ self)


def _raised(m: Model0, cov) -> Operator:
    """Operator whose column z is the vector v with <v, e_w> = cov[z][w]."""
    ginv = m.ginv
    mat = [[Fraction(0)] * m.n for _ in range(m.n)]
    for z, row in enumerate(cov):
        for w, c in enumerate(row):
            if c != 0:
                for i, g in enumerate(ginv[w]):
                    if g != 0:
                        mat[i][z] += g * c
    return Operator(mat)


def jacobi(m: Model0, x) -> Operator:
    """Jacobi operator J(x): y -> A(y, x) x."""
    return jacobi_polarized(m, x, x)


def jacobi_polarized(m: Model0, x, y) -> Operator:
    """Polarized Jacobi operator J(x,y): z -> (A(z,x)y + A(z,y)x) / 2."""
    n = m.n
    cov = [[Fraction(0)] * n for _ in range(n)]  # cov[z][w] = <J(x,y)e_z, e_w>
    half = Fraction(1, 2)
    for (i1, i2, i3, i4), v in m.full_entries:
        s = x[i2] * y[i3] + y[i2] * x[i3]
        if s != 0:
            cov[i1][i4] += half * v * s
    return _raised(m, cov)


def skew(m: Model0, x, y) -> Operator:
    """Skew curvature operator A(x,y): z -> vector with <A(x,y)z,w>=A(x,y,z,w)."""
    n = m.n
    cov = [[Fraction(0)] * n for _ in range(n)]
    for (i1, i2, i3, i4), v in m.full_entries:
        s = x[i1] * y[i2]
        if s != 0:
            cov[i3][i4] += v * s
    return _raised(m, cov)


def _basis_ops(m: Model0, family):
    """(pairs, operators) in scan order: J(e_i, e_j) for i <= j when family
    is "jacobi", A(e_i, e_j) for i < j when it is "skew"."""
    basis = [m.basis_vector(i) for i in range(m.n)]
    if family == "jacobi":
        pairs = [(i, j) for i in range(m.n) for j in range(i, m.n)]
        return pairs, [jacobi_polarized(m, basis[i], basis[j]) for i, j in pairs]
    pairs = [(i, j) for i in range(m.n) for j in range(i + 1, m.n)]
    return pairs, [skew(m, basis[i], basis[j]) for i, j in pairs]


def _independence(ops):
    """indep(k): whether ops[k] lies outside the span of ops[:k], by greedy
    sparse elimination over Operator.nnz run lazily up to the largest k asked.
    An operator with a float entry counts as independent and is no pivot."""
    pivots, flags = [], []

    def indep(k):
        while len(flags) <= k:
            v = {(i, j): x for i, j, x in ops[len(flags)].nnz}
            if not all(map(is_exact, v.values())):
                flags.append(True)
                continue
            for p, row in pivots:
                c = v.get(p)
                if c:
                    for key, x in row.items():
                        y = v.get(key, 0) - c * x
                        if y:
                            v[key] = y
                        else:
                            del v[key]
            if v:
                p = min(v)
                c = v[p]
                pivots.append((p, {key: x / c for key, x in v.items()}))
            flags.append(bool(v))
        return flags[k]

    return indep


def _witness(m, kind, left, right, matrix):
    """The first nonzero column of a nonzero residual matrix."""
    j = min(j for row in matrix for j, v in enumerate(row) if v != 0)
    return {"kind": kind,
            "left_pair": [m.label(i) for i in left],
            "right_pair": [m.label(i) for i in right],
            "vector": m.label(j),
            "residual": [row[j] for row in matrix]}


def _products(a, b):
    """a b, or b a when a b vanishes: zero exactly when both products are."""
    t = a @ b
    return t if not t.is_zero() else b @ a


#: kind -> (witness kind, left family, right family, pairs a < b only,
#: bilinear relation that is zero on a passing pair, stats key for the
#: number of left operators when the property holds)
_PAIR_KINDS = {
    "jacobi-tsankov": ("commutator", "jacobi", "jacobi", True,
                       Operator.commutator, "polarized_operators"),
    "2-step-jacobi-nilpotent": ("product", "jacobi", "jacobi", False,
                                operator.matmul, None),
    "skew-tsankov": ("skew-tsankov", "skew", "skew", True,
                     Operator.commutator, None),
    "2-step-skew-nilpotent": ("2-step-skew-nilpotent", "skew", "skew", False,
                              operator.matmul, None),
    "mixed-tsankov": ("mixed-tsankov", "skew", "jacobi", False,
                      Operator.commutator, None),
    "mixed-nilpotent-tsankov": ("mixed-nilpotent-tsankov", "skew", "jacobi",
                                False, _products, None),
}


def check_property(m: Model0, kind: str) -> CheckReport:
    """Exhaustive basis-polarized verification of a Tsankov-style property.

    Both sides of every identity are polynomial in the test vectors, so
    vanishing of all polarized basis coefficients is equivalent to the
    universally quantified statement.  jacobi-square-zero sums the
    coefficient of each quartic monomial of J(x)^2.

    Pair kinds scan a bilinear relation R over (left, right) operator pairs,
    or over pairs a < b of one family, in lexicographic order.  Lemma: the
    first failing pair has both operators independent of the earlier ones in
    their family.  Were O_a (or O_b) a combination of earlier operators,
    R(O_a, O_b) would combine values on earlier, passing pairs; for a < b the
    commutator adds R(O_a, O_a) = 0 and R(O_a, O_k) = -R(O_k, O_a).  So R is
    evaluated only on independent pairs, and verdict, witness and
    pairs_checked equal the full scan's.  pairs_checked counts the pairs
    decided: all when the property holds, up to the witness when it fails.
    """
    if kind not in PROPERTY_KINDS:
        raise ValueError(f"unknown property kind {kind!r}")

    if kind == "jacobi-square-zero":
        pairs, ops = _basis_ops(m, "jacobi")
        op_of = dict(zip(pairs, ops))
        prods = {}
        checked = 0
        for quad in itertools.combinations_with_replacement(range(m.n), 4):
            total = {}
            for perm in set(itertools.permutations(quad)):
                key = tuple(sorted(perm[:2])), tuple(sorted(perm[2:]))
                if key not in prods:
                    prods[key] = op_of[key[0]] @ op_of[key[1]]
                for i, j, v in prods[key].nnz:
                    total[i, j] = total.get((i, j), 0) + v
            checked += 1
            if any(total.values()):
                res = [[total.get((i, j), Fraction(0)) for j in range(m.n)]
                       for i in range(m.n)]
                return CheckReport(kind, False,
                                   _witness(m, "square-coefficient",
                                            quad[:2], quad[2:], res),
                                   {"monomials_checked": checked})
        return CheckReport(kind, True, stats={"monomials_checked": checked})

    wkind, left, right, upper, rel, size_key = _PAIR_KINDS[kind]
    lpairs, lops = _basis_ops(m, left)
    rpairs, rops = (lpairs, lops) if right == left else _basis_ops(m, right)
    lind = _independence(lops)
    rind = lind if right == left else _independence(rops)
    checked = 0
    for a, p in enumerate(lpairs):
        for b in range(a + 1 if upper else 0, len(rpairs)):
            checked += 1
            if lind(a) and rind(b):
                t = rel(lops[a], rops[b])
                if not t.is_zero():
                    return CheckReport(kind, False,
                                       _witness(m, wkind, p, rpairs[b], t.matrix),
                                       {"pairs_checked": checked})
    stats = {"pairs_checked": checked}
    if size_key:
        stats[size_key] = len(lpairs)
    return CheckReport(kind, True, stats=stats)


def invariant_spans(m: Model0):
    """(V_{beta,alpha*}, V_{alpha*}) as exact row-reduced bases.

    The first is the span of all polarized Jacobi images of basis vectors;
    the second the span of twice-iterated images.
    """
    _, ops = _basis_ops(m, "jacobi")
    images1 = []
    for op in ops:
        for k in range(m.n):
            col = tuple(op.matrix[i][k] for i in range(m.n))
            if any(v != 0 for v in col):
                images1.append(col)
    v1 = row_space_basis(images1)
    images2 = []
    for op in ops:
        for w in v1:
            img = op.apply(w)
            if any(v != 0 for v in img):
                images2.append(img)
    v2 = row_space_basis(images2)
    return v1, v2
