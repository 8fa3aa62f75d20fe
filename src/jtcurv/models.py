"""0-models: algebraic curvature tensors, Jacobi/skew operators and the
commutation checkers, plus the canonical 14-dimensional model.

Curvature tensors are stored sparsely under a canonical representative of
each symmetry orbit; lookups apply the orbit signs on the fly, so the pair
symmetries hold by construction and only the first Bianchi identity needs
exhaustive verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import BilinearForm, mat_inv, row_space_basis
from .scalars import iszero, scalar_from_json, scalar_to_json

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

    def add(self, idx, value):
        canon, sign = canonicalize_riemann(idx)
        if canon is None:
            return
        v = self.data.get(canon, Fraction(0)) + sign * value
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
    """An n x n linear operator on the model space, with provenance tag."""

    def __init__(self, matrix, tag=""):
        self.matrix = [list(r) for r in matrix]
        self.n = len(matrix)
        self.tag = tag
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
        return Operator(out, tag=f"({self.tag})({other.tag})")

    def __sub__(self, other):
        return Operator([[a - b for a, b in zip(ra, rb)]
                         for ra, rb in zip(self.matrix, other.matrix)],
                        tag=f"{self.tag}-{other.tag}")

    def __add__(self, other):
        return Operator([[a + b for a, b in zip(ra, rb)]
                         for ra, rb in zip(self.matrix, other.matrix)],
                        tag=f"{self.tag}+{other.tag}")

    def commutator(self, other):
        return (self @ other) - (other @ self)

    def first_nonzero_column(self):
        """(column index, column vector) of the first nonzero column."""
        for j in range(self.n):
            col = tuple(self.matrix[i][j] for i in range(self.n))
            if any(v != 0 for v in col):
                return j, col
        return None


def _raise_covector(m: Model0, cov):
    """Vector v with <v, e_w> = cov[w] for all w."""
    ginv = m.ginv
    out = [Fraction(0)] * m.n
    for w, c in enumerate(cov):
        if c != 0:
            col = ginv[w]
            for i in range(m.n):
                if col[i] != 0:
                    out[i] += col[i] * c
    return out


def jacobi(m: Model0, x) -> Operator:
    """Jacobi operator J(x): y -> A(y, x) x."""
    return jacobi_polarized(m, x, x, tag=f"J({x})")


def jacobi_polarized(m: Model0, x, y, tag=None) -> Operator:
    """Polarized Jacobi operator J(x,y): z -> (A(z,x)y + A(z,y)x) / 2."""
    n = m.n
    cov = [[Fraction(0)] * n for _ in range(n)]  # cov[z][w] = <J(x,y)e_z, e_w>
    half = Fraction(1, 2)
    for (i1, i2, i3, i4), v in m.full_entries:
        s = x[i2] * y[i3] + y[i2] * x[i3]
        if s != 0:
            cov[i1][i4] += half * v * s
    cols = [_raise_covector(m, cov[z]) for z in range(n)]
    mat = [[cols[z][i] for z in range(n)] for i in range(n)]
    return Operator(mat, tag=tag or f"J({x},{y})")


def skew(m: Model0, x, y) -> Operator:
    """Skew curvature operator A(x,y): z -> vector with <A(x,y)z,w>=A(x,y,z,w)."""
    n = m.n
    cov = [[Fraction(0)] * n for _ in range(n)]
    for (i1, i2, i3, i4), v in m.full_entries:
        s = x[i1] * y[i2]
        if s != 0:
            cov[i3][i4] += v * s
    cols = [_raise_covector(m, cov[z]) for z in range(n)]
    mat = [[cols[z][i] for z in range(n)] for i in range(n)]
    return Operator(mat, tag=f"A({x},{y})")


def _polarized_basis_ops(m: Model0):
    """J(e_i, e_j) for all i <= j, keyed and ordered canonically."""
    basis = [m.basis_vector(i) for i in range(m.n)]
    pairs = [(i, j) for i in range(m.n) for j in range(i, m.n)]
    ops = {p: jacobi_polarized(m, basis[p[0]], basis[p[1]],
                               tag=f"J({m.label(p[0])},{m.label(p[1])})")
           for p in pairs}
    return pairs, ops


def _skew_basis_ops(m: Model0):
    basis = [m.basis_vector(i) for i in range(m.n)]
    pairs = [(i, j) for i in range(m.n) for j in range(i + 1, m.n)]
    ops = {p: skew(m, basis[p[0]], basis[p[1]]) for p in pairs}
    return pairs, ops


def _witness_from_op(m, kind, left, right, op):
    j, col = op.first_nonzero_column()
    return {"kind": kind,
            "left_pair": [m.label(i) for i in left],
            "right_pair": [m.label(i) for i in right],
            "vector": m.label(j),
            "residual": list(col)}


def check_property(m: Model0, kind: str) -> CheckReport:
    """Exhaustive basis-polarized verification of a Tsankov-style property.

    Both sides of every identity are polynomial in the test vectors, so
    vanishing of all polarized basis coefficients is equivalent to the
    universally quantified statement.
    """
    if kind not in PROPERTY_KINDS:
        raise ValueError(f"unknown property kind {kind!r}")

    checked = 0

    if kind in ("jacobi-tsankov", "2-step-jacobi-nilpotent", "jacobi-square-zero"):
        pairs, ops = _polarized_basis_ops(m)
        if kind == "jacobi-tsankov":
            for a in range(len(pairs)):
                for b in range(a + 1, len(pairs)):
                    c = ops[pairs[a]].commutator(ops[pairs[b]])
                    checked += 1
                    if not c.is_zero():
                        return CheckReport(kind, False,
                                           _witness_from_op(m, "commutator",
                                                            pairs[a], pairs[b], c),
                                           {"pairs_checked": checked})
            return CheckReport(kind, True, stats={"pairs_checked": checked,
                                                  "polarized_operators": len(pairs)})
        if kind == "2-step-jacobi-nilpotent":
            for p in pairs:
                for q in pairs:
                    prod = ops[p] @ ops[q]
                    checked += 1
                    if not prod.is_zero():
                        return CheckReport(kind, False,
                                           _witness_from_op(m, "product", p, q, prod),
                                           {"pairs_checked": checked})
            return CheckReport(kind, True, stats={"pairs_checked": checked})
        # jacobi-square-zero: coefficients of J(x)^2 over monomials in x
        import itertools
        prod_cache = {}

        def prod(p, q):
            if (p, q) not in prod_cache:
                prod_cache[(p, q)] = ops[p] @ ops[q]
            return prod_cache[(p, q)]

        for quad in itertools.combinations_with_replacement(range(m.n), 4):
            total = None
            for perm in set(itertools.permutations(quad)):
                p = tuple(sorted(perm[:2]))
                q = tuple(sorted(perm[2:]))
                t = prod(p, q)
                total = t if total is None else total + t
            checked += 1
            if not total.is_zero():
                return CheckReport(kind, False,
                                   _witness_from_op(m, "square-coefficient",
                                                    quad[:2], quad[2:], total),
                                   {"monomials_checked": checked})
        return CheckReport(kind, True, stats={"monomials_checked": checked})

    if kind in ("skew-tsankov", "2-step-skew-nilpotent"):
        pairs, ops = _skew_basis_ops(m)
        for a in range(len(pairs)):
            rng = range(a + 1, len(pairs)) if kind == "skew-tsankov" else range(len(pairs))
            for b in rng:
                op_a, op_b = ops[pairs[a]], ops[pairs[b]]
                t = op_a.commutator(op_b) if kind == "skew-tsankov" else op_a @ op_b
                checked += 1
                if not t.is_zero():
                    return CheckReport(kind, False,
                                       _witness_from_op(m, kind, pairs[a], pairs[b], t),
                                       {"pairs_checked": checked})
        return CheckReport(kind, True, stats={"pairs_checked": checked})

    # mixed kinds
    spairs, sops = _skew_basis_ops(m)
    jpairs, jops = _polarized_basis_ops(m)
    for sp in spairs:
        for jp in jpairs:
            if kind == "mixed-tsankov":
                t = sops[sp].commutator(jops[jp])
                ok = t.is_zero()
            else:  # mixed-nilpotent-tsankov
                t1 = sops[sp] @ jops[jp]
                t2 = jops[jp] @ sops[sp]
                ok = t1.is_zero() and t2.is_zero()
                t = t1 if not t1.is_zero() else t2
            checked += 1
            if not ok:
                return CheckReport(kind, False,
                                   _witness_from_op(m, kind, sp, jp, t),
                                   {"pairs_checked": checked})
    return CheckReport(kind, True, stats={"pairs_checked": checked})


def invariant_spans(m: Model0):
    """(V_{beta,alpha*}, V_{alpha*}) as exact row-reduced bases.

    The first is the span of all polarized Jacobi images of basis vectors;
    the second the span of twice-iterated images.
    """
    pairs, ops = _polarized_basis_ops(m)
    images1 = []
    for p in pairs:
        for k in range(m.n):
            col = tuple(ops[p].matrix[i][k] for i in range(m.n))
            if any(v != 0 for v in col):
                images1.append(col)
    v1 = row_space_basis(images1)
    images2 = []
    for p in pairs:
        for w in v1:
            img = ops[p].apply(w)
            if any(v != 0 for v in img):
                images2.append(img)
    v2 = row_space_basis(images2)
    return v1, v2
