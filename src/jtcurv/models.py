"""0-models: algebraic curvature tensors, Jacobi/skew operators and the
commutation checkers, plus the canonical 14-dimensional model.

Curvature tensors are stored sparsely under a canonical representative of
each symmetry orbit; lookups apply the orbit signs on the fly, so the pair
symmetries hold by construction.  Only the first Bianchi identity needs
verification, and under those symmetries its sum
B(i,j,k,l) = A(i,j,k,l) + A(j,k,i,l) + A(k,i,j,l) is totally antisymmetric
in (i, j, k): cyclic by definition, and A(i,j,.,.) = -A(j,i,.,.) turns
B(j,i,k,l) into -B(i,j,k,l).  So B vanishes when two of i, j, k are equal,
and an exact tensor needs B only on strictly increasing triples.
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

_ZERO = Fraction(0)

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
    """Canonical (tuple, sign) for a Riemann-symmetric index 4-tuple: the
    lexicographically least tuple of riemann_orbit(idx) and its sign.

    In closed form: sort each index pair, flipping the sign once per swap,
    then put the smaller pair first (the pair swap keeps the sign).
    Returns (None, 0) when the symmetries force the component to vanish
    (repeated index within an antisymmetric pair).
    """
    i, j, k, l = idx
    if i == j or k == l:
        return None, 0
    sign = 1
    if i > j:
        i, j, sign = j, i, -sign
    if k > l:
        k, l, sign = l, k, -sign
    return ((k, l, i, j) if (k, l) < (i, j) else (i, j, k, l)), sign


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
        self._families = None

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

    @property
    def families(self):
        """{"jacobi": (pairs, ops), "skew": (pairs, ops)}: the polarized basis
        operators J(e_i, e_j), i <= j, and A(e_i, e_j), i < j, in scan order."""
        if self._families is None:
            self._families = _basis_families(self)
        return self._families

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
        n = obj["dim"]
        tensor = CurvatureTensor(n)
        for ent in obj["tensor"]:
            idx, val = tuple(ent["idx"]), scalar_from_json(ent["val"])
            if not all(type(i) is int and 0 <= i < n for i in idx):
                raise ValueError(f"tensor index {list(idx)} outside [0, {n})")
            tensor.set(idx, val)
        labels = obj.get("labels")
        if labels and len(labels) != n:
            raise ValueError(f"{len(labels)} labels for dimension {n}")
        return Model0(form, tensor, labels=labels)


def validate_curvature_symmetries(tensor: CurvatureTensor) -> CheckReport:
    """Pair symmetries plus the exhaustive first Bianchi identity.

    The pair symmetries hold by canonical storage.  The Bianchi sum B(i,j,k,l)
    is scanned over the support's 4-tuples in lexicographic order; a tuple
    outside the support sums three zeros.  Lemma (module docstring): B is
    totally antisymmetric in (i, j, k), so a failing tuple has distinct i, j, k
    and its sorted triple fails too, at a tuple no later in the scan.  An exact
    tensor is therefore evaluated on i < j < k only, and the first failure
    there is the full scan's.  Of those, only tuples with a nonzero term are
    evaluated.  tuples_checked counts the tuples decided: all s^4 (s the
    support size) when the identity holds, the full-scan position of the
    witness when it fails.  A tensor with a float entry is scanned in full,
    since round-off breaks the exact antisymmetry of the computed sums.
    """
    idxs = sorted({i for idx in tensor.data for i in idx})
    s = len(idxs)
    pos = {i: a for a, i in enumerate(idxs)}
    full = dict(tensor.items_full())
    if all(map(is_exact, tensor.data.values())):
        # every term of B(i,j,k,l), i < j < k, has leading indices permuting
        # (i, j, k): other increasing tuples sum three zeros
        tuples = sorted({tuple(sorted(t[:3])) + t[3:]
                         for t in full if t[2] not in t[:2]})
    else:
        tuples = itertools.product(idxs, repeat=4)
    for i, j, k, l in tuples:
        r = full.get((i, j, k, l), _ZERO) + full.get((j, k, i, l), _ZERO) \
            + full.get((k, i, j, l), _ZERO)
        if not iszero(r):
            a, b, c, d = pos[i], pos[j], pos[k], pos[l]
            return CheckReport(
                "curvature-symmetries", False,
                witness={"bianchi_tuple": (i, j, k, l), "residual": r},
                stats={"tuples_checked": ((a * s + b) * s + c) * s + d + 1})
    return CheckReport("curvature-symmetries", True, stats={"tuples_checked": s ** 4})


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
    """An n x n linear operator on the model space, held as a sparse map
    {(row, col): value} in row-major order.  The map holds the entries a
    computation touched, which may have cancelled to a zero of either scalar
    type; every other entry is Fraction(0)."""

    def __init__(self, n, entries):
        self.n = n
        self.entries = dict(sorted(entries.items()))

    def is_zero(self):
        return not any(self.entries.values())

    def column(self, j):
        return tuple(self.entries.get((i, j), _ZERO) for i in range(self.n))

    def nonzero_columns(self):
        return sorted({j for (_, j), v in self.entries.items() if v != 0})

    def apply(self, vec):
        out = [_ZERO] * self.n
        for (i, j), v in self.entries.items():
            if v != 0 and vec[j] != 0:
                out[i] += v * vec[j]
        return tuple(out)

    def __matmul__(self, other):
        # row-major order sums each entry over ascending k, as a dense product
        rows = {}
        for (k, j), b in other.entries.items():
            if b != 0:
                rows.setdefault(k, []).append((j, b))
        out = {}
        for (i, k), a in self.entries.items():
            if a != 0:
                for j, b in rows.get(k, ()):
                    out[i, j] = out.get((i, j), _ZERO) + a * b
        return Operator(self.n, out)

    def _entrywise(self, other, op):
        a, b = self.entries, other.entries
        return Operator(self.n, {key: op(a.get(key, _ZERO), b.get(key, _ZERO))
                                 for key in a.keys() | b.keys()})

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def commutator(self, other):
        return (self @ other) - (other @ self)


def _raised(m: Model0, cov) -> Operator:
    """Operator whose column z is the vector v with <v, e_w> = cov[z, w], for
    a dict cov of covector entries; raised in ascending (z, w)."""
    ginv = m.ginv
    out = {}
    for (z, w), c in sorted(cov.items()):
        if c != 0:
            for i, g in enumerate(ginv[w]):
                if g != 0:
                    out[i, z] = out.get((i, z), _ZERO) + g * c
    return Operator(m.n, out)


def jacobi(m: Model0, x) -> Operator:
    """Jacobi operator J(x): y -> A(y, x) x."""
    return jacobi_polarized(m, x, x)


def jacobi_polarized(m: Model0, x, y) -> Operator:
    """Polarized Jacobi operator J(x,y): z -> (A(z,x)y + A(z,y)x) / 2."""
    cov = {}  # cov[z, w] = <J(x,y)e_z, e_w>
    half = Fraction(1, 2)
    for (i1, i2, i3, i4), v in m.full_entries:
        s = x[i2] * y[i3] + y[i2] * x[i3]
        if s != 0:
            cov[i1, i4] = cov.get((i1, i4), 0) + half * v * s
    return _raised(m, cov)


def skew(m: Model0, x, y) -> Operator:
    """Skew curvature operator A(x,y): z -> vector with <A(x,y)z,w>=A(x,y,z,w)."""
    cov = {}
    for (i1, i2, i3, i4), v in m.full_entries:
        s = x[i1] * y[i2]
        if s != 0:
            cov[i3, i4] = cov.get((i3, i4), 0) + v * s
    return _raised(m, cov)


def _basis_families(m: Model0):
    """J(e_i, e_j) for i <= j and A(e_i, e_j) for i < j, in scan order, from
    one sweep over the curvature entries.

    Entry (i1, i2, i3, i4) adds to the covector <J e_i1, e_i4> of the pair
    sorted(i2, i3) and, when i1 < i2, to <A e_i3, e_i4> of (i1, i2), in the
    order and with the factors of jacobi_polarized and skew on basis vectors,
    so float entries are summed as there.
    """
    n = m.n
    half = Fraction(1, 2)
    jpairs = [(i, j) for i in range(n) for j in range(i, n)]
    spairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    jcov = {p: {} for p in jpairs}
    scov = {p: {} for p in spairs}
    for (i1, i2, i3, i4), v in m.full_entries:
        cov = jcov[min(i2, i3), max(i2, i3)]
        cov[i1, i4] = cov.get((i1, i4), 0) + half * v * (2 if i2 == i3 else 1)
        if i1 < i2:
            cov = scov[i1, i2]
            cov[i3, i4] = cov.get((i3, i4), 0) + v
    return {"jacobi": (jpairs, [_raised(m, jcov[p]) for p in jpairs]),
            "skew": (spairs, [_raised(m, scov[p]) for p in spairs])}


def _independence(ops):
    """indep(k): whether ops[k] lies outside the span of ops[:k], by greedy
    sparse elimination on nonzero entries, run lazily up to the largest k asked.
    An operator with a float entry counts as independent and is no pivot."""
    pivots, flags = [], []

    def indep(k):
        while len(flags) <= k:
            v = {key: x for key, x in ops[len(flags)].entries.items() if x != 0}
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


def _witness(m, kind, left, right, op):
    """The first nonzero column of a nonzero residual operator."""
    j = op.nonzero_columns()[0]
    return {"kind": kind,
            "left_pair": [m.label(i) for i in left],
            "right_pair": [m.label(i) for i in right],
            "vector": m.label(j),
            "residual": list(op.column(j))}


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
        pairs, ops = m.families["jacobi"]
        op_of = dict(zip(pairs, ops))
        prods = {}
        checked = 0
        for quad in itertools.combinations_with_replacement(range(m.n), 4):
            total = {}
            for perm in set(itertools.permutations(quad)):
                key = tuple(sorted(perm[:2])), tuple(sorted(perm[2:]))
                if key not in prods:
                    prods[key] = op_of[key[0]] @ op_of[key[1]]
                for ij, v in prods[key].entries.items():
                    total[ij] = total.get(ij, 0) + v
            checked += 1
            if any(total.values()):
                return CheckReport(kind, False,
                                   _witness(m, "square-coefficient", quad[:2],
                                            quad[2:], Operator(m.n, total)),
                                   {"monomials_checked": checked})
        return CheckReport(kind, True, stats={"monomials_checked": checked})

    wkind, left, right, upper, rel, size_key = _PAIR_KINDS[kind]
    lpairs, lops = m.families[left]
    rpairs, rops = m.families[right]
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
                                       _witness(m, wkind, p, rpairs[b], t),
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
    _, ops = m.families["jacobi"]
    v1 = row_space_basis([op.column(j) for op in ops
                          for j in op.nonzero_columns()])
    images2 = []
    for op in ops:
        for w in v1:
            img = op.apply(w)
            if any(v != 0 for v in img):
                images2.append(img)
    v2 = row_space_basis(images2)
    return v1, v2
