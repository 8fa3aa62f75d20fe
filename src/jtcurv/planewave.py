"""Generalized plane-wave metrics on R^(2a+b).

Coordinates are ordered (x_1..x_a, x_1*..x_a*, y_1..y_b); the metric is
    g(dx_i, dx_j)   = 2 sum_mu y_mu psi_{ij,mu}(x),
    g(dx_i, dx_i*)  = 1,
    g(dy_mu, dy_nu) = C_{mu nu},
with the warping functions psi depending on the x block only.  That support
structure gives the Christoffel cascade x -> y -> x*: x is affine along a
geodesic, y'' depends on x only and x*'' on x, y and y', so geodesics are two
successive double integrals, and every curvature component with an x* index
or more than one y index vanishes, which is what keeps the iterated covariant
derivatives of R tractable.  The geodesic cascade is jtcurv.geodesic; this
module binds its public names and _Geodesic.

The Christoffel symbols of the second kind are held once per metric, in the
lazily built table ``PlaneWaveMetric.gamma``: gamma[(u, v)][f] lists terms
(coef, expr, y), keyed with u <= v, such that
    Gamma^f_uv(P) = sum coef * expr(x) * (P[y] if y is not None else 1).
Every symbol is affine in the y coordinates, x* is never a lower index, and
the only nonzero entries are
    Gamma^{x*_k}_{x_i x_j}  = sum_mu y_mu (d_i psi_{jk,mu} + d_j psi_{ik,mu}
                                           - d_k psi_{ij,mu}),
    Gamma^{y_mu}_{x_i x_j}  = -sum_nu C^{mu nu} psi_{ij,nu},
    Gamma^{x*_k}_{x_i y_nu} = psi_{ik,nu}.
christoffel, the nabla^k R table below and the geodesic cascade read it.
An entry is evaluated by expr.terms_evaluator: by walking its trees, or, at
a point whose coordinates are all floats, by its plan, built from the
compiled trees (FnExpr.compiled) on first use and held by the metric, which
gives the same value bit for bit and of the same type.  Exact points, and
points mixing floats with exact values, keep the tree walk.

The curvature R(d_a, d_b, d_c, d_d) is held the same way, in the lazily
built table ``PlaneWaveMetric.riemann``: riemann[key] lists terms of the same
format, keyed by the canonical index of models.canonicalize_riemann, with
    R_key(P) = sum coef * expr(x) * (P[y] if y is not None else 1).
Each canonical component is written once, for i < j:
    R(x_i, x_j, x_k, y_nu)  = -d_i psi_{jk,nu} + d_j psi_{ik,nu},
    R(x_i, x_j, x_k, x_l)   = sum_{nu,mu} C^{nu mu} (psi_{ik,mu} psi_{jl,nu}
                                                   - psi_{il,mu} psi_{jk,nu})
                              + sum_nu y_nu (d_i d_k psi_{jl,nu}
                                             + d_j d_l psi_{ik,nu}
                                             - d_i d_l psi_{jk,nu}
                                             - d_j d_k psi_{il,nu}),
the second for k < l and (i, j) <= (k, l); every other component is a
symmetry image of these or vanishes.  curvature_at, the nabla^k R table and
verify_0_model read it.  curvature_generic assembles R from the gamma table
instead (dGamma + Gamma Gamma), so it checks both tables.

Both tables are built from the live psi only: PlaneWaveMetric.live gives the
mu at which psi_{ij,mu} is not the zero constant, for each index pair, found
once per metric.  gamma and riemann run the sums above in their nesting order
over the union of the live mu of the pairs a term reads, so every list gets
the terms of a loop over all mu, in the same order, and no zero is built.
The C^{-1} they read is computed once per C form and held on it, which the
two realization families share.

nabla^k R is a third table of that format, PlaneWaveMetric.nabla_riemann(key,
dirs): one entry per canonical key and k directions (innermost first), each
built on first use from order k - 1, with (nabla^k R)(idx; dirs) = sign *
entry(key, dirs) for (key, sign) = canonicalize_riemann(idx).  Support rule
(induction on k): an entry with an x* index or two y indices in key + dirs
is empty, one with a y index is y-free, and every entry is affine in y.  So
with e = dirs[-1], k = 0 is the riemann entry; e of y type keeps the terms
carrying y_e, without that factor (its Gamma terms raise an index to x*,
where R vanishes); e of x type takes d_e of every term and subtracts, for
each slot s of x type, the y-free Gamma^{y_mu}_{e s} times the order k - 1
entry with y_mu in slot s.  Once key + dirs[:-1] holds a y index, the entry
returns before that Gamma sweep: each substitution would add a second y
index, whose entry the support rule empties.  _CovREngine evaluates the
table at a point.
The coordinate scans (covariant_derivative_R, first_nonzero_component) run
over the canonical entries the support rule allows, each evaluated once and
expanded over the orbit of its key; on tangent vectors, nabla_R_contract is
the one contraction (pair slots through the wedges of symmetry.wedge, the
rows on which symmetry.pullback forms its congruence, then the direction
slots), and it evaluates only the entries the vectors reach.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .expr import FnExpr, terms_evaluator
from .linalg import BilinearForm, CoordTensor, mat_inv
from .models import canonicalize_riemann, riemann_orbit
from .scalars import (adds_nothing, is_exact, iszero, pair_keys,
                      scalar_from_json, scalar_to_json)
from .symmetry import wedge


class PlaneWaveMetric:
    """Metric data (a, b, C, psi); psi maps an x index pair to b functions."""

    def __init__(self, a, b, C, psi):
        self.a = a
        self.b = b
        self.C = C if isinstance(C, BilinearForm) else BilinearForm(C)
        if self.C.n != b:
            raise ValueError("C must be b x b")
        self.psi, self._live = {}, {}
        for (i, j), fns in psi.items():
            name = f"psi entry {i + 1},{j + 1}"
            if not (0 <= i < a and 0 <= j < a):
                raise ValueError(f"{name} lies outside the x block 1..{a}")
            key = (min(i, j), max(i, j))
            fns = tuple(fns)
            if len(fns) != b:
                raise ValueError("each psi entry must have one function per y")
            for f in fns:
                k = max(f.variables(), default=0)
                if k > a:
                    raise ValueError(f"{name} reads x{k}, outside the x block "
                                     f"x1..x{a}")
            if key in self.psi and self.psi[key] is not fns:
                raise ValueError(f"duplicate psi entry for {key}")
            self.psi[key] = fns
            self._live[key] = {mu for mu, f in enumerate(fns) if not f.is_zero_const()}
        self._gamma = None
        self._riemann = None
        self._nabla = {}
        self._plans = {}

    @property
    def n(self):
        return 2 * self.a + self.b

    @property
    def cinv(self):
        """C^-1, computed once per form object and held on it (BilinearForm.inv):
        metrics built on one form (realizations._c_block) share one inverse,
        and a float C and an exact C of equal values, two forms, each get
        their own."""
        C = self.C
        if C.inv is None:
            C.inv = mat_inv(C.entries)
        return C.inv

    @property
    def gamma(self):
        """The Christoffel table described in the module docstring."""
        if self._gamma is None:
            a, b = self.a, self.b
            tbl = {}

            def put(u, v, f, coef, expr, y=None):
                if expr is not None and not expr.is_zero_const():
                    tbl.setdefault((u, v), {}).setdefault(f, []).append((coef, expr, y))

            for i in range(a):
                for j in range(i, a):
                    for k in range(a):
                        for mu in self.live((j, k), (i, k), (i, j)):
                            y = 2 * a + mu
                            put(i, j, a + k, 1, self.dpsi(j, k, mu, (i,)), y)
                            put(i, j, a + k, 1, self.dpsi(i, k, mu, (j,)), y)
                            put(i, j, a + k, -1, self.dpsi(i, j, mu, (k,)), y)
                    nus = self.live((i, j))
                    for mu in range(b):
                        for nu in nus:
                            if self.cinv[mu][nu] != 0:
                                put(i, j, 2 * a + mu, -self.cinv[mu][nu], self.psi_fn(i, j, nu))
                for nu in self.live(*((i, k) for k in range(a))):
                    for k in range(a):
                        put(i, 2 * a + nu, a + k, 1, self.psi_fn(i, k, nu))
            self._gamma = tbl
        return self._gamma

    @property
    def riemann(self):
        """The curvature table described in the module docstring."""
        if self._riemann is None:
            a = self.a
            tbl = {}

            def put(idx, coef, expr, y=None):
                if expr is not None and not expr.is_zero_const():
                    key, sign = canonicalize_riemann(idx)
                    tbl.setdefault(key, []).append((sign * coef, expr, y))

            def product(f, g):
                if f is None or g is None or f.is_zero_const() or g.is_zero_const():
                    return None
                return f * g

            pairs = [(i, j) for i in range(a) for j in range(i + 1, a)]
            for n, (i, j) in enumerate(pairs):
                for k in range(a):
                    for nu in self.live((j, k), (i, k)):
                        idx = (i, j, k, 2 * a + nu)
                        put(idx, -1, self.dpsi(j, k, nu, (i,)))
                        put(idx, 1, self.dpsi(i, k, nu, (j,)))
                for k, l in pairs[n:]:
                    idx = (i, j, k, l)
                    mus = self.live((i, k), (i, l))
                    for nu in self.live((j, l), (j, k)):
                        for mu in mus:
                            c = self.cinv[nu][mu]
                            if c != 0:
                                put(idx, c, product(self.psi_fn(i, k, mu),
                                                    self.psi_fn(j, l, nu)))
                                put(idx, -c, product(self.psi_fn(i, l, mu),
                                                     self.psi_fn(j, k, nu)))
                    for nu in self.live((j, l), (i, k), (j, k), (i, l)):
                        y = 2 * a + nu
                        put(idx, 1, self.dpsi(j, l, nu, (i, k)), y)
                        put(idx, 1, self.dpsi(i, k, nu, (j, l)), y)
                        put(idx, -1, self.dpsi(j, k, nu, (i, l)), y)
                        put(idx, -1, self.dpsi(i, l, nu, (j, k)), y)
            self._riemann = tbl
        return self._riemann

    def nabla_riemann(self, key, dirs=()):
        """The entry of the nabla^k R table (module docstring) at a canonical
        key and directions dirs, k = len(dirs); built on first use."""
        terms = self._nabla.get((key, dirs))
        if terms is None:
            terms = self._nabla[(key, dirs)] = self._nabla_entry(key, dirs)
        return terms

    def outside_support(self, idx):
        """True when idx has an x* index or two y indices, where nabla^k R
        vanishes by the support rule (module docstring)."""
        far = [t for t in idx if t >= self.a]
        return len(far) > 1 or any(t < 2 * self.a for t in far)

    def _nabla_entry(self, key, dirs):
        if self.outside_support(key + dirs):
            return []
        if not dirs:
            return self.riemann.get(key, [])
        e, rest = dirs[-1], dirs[:-1]
        prev = self.nabla_riemann(key, rest)
        if self.coord_kind(e) == "y":
            return [(coef, expr, None) for coef, expr, y in prev if y == e]
        out = [(coef, d, y) for coef, expr, y in prev
               if not (d := expr.diff(e + 1)).is_zero_const()]
        slots = key + rest
        if max(slots) >= self.a:
            # a y index (x* is outside the support): every Gamma^{y_mu}
            # substitution below would add a second one
            return out
        for pos, s in enumerate(slots):
            for f, gterms in self.gamma.get((min(e, s), max(e, s)), {}).items():
                if self.coord_kind(f) != "y":
                    continue
                new = slots[:pos] + (f,) + slots[pos + 1:]
                sub, sign = canonicalize_riemann(new[:4])
                terms = self.nabla_riemann(sub, new[4:])
                out += [(-sign * gc * coef, gexpr * expr, y)
                        for gc, gexpr, _ in gterms for coef, expr, y in terms]
        return out

    # coordinate index helpers (0-based block layout)
    def xi(self, i):
        return i

    def xsi(self, i):
        return self.a + i

    def yi(self, mu):
        return 2 * self.a + mu

    def coord_kind(self, idx):
        if idx < self.a:
            return "x"
        if idx < 2 * self.a:
            return "x*"
        return "y"

    def labels(self):
        return [f"x{i + 1}" for i in range(self.a)] \
            + [f"x{i + 1}*" for i in range(self.a)] \
            + [f"y{m + 1}" for m in range(self.b)]

    def has_transcendental(self):
        return any(f.has_transcendental() for fns in self.psi.values() for f in fns)

    def is_polynomial(self):
        """True when C is exact and every psi is a polynomial with exact
        coefficients (FnExpr.is_polynomial): the geodesic equations then
        integrate in Poly."""
        return all(is_exact(c) for row in self.C.entries for c in row) \
            and all(f.is_polynomial() for fns in self.psi.values() for f in fns)

    # -- psi access -----------------------------------------------------
    def live(self, *pairs):
        """The mu, increasing, at which psi_{ij,mu} is not the zero constant
        for some index pair (i, j) in pairs: the live psi, which alone put
        terms in the gamma and riemann tables."""
        return sorted(set().union(*(self._live.get((min(p), max(p)), ()) for p in pairs)))

    def psi_fn(self, i, j, mu):
        fns = self.psi.get((min(i, j), max(i, j)))
        return fns[mu] if fns else None

    def dpsi(self, i, j, mu, derivs=()):
        """psi_{ij,mu} differentiated by the x indices in derivs (0-based);
        FnExpr.diff caches each derivative on its node."""
        f = self.psi_fn(i, j, mu)
        if f is not None:
            for d in sorted(derivs):
                f = f.diff(d + 1)
        return f

    def dpsi_val(self, i, j, mu, derivs, x):
        f = self.dpsi(i, j, mu, derivs)
        if f is None or f.is_zero_const():
            return 0
        return f.eval(x)

    # -- serialization --------------------------------------------------
    def to_json(self):
        psi = {f"{i + 1},{j + 1}": [f.to_json() for f in fns]
               for (i, j), fns in sorted(self.psi.items()) if self._live[i, j]}
        return {"a": self.a, "b": self.b,
                "C": [[scalar_to_json(x) for x in row] for row in self.C.entries],
                "psi": psi}

    @staticmethod
    def from_json(obj):
        C = [[scalar_from_json(x) for x in row] for row in obj["C"]]
        psi = {(i - 1, j - 1): [FnExpr.from_json(f) for f in fns]
               for (i, j), fns in pair_keys(obj.get("psi", {})).items()}
        M = PlaneWaveMetric(int(obj["a"]), int(obj["b"]), C, psi)
        M.cinv  # a singular C raises linalg.SingularMatrixError, a ValueError
        return M


# ---------------------------------------------------------------------------
# metric and Christoffel symbols


def metric_at(M: PlaneWaveMetric, P) -> BilinearForm:
    """g at P.  g(dx_i, dx_j) sums 2 y_mu psi_{ij,mu}(x) over the live mu;
    a zero-constant psi adds a zero, which is added only where it changes
    the sum's type (scalars.adds_nothing), as the sum over every mu does."""
    a, b, n = M.a, M.b, M.n
    x = tuple(P[:a])
    y = P[2 * a:]
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(a):
        G[i][M.xsi(i)] = G[M.xsi(i)][i] = 1
        for j in range(i, a):
            s, live = 0, M._live.get((i, j))
            for mu, f in enumerate(M.psi.get((i, j), ())):
                if y[mu] != 0 and (mu in live or not adds_nothing(s, y[mu], f.value)):
                    s = s + 2 * y[mu] * f.eval(x)
            G[i][j] = G[j][i] = s
    for mu in range(b):
        for nu in range(b):
            G[M.yi(mu)][M.yi(nu)] = M.C.entries[mu][nu]
    return BilinearForm(G)


def christoffel(M: PlaneWaveMetric, P, kind="second") -> CoordTensor:
    """Christoffel symbols of the second kind at P, read from the table
    M.gamma: comps[(u,v,f)] = Gamma^f_{uv}.  All symbols with an x* index
    among u, v vanish; outputs f are x* or y only."""
    if kind != "second":
        raise ValueError(f"unknown Christoffel kind {kind!r}: only 'second'")
    P = tuple(P)
    at = terms_evaluator(P, M.a, M._plans)
    comps = {}
    for (u, v), row in M.gamma.items():
        for f, terms in row.items():
            val = at(terms)
            if not iszero(val):
                comps[(u, v, f)] = comps[(v, u, f)] = val
    return CoordTensor(M.n, (2, 1), comps)


# ---------------------------------------------------------------------------
# curvature: the riemann table and the generic oracle


def curvature_at(M: PlaneWaveMetric, P) -> CoordTensor:
    """R at P, read from the table M.riemann; full symmetric expansion."""
    P = tuple(P)
    at = terms_evaluator(P, M.a, M._plans)
    comps = {}
    for key, terms in M.riemann.items():
        v = at(terms)
        if not iszero(v):
            for tup, s in riemann_orbit(key):
                comps[tup] = s * v
    return CoordTensor(M.n, (4, 0), comps)


def _gamma2_sparse(M, P):
    """Second-kind symbols and their coordinate partials, from the table.

    Returns (gam, dgam): gam[(u,v)] = {f: value}; dgam[w][(u,v)] = {f: value}
    for the partial with respect to coordinate w (no symbol depends on x*).
    """
    P = tuple(P)
    at = terms_evaluator(P, M.a, M._plans)
    gam = {}
    dgam = {}

    def add(tbl, u, v, f, val):
        if not iszero(val):
            tbl.setdefault((u, v), {})[f] = val
            tbl.setdefault((v, u), {})[f] = val

    for (u, v), row in M.gamma.items():
        for f, terms in row.items():
            add(gam, u, v, f, at(terms))
            for l in range(M.a):
                add(dgam.setdefault(l, {}), u, v, f, at(terms, (l,)))
            for y in sorted({t[2] for t in terms if t[2] is not None}):
                add(dgam.setdefault(y, {}), u, v, f, at(terms, dy=y))
    return gam, dgam


def curvature_generic(M: PlaneWaveMetric, P) -> CoordTensor:
    """Curvature assembled from the Christoffel symbols and their exact
    partials: R(a,b,c,d) = sum_f g_{fd} (d_a G^f_bc - d_b G^f_ac
    + sum_e (G^e_bc G^f_ae - G^e_ac G^f_be)).  It reads the gamma table only,
    so it checks the riemann table independently.
    """
    gam, dgam = _gamma2_sparse(M, P)
    g = metric_at(M, P).entries
    n = M.n
    comps = {}
    for aa in range(n):
        for bb in range(n):
            if aa == bb:
                continue
            for cc in range(n):
                acc = {}
                for f, v in dgam.get(aa, {}).get((bb, cc), {}).items():
                    acc[f] = acc.get(f, 0) + v
                for f, v in dgam.get(bb, {}).get((aa, cc), {}).items():
                    acc[f] = acc.get(f, 0) - v
                for e, ve in gam.get((bb, cc), {}).items():
                    for f, vf in gam.get((aa, e), {}).items():
                        acc[f] = acc.get(f, 0) + ve * vf
                for e, ve in gam.get((aa, cc), {}).items():
                    for f, vf in gam.get((bb, e), {}).items():
                        acc[f] = acc.get(f, 0) - ve * vf
                for f, v in acc.items():
                    if v == 0:
                        continue
                    for dd in range(n):
                        w = g[f][dd]
                        if w != 0:
                            key = (aa, bb, cc, dd)
                            comps[key] = comps.get(key, Fraction(0)) + v * w
    return CoordTensor(n, (4, 0), {k: v for k, v in comps.items() if not iszero(v)})


# ---------------------------------------------------------------------------
# iterated covariant derivatives of R


class _CovREngine:
    """Point evaluator of the nabla^k R table: value(idx4, dirs) is
    (nabla^k R)(idx4; dirs) at P, dirs innermost first, read off the
    canonical key with the sign of canonicalize_riemann, memoized per point,
    a Fraction at an exact P."""

    def __init__(self, M: PlaneWaveMetric, P):
        self.M = M
        self.P = tuple(P)
        self.memo = {}
        self._at = terms_evaluator(self.P, M.a, M._plans)

    def value(self, idx4, dirs=()):
        key = (tuple(idx4), tuple(dirs))
        v = self.memo.get(key)
        if v is None:
            v = self.memo[key] = self._compute(*key)
        return v

    def _compute(self, idx4, dirs):
        canon, sign = canonicalize_riemann(idx4)
        if canon != idx4:
            return sign * self.value(canon, dirs) if canon else Fraction(0)
        v = self._at(self.M.nabla_riemann(idx4, dirs))
        # an empty sum is int 0, which turns into a float when divided
        return Fraction(v) if type(v) is int else v


def _support_entries(M: PlaneWaveMetric, k, ys=()):
    """The canonical (key, dirs) of the nabla^k R table whose indices are x's
    and y indices from ys, at most one of them a y (the support rule); with
    no ys, in the lexicographic order of key + dirs."""
    xs = range(M.a)
    pairs = sorted([*itertools.combinations(xs, 2), *((i, y) for i in xs for y in ys)])
    for p, q in itertools.combinations_with_replacement(pairs, 2):
        if p[1] in ys and q[1] in ys:
            continue
        yield from ((p + q, dirs) for dirs in itertools.product(xs, repeat=k))
        if p[1] not in ys and q[1] not in ys:
            for pos in range(k):
                for y in ys:
                    for rest in itertools.product(xs, repeat=k - 1):
                        yield p + q, rest[:pos] + (y,) + rest[pos:]


def _components(eng, entries):
    """(index, value) of the nonzero components the canonical entries reach:
    each entry is evaluated once and expanded over the orbit of its key."""
    for key, dirs in entries:
        v = eng.value(key, dirs)
        if not iszero(v):
            yield from ((tup + dirs, s * v) for tup, s in riemann_orbit(key))


def _support_rank(M: PlaneWaveMetric, idx):
    """Sort key of the listing order of nabla^k R: x-type index tuples first,
    lexicographically, then by the slot and index of the y, then the rest."""
    pos = next((p for p, t in enumerate(idx) if t >= 2 * M.a), None)
    return (0, idx) if pos is None else (1, pos, idx[pos], idx[:pos] + idx[pos + 1:])


def covariant_derivative_R(M: PlaneWaveMetric, P, k: int) -> CoordTensor:
    """nabla^k R at P as a sparse CoordTensor of valence (4, k), listed in
    the order of _support_rank.  Components with an x* index, or with more
    than one y index, are omitted (they vanish identically: the support rule)."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    found = _components(_CovREngine(M, P), _support_entries(M, k, range(2 * M.a, M.n)))
    return CoordTensor(M.n, (4, k), sorted(found, key=lambda c: _support_rank(M, c[0])))


def first_nonzero_component(M: PlaneWaveMetric, P, k: int):
    """The first (index, value) of covariant_derivative_R(M, P, k), or None.
    The x-type entries are scanned first and lazily: the lexicographically
    first nonzero x-type index is its own canonical key.  Only if they all
    vanish are the entries with a y index evaluated."""
    eng = _CovREngine(M, P)
    found = _components(eng, _support_entries(M, k, range(2 * M.a, M.n)))
    return next(_components(eng, _support_entries(M, k)), None) or min(
        found, key=lambda c: _support_rank(M, c[0]), default=None)


def nabla_R_component(M: PlaneWaveMetric, P, idx4, dirs):
    """Single component of nabla^k R with coordinate indices."""
    return _CovREngine(M, P).value(tuple(idx4), tuple(dirs))


def nabla_R_contract(M: PlaneWaveMetric, P, vecs, requests, engine=None):
    """(nabla^k R)(X1, X2, X3, X4; D1, ..., Dk) at P for each request, a tuple
    of 4 + k positions in the list of tangent vectors vecs.  As R is
    antisymmetric within each index pair, a value is the sum over coordinate
    pairs p, q of W12[p] W34[q] (nabla^k R)(p + q; D1, ..., Dk), with wedges
    W12 = X1 ^ X2, W34 = X3 ^ X4 (symmetry.wedge) and p + q or q + p a
    canonical key; the direction slots are contracted one by one.  Each wedge
    is formed, and each entry the vectors reach within the support rule
    evaluated, once per call.  A value reaching no nonzero component is int 0."""
    eng = engine if engine is not None else _CovREngine(M, P)
    out = M.outside_support
    nz = [[(i, c) for i, c in enumerate(v) if c and not out((i,))] for v in vecs]

    @functools.cache
    def pairs(s, t):
        """The wedge pairs within the support, each flagged when it holds a
        y index (p[1], as p has no x*): two flagged pairs leave it."""
        return [(p, w, p[1] >= M.yi(0)) for p, w in wedge(nz[s], nz[t]).items()
                if not out(p)]

    @functools.cache
    def entry(key, ds):
        """The entry at key contracted with the vectors at the positions ds,
        or None when no component it reaches is nonzero."""
        terms = [((), 1)]
        for d in ds:
            terms = [(dirs + (e,), c * x) for dirs, c in terms
                     for e, x in nz[d] if not out(key + dirs + (e,))]
        vals = [c * v for dirs, c in terms if (v := eng.value(key, dirs)) != 0]
        return sum(vals[1:], vals[0]) if vals else None

    values = []
    for s1, s2, s3, s4, *ds in requests:
        total = 0
        for p, w12, py in pairs(s1, s2):
            for q, w34, qy in pairs(s3, s4):
                v = None if py and qy else entry(min(p + q, q + p), tuple(ds))
                if v is not None:
                    total += w12 * w34 * v
        values.append(total)
    return values


def nabla_R_frame(M: PlaneWaveMetric, P, vecs4, dvecs, engine=None):
    """nabla^k R on arbitrary tangent vectors at P: one nabla_R_contract."""
    vecs = list(vecs4) + list(dvecs)
    return nabla_R_contract(M, P, vecs, [range(len(vecs))], engine)[0]


# the geodesic cascade (jtcurv.geodesic), bound here as well: the CLI and the
# package reach it through this module
from .geodesic import (_Geodesic, exp_inverse, geodesic, geodesic_fit,  # noqa: E402,F401
                       geodesic_residual, geodesic_trace_csv)
