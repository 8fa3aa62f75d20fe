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
derivatives of R tractable.  _Geodesic runs the cascade once for all data:
three primitives fit, integrate and evaluate each stage, and only they tell
Poly arithmetic (rational data, polynomial psi) from Chebyshev series.

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
import math
import warnings
from fractions import Fraction

from .expr import FnExpr, _floated, terms_evaluator
from .linalg import BilinearForm, CoordTensor, mat_inv
from .models import canonicalize_riemann, riemann_orbit
from .poly import Poly
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


# ---------------------------------------------------------------------------
# geodesics and the exponential map


def _resolve_quadrature(M, values, quadrature):
    """"auto" becomes "exact-poly" for rational data on a polynomial metric
    (PlaneWaveMetric.is_polynomial) and "adaptive" otherwise; "exact-poly"
    is checked, and any other name is a ValueError."""
    if quadrature not in ("auto", "exact-poly"):
        raise ValueError(f"unknown quadrature {quadrature!r}: use 'auto' or "
                         "'exact-poly'")
    exact = all(is_exact(c) for c in values) and M.is_polynomial()
    if quadrature == "exact-poly" and not exact:
        raise ValueError("exact-poly quadrature needs rational data and "
                         "polynomial warping functions")
    return "exact-poly" if exact else "adaptive"


#: Chebyshev fits of the float geodesic: the first degree tried, the degree
#: cap, how many trailing coefficients make the tail, and the tail (relative
#: to the largest coefficient) at which the doubling stops.
_CHEB_START = 16
_CHEB_CAP = 1024
_CHEB_TAIL = 3
_CHEB_TOL = 1e-15

#: the parameter at which exact data sample each stage, once
_T = Poly.t()


class _Geodesic:
    """Cascade-integrated geodesic through P with initial velocity v.

    x is affine in t; y'' (_F, reading x) and then x*'' (_G, reading x, y
    and y') are the Christoffel table contracted once with the x velocities,
    which stay constant.  Each stage is fitted from samples of its
    accelerations (_fit), integrated twice from P with velocity v
    (_integrate) and evaluated at t (_series_at); only these three
    primitives tell the two kinds of data apart:
      "exact-poly" (rational P and v, PlaneWaveMetric.is_polynomial) samples
      a stage once, at the Poly t, which gives its accelerations as Polys;
      "adaptive" (otherwise) fits Chebyshev series on one interval ``span``
      holding 0 and every parameter asked for so far: it samples at the
      Chebyshev-Lobatto nodes, doubling the degree from _CHEB_START and
      reusing the samples it has, until the largest of the last _CHEB_TAIL
      coefficients is at most _CHEB_TOL times the largest, or until
      _CHEB_CAP.  ``fit`` holds the degree and that relative tail (the
      larger of the two stages); a fit that stops at the cap is not
      ``converged`` and warns.  A parameter outside the interval rebuilds
      both stages on the widened hull.  The samples at each degree's new
      nodes are taken in one batch, whose y series are summed in one
      chebval call; the trees are read through their compiled closures
      (FnExpr.compiled), which return what the tree walk does, bit for bit.
    P and v are held in the scalars of the path, Fraction or float.  Stages
    are built on first use; the y fit does not read the y velocities, so
    exp_inverse changes those (_restart_y) without fitting again.
    acceleration reads the fitted Polys on exact data and samples _F and _G
    at t on float data.
    """

    def __init__(self, M: PlaneWaveMetric, P, v, quadrature="auto"):
        self.M = M
        self.quadrature = _resolve_quadrature(M, tuple(P) + tuple(v), quadrature)
        self.exact = self.quadrature == "exact-poly"
        self._scalar = Fraction if self.exact else float
        self.P = tuple(map(self._scalar, P))
        self.v = tuple(map(self._scalar, v))
        self._xs, self._ys = range(M.a, 2 * M.a), range(2 * M.a, M.n)
        self.fit = {}
        # y'' series; y and x* series built from it and v
        self.span = self._yacc = self._ypos = self._xpos = None
        self._contract(self.v)

    def _contract(self, v):
        """Contract the table with v once: terms[f][(y, ydot)] lists (c, fn)
        such that gamma''_f = sum over the groups of sum c * fn(x) times
        gamma_y times gamma'_ydot, a factor being 1 when its index is None;
        fn is the tree's eval on exact data.  On float data, where c and x
        are floats, it is the compiled closure (FnExpr.compiled), and a
        variable-free tree gives float(value), which c * value converts to."""
        M = self.M
        self.terms = {}
        for (u, w), row in M.gamma.items():
            # u is of x type; w is of x type (factor v_w) or y type (factor y_w')
            ydot = w if M.coord_kind(w) == "y" else None
            vel = (1 if u == w else 2) * v[u] * (1 if ydot is not None else v[w])
            if vel == 0:
                continue
            for f, terms in row.items():
                for coef, expr, y in terms:
                    kind, fn = (None, expr.eval) if self.exact else expr.compiled()
                    if kind == "const":
                        fn = lambda x, c=_floated(fn(())): c
                    self.terms.setdefault(f, {}).setdefault((y, ydot), []).append(
                        (-coef * vel, fn))

    def _F(self, f, x, pos=None, vel=None):
        """gamma''_f at the x coordinates x: y'' for a y coordinate f (_F),
        x*'' for an x* coordinate f (_G), where pos(c) and vel(c) give y_c
        and y_c'."""
        total = 0
        for (y, ydot), terms in self.terms.get(f, {}).items():
            s = 0
            for c, fn in terms:
                s += c * fn(x)
            if y is not None:
                s = s * pos(y)
            if ydot is not None:
                s = s * vel(ydot)
            total = total + s
        return total

    _G = _F

    def _x_at(self, t):
        """The x coordinates at t."""
        return tuple(self.P[i] + t * self.v[i] for i in range(self.M.a))

    def _y_rows(self, ss):
        """y'' of every y coordinate, one row for each s in ss."""
        return [[self._F(f, x) for f in self._ys] for x in map(self._x_at, ss)]

    def _xstar_rows(self, ss):
        """x*'' of every x* coordinate, one row for each s in ss, reading y and
        y' off the y stage, evaluated at all of ss at once."""
        rows = []
        for s, ypos, yvel in zip(ss, *self._series_at(ss, self._ypos, self._yvel)):
            x = self._x_at(s)
            pos = dict(zip(self._ys, ypos)).__getitem__
            vel = dict(zip(self._ys, yvel)).__getitem__
            rows.append([self._G(f, x, pos, vel) for f in self._xs])
        return rows

    def _restart_y(self, v):
        """Start with the velocity v instead, which differs from the old one
        in its y entries only: the y'' fit (it reads x only) is kept, what
        the old y velocities gave is dropped."""
        self.v = tuple(map(self._scalar, v))
        self._ypos = self._xpos = None

    def _y_at(self, t):
        """The y coordinates at t, from the y stage alone."""
        t, = self._cover((t,), xstar=False)
        return self._series_at([t], self._ypos)[0][0]

    def _cover(self, ts, xstar=True):
        """Check that every t in ts is finite, build what is missing of the
        y stage and, with xstar, of the x* stage, and return ts as the path
        evaluates them (float, or exact where the path and t are).  On float
        data the series cover 0, every t in ts and the interval they already
        cover, and are rebuilt on the hull if a t falls outside."""
        if not all(is_exact(t) or math.isfinite(t) for t in ts):
            raise ValueError(f"geodesic parameters must be finite, got {list(ts)}")
        if self.exact:
            ts = [t if is_exact(t) else float(t) for t in ts]
        else:
            ts = [float(t) for t in ts]
            lo, hi = min(ts + [0.0]), max(ts + [0.0])
            if self.span is None or not (self.span[0] <= lo and hi <= self.span[1]):
                if self.span is not None:
                    lo, hi = min(lo, self.span[0]), max(hi, self.span[1])
                self.span = (lo, lo + 1.0 if lo == hi else hi)
                self._yacc = self._ypos = self._xpos = None
        if self._yacc is None:
            self._yacc, self._yfit = self._fit(self._y_rows, self.M.b)
        if self._ypos is None:
            self._ypos, self._yvel = self._integrate(self._yacc, self._ys)
        if xstar and self._xpos is None:
            self._xacc, xfit = self._fit(self._xstar_rows, self.M.a)
            self._xpos, self._xvel = self._integrate(self._xacc, self._xs)
            if not self.exact:
                self.fit = {"cheb_degree": max(self._yfit[0], xfit[0]),
                            "cheb_tail": max(self._yfit[1], xfit[1])}
                if not self.converged:
                    lo, hi = self.span
                    warnings.warn(f"geodesic Chebyshev fit on [{lo}, {hi}] stopped "
                                  f"at degree {_CHEB_CAP} with relative tail "
                                  f"{self.fit['cheb_tail']:.3g}", RuntimeWarning)
        return ts

    @property
    def converged(self):
        """False once a float fit has stopped at _CHEB_CAP above _CHEB_TOL."""
        return self.fit.get("cheb_tail", 0.0) <= _CHEB_TOL

    # ---- the three primitives: exact (Poly) or float (Chebyshev series) ----
    def _fit(self, rows, width):
        """The acceleration series of one stage, rows(ss) giving its `width`
        accelerations at each s in ss, and the fit's (degree, relative tail):
        exact, the Polys rows gives at the Poly t (no degree or tail); float,
        Chebyshev coefficients on self.span, one column per coordinate, from
        the samples at each degree's new nodes, taken in one call."""
        if self.exact:
            return [Poly() + acc for acc in rows([_T])[0]], None
        # numpy loads with the first float geodesic, not with the package
        import numpy as np
        lo, hi = self.span
        mid, half = (lo + hi) / 2, (hi - lo) / 2

        def sample(n, js):
            out = rows([mid + half * math.cos(math.pi * j / n) for j in js])
            return np.array(out, dtype=float).reshape(len(js), width)

        n = _CHEB_START
        vals = sample(n, range(n + 1))
        while True:
            # Chebyshev coefficients of the interpolant at the Lobatto nodes
            # cos(pi j / n): a discrete cosine transform of the first kind
            j = np.arange(n + 1)
            dct = np.cos(np.pi * (np.outer(j, j) % (2 * n)) / n)
            w = np.ones(n + 1)
            w[[0, n]] = 0.5
            coef = (2.0 / n) * (dct @ (w[:, None] * vals))
            coef[[0, n]] *= 0.5
            scale = np.abs(coef).max(initial=0.0)
            tail = np.abs(coef[-_CHEB_TAIL:]).max(initial=0.0)
            rel = float(tail / scale) if scale else 0.0
            if rel <= _CHEB_TOL or n >= _CHEB_CAP:
                return coef, (n, rel)
            n *= 2
            grown = np.empty((n + 1, vals.shape[1]))
            grown[0::2] = vals
            grown[1::2] = sample(n, range(1, n, 2))
            vals = grown

    def _integrate(self, acc, coords):
        """Integrate the accelerations acc of coords twice from 0, starting at
        P with velocity v: the position and velocity series."""
        P, v = self.P, self.v
        if self.exact:
            vel = [v[c] + a.integrate() for a, c in zip(acc, coords)]
            return [P[c] + w.integrate() for w, c in zip(vel, coords)], vel
        from numpy.polynomial import chebyshev as C
        lo, hi = self.span
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        u0 = -mid / half
        vel = C.chebint(acc, lbnd=u0, scl=half)
        vel[0] += [v[c] for c in coords]
        pos = C.chebint(vel, lbnd=u0, scl=half)
        pos[0] += [P[c] for c in coords]
        return pos, vel

    def _series_at(self, ts, *series):
        """The values of each series at every t in ts, one list of rows (one
        row per t) per series; at the Poly t exact series are their own
        values.  Float series are summed at all of ts in one chebval call."""
        if self.exact:
            return [[list(s) if t is _T else [p.eval(t) for p in s] for t in ts]
                    for s in series]
        import numpy as np
        from numpy.polynomial.chebyshev import chebval
        lo, hi = self.span
        u = np.array([(2 * t - lo - hi) / (hi - lo) for t in ts])
        return [chebval(u, c).T.tolist() for c in series]

    def at(self, t):
        if not self.exact and t == 0:
            return self.P
        t, = self._cover((t,))
        (xs,), (ys,) = self._series_at([t], self._xpos, self._ypos)
        return self._x_at(t) + tuple(xs) + tuple(ys)

    def velocity(self, t):
        if not self.exact and t == 0:
            return self.v
        t, = self._cover((t,))
        (xs,), (ys,) = self._series_at([t], self._xvel, self._yvel)
        vx = tuple(c if is_exact(t) else float(c) for c in self.v[:self.M.a])
        return vx + tuple(xs) + tuple(ys)

    def acceleration(self, t):
        """gamma'' at t: on exact data the fitted Polys, which are the second
        derivatives of the positions; on float data _F and _G at t."""
        t, = self._cover((t,))
        if self.exact:
            (xs,), (ys,) = self._series_at([t], self._xacc, self._yacc)
        else:
            (ys,), (xs,) = self._y_rows([t]), self._xstar_rows([t])
        zero = Fraction(0) if is_exact(t) else 0.0
        return (zero,) * self.M.a + tuple(xs) + tuple(ys)

    def residual(self, t):
        """Max abs component of gamma'' + Gamma(gamma', gamma') at parameter t."""
        pt = self.at(t)
        vel = self.velocity(t)
        acc = list(self.acceleration(t))
        gam = christoffel(self.M, pt, "second")
        for (u, w, f), val in gam.items():
            if vel[u] != 0 and vel[w] != 0:
                acc[f] += val * vel[u] * vel[w]
        return max(abs(c) for c in acc)


def geodesic_fit(M: PlaneWaveMetric, P, v, ts=(), quadrature="auto"):
    """The geodesic from P with initial velocity v, built once over 0 and every
    t in ts: its at, velocity, acceleration and residual evaluate it, and in
    float mode its fit dict gives the Chebyshev degree and relative tail."""
    g = _Geodesic(M, P, v, quadrature)
    g._cover(ts)
    return g


def geodesic(M: PlaneWaveMetric, P, v, t, quadrature="auto"):
    """Point reached at parameter t along the geodesic from P with velocity v."""
    return _Geodesic(M, P, v, quadrature).at(t)


def geodesic_residual(M: PlaneWaveMetric, P, v, t, quadrature="auto"):
    """Max abs component of gamma'' + Gamma(gamma', gamma') at parameter t."""
    return _Geodesic(M, P, v, quadrature).residual(t)


def exp_inverse(M: PlaneWaveMetric, P, Q, quadrature="auto"):
    """Initial velocity v with geodesic(M, P, v, 1) = Q, by back-substitution."""
    a, b = M.a, M.b
    P = tuple(P)
    Q = tuple(Q)
    exact = _resolve_quadrature(M, P + Q, quadrature) == "exact-poly"
    v = [0] * M.n
    for i in range(a):
        v[i] = Q[i] - P[i]
    # y'' reads only the x velocities: fit it once, solve the y velocities,
    # then fit x*'' with them; a float Q takes the float path from exact P
    g = _Geodesic(M, P if exact else [float(c) for c in P], v, quadrature)
    reached = g._y_at(1)
    for mu in range(b):
        v[M.yi(mu)] = Q[M.yi(mu)] - reached[mu]
    g._restart_y(v)
    reached = g.at(1)
    for k in range(a):
        v[M.xsi(k)] = Q[M.xsi(k)] - reached[M.xsi(k)]
    return tuple(v)


def geodesic_trace_csv(M: PlaneWaveMetric, P, v, ts, stream, quadrature="auto"):
    """Write the sampled geodesic as CSV with header t,<coordinate labels>;
    returns the geodesic it evaluated (see geodesic_fit)."""
    import csv
    g = geodesic_fit(M, P, v, ts, quadrature)
    writer = csv.writer(stream)
    writer.writerow(["t"] + M.labels())
    for t in ts:
        writer.writerow([float(t)] + [float(c) for c in g.at(t)])
    return g
