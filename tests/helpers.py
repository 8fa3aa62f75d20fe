"""Hand-transcribed component fixtures for the constant-coefficient
plane-wave family, shared between the unit suite and the acceptance suite,
reference loops for the closed-form curvature of a plane-wave metric, the
pointwise recursion for its iterated covariant derivatives, and the plain
scans and contractions of nabla^k R over coordinate index tuples."""

import itertools
from fractions import Fraction

from jtcurv import realizations
from jtcurv.expr import FnExpr, terms_evaluator
from jtcurv.models import (M14_LABELS, CheckReport, canonicalize_riemann,
                           riemann_orbit)
from jtcurv.planewave import CoordTensor, _CovREngine, metric_at
from jtcurv.scalars import iszero
from jtcurv.realizations import Y_PAIRS
from jtcurv.scalars import REL_TOL, close, is_exact

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

YIDX = {p: 6 + m for m, p in enumerate(Y_PAIRS)}


def curvature_unit_fixtures():
    """R components involving one y index: constants independent of A."""
    out = {
        (1, 0, 0, YIDX[(2, 1)]): Fraction(1),
        (2, 0, 0, YIDX[(3, 1)]): Fraction(1),
        (2, 1, 1, YIDX[(3, 2)]): Fraction(1),
        (0, 1, 1, YIDX[(1, 2)]): Fraction(1),
        (0, 2, 2, YIDX[(1, 1)]): Fraction(1),
        (1, 2, 2, YIDX[(2, 2)]): Fraction(1),
        (0, 1, 2, YIDX[(4, 1)]): -HALF,
        (0, 2, 1, YIDX[(4, 1)]): -HALF,
        (1, 2, 0, YIDX[(4, 2)]): -HALF,
        (1, 0, 2, YIDX[(4, 2)]): -HALF,
    }
    return out


def curvature_xxxx_fixtures(A, P):
    """The six independent 4-x curvature components as functions of A, P."""
    a = A.a
    x1, x2, x3 = P[0], P[1], P[2]
    return {
        (0, 1, 1, 0): -a[(3, 1)] * a[(3, 2)] * x3 * x3,
        (0, 2, 2, 0): -THIRD * (2 + 3 * a[(2, 1)] * a[(2, 2)]) * x2 * x2,
        (2, 1, 1, 2): -THIRD * (2 + 3 * a[(1, 1)] * a[(1, 2)]) * x1 * x1,
        (1, 0, 0, 2): (1 - a[(1, 1)] - a[(1, 2)] + a[(1, 1)] * a[(1, 2)]
                       + a[(2, 1)] - a[(2, 1)] * a[(2, 2)]
                       + a[(3, 1)] - a[(3, 1)] * a[(3, 2)]) * x2 * x3,
        (0, 1, 1, 2): (1 + a[(1, 2)] - a[(2, 1)] - a[(1, 1)] * a[(1, 2)]
                       - a[(2, 2)] + a[(2, 1)] * a[(2, 2)]
                       + a[(3, 2)] - a[(3, 1)] * a[(3, 2)]) * x1 * x3,
        (0, 2, 2, 1): (Fraction(2, 3) + a[(1, 1)] - a[(1, 1)] * a[(1, 2)]
                       + a[(2, 2)] - a[(2, 1)] * a[(2, 2)]
                       - a[(3, 1)] - a[(3, 2)] + a[(3, 1)] * a[(3, 2)]) * x1 * x2,
    }


def _nabla_coefficients(A):
    a = A.a
    e1 = -2 * (-2 + a[(1, 1)] + a[(2, 2)] + a[(3, 1)] * a[(3, 2)])
    e2 = -Fraction(2, 3) * (-4 + 3 * a[(1, 2)] + 3 * a[(3, 2)]
                            + 3 * a[(2, 1)] * a[(2, 2)])
    e3 = -Fraction(2, 3) * (-4 + 3 * a[(2, 1)] + 3 * a[(3, 1)]
                            + 3 * a[(1, 1)] * a[(1, 2)])
    e4 = (2 - a[(1, 1)] - a[(1, 2)] + a[(2, 1)] - a[(2, 2)]
          + a[(3, 1)] - a[(3, 2)] + a[(1, 1)] * a[(1, 2)]
          - a[(2, 1)] * a[(2, 2)] - a[(3, 1)] * a[(3, 2)])
    e5 = (2 - a[(1, 1)] + a[(1, 2)] - a[(2, 1)] - a[(2, 2)]
          - a[(3, 1)] + a[(3, 2)] - a[(1, 1)] * a[(1, 2)]
          + a[(2, 1)] * a[(2, 2)] - a[(3, 1)] * a[(3, 2)])
    e6 = (Fraction(2, 3) + a[(1, 1)] - a[(1, 2)] - a[(2, 1)] + a[(2, 2)]
          - a[(3, 1)] - a[(3, 2)] - a[(1, 1)] * a[(1, 2)]
          - a[(2, 1)] * a[(2, 2)] + a[(3, 1)] * a[(3, 2)])
    return e1, e2, e3, e4, e5, e6


def nabla_r_fixtures(A, P):
    """The nine published first-derivative components: (idx4, dir) -> value."""
    e1, e2, e3, e4, e5, e6 = _nabla_coefficients(A)
    x1, x2, x3 = P[0], P[1], P[2]
    return {
        ((0, 1, 1, 0), 2): e1 * x3,
        ((0, 2, 2, 0), 1): e2 * x2,
        ((1, 2, 2, 1), 0): e3 * x1,
        ((1, 0, 0, 2), 1): e4 * x3,
        ((1, 0, 0, 2), 2): e4 * x2,
        ((0, 1, 1, 2), 0): e5 * x3,
        ((0, 1, 1, 2), 2): e5 * x1,
        ((0, 2, 2, 1), 0): e6 * x2,
        ((0, 2, 2, 1), 1): e6 * x1,
    }


def nabla_r_expected_full(A, P):
    """Every nonzero nabla R component at P, expanded over symmetry orbits."""
    out = {}
    for (idx4, e), val in nabla_r_fixtures(A, P).items():
        if val == 0:
            continue
        for tup, s in riemann_orbit(idx4):
            out[tup + (e,)] = s * val
    return out


def verify_0_model_reference(M, P, rel=REL_TOL):
    """verify_0_model as a plain scan: every canonical component of the
    model, in index order, contracted on the frame vectors one at a time."""
    model = realizations.build_m14()
    try:
        frame = realizations.normalize_basis_0(M, P)
    except (ValueError, ZeroDivisionError) as err:
        return CheckReport("0-model", False, witness={"error": str(err)})
    g = metric_at(M, P)
    vecs = frame.ordered()
    for u in range(14):
        for v in range(u, 14):
            got = g.apply(vecs[u], vecs[v])
            want = model.form.entries[u][v]
            # a float is compared against the size of the terms it sums
            scale = 0 if is_exact(got) else sum(
                abs(vecs[u][i] * g[i, j] * vecs[v][j])
                for i in range(14) for j in range(14))
            if not close(got, want, rel=rel, scale=scale):
                return CheckReport("0-model", False, witness={
                    "part": "form", "index": (M14_LABELS[u], M14_LABELS[v]),
                    "expected": want, "got": got})
    eng = nabla_R_reference(M, P)
    checked = 0
    for u in range(14):
        for v in range(u + 1, 14):
            for w in range(u, 14):
                for z in range(w + 1, 14):
                    if (w, z) < (u, v):
                        continue
                    got = nabla_R_frame_reference(
                        M, P, [vecs[u], vecs[v], vecs[w], vecs[z]], [], engine=eng)
                    want = model.tensor.value(u, v, w, z)
                    checked += 1
                    if not close(got, want, rel=rel):
                        return CheckReport("0-model", False, witness={
                            "part": "tensor",
                            "index": tuple(M14_LABELS[i] for i in (u, v, w, z)),
                            "expected": want, "got": got})
    return CheckReport("0-model", True, stats={"components_checked": checked})


def dense(op):
    """The n x n matrix [row][col] of an Operator; an entry absent from its
    map is Fraction(0)."""
    return [[op.entries.get((i, j), Fraction(0)) for j in range(op.n)]
            for i in range(op.n)]


# ---------------------------------------------------------------------------
# the closed-form curvature as plain loops over ordered index tuples


def curvature_reference(M, P):
    """R at P from the psi partials, one ordered 4-tuple at a time; the first
    tuple of each symmetry orbit gives its value."""
    a, b = M.a, M.b
    x = tuple(P[:a])
    y = P[2 * a:]
    canon = {}

    def put(idx, val):
        c, s = canonicalize_riemann(idx)
        if c is not None and not iszero(val):
            canon.setdefault(c, s * val)

    for i in range(a):
        for j in range(a):
            if i == j:
                continue
            for k in range(a):
                for nu in range(b):
                    v = -M.dpsi_val(j, k, nu, (i,), x) \
                        + M.dpsi_val(i, k, nu, (j,), x)
                    put((M.xi(i), M.xi(j), M.xi(k), M.yi(nu)), v)
    for i in range(a):
        for j in range(a):
            for k in range(a):
                for l in range(a):
                    if i == j or k == l:
                        continue
                    quad = 0
                    for nu in range(b):
                        for mu in range(b):
                            c = M.cinv[nu][mu]
                            if c == 0:
                                continue
                            quad += c * (M.dpsi_val(i, k, mu, (), x)
                                         * M.dpsi_val(j, l, nu, (), x)
                                         - M.dpsi_val(i, l, mu, (), x)
                                         * M.dpsi_val(j, k, nu, (), x))
                    lin = 0
                    for nu in range(b):
                        if y[nu] == 0:
                            continue
                        B = M.dpsi_val(j, l, nu, (i, k), x) \
                            + M.dpsi_val(i, k, nu, (j, l), x) \
                            - M.dpsi_val(j, k, nu, (i, l), x) \
                            - M.dpsi_val(i, l, nu, (j, k), x)
                        lin += y[nu] * B
                    put((M.xi(i), M.xi(j), M.xi(k), M.xi(l)), quad + lin)

    comps = {}
    for c, v in canon.items():
        for tup, s in riemann_orbit(c):
            comps[tup] = s * v
    return CoordTensor(M.n, (4, 0), comps)


def _r_xxxx_exprs(M, i, j, k, l):
    """(T1, [B_nu]) as FnExpr for R(x_i,x_j,x_k,x_l) = T1 + sum y_nu B_nu."""
    zero = FnExpr.const(0)
    t1 = zero
    for nu in range(M.b):
        for mu in range(M.b):
            c = M.cinv[nu][mu]
            if c == 0:
                continue
            fik, fjl = M.psi_fn(i, k, mu), M.psi_fn(j, l, nu)
            fil, fjk = M.psi_fn(i, l, mu), M.psi_fn(j, k, nu)
            if fik is not None and fjl is not None:
                t1 = t1 + FnExpr.const(c) * fik * fjl
            if fil is not None and fjk is not None:
                t1 = t1 - FnExpr.const(c) * fil * fjk
    bs = []
    for nu in range(M.b):
        B = zero
        for (p, q, d) in [(j, l, (i, k)), (i, k, (j, l))]:
            f = M.dpsi(p, q, nu, d)
            if f is not None:
                B = B + f
        for (p, q, d) in [(j, k, (i, l)), (i, l, (j, k))]:
            f = M.dpsi(p, q, nu, d)
            if f is not None:
                B = B - f
        bs.append(B)
    return t1, bs


def r_partial_reference(M, P, idx4, partials):
    """partial^(partials) of R(idx4) at P from the closed form, for idx4 of
    x type or with one y index, and partials of x type plus at most one y
    coordinate (none when idx4 has its y index)."""
    kind = M.coord_kind
    x = tuple(P[:M.a])
    y = P[2 * M.a:]
    if sum(1 for t in tuple(idx4) + tuple(partials) if kind(t) == "y") >= 2:
        return Fraction(0)
    if any(kind(t) == "y" for t in idx4):
        rep = next(((tup, s) for tup, s in riemann_orbit(idx4)
                    if kind(tup[3]) == "y"
                    and all(kind(t) == "x" for t in tup[:3])), None)
        if rep is None:
            return Fraction(0)
        (i, j, k, ynu), sign = rep
        if i == j:
            return Fraction(0)
        nu = ynu - 2 * M.a
        px = tuple(partials)
        return sign * (-M.dpsi_val(j, k, nu, (i,) + px, x)
                       + M.dpsi_val(i, k, nu, (j,) + px, x))
    i, j, k, l = idx4
    if i == j or k == l:
        return Fraction(0)
    ypart = [p for p in partials if kind(p) == "y"]
    xpart = tuple(p for p in partials if kind(p) == "x")
    t1, bs = _r_xxxx_exprs(M, i, j, k, l)

    def ev(f):
        for d in xpart:
            f = f.diff(d + 1)
        if f.is_zero_const():
            return Fraction(0)
        return f.eval(x)

    if ypart:
        return ev(bs[ypart[0] - 2 * M.a])
    total = ev(t1)
    for nu in range(M.b):
        if y[nu] != 0:
            bv = ev(bs[nu])
            if bv != 0:
                total += y[nu] * bv
    return total


# ---------------------------------------------------------------------------
# nabla^k R by the pointwise recursion


class _NablaRReference:
    """Memoized partials of (nabla^k R) components at one point, by the
    recursion d(nabla^(k-1) R) - Gamma . nabla^(k-1) R run at that point.

    Support rule: a component, or any of its ordinary partials, vanishes
    unless every tensor index is of x type or exactly one is of y type,
    counting y partials as well.
    """

    def __init__(self, M, P):
        self.M = M
        self.P = tuple(P)
        self.memo = {}
        self._gmemo = {}
        self.kind = [M.coord_kind(i) for i in range(M.n)]
        self.walk = terms_evaluator(self.P, M.a)  # the tree walk, no plans

    def value(self, idx4, dirs=(), partials=()):
        """partial^(partials) of (nabla^(len(dirs)) R)(idx4; dirs) at P;
        dirs are applied innermost first."""
        idx4 = tuple(idx4)
        dirs = tuple(dirs)
        partials = tuple(sorted(partials))
        all_idx = idx4 + dirs
        if any(self.kind[i] == "x*" for i in all_idx):
            return Fraction(0)
        ycount = sum(1 for i in all_idx + partials if self.kind[i] == "y")
        if ycount >= 2:
            return Fraction(0)
        key = (idx4, dirs, partials)
        v = self.memo.get(key)
        if v is None:
            v = self._compute(idx4, dirs, partials)
            self.memo[key] = v
        return v

    def _compute(self, idx4, dirs, partials):
        M = self.M
        if not dirs:
            return self._r_partial(idx4, partials)
        e, rest = dirs[-1], dirs[:-1]
        total = self.value(idx4, rest, partials + (e,))
        if self.kind[e] != "x":
            return total
        # Christoffel corrections: only f of y type can contribute (the
        # tensor vanishes on x*), and Gamma^{y_mu}_{e, s} needs s of x type
        slots = idx4 + rest
        xpartials = [p for p in partials if self.kind[p] == "x"]
        ypartials = [p for p in partials if self.kind[p] == "y"]
        for s_pos, s in enumerate(slots):
            if self.kind[s] != "x":
                continue
            for f, terms in M.gamma.get((min(e, s), max(e, s)), {}).items():
                if self.kind[f] != "y":
                    continue
                # split the x partials between the symbol and the tensor
                for r in range(len(xpartials) + 1):
                    for sub in set(itertools.combinations(range(len(xpartials)), r)):
                        p1 = tuple(xpartials[t] for t in sub)
                        p2 = tuple(xpartials[t] for t in range(len(xpartials))
                                   if t not in sub) + tuple(ypartials)
                        key = (e, s, f, p1)
                        gval = self._gmemo.get(key)
                        if gval is None:
                            gval = self._gmemo[key] = self.walk(terms, p1)
                        if gval == 0:
                            continue
                        if s_pos < 4:
                            nidx = idx4[:s_pos] + (f,) + idx4[s_pos + 1:]
                            tval = self.value(nidx, rest, tuple(p2))
                        else:
                            ndirs = rest[:s_pos - 4] + (f,) + rest[s_pos - 3:]
                            tval = self.value(idx4, ndirs, tuple(p2))
                        if tval != 0:
                            total -= gval * tval
        return total

    def _r_partial(self, idx4, partials):
        """partial^(partials) of R(idx4) at P, from the table M.riemann."""
        key, sign = canonicalize_riemann(idx4)
        terms = self.M.riemann.get(key)
        if terms is None:
            return Fraction(0)
        xpart = tuple(p for p in partials if self.kind[p] == "x")
        dy = next((p for p in partials if self.kind[p] == "y"), None)
        return sign * self.walk(terms, xpart, dy)


def nabla_R_reference(M, P):
    """The pointwise recursion at P: an engine whose value(idx4, dirs,
    partials) gives partials of nabla^k R components, usable as the engine
    of nabla_R_frame."""
    return _NablaRReference(M, P)


# ---------------------------------------------------------------------------
# nabla^k R scanned and contracted one coordinate index tuple at a time


def nabla_R_support(M, k):
    """All index tuples of nabla^k R that can be nonzero: every index of x
    type, or exactly one of y type.  Pure-x tuples come first, in
    lexicographic order; then by the slot of the y index, the y index and
    the x indices."""
    xs = list(range(M.a))
    ys = [M.yi(m) for m in range(M.b)]
    total = 4 + k
    yield from itertools.product(xs, repeat=total)
    for pos in range(total):
        for yidx in ys:
            for xtup in itertools.product(xs, repeat=total - 1):
                yield xtup[:pos] + (yidx,) + xtup[pos:]


def covariant_derivative_R_reference(M, P, k):
    """covariant_derivative_R as a scan of every support tuple, in the order
    of nabla_R_support, each evaluated through the engine on its own."""
    eng = _CovREngine(M, P)
    comps = {}
    for idx in nabla_R_support(M, k):
        v = eng.value(idx[:4], idx[4:])
        if not iszero(v):
            comps[idx] = v
    return CoordTensor(M.n, (4, k), comps)


def first_nonzero_reference(M, P, k):
    """The lazy witness scan: the first nonzero (index, value) of nabla^k R
    in the order of nabla_R_support, or None."""
    eng = _CovREngine(M, P)
    for idx in nabla_R_support(M, k):
        v = eng.value(idx[:4], idx[4:])
        if not iszero(v):
            return idx, v
    return None


def symmetric_space_check_reference(A, rng, points):
    """symmetric_space_check with its witness from first_nonzero_reference."""
    res = realizations.symmetric_space_residuals(A)
    M = realizations.build_M_A(A)
    max_comp, worst, sampled = Fraction(0), None, 0
    for _ in range(points):
        P = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(14)]
        sampled += 1
        first = first_nonzero_reference(M, P, 1)
        if first is not None:
            worst, max_comp = first
            break
    holds = all(iszero(r) for r in res) and worst is None
    report = CheckReport("locally-symmetric", holds,
                         stats={"equation_residuals": list(res),
                                "max_nabla_R_component": max_comp,
                                "points_sampled": sampled})
    if not holds:
        report.witness = {"equation_residuals": list(res),
                          "max_nabla_R_component": max_comp,
                          "nabla_R_index": worst}
    return report


def nabla_R_frame_reference(M, P, vecs4, dvecs, engine=None):
    """nabla^k R on tangent vectors as a product over the coordinate
    supports of the slots, skipping x* indices and tuples with two y
    indices, one component at a time."""
    eng = engine if engine is not None else _CovREngine(M, P)
    vecs = list(vecs4) + list(dvecs)
    supports = []
    for v in vecs:
        sup = [i for i, c in enumerate(v) if c != 0 and M.coord_kind(i) != "x*"]
        supports.append(sup)
    total = 0
    for combo in itertools.product(*supports):
        if sum(1 for i in combo if M.coord_kind(i) == "y") >= 2:
            continue
        coeff = 1
        for slot, i in enumerate(combo):
            coeff = coeff * vecs[slot][i]
        val = eng.value(combo[:4], combo[4:])
        if val != 0:
            total += coeff * val
    return total


def pullback_reference(comps, T):
    """Nonzero components of the 4-tensor comps pulled back through T,
    contracted one slot at a time over the whole dict: sum over old indices
    of comps[old] * prod_s T[old_s][new_s].  Every index the contraction
    reaches is kept, not only the canonical ones."""
    rows = [[(i, t) for i, t in enumerate(row) if t != 0] for row in T]
    cur = comps
    for slot in range(4):
        nxt = {}
        for idx, v in cur.items():
            head, tail = idx[:slot], idx[slot + 1:]
            for i, t in rows[idx[slot]]:
                nidx = head + (i,) + tail
                nxt[nidx] = nxt.get(nidx, 0) + v * t
        cur = {k: v for k, v in nxt.items() if v != 0}
    return cur


def canonical_part(comps):
    """The entries of comps on the canonical indices u<v, w<z, (u,v) <= (w,z)."""
    return {idx: v for idx, v in comps.items()
            if idx[0] < idx[1] and idx[2] < idx[3] and idx[:2] <= idx[2:]}


# ---------------------------------------------------------------------------
# the tables of a plane-wave metric built by dense loops over every index


def canonicalize_riemann_reference(idx):
    """The least (tuple, sign) of the symmetry orbit of idx, or (None, 0)
    when a pair repeats an index."""
    i, j, k, l = idx
    if i == j or k == l:
        return None, 0
    return min(riemann_orbit(idx), key=lambda t: t[0])


def gamma_reference(M):
    """PlaneWaveMetric.gamma by loops over every x index and every mu, dead
    psi included: the put order of the table."""
    a, b = M.a, M.b
    tbl = {}

    def put(u, v, f, coef, expr, y=None):
        if expr is not None and not expr.is_zero_const():
            tbl.setdefault((u, v), {}).setdefault(f, []).append((coef, expr, y))

    for i in range(a):
        for j in range(i, a):
            for k in range(a):
                for mu in range(b):
                    put(i, j, M.xsi(k), 1, M.dpsi(j, k, mu, (i,)), M.yi(mu))
                    put(i, j, M.xsi(k), 1, M.dpsi(i, k, mu, (j,)), M.yi(mu))
                    put(i, j, M.xsi(k), -1, M.dpsi(i, j, mu, (k,)), M.yi(mu))
            for mu in range(b):
                for nu in range(b):
                    if M.cinv[mu][nu] != 0:
                        put(i, j, M.yi(mu), -M.cinv[mu][nu], M.psi_fn(i, j, nu))
        for nu in range(b):
            for k in range(a):
                put(i, M.yi(nu), M.xsi(k), 1, M.psi_fn(i, k, nu))
    return tbl


def riemann_reference(M):
    """PlaneWaveMetric.riemann by loops over every x index and every mu (and
    nu), dead psi included, keyed by canonicalize_riemann_reference."""
    a, b = M.a, M.b
    tbl = {}

    def put(idx, coef, expr, y=None):
        if expr is not None and not expr.is_zero_const():
            key, sign = canonicalize_riemann_reference(idx)
            tbl.setdefault(key, []).append((sign * coef, expr, y))

    def product(f, g):
        if f is None or g is None or f.is_zero_const() or g.is_zero_const():
            return None
        return f * g

    pairs = [(i, j) for i in range(a) for j in range(i + 1, a)]
    for n, (i, j) in enumerate(pairs):
        for k in range(a):
            for nu in range(b):
                idx = (i, j, k, M.yi(nu))
                put(idx, -1, M.dpsi(j, k, nu, (i,)))
                put(idx, 1, M.dpsi(i, k, nu, (j,)))
        for k, l in pairs[n:]:
            idx = (i, j, k, l)
            for nu in range(b):
                for mu in range(b):
                    c = M.cinv[nu][mu]
                    if c != 0:
                        put(idx, c, product(M.psi_fn(i, k, mu), M.psi_fn(j, l, nu)))
                        put(idx, -c, product(M.psi_fn(i, l, mu), M.psi_fn(j, k, nu)))
            for nu in range(b):
                y = M.yi(nu)
                put(idx, 1, M.dpsi(j, l, nu, (i, k)), y)
                put(idx, 1, M.dpsi(i, k, nu, (j, l)), y)
                put(idx, -1, M.dpsi(j, k, nu, (i, l)), y)
                put(idx, -1, M.dpsi(i, l, nu, (j, k)), y)
    return tbl


def nabla_entries_reference(M):
    """PlaneWaveMetric.nabla_riemann without the return ahead of the Gamma
    sweep: every Gamma^{y_mu} substitution is made, also those that land
    on two y indices and read an empty entry.  Reads M.riemann and M.gamma;
    returns entry(key, dirs), whose entries are kept in entry.memo."""
    kind = M.coord_kind

    def entry(key, dirs):
        terms = entry.memo.get((key, dirs))
        if terms is None:
            terms = entry.memo[(key, dirs)] = build(key, dirs)
        return terms

    def build(key, dirs):
        if M.outside_support(key + dirs):
            return []
        if not dirs:
            return M.riemann.get(key, [])
        e, rest = dirs[-1], dirs[:-1]
        prev = entry(key, rest)
        if kind(e) == "y":
            return [(coef, expr, None) for coef, expr, y in prev if y == e]
        out = [(coef, d, y) for coef, expr, y in prev
               if not (d := expr.diff(e + 1)).is_zero_const()]
        slots = key + rest
        for pos, s in enumerate(slots):
            if kind(s) != "x":
                continue
            for f, gterms in M.gamma.get((min(e, s), max(e, s)), {}).items():
                if kind(f) != "y":
                    continue
                new = slots[:pos] + (f,) + slots[pos + 1:]
                sub, sign = canonicalize_riemann_reference(new[:4])
                terms = entry(sub, new[4:]) if sub else []
                out += [(-sign * gc * coef, gexpr * expr, y)
                        for gc, gexpr, _ in gterms for coef, expr, y in terms]
        return out

    entry.memo = {}
    return entry


def terms_signature(terms):
    """A term list as compared by the table-identity tests: per term the
    coefficient's repr (its value, a float's to the bit) and type, repr of
    the expression, and y."""
    return [(repr(coef), type(coef), repr(expr), y) for coef, expr, y in terms]
