"""Hand-transcribed component fixtures for the constant-coefficient
plane-wave family, shared between the unit suite and the acceptance suite,
reference loops for the closed-form curvature of a plane-wave metric, the
pointwise recursion for its iterated covariant derivatives, the plain
scans and contractions of nabla^k R over coordinate index tuples, and the
Fraction-coefficient polynomial (PolyReference) that Poly reproduces."""

import itertools
from fractions import Fraction

from jtcurv import realizations
from jtcurv.expr import FnExpr, terms_evaluator
from jtcurv.linalg import BilinearForm, _pivot_row
from jtcurv.models import (M14_LABELS, CheckReport, canonicalize_riemann,
                           riemann_orbit)
from jtcurv.planewave import CoordTensor, _CovREngine, metric_at
from jtcurv.scalars import iszero
from jtcurv.realizations import Y_PAIRS
from jtcurv.scalars import REL_TOL, as_divisor, close, is_exact
from jtcurv.symmetry import (_ALPHA, _BETA_IDX, _KERNEL_TUPLES, _STAR,
                             beta_shift_rows, kernel_basis_b)

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


# ---------------------------------------------------------------------------
# the symmetry generators as hand-derived tables of basis images, the
# reference for symmetry.lift


def _matrix_from_map(mapping):
    """14x14 matrix from a dict label -> list of (coeff, label) image terms;
    a label missing from the dict is fixed."""
    lab = {name: i for i, name in enumerate(M14_LABELS)}
    n = len(M14_LABELS)
    T = [[Fraction(0)] * n for _ in range(n)]
    for src, terms in mapping.items():
        for coeff, dst in terms:
            T[lab[dst]][lab[src]] += coeff
    for name in M14_LABELS:
        if name not in mapping:
            T[lab[name]][lab[name]] = Fraction(1)
    return T


def _swaps(pairs):
    mp = {}
    for u, v in pairs:
        mp[u] = [(1, v)]
        mp[v] = [(1, u)]
    return mp


def swap_first_second_reference():
    return _matrix_from_map(_swaps(
        [("a1", "a2"), ("a1*", "a2*"), ("b1,1", "b2,2"), ("b1,2", "b2,1"),
         ("b3,1", "b3,2"), ("b4,1", "b4,2")]))


def swap_first_third_reference():
    mp = _swaps([("a1", "a3"), ("a1*", "a3*"), ("b1,1", "b3,1"),
                 ("b1,2", "b3,2"), ("b2,1", "b2,2")])
    # b4,1 <-> -b4,1 - b4,2 with b4,2 fixed
    mp["b4,1"] = [(-1, "b4,1"), (-1, "b4,2")]
    mp["b4,2"] = [(1, "b4,2")]
    return _matrix_from_map(mp)


def rotation_reference(c, s):
    c2, s2, cs = c * c, s * s, c * s
    return _matrix_from_map({
        "a1": [(c, "a1"), (s, "a2")],
        "a2": [(-s, "a1"), (c, "a2")],
        "a1*": [(c, "a1*"), (s, "a2*")],
        "a2*": [(-s, "a1*"), (c, "a2*")],
        "b1,1": [(c, "b1,1"), (s, "b2,2")],
        "b1,2": [(c, "b1,2"), (s, "b2,1")],
        "b2,1": [(-s, "b1,2"), (c, "b2,1")],
        "b2,2": [(-s, "b1,1"), (c, "b2,2")],
        # -2cs * b4,3 with b4,3 = -b4,1 - b4,2
        "b3,1": [(c2, "b3,1"), (s2, "b3,2"), (2 * cs, "b4,1"), (2 * cs, "b4,2")],
        "b3,2": [(s2, "b3,1"), (c2, "b3,2"), (-2 * cs, "b4,1"), (-2 * cs, "b4,2")],
        "b4,1": [(-HALF * cs, "b3,1"), (HALF * cs, "b3,2"),
                 (c2, "b4,1"), (-s2, "b4,2")],
        "b4,2": [(-HALF * cs, "b3,1"), (HALF * cs, "b3,2"),
                 (-s2, "b4,1"), (c2, "b4,2")],
    })


def dilatation_reference(a1, a2, a3):
    d1, d2, d3 = (Fraction(a) if isinstance(a, int) else a for a in (a1, a2, a3))
    return _matrix_from_map({
        "a1": [(a1, "a1")], "a2": [(a2, "a2")], "a3": [(a3, "a3")],
        "a1*": [(1 / d1, "a1*")], "a2*": [(1 / d2, "a2*")], "a3*": [(1 / d3, "a3*")],
        "b1,1": [(a2 / d3, "b1,1")], "b1,2": [(a3 / d2, "b1,2")],
        "b2,1": [(a3 / d1, "b2,1")], "b2,2": [(a1 / d3, "b2,2")],
        "b3,1": [(a2 / d1, "b3,1")], "b3,2": [(a1 / d2, "b3,2")],
    })


#: the six independent 4-alpha curvature components as normalize_basis_0
#: once listed them: symmetry._KERNEL_TUPLES, five of them with the other sign
XXXX_BASIS_REFERENCE = [(0, 1, 0, 1), (0, 2, 0, 2), (1, 2, 1, 2),
                        (0, 1, 0, 2), (0, 1, 1, 2), (0, 2, 1, 2)]


# ---------------------------------------------------------------------------
# the dense elimination and frame the sparse ones must reproduce bit for bit


def typed(x):
    """x with every scalar replaced by (type name, value), a float's value
    by float.hex, so that equal results are equal in type and sign too."""
    if isinstance(x, (list, tuple)):
        return [typed(v) for v in x]
    if isinstance(x, dict):
        return {k: typed(v) for k, v in x.items()}
    return (type(x).__name__, x.hex() if isinstance(x, float) else x)


def rref_reference(A):
    """linalg.rref as a dense elimination: every entry of the pivot row is
    divided, and every row with a nonzero in the pivot column reduced over
    all columns."""
    M = [list(row) for row in A]
    if not M:
        return [], []
    rows, cols = len(M), len(M[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = _pivot_row(M, c, r)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        p = as_divisor(M[r][c])
        M[r] = [x / p for x in M[r]]
        for rr in range(rows):
            if rr != r and M[rr][c] != 0:
                f = M[rr][c]
                M[rr] = [x - f * y for x, y in zip(M[rr], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M[:r] + [[Fraction(0)] * cols for _ in range(rows - r)], pivots


def _solve_reference(A, b):
    R, pivots = rref_reference([list(ra) + [bb] for ra, bb in zip(A, b)])
    cols = len(A[0])
    assert cols not in pivots
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = R[r][cols]
    return tuple(x)


def metric_at_reference(M, P):
    """planewave.metric_at summing over every mu, zero constants included."""
    a, b, n = M.a, M.b, M.n
    x = tuple(P[:a])
    y = P[2 * a:]
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(a):
        G[i][M.xsi(i)] = G[M.xsi(i)][i] = 1
        for j in range(i, a):
            s = 0
            for mu in range(b):
                if y[mu] != 0:
                    f = M.psi_fn(i, j, mu)
                    if f is not None:
                        s = s + 2 * y[mu] * f.eval(x)
            G[i][j] = G[j][i] = s
    for mu in range(b):
        for nu in range(b):
            G[M.yi(mu)][M.yi(nu)] = M.C.entries[mu][nu]
    return BilinearForm(G)


def normalize_basis_0_reference(M, P):
    """realizations.normalize_basis_0 with dense sums: every curvature
    component of the shift rows read from the engine, the Gram blocks
    formed with BilinearForm.apply on the dense metric, and the shift solve
    on the dense elimination.  Returns the frame's vectors."""
    P = tuple(P)
    eng = _CovREngine(M, P)

    def e(idx):
        return tuple(1 if t == idx else 0 for t in range(14))

    lam = [1] * 8
    for pair, (i, j, _) in realizations._LAMBDA_PATTERNS:
        mu = realizations._YIDX[pair]
        r = eng.value((i, j, j, M.yi(mu)))
        if iszero(r):
            raise ValueError("degenerate point")
        lam[mu] = Fraction(1) / r
    rows = beta_shift_rows(_KERNEL_TUPLES, [M.yi(mu) for mu in range(8)], eng.value, lam)
    tflat = _solve_reference(rows, [-eng.value(tup) for tup in _KERNEL_TUPLES])
    t = [tflat[8 * i:8 * (i + 1)] for i in range(3)]
    beta_bar = []
    for mu in range(8):
        v = [0] * 14
        v[M.yi(mu)] = lam[mu]
        beta_bar.append(tuple(v))
    alpha_tilde = []
    for i in range(3):
        v = list(e(i))
        for mu in range(8):
            if t[i][mu] != 0:
                v[M.yi(mu)] += t[i][mu] * lam[mu]
        alpha_tilde.append(tuple(v))
    g = metric_at_reference(M, P)
    gbb = [[g.apply(beta_bar[mu], beta_bar[nu]) for nu in range(8)] for mu in range(8)]
    beta = []
    for nu in range(8):
        v = list(beta_bar[nu])
        for i in range(3):
            d = 0
            for mu in range(8):
                d = d + gbb[mu][nu] * t[i][mu]
            v[M.xsi(i)] += -d
        beta.append(tuple(v))
    vectors = {}
    for i in range(3):
        v = list(alpha_tilde[i])
        for j in range(3):
            gij = g.apply(alpha_tilde[i], alpha_tilde[j])
            if gij != 0:
                v[M.xsi(j)] -= gij / Fraction(2)
        vectors[f"a{i + 1}"] = tuple(v)
        vectors[f"a{i + 1}*"] = e(M.xsi(i))
    for (bi, bj), mu in realizations._YIDX.items():
        vectors[f"b{bi},{bj}"] = beta[mu]
    return vectors


# ---------------------------------------------------------------------------
# the dense kernel elements and tensor reads the sparse ones must reproduce
# in value and type


def tensor_value_reference(tensor, i, j, k, l):
    """CurvatureTensor.value as a signed product: sign * A[canon], with a
    Fraction(0) for an absent component and for one forced to zero."""
    canon, sign = canonicalize_riemann((i, j, k, l))
    if canon is None:
        return Fraction(0)
    return sign * tensor.data.get(canon, Fraction(0))


def kernel_matrix_reference(m, b, c_skew):
    """symmetry._kernel_matrix with dense sums: d over every beta-Gram entry
    and c_sym over every nu, each from 0, and every entry of T updated."""
    G = m.form.entries
    n = m.n
    T = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [[-sum(G[_BETA_IDX[nu]][_BETA_IDX[mu]] * b[i][mu] for mu in range(8))
          for nu in range(8)] for i in range(3)]
    for i in range(3):
        for nu in range(8):
            T[_BETA_IDX[nu]][_ALPHA[i]] += b[i][nu]
            T[_STAR[i]][_BETA_IDX[nu]] += d[i][nu]
        for j in range(3):
            c_sym = Fraction(1, 2) * sum(b[i][nu] * d[j][nu] for nu in range(8))
            T[_STAR[j]][_ALPHA[i]] += c_sym + Fraction(c_skew[i][j])
    return T


def random_kernel_element_reference(m, rng):
    """symmetry.random_kernel_element with the dense combination of the
    basis: every entry x + c * y, zeros included, with the same draws."""
    flat = [Fraction(0)] * 24
    for v in kernel_basis_b(m):
        c = Fraction(rng.randint(-3, 3))
        flat = [x + c * y for x, y in zip(flat, v)]
    b = [flat[8 * i:8 * (i + 1)] for i in range(3)]
    s01, s02, s12 = (Fraction(rng.randint(-3, 3)) for _ in range(3))
    c_skew = [[0, s01, s02], [-s01, 0, s12], [-s02, -s12, 0]]
    return kernel_matrix_reference(m, b, c_skew)


# ---------------------------------------------------------------------------
# the Fraction-coefficient polynomial that jtcurv.poly.Poly must reproduce


class PolyReference:
    """jtcurv.poly.Poly as a tuple of Fraction coefficients, every operation
    in Fraction arithmetic: the values, types and float bits Poly keeps."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c):
        return PolyReference((Fraction(c),))

    @staticmethod
    def t():
        return PolyReference((Fraction(0), Fraction(1)))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyReference.const(other)
        return isinstance(other, PolyReference) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # a constant changes the constant coefficient only
            a = self.coeffs or (Fraction(0),)
            return PolyReference((a[0] + other,) + a[1:])
        if not isinstance(other, PolyReference):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return PolyReference([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return PolyReference(-c for c in self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, PolyReference)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyReference(c * other for c in self.coeffs)
        if not isinstance(other, PolyReference):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return PolyReference()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return PolyReference(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero")
            return PolyReference(c / other for c in self.coeffs)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = PolyReference.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval(self, x):
        acc = Fraction(0) if not isinstance(x, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (c if not isinstance(x, float) else float(c))
        return acc

    __call__ = eval

    def deriv(self):
        return PolyReference(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def integrate(self):
        return PolyReference([Fraction(0)]
                             + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"{c}*t^{k}" if k else f"{c}" for k, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"
