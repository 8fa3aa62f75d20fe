"""Geodesics and the exponential map: the Christoffel cascade x -> y -> x*
of a plane-wave metric (see planewave), run by _Geodesic once for all data.
Three primitives fit, integrate and evaluate each stage, and only they tell
Poly arithmetic (rational data, polynomial psi) from Chebyshev series.  The
residual calls planewave.christoffel, looked up at call time; planewave
binds _Geodesic and every public name here to the same objects.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

from . import planewave
from .expr import _floated
from .poly import Poly
from .scalars import is_exact


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

    def __init__(self, M: planewave.PlaneWaveMetric, P, v, quadrature="auto"):
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
        gam = planewave.christoffel(self.M, pt, "second")
        for (u, w, f), val in gam.items():
            if vel[u] != 0 and vel[w] != 0:
                acc[f] += val * vel[u] * vel[w]
        return max(abs(c) for c in acc)


def geodesic_fit(M: planewave.PlaneWaveMetric, P, v, ts=(), quadrature="auto"):
    """The geodesic from P with initial velocity v, built once over 0 and every
    t in ts: its at, velocity, acceleration and residual evaluate it, and in
    float mode its fit dict gives the Chebyshev degree and relative tail."""
    g = _Geodesic(M, P, v, quadrature)
    g._cover(ts)
    return g


def geodesic(M: planewave.PlaneWaveMetric, P, v, t, quadrature="auto"):
    """Point reached at parameter t along the geodesic from P with velocity v."""
    return _Geodesic(M, P, v, quadrature).at(t)


def geodesic_residual(M: planewave.PlaneWaveMetric, P, v, t, quadrature="auto"):
    """Max abs component of gamma'' + Gamma(gamma', gamma') at parameter t."""
    return _Geodesic(M, P, v, quadrature).residual(t)


def exp_inverse(M: planewave.PlaneWaveMetric, P, Q, quadrature="auto"):
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


def geodesic_trace_csv(M: planewave.PlaneWaveMetric, P, v, ts, stream, quadrature="auto"):
    """Write the sampled geodesic as CSV with header t,<coordinate labels>;
    returns the geodesic it evaluated (see geodesic_fit)."""
    import csv
    g = geodesic_fit(M, P, v, ts, quadrature)
    writer = csv.writer(stream)
    writer.writerow(["t"] + M.labels())
    for t in ts:
        writer.writerow([float(t)] + [float(c) for c in g.at(t)])
    return g
