"""Truncated Taylor jets of FnExpr functions.

A jet holds the mixed partial derivatives of a function at a point, along a
chosen list of variable directions, up to a total order k.  Derivatives are
obtained by exact symbolic differentiation of the expression tree and
pointwise evaluation, so jets of polynomials in rational mode are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction


def _multi_indices(ndirs, k):
    """All multi-indices over ndirs slots with total degree <= k."""
    out = []
    for total in range(k + 1):
        for c in itertools.combinations_with_replacement(range(ndirs), total):
            mi = [0] * ndirs
            for d in c:
                mi[d] += 1
            out.append(tuple(mi))
    return out


@dataclass(frozen=True)
class Jet:
    """Derivatives of a scalar function at a point.

    coeffs maps a multi-index (one slot per direction in dirs) to the raw
    mixed partial derivative value at the base point.
    """

    point: tuple
    dirs: tuple
    order: int
    coeffs: dict = field(compare=False)

    @property
    def value(self):
        return self.coeffs[(0,) * len(self.dirs)]

    def __getitem__(self, mi):
        if isinstance(mi, int):
            mi = (mi,)
        return self.coeffs[tuple(mi)]

    def as_tuple(self):
        """Univariate convenience: (f, f', ..., f^(k))."""
        if len(self.dirs) != 1:
            raise ValueError("as_tuple applies to univariate jets only")
        return tuple(self.coeffs[(m,)] for m in range(self.order + 1))


def jet_eval(f, point, dirs, k):
    """Jet of FnExpr f at point along variable directions dirs, total order k.

    dirs are 1-based variable indices; k >= 0.  Exact in rational mode for
    rational-closed node sets.
    """
    if k < 0:
        raise ValueError("jet order must be nonnegative")
    point = tuple(point)
    dirs = tuple(dirs)
    # derivative trees are built once per multi-index, reusing lower orders
    deriv_cache = {(0,) * len(dirs): f}

    def deriv(mi):
        g = deriv_cache.get(mi)
        if g is None:
            slot = next(s for s, m in enumerate(mi) if m > 0)
            lower = tuple(m - (1 if s == slot else 0) for s, m in enumerate(mi))
            g = deriv(lower).diff(dirs[slot])
            deriv_cache[mi] = g
        return g

    coeffs = {}
    for mi in _multi_indices(len(dirs), k):
        coeffs[mi] = deriv(mi).eval(point)
    return Jet(point, dirs, k, coeffs)


def jet_univariate(f, x, k, var_index=1):
    """(f(x), f'(x), ..., f^(k)(x)) for an FnExpr univariate in var_index."""
    return jet_eval(f, _point_for(var_index, x), (var_index,), k).as_tuple()


def _point_for(var_index, x):
    pt = [Fraction(0) if not isinstance(x, float) else 0.0] * var_index
    pt[var_index - 1] = x
    return tuple(pt)
