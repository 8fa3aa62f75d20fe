"""Expected values the benchmark checks every operation against.

Pinned literals (m14 verdicts, witnesses and counts, the k=2 fingerprint of
the README point) record what jtcurv computes today.  The component fixtures
and the local-symmetry equations are the paper's, copied from the test
suite's hand-transcribed fixtures; the closed-form Xi is derived by hand.
Nothing here imports jtcurv.
"""

from __future__ import annotations

import math
from fractions import Fraction

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

#: float acceptance tolerances
TOL_MPHI_0MODEL = 1e-10
TOL_XI = 1e-9
TOL_EXP_ROUNDTRIP = 1e-9
TOL_AFFINE = 1e-12
TOL_GEODESIC_RESIDUAL = 1e-9

M14_SIGNATURE = (8, 6)
KERNEL_RANK = 6
KERNEL_DIMENSION = 21
#: dimensions of (V_{beta,alpha*}, V_{alpha*}) from invariant_spans
SPAN_DIMENSIONS = (11, 3)
#: components compared by verify_0_model on the 14-dimensional model
COMPONENTS_CHECKED = 4186

#: exhaustive property scans on m14 that hold: kind -> (stats key, count)
M14_EXHAUSTIVE = {
    "jacobi-tsankov": ("pairs_checked", 5460),
    "mixed-tsankov": ("pairs_checked", 9555),
    "jacobi-square-zero": ("monomials_checked", 2380),
}


def _residual(pos, value):
    col = [Fraction(0)] * 14
    col[pos] = Fraction(value)
    return col


#: property kinds that fail on m14: kind -> (pairs_checked, literal witness)
M14_WITNESSES = {
    "2-step-jacobi-nilpotent": (15, {
        "kind": "product", "left_pair": ["a1", "a1"],
        "right_pair": ["a2", "a2"], "vector": "a3",
        "residual": _residual(5, 1)}),
    "skew-tsankov": (1, {
        "kind": "skew-tsankov", "left_pair": ["a1", "a2"],
        "right_pair": ["a1", "a3"], "vector": "a2",
        "residual": _residual(5, Fraction(4, 3))}),
    "2-step-skew-nilpotent": (1, {
        "kind": "2-step-skew-nilpotent", "left_pair": ["a1", "a2"],
        "right_pair": ["a1", "a2"], "vector": "a3",
        "residual": _residual(5, Fraction(2, 3))}),
    "mixed-nilpotent-tsankov": (3, {
        "kind": "mixed-nilpotent-tsankov", "left_pair": ["a1", "a2"],
        "right_pair": ["a1", "a3"], "vector": "a2",
        "residual": _residual(5, Fraction(-1, 2))}),
}

#: nabla^2 R of the all-ones family at the README point (1,2,3,1,...,1):
#: (nonzero components, sum of squares, largest absolute value)
K2_ONES_FINGERPRINT = (60, Fraction(224), Fraction(10, 3))

#: the README's nabla-r / curvature points
README_NABLA_POINT = (1, 2, 3) + (1,) * 11
README_CURVATURE_POINT = (1, 2, 3) + (0,) * 11

#: ROADMAP baseline per operation kind, in ms (2 CPUs, Python 3.11).
#: cli-check-model-tsankov is the sum of the jacobi- and mixed-tsankov scans.
ROADMAP_BASELINE_MS = {
    "jacobi-tsankov": 2600.0,
    "mixed-tsankov": 4700.0,
    "cli-check-model-tsankov": 2600.0 + 4700.0,
    "jacobi-square-zero": 12600.0,
    "verify-0-model-exact": 120.0,
    "nabla-r-k1": 1200.0,
    "nabla-r-k2": 16400.0,
    "curvature-generic": 15.0,
    "geodesic-float": 1600.0,
    "geodesic-exact": 18.0,
}

#: y coordinate order and index of each (i, j) pair in the 14 coordinates
Y_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2))
YIDX = {p: 6 + m for m, p in enumerate(Y_PAIRS)}


def riemann_orbit(idx):
    """The 8 signed index tuples equivalent to idx under the pair symmetries."""
    i, j, k, l = idx
    half = [((i, j, k, l), 1), ((j, i, k, l), -1), ((i, j, l, k), -1),
            ((j, i, l, k), 1)]
    return half + [((t[2], t[3], t[0], t[1]), s) for t, s in half]


def expand_orbits(components):
    """Full component dict from orbit representatives (zeros dropped)."""
    out = {}
    for idx, val in components.items():
        if val != 0:
            for tup, s in riemann_orbit(idx):
                out[tup] = s * val
    return out


def curvature_unit_fixtures():
    """R components with one y index: constants independent of A."""
    return {
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


def curvature_xxxx_fixtures(a, P):
    """The six independent 4-x curvature components as functions of a, P."""
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
                       - a[(3, 1)] - a[(3, 2)] + a[(3, 1)] * a[(3, 2)])
        * x1 * x2,
    }


def curvature_expected_full(a, P):
    """Every nonzero R component of M_A at P, expanded over the orbits."""
    out = expand_orbits(curvature_unit_fixtures())
    out.update(expand_orbits(curvature_xxxx_fixtures(a, P)))
    return out


def nabla_coefficients(a):
    """The published coefficients e1..e6 of the first covariant derivative."""
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


def nabla_r_expected_full(a, P):
    """Every nonzero nabla R component of M_A at P: (idx4 + (dir,)) -> value."""
    e1, e2, e3, e4, e5, e6 = nabla_coefficients(a)
    x1, x2, x3 = P[0], P[1], P[2]
    table = {
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
    out = {}
    for (idx4, e), val in table.items():
        if val != 0:
            for tup, s in riemann_orbit(idx4):
                out[tup + (e,)] = s * val
    return out


def symmetric_space_residuals(a):
    """The three local-symmetry equations of M_A (zero iff satisfied)."""
    return (a[(1, 1)] + a[(2, 2)] + a[(3, 1)] * a[(3, 2)] - 2,
            3 * a[(2, 1)] + 3 * a[(3, 1)] + 3 * a[(1, 2)] * a[(1, 1)] - 4,
            3 * a[(1, 2)] + 3 * a[(3, 2)] + 3 * a[(2, 1)] * a[(2, 2)] - 4)


def xi_mixed_closed_form(x1):
    """Xi = (1 - phi' phi''' / phi''^2)^2 for phi = e^t + e^{2t}/2."""
    e1, e2 = math.exp(x1), math.exp(2 * x1)
    d1, d2, d3 = e1 + e2, e1 + 2 * e2, e1 + 4 * e2
    q = 1 - d1 * d3 / (d2 * d2)
    return q * q


def derivative_at_zero(samples):
    """p'(0) of the polynomial through (k, samples[k]), k = 0, 1, ...: Newton
    divided differences, then d/dt of t(t-1)...(t-k+1) at 0 is
    (-1)^(k-1) (k-1)!."""
    coef = list(samples)
    for lvl in range(1, len(coef)):
        for k in range(len(coef) - 1, lvl - 1, -1):
            coef[k] = (coef[k] - coef[k - 1]) / lvl
    return sum(c * (-1) ** (k - 1) * math.factorial(k - 1)
               for k, c in enumerate(coef) if k)


def close(got, want, tol):
    return abs(got - want) <= tol * max(1.0, abs(want))


def scalar_json(x):
    """A rational as the CLI prints it."""
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def scalar_from_json(obj):
    if isinstance(obj, dict):
        return Fraction(int(obj["num"]), int(obj["den"]))
    return obj
