"""Hand-transcribed component fixtures for the constant-coefficient
plane-wave family, shared between the unit suite and the acceptance suite."""

from fractions import Fraction

from jtcurv import realizations
from jtcurv.models import M14_LABELS, CheckReport, riemann_orbit
from jtcurv.planewave import _CovREngine, metric_at, nabla_R_frame
from jtcurv.realizations import Y_PAIRS
from jtcurv.scalars import REL_TOL, close

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
            if not close(got, want, rel=rel):
                return CheckReport("0-model", False, witness={
                    "part": "form", "index": (M14_LABELS[u], M14_LABELS[v]),
                    "expected": want, "got": got})
    eng = _CovREngine(M, P)
    checked = 0
    for u in range(14):
        for v in range(u + 1, 14):
            for w in range(u, 14):
                for z in range(w + 1, 14):
                    if (w, z) < (u, v):
                        continue
                    got = nabla_R_frame(M, P, [vecs[u], vecs[v], vecs[w], vecs[z]],
                                        [], engine=eng)
                    want = model.tensor.value(u, v, w, z)
                    checked += 1
                    if not close(got, want, rel=rel):
                        return CheckReport("0-model", False, witness={
                            "part": "tensor",
                            "index": tuple(M14_LABELS[i] for i in (u, v, w, z)),
                            "expected": want, "got": got})
    return CheckReport("0-model", True, stats={"components_checked": checked})
