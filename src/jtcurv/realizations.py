"""The two concrete 14-dimensional plane-wave families realizing the model:
a warped family driven by function pairs phi_{i,j} with phi'_{i,1} phi'_{i,2}
= 1, and a constant-coefficient family driven by scalars a_{i,j}.  Includes
the normalized-frame construction, the 0-model verification, the Xi isometry
invariant, and the local-symmetry criterion.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .expr import EvalError, FnExpr
from .linalg import BilinearForm, solve, transpose
from .models import M14_LABELS, CheckReport, build_m14
from .planewave import (PlaneWaveMetric, _CovREngine, first_nonzero_component,
                        metric_at, nabla_R_contract)
from .planewave import nabla_R_frame  # noqa: F401 (bench/tracing.py patches it here)
from .scalars import (REL_TOL, close, iszero, pair_keys, scalar_from_json,
                      scalar_to_json)
from .symmetry import BETA_LABELS, beta_shift_rows, check_pullback

#: y-coordinate order: the (i,j) pair labels of the eight y's, which are
#: the model's beta directions b_{i,j} in basis order
Y_PAIRS = tuple((int(name[1]), int(name[3])) for name in BETA_LABELS)
_YIDX = {p: m for m, p in enumerate(Y_PAIRS)}

#: the (i, j) keys of a family: i in 1..3, j in 1..2
_FAMILY_KEYS = tuple((i, j) for i in (1, 2, 3) for j in (1, 2))


def _check_family_keys(keys):
    """ValueError on the first (i, j) key outside _FAMILY_KEYS."""
    for key in keys:
        if key not in _FAMILY_KEYS:
            raise ValueError(f"unknown family key {','.join(map(str, key))}: "
                             "keys are i,j with i in 1..3 and j in 1..2")


@functools.cache
def _model(build):
    """The model build() returns, made once per build function and shared
    (callers only read it).  Callers pass build_m14 as looked up at call
    time, so a replaced one (as in the altered-model tests) gets its own."""
    return build()


def _c_block():
    """The 8x8 inner-product block of the y coordinates (model beta block),
    one BilinearForm per model build function, shared by every M_A and M_Phi
    built on it, so the form holds the one inverse they all read
    (PlaneWaveMetric.cinv)."""
    return _beta_form(build_m14)


@functools.cache
def _beta_form(build):
    G = _model(build).form.entries
    beta = [M14_LABELS.index(name) for name in BETA_LABELS]
    return BilinearForm([[G[i][j] for j in beta] for i in beta])


class PhiFamily:
    """Warping functions phi_{i,j} (i in 1..3, j in 1..2), each univariate in
    x_i, subject to phi'_{i,1} phi'_{i,2} = 1."""

    SAMPLES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1), Fraction(2))

    def __init__(self, phi):
        _check_family_keys(phi)
        self.phi = {}
        for i, j in _FAMILY_KEYS:
            f = phi.get((i, j))
            if f is None:
                raise ValueError(f"missing phi[{i},{j}]")
            other = f.variables() - {i}
            if other:
                raise ValueError(f"phi[{i},{j}] reads x{min(other)}; it "
                                 f"must depend on x{i} only")
            self.phi[(i, j)] = f
        self._check_reciprocal()

    def __getitem__(self, ij):
        return self.phi[ij]

    def _check_reciprocal(self):
        for i in (1, 2, 3):
            d1 = self.phi[(i, 1)].diff(i)
            d2 = self.phi[(i, 2)].diff(i)
            checked = 0
            for t in self.SAMPLES:
                pt = [t] * i
                try:
                    prod = d1.eval(pt) * d2.eval(pt)
                except EvalError:
                    continue
                if not close(prod, 1):
                    raise ValueError(
                        f"phi'_{i},1 * phi'_{i},2 = {prod} != 1 at x_{i}={t}")
                checked += 1
            if checked == 0:
                raise ValueError(f"could not sample phi pair {i} anywhere")

    @staticmethod
    def from_json(obj):
        return PhiFamily({ij: FnExpr.from_json(fn)
                          for ij, fn in pair_keys(obj["phi"]).items()})

    def to_json(self):
        return {"phi": {f"{i},{j}": f.to_json() for (i, j), f in sorted(self.phi.items())}}


@dataclass
class AFamily:
    """Constant coefficients a_{i,j}, i in 1..3, j in 1..2."""

    a: dict

    def __getitem__(self, ij):
        return self.a[ij]

    @staticmethod
    def from_json(obj):
        a = {ij: scalar_from_json(v) for ij, v in pair_keys(obj["a"]).items()}
        _check_family_keys(a)
        for key in _FAMILY_KEYS:
            a.setdefault(key, Fraction(0))
        return AFamily(a)

    def to_json(self):
        return {"a": {f"{i},{j}": scalar_to_json(v) for (i, j), v in sorted(self.a.items())}}


def _psi_rows(entries):
    """psi from {x index pair: [(y pair, function), ...]}: one function per
    y, the constant 0 for the y's an entry leaves out."""
    zero = FnExpr.const(0)
    psi = {}
    for key, terms in entries.items():
        fns = [zero] * 8
        for pair, f in terms:
            fns[_YIDX[pair]] = f
        psi[key] = fns
    return psi


def build_M_Phi(phi: PhiFamily) -> PlaneWaveMetric:
    """The a=3, b=8 metric whose diagonal x-terms carry -2 phi_{i,j} y_{i,j}
    and whose only cross terms are the two fixed y_4 couplings."""
    half = FnExpr.const(Fraction(1, 2))
    x1, x2 = FnExpr.var(1), FnExpr.var(2)
    psi = _psi_rows({
        (0, 0): [((2, 1), -phi[(2, 1)]), ((3, 1), -phi[(3, 1)])],
        (1, 1): [((3, 2), -phi[(3, 2)]), ((1, 2), -phi[(1, 2)])],
        (2, 2): [((1, 1), -phi[(1, 1)]), ((2, 2), -phi[(2, 2)])],
        (1, 2): [((4, 1), half * x1)],
        (0, 2): [((4, 2), half * x2)],
    })
    M = PlaneWaveMetric(3, 8, _c_block(), psi)
    M.phi = phi
    M.family = "phi"
    return M


def build_M_A(A: AFamily) -> PlaneWaveMetric:
    """The constant-coefficient family; beyond the diagonal terms it carries
    the (1-a_{i,j})-weighted cross couplings."""
    half = FnExpr.const(Fraction(1, 2))
    x = [FnExpr.var(i) for i in (1, 2, 3)]

    def c(v):
        return FnExpr.const(v)

    psi = _psi_rows({
        (0, 0): [((2, 1), c(-A[(2, 1)]) * x[1]), ((3, 1), c(-A[(3, 1)]) * x[2])],
        (1, 1): [((3, 2), c(-A[(3, 2)]) * x[2]), ((1, 2), c(-A[(1, 2)]) * x[0])],
        (2, 2): [((1, 1), c(-A[(1, 1)]) * x[0]), ((2, 2), c(-A[(2, 2)]) * x[1])],
        (0, 1): [((2, 1), c(1 - A[(2, 1)]) * x[0]),
                 ((1, 2), c(1 - A[(1, 2)]) * x[1])],
        (1, 2): [((4, 1), half * x[0]),
                 ((3, 2), c(1 - A[(3, 2)]) * x[1]),
                 ((2, 2), c(1 - A[(2, 2)]) * x[2])],
        (0, 2): [((4, 2), half * x[1]),
                 ((3, 1), c(1 - A[(3, 1)]) * x[0]),
                 ((1, 1), c(1 - A[(1, 1)]) * x[2])],
    })
    M = PlaneWaveMetric(3, 8, _c_block(), psi)
    M.afamily = A
    M.family = "a"
    return M


def phi_family_specialized(phi11, phi12) -> PhiFamily:
    """phi_{2,j} = x_2 and phi_{3,j} = x_3 with a free reciprocal first pair."""
    return PhiFamily({(1, 1): phi11, (1, 2): phi12,
                      (2, 1): FnExpr.var(2), (2, 2): FnExpr.var(2),
                      (3, 1): FnExpr.var(3), (3, 2): FnExpr.var(3)})


# ---------------------------------------------------------------------------
# normalized frames


@dataclass
class Frame:
    """14 labeled tangent vectors at a point, in model basis order; metric g there."""

    point: tuple
    vectors: dict
    metric: BilinearForm | None = field(default=None, compare=False, repr=False)

    def vector(self, label):
        return self.vectors[label]

    def ordered(self):
        return [self.vectors[lab] for lab in M14_LABELS]


#: model unit patterns A(alpha_i, alpha_j, alpha_j, beta) = 1 fixing the
#: y rescalings of the first stage; entries (beta pair, (i, j, j))
_LAMBDA_PATTERNS = [
    ((2, 1), (1, 0, 0)), ((3, 1), (2, 0, 0)), ((3, 2), (2, 1, 1)),
    ((1, 2), (0, 1, 1)), ((1, 1), (0, 2, 2)), ((2, 2), (1, 2, 2)),
]

#: a spanning set of the independent 4-alpha curvature components
_XXXX_BASIS = [(0, 1, 0, 1), (0, 2, 0, 2), (1, 2, 1, 2),
               (0, 1, 0, 2), (0, 1, 1, 2), (0, 2, 1, 2)]


def normalize_basis_0(M: PlaneWaveMetric, P) -> Frame:
    """Frame at P reproducing the 14-dimensional model exactly.

    Three stages: rescale the y directions so the unit curvature patterns
    hold; shift the x directions by y-directions to kill the residual
    4-alpha curvature (a linear solve, since curvature terms with two or
    more y entries vanish); shift by x* directions to restore the inner
    products.  Each later stage leaves the earlier normalizations intact.
    """
    if M.a != 3 or M.b != 8:
        raise ValueError("frame normalization requires the a=3, b=8 family")
    P = tuple(P)
    eng = _CovREngine(M, P)

    def e(idx):
        return tuple(1 if t == idx else 0 for t in range(14))

    lam = [1] * 8
    for pair, (i, j, _) in _LAMBDA_PATTERNS:
        mu = _YIDX[pair]
        r = eng.value((i, j, j, M.yi(mu)))
        if iszero(r):
            raise ValueError(f"degenerate point: unit curvature pattern for "
                             f"y{pair} vanishes")
        lam[mu] = Fraction(1) / r

    # stage two: t[i][mu] coefficients from a linear solve
    rows = beta_shift_rows(_XXXX_BASIS, [M.yi(mu) for mu in range(8)], eng.value, lam)
    rhs = [-eng.value(tup) for tup in _XXXX_BASIS]
    tflat = solve(rows, rhs)
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

    g = metric_at(M, P)
    gbb = [[g.apply(beta_bar[mu], beta_bar[nu]) for nu in range(8)] for mu in range(8)]
    beta = []
    for nu in range(8):
        v = list(beta_bar[nu])
        for i in range(3):
            d = -sum(gbb[mu][nu] * t[i][mu] for mu in range(8))
            v[M.xsi(i)] += d
        beta.append(tuple(v))

    alpha = []
    for i in range(3):
        v = list(alpha_tilde[i])
        for j in range(3):
            gij = g.apply(alpha_tilde[i], alpha_tilde[j])
            if gij != 0:
                v[M.xsi(j)] -= gij / Fraction(2)
        alpha.append(tuple(v))

    vectors = {}
    for i in range(3):
        vectors[f"a{i + 1}"] = alpha[i]
        vectors[f"a{i + 1}*"] = e(M.xsi(i))
    for (bi, bj), mu in _YIDX.items():
        vectors[f"b{bi},{bj}"] = beta[mu]
    return Frame(P, vectors, g)


def verify_0_model(M: PlaneWaveMetric, P, rel: float = REL_TOL) -> CheckReport:
    """Does the normalized frame at P reproduce the model's inner products
    and curvature components, all of them, to the requested precision?"""
    try:
        frame = normalize_basis_0(M, P)
    except (ValueError, ZeroDivisionError) as err:
        return CheckReport("0-model", False, witness={"error": str(err)})
    eng = _CovREngine(M, P)
    R = {key: v for key in M.riemann if not iszero(v := eng.value(key))}
    return check_pullback("0-model", _model(build_m14), frame.metric, R,
                          transpose(frame.ordered()), rel)


# ---------------------------------------------------------------------------
# the derivative-level normalization and the Xi invariant

#: the two nonvanishing first-derivative patterns (labels, beta label)
_NABLA_PATTERNS = [(("a1", "a3", "a3", "b1,1"), "a1"),
                   (("a1", "a2", "a2", "b1,2"), "a1")]


def _nabla_pattern_table(M, P, frame: Frame):
    """All nabla R(alpha_i, alpha_j, alpha_k, beta_nu; alpha_l) values."""
    labels = ["a1", "a2", "a3"] + [f"b{i},{j}" for i, j in Y_PAIRS]
    requests = list(itertools.product(range(3), range(3), range(3), range(3, 11), range(3)))
    values = nabla_R_contract(M, P, [frame.vector(s) for s in labels], requests)
    return {tuple(labels[s] for s in req): v for req, v in zip(requests, values)}


def normalize_basis_1(M: PlaneWaveMetric, P, rel: float = REL_TOL) -> Frame:
    """0-normalized frame additionally matching the first-derivative pattern:
    exactly the two canonical nabla R contractions survive."""
    frame = normalize_basis_0(M, P)
    table = _nabla_pattern_table(M, P, frame)
    required = set()
    for (labels, dlab) in _NABLA_PATTERNS:
        key = labels + (dlab,)
        swapped = (labels[1], labels[0]) + labels[2:] + (dlab,)
        if iszero(table[key]):
            raise ValueError(f"derivative pattern {key} vanishes; "
                             "the point violates the normalization hypotheses")
        required.add(key)
        required.add(swapped)
    for key, val in table.items():
        if key in required:
            continue
        if not close(val, 0, rel=rel):
            raise ValueError(f"unexpected nonzero derivative component {key}: {val}")
    return frame


@dataclass
class XiValue:
    value: object
    mode: str
    quotients: tuple | None = None
    frame: Frame | None = None


def xi_from_frame(M: PlaneWaveMetric, P, vectors) -> XiValue:
    """Xi from any frame supplying a1, a2, a3, b1,1 and b1,2 vectors."""
    vecs = [vectors[name] for name in ("a1", "a2", "a3", "b1,1", "b1,2")]
    # (a1, a2, a2, b12; a1, a1), (...; a1), then the same with a3 and b11
    n2_12, n1_12, n2_11, n1_11 = nabla_R_contract(M, P, vecs, [
        (0, 1, 1, 4, 0, 0), (0, 1, 1, 4, 0), (0, 2, 2, 3, 0, 0), (0, 2, 2, 3, 0)])
    if iszero(n1_12) or iszero(n1_11):
        raise ZeroDivisionError("first-derivative contraction vanishes; "
                                "Xi is undefined at this point")
    q12 = n2_12 / (n1_12 * n1_12)
    q11 = n2_11 / (n1_11 * n1_11)
    diff = q12 - q11
    return XiValue(value=diff * diff / 4, mode="frame", quotients=(q12, q11))


def xi_invariant(M: PlaneWaveMetric, P, mode: str = "frame") -> XiValue:
    """The local isometry invariant of the specialized warped family.

    frame mode evaluates the quotient formula in a 1-normalized frame;
    direct mode evaluates {1 - phi' phi''' / (phi'')^2}^2 from the first
    warping function.  The two agree wherever both are defined.
    """
    if mode == "direct":
        phi = getattr(M, "phi", None)
        if phi is None:
            raise ValueError("direct mode needs a metric built from a phi family")
        derivs = [phi[(1, 1)]]
        for _ in range(3):
            derivs.append(derivs[-1].diff(1))
        # phi itself is evaluated too, so a point outside its domain raises
        f0, f1, f2, f3 = (g.eval((P[0],)) for g in derivs)
        if iszero(f1) or iszero(f2):
            raise ZeroDivisionError("phi' or phi'' vanishes; Xi is undefined")
        q = 1 - f1 * f3 / (f2 * f2)
        return XiValue(value=q * q, mode="direct")
    if mode != "frame":
        raise ValueError(f"unknown Xi mode {mode!r}")
    frame = normalize_basis_1(M, P)
    xi = xi_from_frame(M, P, frame.vectors)
    xi.frame = frame
    return xi


# ---------------------------------------------------------------------------
# local symmetry of the constant-coefficient family


def symmetric_space_residuals(A: AFamily):
    """The three local-symmetry equations, as residuals (zero iff satisfied)."""
    a = A.a
    return (a[(1, 1)] + a[(2, 2)] + a[(3, 1)] * a[(3, 2)] - 2,
            3 * a[(2, 1)] + 3 * a[(3, 1)] + 3 * a[(1, 2)] * a[(1, 1)] - 4,
            3 * a[(1, 2)] + 3 * a[(3, 2)] + 3 * a[(2, 1)] * a[(2, 2)] - 4)


def symmetric_space_check(A: AFamily, rng=None, points: int = 20) -> CheckReport:
    """Equation residuals plus an independent nabla R sampling on the metric.

    The sampling scans components lazily and stops at the first nonzero, so
    non-symmetric instances are cheap to reject.
    """
    import random
    rng = rng or random.Random(0)
    res = symmetric_space_residuals(A)
    M = build_M_A(A)
    first, sampled = None, 0
    while first is None and sampled < points:
        P = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(14)]
        sampled += 1
        first = first_nonzero_component(M, P, 1)
    worst, max_comp = first or (None, Fraction(0))
    report = CheckReport("locally-symmetric", all(iszero(r) for r in res) and worst is None,
                         stats={"equation_residuals": list(res),
                                "max_nabla_R_component": max_comp,
                                "points_sampled": sampled})
    if not report.holds:
        report.witness = {"equation_residuals": list(res),
                          "max_nabla_R_component": max_comp,
                          "nabla_R_index": worst}
    return report
