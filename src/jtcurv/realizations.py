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
from .models import M14_LABELS, CheckReport, build_m14, canonicalize_riemann
from .planewave import (PlaneWaveMetric, _CovREngine, first_nonzero_component,
                        metric_at, nabla_R_contract)
from .planewave import nabla_R_frame  # noqa: F401 (bench/tracing.py patches it here)
from .scalars import (REL_TOL, close, iszero, pair_keys, scalar_from_json,
                      scalar_to_json)
from .symmetry import (_KERNEL_TUPLES, BETA_LABELS, beta_shift_rows,
                       check_pullback)

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
    """14 labeled tangent vectors at a point, in model basis order; the metric
    g there, and the nabla^k R evaluator at the point (planewave._CovREngine)
    the frame was built with, whose memo the later reads at the point share."""

    point: tuple
    vectors: dict
    metric: BilinearForm | None = field(default=None, compare=False, repr=False)
    engine: _CovREngine | None = field(default=None, compare=False, repr=False)

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


def normalize_basis_0(M: PlaneWaveMetric, P) -> Frame:
    """Frame at P reproducing the 14-dimensional model exactly.

    Three stages: rescale the y directions so the unit curvature patterns
    hold; shift the x directions by y-directions to kill the residual
    4-alpha curvature (a linear solve, since curvature terms with two or
    more y entries vanish); shift by x* directions to restore the inner
    products.  Each later stage leaves the earlier normalizations intact.

    The stages read nonzero data only: R through one _CovREngine at the
    canonical keys M.riemann holds, the x block of g = metric_at(M, P) and
    the nonzero C_mu,nu scaled by the y rescalings.  Each entry is the dense
    sums' in value and type: where a skipped zero would turn an exact sum
    into a float, the sum turns too.  The frame carries g and the engine,
    which verify_0_model, normalize_basis_1 and xi_invariant read on.
    """
    if M.a != 3 or M.b != 8:
        raise ValueError("frame normalization requires the a=3, b=8 family")
    P = tuple(P)
    eng = _CovREngine(M, P)
    riemann = M.riemann

    def R(idx):
        """R at P on coordinate indices; the engine reads held keys only."""
        key, sign = canonicalize_riemann(idx)
        if key not in riemann:
            return 0
        v = eng.value(key)
        return v if sign > 0 else -v  # -v is -1 * v, signed zero included

    def e(idx):
        return tuple(1 if t == idx else 0 for t in range(14))

    lam = [1] * 8
    for pair, (i, j, _) in _LAMBDA_PATTERNS:
        mu = _YIDX[pair]
        r = R((i, j, j, M.yi(mu)))
        if iszero(r):
            raise ValueError(f"degenerate point: unit curvature pattern for "
                             f"y{pair} vanishes")
        lam[mu] = Fraction(1) / r

    # stage two: t[i][mu] coefficients from a linear solve
    rows = beta_shift_rows(_KERNEL_TUPLES, [M.yi(mu) for mu in range(8)], R, lam)
    rhs = [-R(tup) for tup in _KERNEL_TUPLES]
    tflat = solve(rows, rhs)
    t = [tflat[8 * i:8 * (i + 1)] for i in range(3)]

    # stage three: x* shifts from the Gram blocks of beta_bar_mu = lam_mu
    # d/dy_mu and of alpha_tilde_i = d/dx_i + sum_mu t_i^mu beta_bar_mu,
    # whose y entries are ay[i]; g(alpha_tilde_i, alpha_tilde_j) starts at
    # g's x block, and every y part runs over the nonzero C_mu,nu
    C = M.C.entries
    ay = [[0 + x * lam[mu] if x else 0 for mu, x in enumerate(ti)] for ti in t]
    g = metric_at(M, P)
    gaa = [[g.entries[i][j] or 0 for j in range(3)] for i in range(3)]
    # a sum over every mu of g(beta_bar_mu, beta_bar_nu) t_i^mu turns float
    # at the first float t_i^mu, where a skipped zero term adds 0.0
    first_float = [next((mu for mu, x in enumerate(ti) if isinstance(x, float)), 8)
                   for ti in t]
    shift = {}
    for mu, nu in itertools.product(range(8), repeat=2):
        c = C[mu][nu]
        if c == 0:
            continue
        gbb = 0 + lam[mu] * c * lam[nu]
        for i in range(3):
            d = shift.get((i, nu), 0)
            shift[i, nu] = (float(d) if first_float[i] < mu else d) + gbb * t[i][mu]
            for j in range(3):
                if ay[i][mu] != 0 and ay[j][nu] != 0:
                    gaa[i][j] += ay[i][mu] * c * ay[j][nu]

    vectors = {}
    for i in range(3):
        v = list(e(i))
        v[M.yi(0):] = ay[i]
        for j in range(3):
            if gaa[i][j] != 0:
                v[M.xsi(j)] -= gaa[i][j] / Fraction(2)
        vectors[f"a{i + 1}"] = tuple(v)
        vectors[f"a{i + 1}*"] = e(M.xsi(i))
    for (bi, bj), nu in _YIDX.items():
        v = [0] * 14
        v[M.yi(nu)] = lam[nu]
        for i in range(3):
            d = shift.get((i, nu), Fraction(0))  # a zero column of C: zeros only
            v[M.xsi(i)] = 0 - (float(d) if first_float[i] < 8 else d)
        vectors[f"b{bi},{bj}"] = tuple(v)
    return Frame(P, vectors, g, eng)


def verify_0_model(M: PlaneWaveMetric, P, rel: float = REL_TOL) -> CheckReport:
    """Does the normalized frame at P reproduce the model's inner products
    and curvature components, all of them, to the requested precision?
    R is read with the frame's engine, whose memo holds what the frame read."""
    try:
        frame = normalize_basis_0(M, P)
    except (ValueError, ZeroDivisionError) as err:
        return CheckReport("0-model", False, witness={"error": str(err)})
    eng = frame.engine
    R = {key: v for key in M.riemann if not iszero(v := eng.value(key))}
    return check_pullback("0-model", _model(build_m14), frame.metric, R,
                          transpose(frame.ordered()), rel)


# ---------------------------------------------------------------------------
# the derivative-level normalization and the Xi invariant

#: the two nonvanishing first-derivative patterns (the last label directs)
_NABLA_PATTERNS = [("a1", "a3", "a3", "b1,1", "a1"), ("a1", "a2", "a2", "b1,2", "a1")]
#: the frame vectors nabla R(alpha_i, alpha_j, alpha_k, beta_nu; alpha_l) reads,
#: and every such request, as positions in that tuple
_NABLA_LABELS = ("a1", "a2", "a3") + tuple(f"b{i},{j}" for i, j in Y_PAIRS)
_NABLA_REQUESTS = list(itertools.product(range(3), range(3), range(3), range(3, 11),
                                         range(3)))


def normalize_basis_1(M: PlaneWaveMetric, P) -> Frame:
    """0-normalized frame additionally matching the first-derivative pattern:
    exactly the two canonical nabla R contractions survive."""
    frame = normalize_basis_0(M, P)
    values = nabla_R_contract(M, P, [frame.vector(s) for s in _NABLA_LABELS],
                              _NABLA_REQUESTS, frame.engine)
    required = set()
    for pattern in _NABLA_PATTERNS:
        req = tuple(map(_NABLA_LABELS.index, pattern))
        n = _NABLA_REQUESTS.index(req)
        if iszero(values[n]):
            raise ValueError(f"derivative pattern {pattern} vanishes; "
                             "the point violates the normalization hypotheses")
        required |= {n, _NABLA_REQUESTS.index((req[1], req[0]) + req[2:])}
    for n, val in enumerate(values):
        if n not in required and not iszero(val):
            labels = tuple(_NABLA_LABELS[s] for s in _NABLA_REQUESTS[n])
            raise ValueError(f"unexpected nonzero derivative component {labels}: {val}")
    return frame


@dataclass
class XiValue:
    value: object
    mode: str
    quotients: tuple | None = None
    frame: Frame | None = None


def xi_from_frame(M: PlaneWaveMetric, P, vectors, engine=None) -> XiValue:
    """Xi from any frame supplying a1, a2, a3, b1,1 and b1,2 vectors; engine
    is a _CovREngine at P to read on (a fresh one by default)."""
    vecs = [vectors[name] for name in ("a1", "a2", "a3", "b1,1", "b1,2")]
    # (a1, a2, a2, b12; a1, a1), (...; a1), then the same with a3 and b11
    n2_12, n1_12, n2_11, n1_11 = nabla_R_contract(M, P, vecs, [
        (0, 1, 1, 4, 0, 0), (0, 1, 1, 4, 0), (0, 2, 2, 3, 0, 0), (0, 2, 2, 3, 0)],
        engine)
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
    xi = xi_from_frame(M, P, frame.vectors, frame.engine)
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
