"""The three benchmark workloads: seeded inputs, operations and oracles.

``setup(J, seed, workdir)`` builds one workload's inputs from the seed and
returns its pass operations and its scans.  An operation is one call into a
public jtcurv function (or ``jtcurv.cli.main``) plus an oracle that inspects
the result and returns a problem string, or None when the result is right.  Every call looks
its function up on the module at call time, so the traced run's wrappers see
it.  Operations of one pass may hand results to later ones through ``state``.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import itertools
import json
import random
import sys
import types
from fractions import Fraction

import oracles as O
import recipes as R

JTCURV_MODULES = ("models", "linalg", "symmetry", "planewave", "realizations",
                  "expr", "poly", "cli")


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


class Schedule:
    """Operations in dependency groups, plus the scans.  A seeded shuffle of
    the groups spreads every kind over the whole pass, so no kind is timed in
    one stretch of host load.

    Scans are operations of 2 to 18 s that the passes leave out, so that a
    run can repeat its pass: the direct m14 property scans (the README's
    check-model operation runs jacobi- and mixed-tsankov in every pass) and
    nabla^2 R at the README point.  They run once, untraced, in the traced
    run, which reports their latency as op.<kind>.p50_ms."""

    def __init__(self):
        self.groups = []
        self.scans = []

    def add(self, *ops):
        self.groups.append(ops)

    def scan(self, op):
        self.scans.append(op)

    def ordered(self, rng):
        """(pass operations in a seeded group order, scans)."""
        groups = list(self.groups)
        rng.shuffle(groups)
        return [op for group in groups for op in group], list(self.scans)


def load_jtcurv():
    """Import jtcurv afresh (dropping any earlier import) and return its modules."""
    for name in [n for n in sys.modules if n == "jtcurv" or n.startswith("jtcurv.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"jtcurv.{m}") for m in JTCURV_MODULES})


def run_cli(J, argv):
    """Run the CLI in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = J.cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def cli_op(J, kind, argv, want_rc, check_report):
    """CLI operation: exit code against the README, then the JSON report."""
    def check(res):
        rc, out, err = res
        if rc != want_rc:
            return f"exit {rc}, want {want_rc}: {err.strip()[-200:]}"
        return check_report(json.loads(out))
    return Op(kind, lambda: run_cli(J, argv), check)


def _checks_by_name(report):
    return {c["property"]: c for c in report["checks"]}


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _ones_json(workdir):
    return _write_json(workdir / "ones.json", {"a": {
        f"{i},{j}": 1 for i in (1, 2, 3) for j in (1, 2)}})


# ---------------------------------------------------------------------------
# model-algebra


def _m14_exhaustive(kind):
    key, count = O.M14_EXHAUSTIVE[kind]

    def check(rep):
        if not rep.holds:
            return f"{kind} fails: {rep.witness}"
        if rep.stats.get(key) != count:
            return f"{kind} {key}={rep.stats.get(key)}, want {count}"
    return check


def _m14_witness(kind):
    pairs, witness = O.M14_WITNESSES[kind]

    def check(rep):
        if rep.holds:
            return f"{kind} holds on m14"
        if rep.stats != {"pairs_checked": pairs}:
            return f"{kind} stats {rep.stats}, want pairs_checked={pairs}"
        if rep.witness != witness:
            return f"{kind} witness {rep.witness}"
    return check


def _product_operators(S, signs):
    """2 J(e_i, e_j) of the product model, as integer matrices [row][col]."""
    n = len(S)

    def A(x, y, z, w):
        return S[x][w] * S[y][z] - S[x][z] * S[y][w]

    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    ops = {}
    for i, j in pairs:
        ops[(i, j)] = [[signs[w] * (A(z, i, j, w) + A(z, j, i, w))
                        for z in range(n)] for w in range(n)]
    return pairs, ops


def _matmul(X, Y):
    n = len(X)
    return [[sum(X[r][k] * Y[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)]


def product_jt_first_failure(S, signs):
    """First polarized pair (in check_property's order) whose Jacobi operators
    do not commute, with the first nonzero commutator column; None if all do."""
    pairs, ops = _product_operators(S, signs)
    n = len(S)
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            X, Y = ops[pairs[a]], ops[pairs[b]]
            XY, YX = _matmul(X, Y), _matmul(Y, X)
            for c in range(n):
                col = [XY[r][c] - YX[r][c] for r in range(n)]
                if any(col):
                    return pairs[a], pairs[b], c, [Fraction(v, 4) for v in col]
    return None


def _product_jt_check(S, signs):
    n = len(S)
    npairs = n * (n + 1) // 2

    def label(p):
        return [f"e{i}" for i in p]

    def check(rep):
        want = product_jt_first_failure(S, signs)
        if want is None:
            if not rep.holds:
                return f"jacobi-tsankov fails on a commuting model: {rep.witness}"
            if rep.stats.get("pairs_checked") != npairs * (npairs - 1) // 2:
                return f"pairs_checked {rep.stats}"
            return None
        if rep.holds:
            return f"jacobi-tsankov holds, want witness {want}"
        left, right, col, residual = want
        got = rep.witness
        if (got.get("left_pair"), got.get("right_pair"), got.get("vector"),
                got.get("residual")) != (label(left), label(right), f"e{col}",
                                         residual):
            return f"witness {got}, want {want}"
    return check


def _product_sqzero_check(state, key, n):
    monomials = len(list(itertools.combinations_with_replacement(range(n), 4)))

    def check(rep):
        if state.get(key):  # Jacobi operators commute: the square must vanish
            if not rep.holds:
                return f"commuting model with nonzero square: {rep.witness}"
        if rep.holds:
            if rep.stats.get("monomials_checked") != monomials:
                return f"monomials_checked {rep.stats}, want {monomials}"
        elif not any(rep.witness["residual"]):
            return f"zero residual in witness {rep.witness}"
    return check


def _is_identity3(T):
    star = (3, 4, 5)
    return all(T[i][j] == (1 if i == j else 0) for i in star for j in star)


def setup_model_algebra(J, seed, workdir):
    sy = J.symmetry
    rng = random.Random(f"{seed}:model-algebra")
    m = J.models.build_m14()
    state = {}
    ops = Schedule()

    ops.add(Op("signature", lambda: m.form.signature(),
               lambda sig: None if sig == O.M14_SIGNATURE else f"signature {sig}"))
    ops.add(Op("validate-curvature",
               lambda: J.models.validate_curvature_symmetries(m.tensor),
               lambda rep: None if rep.holds else f"bianchi {rep.witness}"))
    for kind in O.M14_WITNESSES:
        ops.add(Op(kind, lambda kind=kind: J.models.check_property(m, kind),
                   _m14_witness(kind)))
    for kind in O.M14_EXHAUSTIVE:
        ops.scan(Op(kind, lambda kind=kind: J.models.check_property(m, kind),
                    _m14_exhaustive(kind)))

    # the four generators with the README's parameters, then seeded ones
    gens = [sy.swap_first_second(), sy.swap_first_third(),
            sy.rotation(Fraction(3, 5), Fraction(4, 5)),
            sy.dilatation(Fraction(2), Fraction(1, 2), Fraction(1))]
    gens += [sy.rotation(*R.pythagorean_rotation(rng)) for _ in range(2)]
    gens += [sy.dilatation(*R.unit_dilatation(rng)) for _ in range(2)]
    for T in gens:
        ops.add(Op("is-symmetry", lambda T=T: J.symmetry.is_symmetry(m, T),
                   lambda rep: None if rep.holds else f"rejected {rep.witness}"))

    ops.add(Op("kernel-rank",
               lambda: J.linalg.rank(J.symmetry.kernel_constraint_matrix(m)),
               lambda r: None if (r, 24 - r + 3) == (O.KERNEL_RANK, O.KERNEL_DIMENSION)
               else f"constraint rank {r}"))
    for i in range(8):
        krng = random.Random(f"{seed}:kernel:{i}")

        def element(i=i, krng=krng):
            T = J.symmetry.random_kernel_element(m, krng)
            state[("kernel", i)] = T
            return T

        ops.add(Op("kernel-element", element,
                   lambda T: None if _is_identity3(T) else "tau(T) != 1"),
                Op("is-symmetry",
                   lambda i=i: J.symmetry.is_symmetry(m, state[("kernel", i)]),
                   lambda rep: None if rep.holds
                   else f"kernel element rejected {rep.witness}"))
    ops.add(Op("invariant-spans", lambda: J.models.invariant_spans(m),
               lambda vs: None if (len(vs[0]), len(vs[1])) == O.SPAN_DIMENSIONS
               else f"span dimensions {len(vs[0])}, {len(vs[1])}"))

    for i in range(2):
        S, form, pm = R.random_product_model(J, rng)
        signs = [form[w][w] for w in range(len(S))]

        def jt(pm=pm, i=i):
            rep = J.models.check_property(pm, "jacobi-tsankov")
            state[("commute", i)] = rep.holds
            return rep

        ops.add(Op("product-jacobi-tsankov", jt, _product_jt_check(S, signs)),
                Op("product-square-zero",
                   lambda pm=pm: J.models.check_property(pm, "jacobi-square-zero"),
                   _product_sqzero_check(state, ("commute", i), len(S))))

    def tsankov_report(rep):
        checks = _checks_by_name(rep)
        if rep["signature"] != list(O.M14_SIGNATURE):
            return f"signature {rep['signature']}"
        if checks["curvature-symmetries"]["verdict"] != "holds":
            return "curvature symmetries fail"
        for kind in ("jacobi-tsankov", "mixed-tsankov"):
            key, count = O.M14_EXHAUSTIVE[kind]
            c = checks[kind]
            if c["verdict"] != "holds" or c["stats"][key] != count:
                return f"{kind}: {c['verdict']} {c['stats']}"

    def nilpotent_report(rep):
        pairs, witness = O.M14_WITNESSES["2-step-jacobi-nilpotent"]
        c = _checks_by_name(rep)["2-step-jacobi-nilpotent"]
        want = dict(witness, residual=[O.scalar_json(v) for v in witness["residual"]])
        if c["verdict"] != "fails" or c["stats"] != {"pairs_checked": pairs}:
            return f"2-step-jacobi-nilpotent: {c['verdict']} {c['stats']}"
        if c["witness"] != want:
            return f"witness {c['witness']}"

    def holds(rep):
        if rep["verdict"] != "holds":
            return f"verdict {rep['verdict']}: {rep['checks']}"

    def kernel_dim(rep):
        if (rep["constraint_rank"], rep["kernel_dimension"]) != (
                O.KERNEL_RANK, O.KERNEL_DIMENSION):
            return f"kernel {rep['constraint_rank']}, {rep['kernel_dimension']}"
        return holds(rep)

    def kernel_random(rep):
        if rep["tau"] != [[O.scalar_json(int(i == j)) for j in range(3)]
                          for i in range(3)]:
            return f"tau {rep['tau']}"
        return holds(rep)

    ops.add(cli_op(J, "cli-check-model-tsankov",
                   ["check-model", "m14", "--properties",
                    "jacobi-tsankov,mixed-tsankov"], 0, tsankov_report))
    ops.add(cli_op(J, "cli-check-model-nilpotent",
                   ["check-model", "m14", "--properties", "2-step-jacobi-nilpotent"],
                   1, nilpotent_report))
    for gen in ("swap12", "rotation:3/5,4/5", "dilatation:2,1/2,1"):
        ops.add(cli_op(J, "cli-symmetry", ["symmetry", "m14", "--generator", gen],
                       0, holds))
    ops.add(cli_op(J, "cli-symmetry", ["symmetry", "m14", "--kernel-dim"],
                   0, kernel_dim))
    ops.add(cli_op(J, "cli-symmetry",
                   ["--seed", str(seed), "symmetry", "m14", "--kernel-random"],
                   0, kernel_random))
    return ops.ordered(random.Random(f"{seed}:model-algebra:order"))


# ---------------------------------------------------------------------------
# curvature-realization


def _verify_check(rep):
    if not rep.holds:
        return f"0-model fails: {rep.witness}"
    if rep.stats.get("components_checked") != O.COMPONENTS_CHECKED:
        return f"components_checked {rep.stats}"


#: samples along a coordinate for the exact derivative of a nabla R
#: component: with psi of degree at most 3 a component is a polynomial of
#: far lower degree in each coordinate (16 and 24 samples agree)
NABLA2_SAMPLES = 16


def _nabla2_check(J, M, P, rng_key):
    """Oracle for nabla^2 R at P.  Every component is antisymmetric in its
    first two index pairs and satisfies the second Bianchi identity in
    slots 3, 4 and each derivative slot.  Six components (three nonzero
    ones, three seeded ones, which may vanish) match the textbook formula
    nabla_f (nabla R)_{abcde} = d_f (nabla R)_{abcde} - sum over the five
    slots of Gamma^g_{f s} (nabla R)_{..g..}, the partial taken by exact
    interpolation of k=1 components along coordinate f.  A metric whose
    nabla^2 R vanishes is checked by the seeded components alone."""
    pw = J.planewave
    support = [M.xi(i) for i in range(M.a)] + [M.yi(m) for m in range(M.b)]

    def textbook(idx, gam, T1):
        *idx5, f = idx
        samples = []
        for k in range(NABLA2_SAMPLES):
            Q = list(P)
            Q[f] += k
            samples.append(pw.nabla_R_component(M, tuple(Q), idx5[:4], idx5[4:]))
        total = O.derivative_at_zero(samples)
        for slot, s in enumerate(idx5):
            for g in range(M.n):
                c = gam.value(f, s, g)
                if c != 0:
                    total -= c * T1.value(*idx5[:slot], g, *idx5[slot + 1:])
        return total

    def check(T):
        comps = T.comps
        for idx, v in comps.items():
            for i, j in ((0, 1), (2, 3)):
                swapped = list(idx)
                swapped[i], swapped[j] = idx[j], idx[i]
                if comps.get(tuple(swapped), 0) != -v:
                    return f"not antisymmetric in slots {i}, {j} at {idx}"
            for slot in (4, 5):
                c, d, e = idx[2], idx[3], idx[slot]
                total = 0
                for x, y, z in ((c, d, e), (d, e, c), (e, c, d)):
                    k = list(idx)
                    k[2], k[3], k[slot] = x, y, z
                    total += comps.get(tuple(k), 0)
                if total != 0:
                    return f"second Bianchi sum {total} at {idx}, slot {slot}"
        rng = random.Random(rng_key)
        picks = list(comps)[:3]
        while len(picks) < 6:
            idx = [rng.choice(support[:M.a]) for _ in range(6)]
            idx[rng.randrange(6)] = rng.choice(support)
            picks.append(tuple(idx))
        gam = pw.christoffel(M, P, kind="second")
        T1 = pw.covariant_derivative_R(M, P, 1)
        for idx in picks:
            want = textbook(idx, gam, T1)
            if T.value(*idx) != want:
                return f"nabla^2 R{idx} = {T.value(*idx)}, textbook formula {want}"

    return check


def _symmetric_check(a):
    eq = all(r == 0 for r in O.symmetric_space_residuals(a))
    return lambda rep: None if rep.holds == eq else \
        f"verdict {rep.holds}, equations say {eq}"


def setup_curvature_realization(J, seed, workdir):
    rz = J.realizations
    rng = random.Random(f"{seed}:curvature-realization")
    state = {}
    ops = Schedule()

    for _ in range(4):
        M = rz.build_M_A(R.random_afamily(J, rng))
        for _ in range(2):
            P = R.rational_point(rng)
            ops.add(Op("verify-0-model-exact",
                       lambda M=M, P=P: J.realizations.verify_0_model(M, P),
                       _verify_check))
    mphi = rz.build_M_Phi(R.exp_phi_family(J))
    for _ in range(8):
        P = R.float_point(rng)
        ops.add(Op("verify-0-model-float",
                   lambda P=P: J.realizations.verify_0_model(
                       mphi, P, rel=O.TOL_MPHI_0MODEL),
                   _verify_check))

    mmix = rz.build_M_Phi(R.exp_mix_phi_family(J))
    for i in range(4):
        P = (rng.uniform(-0.5, 1.0),) + (0.0,) * 13
        closed = O.xi_mixed_closed_form(P[0])

        def frame(P=P, i=i):
            xi = J.realizations.xi_invariant(mmix, P, mode="frame")
            state[("xi", i)] = xi.value
            return xi

        def frame_check(xi, closed=closed):
            if not O.close(xi.value, closed, O.TOL_XI):
                return f"Xi frame {xi.value}, closed form {closed}"

        def direct_check(xi, i=i):
            if not O.close(state[("xi", i)], xi.value, O.TOL_XI):
                return f"Xi frame {state[('xi', i)]} vs direct {xi.value}"

        ops.add(Op("xi-frame", frame, frame_check),
                Op("xi-direct",
                   lambda P=P: J.realizations.xi_invariant(mmix, P, mode="direct"),
                   direct_check))

    for i in range(4):
        M = R.random_metric(J, rng, a=rng.randint(2, 3), b=rng.randint(2, 8))
        P = R.rational_point(rng, M.n)

        def generic(M=M, P=P, i=i):
            T = J.planewave.curvature_generic(M, P)
            state[("generic", i)] = dict(T.comps)
            return T

        ops.add(Op("curvature-generic", generic, lambda T: None),
                Op("curvature-at", lambda M=M, P=P: J.planewave.curvature_at(M, P),
                   lambda T, i=i: None if dict(T.comps) == state[("generic", i)]
                   else "curvature_at differs from curvature_generic"))

    A = R.random_afamily(J, rng)
    M1, P1 = rz.build_M_A(A), R.rational_point(rng)
    want1 = O.nabla_r_expected_full(A.a, P1)
    ops.add(Op("nabla-r-k1", lambda: J.planewave.covariant_derivative_R(M1, P1, 1),
               lambda T: None if dict(T.comps) == want1
               else "nabla R differs from the e1..e6 table"))

    ones = R.ones_afamily(J)
    mones = rz.build_M_A(ones)
    p2 = tuple(Fraction(c) for c in O.README_NABLA_POINT)

    def k2_check(T):
        vals = list(T.comps.values())
        got = (len(vals), sum(v * v for v in vals),
               max((abs(v) for v in vals), default=Fraction(0)))
        if got != O.K2_ONES_FINGERPRINT:
            return f"nabla^2 R fingerprint {got}"

    ops.scan(Op("nabla-r-k2", lambda: J.planewave.covariant_derivative_R(mones, p2, 2),
                k2_check))
    # the same k=2 recursion on a seeded 7-dimensional metric
    M2 = R.random_metric(J, rng, a=2, b=3)
    P2 = R.rational_point(rng, M2.n)
    ops.add(Op("nabla-r-k2-small",
               lambda: J.planewave.covariant_derivative_R(M2, P2, 2),
               _nabla2_check(J, M2, P2, f"{seed}:nabla2-oracle")))

    sym = R.symmetric_afamily(J)
    ops.add(Op("symmetric-hand-solved",
               lambda: J.realizations.symmetric_space_check(
                   sym, rng=random.Random(f"{seed}:symmetric"), points=1),
               _symmetric_check(sym.a)))
    for d in range(4):
        A = R.random_afamily(J, rng)
        ops.add(Op("symmetric-random",
                   lambda A=A, d=d: J.realizations.symmetric_space_check(
                       A, rng=random.Random(f"{seed}:symmetric:{d}"), points=3),
                   _symmetric_check(A.a)))

    ones_path = _ones_json(workdir)
    phi_path = _write_json(workdir / "phi.json", R.exp_mix_phi_family(J).to_json())
    xi_csv = workdir / "xi.csv"
    want_curv = O.curvature_expected_full(
        ones.a, tuple(Fraction(c) for c in O.README_CURVATURE_POINT))
    want_nabla = O.nabla_r_expected_full(ones.a, p2)

    def curvature_report(rep):
        got = {tuple(c["idx"]): O.scalar_from_json(c["val"])
               for c in rep["curvature"][0]["components"]}
        want = {k: v for k, v in want_curv.items()
                if k == min(t for t, _ in O.riemann_orbit(k))}
        if got != want:
            return "curvature components differ from the fixtures"

    def nabla_report(rep):
        out = rep["nabla_r"][0]
        want_max = max(abs(v) for v in want_nabla.values())
        if (out["nonzero_components"], O.scalar_from_json(out["max_abs"])) != (
                len(want_nabla), want_max):
            return f"nabla-r {out['nonzero_components']} {out['max_abs']}"

    def verify_report(rep):
        c = rep["checks"][0]
        if c["verdict"] != "holds" or c["stats"] != {"points_verified": 5}:
            return f"verify-0-model {c}"

    def symmetric_report(rep):
        want = [O.scalar_json(r) for r in O.symmetric_space_residuals(ones.a)]
        if rep["verdict"] != "fails" or rep["equation_residuals"] != want:
            return f"symmetric {rep['verdict']} {rep['equation_residuals']}"

    def sweep_report(rep):
        rows = _read_csv(xi_csv)
        if rows[0] != ["x1", "Xi"] or len(rows) != 6:
            return f"xi sweep csv {rows[:2]} ({len(rows)} rows)"
        for k, (x1, xi) in enumerate(rows[1:]):
            if float(x1) != 0.25 * k or not O.close(
                    float(xi), O.xi_mixed_closed_form(float(x1)), O.TOL_XI):
                return f"xi sweep row {x1}, {xi}"

    def xi_point_report(rep):
        want = O.xi_mixed_closed_form(0.5)
        if not (O.close(rep["xi_frame"], want, O.TOL_XI)
                and O.close(rep["xi_direct"], want, O.TOL_XI)):
            return f"xi {rep['xi_frame']} / {rep['xi_direct']}, want {want}"
        return None if rep["verdict"] == "holds" else "frame vs direct fails"

    ops.add(cli_op(J, "cli-curvature",
                   ["geometry", "m-a", "curvature", "--params", ones_path,
                    "--point", json.dumps(O.README_CURVATURE_POINT)], 0, curvature_report))
    ops.add(cli_op(J, "cli-nabla-r",
                   ["geometry", "m-a", "nabla-r", "--params", ones_path,
                    "--order", "1", "--point", json.dumps(O.README_NABLA_POINT)],
                   0, nabla_report))
    ops.add(cli_op(J, "cli-verify-0-model",
                   ["--seed", str(seed), "--points", "5", "geometry", "m-a",
                    "verify-0-model", "--params", ones_path], 0, verify_report))
    ops.add(cli_op(J, "cli-symmetric",
                   ["--seed", str(seed), "geometry", "m-a", "symmetric",
                    "--params", ones_path], 1, symmetric_report))
    ops.add(cli_op(J, "cli-xi-sweep",
                   ["--out", str(xi_csv), "geometry", "m-phi", "xi",
                    "--params", phi_path, "--sweep", "x1=0:1:0.25"], 0, sweep_report))
    ops.add(cli_op(J, "cli-xi-point",
                   ["geometry", "m-phi", "xi", "--params", phi_path,
                    "--point", json.dumps([0.5] + [0] * 13)], 0, xi_point_report))
    return ops.ordered(random.Random(f"{seed}:curvature-realization:order"))


# ---------------------------------------------------------------------------
# geodesics


def _affine_problem(start, vel, end, t, tol):
    for i in range(3):
        want = start[i] + t * vel[i]
        if (end[i] != want) if tol == 0 else not O.close(
                float(end[i]), float(want), tol):
            return f"base coordinate {i}: {end[i]} != {want}"


def setup_geodesics(J, seed, workdir):
    rz = J.realizations
    rng = random.Random(f"{seed}:geodesics")
    state = {}
    ops = Schedule()
    one = Fraction(1)

    for i in range(4):
        ma = rz.build_M_A(R.random_afamily(J, rng))
        P = R.rational_point(rng, num=2, den=2)
        v = R.rational_velocity(rng)

        def geo(ma=ma, P=P, v=v, i=i):
            end = J.planewave.geodesic(ma, P, v, one, quadrature="exact-poly")
            state[("exact", i)] = end
            return end

        ops.add(Op("geodesic-exact", geo,
                   lambda end, P=P, v=v: _affine_problem(P, v, end, one, 0)),
                Op("exp-inverse-exact",
                   lambda ma=ma, P=P, i=i: J.planewave.exp_inverse(
                       ma, P, state[("exact", i)], quadrature="exact-poly"),
                   lambda w, v=v: None if tuple(w) == tuple(v)
                   else "exact exp_inverse does not return the velocity"))
        ops.add(Op("geodesic-residual-exact",
                   lambda ma=ma, P=P, v=v: J.planewave.geodesic_residual(
                       ma, P, v, Fraction(1, 2), quadrature="exact-poly"),
                   lambda r: None if abs(float(r)) < O.TOL_GEODESIC_RESIDUAL
                   else f"residual {r}"))

    mphi = rz.build_M_Phi(R.exp_phi_family(J))
    ts = (0.0, 0.5, 1.0)
    for i in range(2):
        P, v = R.float_point(rng), R.float_point(rng)

        def geo(P=P, v=v, i=i):
            end = J.planewave.geodesic(mphi, P, v, 1.0)
            state[("float", i)] = end
            return end

        def roundtrip(w, v=v):
            err = max(abs(a - b) for a, b in zip(w, v))
            if err > O.TOL_EXP_ROUNDTRIP:
                return f"exp round trip off by {err}"

        def trace(P=P, v=v):
            buf = io.StringIO()
            J.planewave.geodesic_trace_csv(mphi, P, v, ts, buf)
            return buf.getvalue()

        def trace_check(text, P=P, v=v, i=i):
            rows = list(csv.reader(io.StringIO(text)))
            if len(rows) != len(ts) + 1 or len(rows[0]) != 15:
                return f"trace shape {len(rows)} x {len(rows[0])}"
            for t, row in zip(ts, rows[1:]):
                pt = [float(c) for c in row[1:]]
                bad = _affine_problem(P, v, pt, t, O.TOL_AFFINE)
                if bad:
                    return f"trace at t={t}: {bad}"
            end = state[("float", i)]
            if any(not O.close(a, b, O.TOL_AFFINE) for a, b in zip(pt, end)):
                return "trace end differs from the geodesic end point"

        ops.add(Op("geodesic-float", geo,
                   lambda end, P=P, v=v: _affine_problem(P, v, end, 1.0, O.TOL_AFFINE)),
                Op("exp-inverse-float",
                   lambda P=P, i=i: J.planewave.exp_inverse(mphi, P, state[("float", i)]),
                   roundtrip),
                Op("geodesic-trace-float", trace, trace_check))
        ops.add(Op("geodesic-residual-float",
                   lambda P=P, v=v: J.planewave.geodesic_residual(mphi, P, v, 0.5),
                   lambda r: None if r < O.TOL_GEODESIC_RESIDUAL else f"residual {r}"))

    ones_path = _ones_json(workdir)
    path_csv = workdir / "path.csv"
    p0 = (1,) + (0,) * 13
    v0 = (1, 1) + (0,) * 12

    def geodesic_report(rep):
        rows = _read_csv(path_csv)
        if rows[0][0] != "t" or len(rows[0]) != 15 or len(rows) != 11:
            return f"path csv {rows[0]} ({len(rows)} rows)"
        for k, row in enumerate(rows[1:]):
            t = float(row[0])
            if not O.close(t, 2 * k / 9, O.TOL_AFFINE):
                return f"path csv t={t}"
            bad = _affine_problem(p0, v0, [float(c) for c in row[1:]], t, O.TOL_AFFINE)
            if bad:
                return f"path csv at t={t}: {bad}"
        c = _checks_by_name(rep)["geodesic-residual"]
        if c["verdict"] != "holds" or c["stats"]["residual"] >= O.TOL_GEODESIC_RESIDUAL:
            return f"geodesic residual {c['stats']}"

    def exp_inverse_report(rep):
        c = _checks_by_name(rep)["exp-inverse-roundtrip"]
        if c["verdict"] != "holds" or c["stats"]["max_residual"] >= O.TOL_EXP_ROUNDTRIP:
            return f"exp-inverse {c['stats']}"

    ops.add(cli_op(J, "cli-geodesic",
                   ["--out", str(path_csv), "--points", "10", "geometry", "m-a",
                    "geodesic", "--params", ones_path, "--point", json.dumps(p0),
                    "--velocity", json.dumps(v0), "--t", "2"], 0, geodesic_report))
    ops.add(cli_op(J, "cli-exp-inverse",
                   ["--seed", str(seed), "geometry", "m-a", "exp-inverse",
                    "--params", ones_path], 0, exp_inverse_report))
    return ops.ordered(random.Random(f"{seed}:geodesics:order"))


class Workload:
    def __init__(self, name, setup, kinds, needs_scipy=False):
        self.name = name
        self.setup = setup
        self.kinds = kinds
        self.needs_scipy = needs_scipy


WORKLOADS = {w.name: w for w in (
    Workload("model-algebra", setup_model_algebra, (
        "signature", "validate-curvature", *O.M14_WITNESSES, *O.M14_EXHAUSTIVE,
        "is-symmetry", "kernel-rank", "kernel-element",
        "invariant-spans", "product-jacobi-tsankov", "product-square-zero",
        "cli-check-model-tsankov", "cli-check-model-nilpotent", "cli-symmetry")),
    Workload("curvature-realization", setup_curvature_realization, (
        "verify-0-model-exact", "verify-0-model-float", "xi-frame", "xi-direct",
        "curvature-generic", "curvature-at", "nabla-r-k1", "nabla-r-k2-small",
        "nabla-r-k2",
        "symmetric-hand-solved", "symmetric-random", "cli-curvature",
        "cli-nabla-r", "cli-verify-0-model", "cli-symmetric", "cli-xi-sweep",
        "cli-xi-point")),
    Workload("geodesics", setup_geodesics, (
        "geodesic-exact", "exp-inverse-exact", "geodesic-residual-exact",
        "geodesic-float", "exp-inverse-float", "geodesic-residual-float",
        "geodesic-trace-float", "cli-geodesic", "cli-exp-inverse"),
        needs_scipy=True),
)}
