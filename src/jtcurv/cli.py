"""Command line front end.

Machine-readable JSON goes to stdout, a one-line-per-check human summary to
stderr.  Exit status: 0 all checks hold, 1 a check failed, 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction

from . import models, planewave, realizations, symmetry
from .linalg import rank
from .scalars import REL_TOL, scalar_to_json


class UsageError(ValueError):
    pass


def _parse_scalar(text, mode):
    if mode == "float":
        return float(Fraction(text))
    return Fraction(text)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read {path}: {err}") from err


def _parse_file(path, from_json):
    """from_json of the file's JSON; a value of the wrong JSON type (a
    boolean or list where a scalar belongs, ...) is a usage error."""
    obj = _load_json(path)
    try:
        return from_json(obj)
    except (TypeError, AttributeError) as err:
        raise UsageError(f"malformed {path}: {err}") from err


def _load_model(name):
    if name == "m14":
        return models.build_m14()
    return _parse_file(name, models.Model0.from_json)


def _load_metric(name, params, mode):
    if name == "m-phi":
        if not params:
            raise UsageError("m-phi needs --params with a phi family")
        fam = _parse_file(params, realizations.PhiFamily.from_json)
        return realizations.build_M_Phi(fam)
    if name == "m-a":
        if not params:
            raise UsageError("m-a needs --params with the a coefficients")
        fam = _parse_file(params, realizations.AFamily.from_json)
        if mode == "float":
            fam = realizations.AFamily({k: float(v) for k, v in fam.a.items()})
        return realizations.build_M_A(fam)
    return _parse_file(name, planewave.PlaneWaveMetric.from_json)


def _random_point(rng, n, mode):
    if mode == "float":
        return tuple(rng.uniform(-2.0, 2.0) for _ in range(n))
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))


def _point_from_arg(text, n, mode):
    vals = json.loads(text)
    if not isinstance(vals, list) or len(vals) != n:
        raise UsageError(f"expected a JSON list of {n} coordinates, got {text}")
    return tuple(_parse_scalar(str(v), mode) for v in vals)


def _emit(report_obj, checks, out=None):
    report_obj["checks"] = [c.to_json() for c in checks]
    ok = all(c.holds for c in checks)
    report_obj["verdict"] = "holds" if ok else "fails"
    json.dump(report_obj, sys.stdout, indent=2, default=scalar_to_json)
    sys.stdout.write("\n")
    for c in checks:
        status = "PASS" if c.holds else "FAIL"
        line = f"{status} {c.name}"
        if not c.holds and c.witness:
            line += f"  witness: {json.dumps(c.witness, default=str)[:200]}"
        print(line, file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_model(args):
    m = _load_model(args.model)
    checks = [models.validate_curvature_symmetries(m.tensor)]
    p, q = m.form.signature()
    checks.append(models.CheckReport("signature", True,
                                     stats={"signature": [p, q]}))
    kinds = list(models.PROPERTY_KINDS) if args.properties == "all" \
        else [k.strip() for k in args.properties.split(",") if k.strip()]
    for kind in kinds:
        if kind not in models.PROPERTY_KINDS:
            raise UsageError(f"unknown property {kind!r}; known: "
                             + ", ".join(models.PROPERTY_KINDS))
        checks.append(models.check_property(m, kind))
    return _emit({"command": "check-model", "model": args.model,
                  "signature": [p, q]}, checks)


#: the --generator names; a generator raises TypeError on surplus parameters
_GENERATORS = {"swap12": symmetry.swap_first_second, "swap13": symmetry.swap_first_third,
               "rotation": symmetry.rotation, "dilatation": symmetry.dilatation}


def cmd_symmetry(args):
    if args.model != "m14":
        raise UsageError("symmetry checks are specific to the builtin m14 model")
    m = models.build_m14()
    obj = {"command": "symmetry"}
    checks = []
    if args.kernel_dim:
        r = rank(symmetry.kernel_constraint_matrix(m))
        dim = 24 - r + 3
        obj["constraint_rank"] = r
        obj["kernel_dimension"] = dim
        checks.append(models.CheckReport(
            "kernel-dimension", dim == 21,
            stats={"constraint_rank": r, "dimension": dim}))
    if args.kernel_random:
        rng = random.Random(args.seed)
        T = symmetry.random_kernel_element(m, rng)
        rep = symmetry.is_symmetry(m, T, rel=args.tol)
        rep.name = "kernel-element-symmetry"
        checks.append(rep)
        obj["tau"] = symmetry.tau(T)
    if args.generator:
        name, _, params = args.generator.partition(":")
        vals = [_parse_scalar(p, args.mode) for p in params.split(",")] if params else []
        if name not in _GENERATORS:
            raise UsageError(f"unknown generator {name!r}")
        try:
            T = _GENERATORS[name](*vals)
        except (TypeError, ValueError) as err:
            raise UsageError(str(err)) from err
        rep = symmetry.is_symmetry(m, T, rel=args.tol)
        rep.name = f"generator-{name}"
        checks.append(rep)
        tau = symmetry.tau(T)
        obj["tau"] = tau
        obj["det_tau"] = symmetry.det3(tau)
    if not checks:
        raise UsageError("nothing to do: pass --generator, --kernel-random "
                         "or --kernel-dim")
    return _emit(obj, checks)


def _open_out(args):
    if args.out:
        return open(args.out, "w", newline="")
    return sys.stdout


def cmd_geometry(args):
    M = _load_metric(args.metric, args.params, args.mode)
    rng = random.Random(args.seed)
    obj = {"command": f"geometry {args.sub}", "metric": args.metric}
    checks = []
    sub = args.sub
    if sub in ("verify-0-model", "xi") and (M.a, M.b) != (3, 8):
        raise UsageError(f"{sub} needs the a=3, b=8 family of the normalized "
                         f"frame, got a metric with a={M.a}, b={M.b}")

    def given_or_sampled(count):
        """The --point, or count random points (--points overrides count)."""
        if args.point:
            return [_point_from_arg(args.point, M.n, args.mode)]
        mode = args.mode
        if mode == "rational" and M.has_transcendental():
            mode = "float"
        return [_random_point(rng, M.n, mode) for _ in range(args.points or count)]

    if sub == "curvature":
        pts = given_or_sampled(1)
        out = []
        for P in pts:
            T = planewave.curvature_at(M, P)
            comps = [{"idx": list(k), "val": v} for k, v in sorted(T.items())
                     if models.canonicalize_riemann(k)[0] == k]
            out.append({"point": [scalar_to_json(c) for c in P],
                        "components": comps})
        obj["curvature"] = out
        checks.append(models.CheckReport("curvature-evaluated", True,
                                         stats={"points": len(pts)}))
    elif sub == "nabla-r":
        pts = given_or_sampled(1)
        out = []
        for P in pts:
            T = planewave.covariant_derivative_R(M, P, args.order)
            out.append({"point": [scalar_to_json(c) for c in P],
                        "nonzero_components": len(T.comps),
                        "max_abs": T.max_abs()})
        obj["nabla_r"] = out
        checks.append(models.CheckReport(f"nabla-r-order-{args.order}", True,
                                         stats={"points": len(pts)}))
    elif sub == "verify-0-model":
        pts = given_or_sampled(10)
        for i, P in enumerate(pts):
            rep = realizations.verify_0_model(M, P, rel=args.tol)
            if not rep.holds:
                rep.name = f"0-model-point-{i}"
                checks.append(rep)
                break
        else:
            checks.append(models.CheckReport(
                "0-model", True, stats={"points_verified": len(pts)}))
    elif sub == "xi":
        if args.sweep:
            var, _, spec = args.sweep.partition("=")
            if var.strip() != "x1":
                raise UsageError("xi sweeps run over x1 only")
            start, stop, step = (float(s) for s in spec.split(":"))
            if not all(math.isfinite(v) for v in (start, stop, step)):
                raise UsageError(f"sweep bounds must be finite, got {spec}")
            if not step > 0:
                raise UsageError(f"sweep step must be positive, got {step}")
            import csv
            stream = _open_out(args)
            w = csv.writer(stream)
            w.writerow(["x1", "Xi"])
            n = 0
            # row k sits at start + k step: a running sum would drift
            while (x1 := start + n * step) <= stop + 1e-12:
                P = [0.0] * M.n
                P[0] = x1
                xi = realizations.xi_invariant(M, tuple(P), mode="direct"
                                               if hasattr(M, "phi") else "frame")
                w.writerow([x1, float(xi.value)])
                n += 1
            if args.out:
                stream.close()
            checks.append(models.CheckReport("xi-sweep", True,
                                             stats={"rows": n}))
        else:
            P = _point_from_arg(args.point, M.n, "float") if args.point \
                else tuple([1.0] + [0.0] * (M.n - 1))
            frame_val = realizations.xi_invariant(M, P, mode="frame")
            obj["xi_frame"] = float(frame_val.value)
            if hasattr(M, "phi"):
                direct_val = realizations.xi_invariant(M, P, mode="direct")
                obj["xi_direct"] = float(direct_val.value)
                agree = abs(obj["xi_frame"] - obj["xi_direct"]) <= max(
                    args.tol, args.tol * abs(obj["xi_direct"]))
                checks.append(models.CheckReport(
                    "xi-frame-vs-direct", agree,
                    witness=None if agree else {"frame": obj["xi_frame"],
                                                "direct": obj["xi_direct"]}))
            else:
                checks.append(models.CheckReport("xi-evaluated", True))
    elif sub == "symmetric":
        if not hasattr(M, "afamily"):
            raise UsageError("the symmetric check applies to the m-a family")
        rep = realizations.symmetric_space_check(M.afamily, rng=rng,
                                                 points=args.points or 20)
        checks.append(rep)
        obj["equation_residuals"] = [scalar_to_json(r) for r in
                                     rep.stats["equation_residuals"]]
    elif sub == "geodesic":
        P = _point_from_arg(args.point, M.n, args.mode) if args.point \
            else _random_point(rng, M.n, args.mode)
        v = _point_from_arg(args.velocity, M.n, args.mode) if args.velocity \
            else _random_point(rng, M.n, args.mode)
        tmax = float(args.t)
        count = args.points or 11
        ts = [tmax * k / (count - 1) for k in range(count)] if count > 1 else [tmax]
        stream = _open_out(args)
        geo = planewave.geodesic_trace_csv(M, P, v, ts, stream)
        if args.out:
            stream.close()
        res = geo.residual(ts[len(ts) // 2])
        ok = float(abs(res)) < max(args.tol, 1e-9)
        checks.append(_geodesic_check("geodesic-residual", ok, geo,
                                      {"residual": float(res)}))
    elif sub == "exp-inverse":
        mode = args.mode if not M.has_transcendental() else "float"
        P = _point_from_arg(args.point, M.n, mode) if args.point \
            else _random_point(rng, M.n, mode)
        Q = _point_from_arg(args.target, M.n, mode) if args.target \
            else _random_point(rng, M.n, mode)
        v = planewave.exp_inverse(M, P, Q)
        geo = planewave.geodesic_fit(M, P, v, (1,))
        reached = geo.at(1)
        res = max(abs(float(r) - float(q)) for r, q in zip(reached, Q))
        obj["velocity"] = [scalar_to_json(c) for c in v]
        ok = res < max(args.tol, 1e-9)
        checks.append(_geodesic_check("exp-inverse-roundtrip", ok, geo,
                                      {"max_residual": res}))
    else:
        raise UsageError(f"unknown geometry subcommand {sub!r}")
    return _emit(obj, checks)


def _geodesic_check(name, ok, geo, stats):
    """A geodesic check; in float mode its stats carry the Chebyshev degree
    and relative tail, and a fit that stopped at the degree cap fails."""
    stats.update(geo.fit)
    witness = None
    if not geo.converged:
        witness = {"unconverged_fit": dict(geo.fit)}
    return models.CheckReport(name, ok and geo.converged, witness=witness,
                              stats=stats)


# ---------------------------------------------------------------------------


def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _tolerance(text):
    x = float(text)
    if not (math.isfinite(x) and x >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return x


def build_parser():
    p = argparse.ArgumentParser(prog="jtcurv",
                                description="verify Jacobi-Tsankov curvature "
                                            "models and plane-wave metrics")
    p.add_argument("--mode", choices=["rational", "float"], default="rational")
    p.add_argument("--tol", type=_tolerance, default=REL_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=_positive_int, default=None)
    p.add_argument("--out", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check-model", help="algebraic checks on a 0-model")
    pc.add_argument("model", help='"m14" or a model JSON path')
    pc.add_argument("--properties", default="all",
                    help='comma list of property kinds, or "all"')

    ps = sub.add_parser("symmetry", help="symmetry-group checks on m14")
    ps.add_argument("model")
    ps.add_argument("--generator", default=None,
                    help="swap12 | swap13 | rotation:c,s | dilatation:a1,a2,a3")
    ps.add_argument("--kernel-random", action="store_true")
    ps.add_argument("--kernel-dim", action="store_true")

    pg = sub.add_parser("geometry", help="plane-wave geometry computations")
    pg.add_argument("metric", help='"m-phi", "m-a" or a metric JSON path')
    pg.add_argument("sub", choices=["curvature", "nabla-r", "verify-0-model",
                                    "xi", "symmetric", "geodesic", "exp-inverse"])
    pg.add_argument("--params", default=None, help="family parameter JSON path")
    pg.add_argument("--order", type=int, default=1)
    pg.add_argument("--point", default=None, help="JSON list of coordinates")
    pg.add_argument("--velocity", default=None, help="JSON list of components")
    pg.add_argument("--target", default=None, help="JSON list of coordinates")
    pg.add_argument("--t", default="1")
    pg.add_argument("--sweep", default=None, help="x1=start:stop:step")
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    start = time.monotonic()
    try:
        if args.command == "check-model":
            rc = cmd_check_model(args)
        elif args.command == "symmetry":
            rc = cmd_symmetry(args)
        else:
            rc = cmd_geometry(args)
    except (OSError, ValueError, KeyError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"done in {time.monotonic() - start:.2f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
