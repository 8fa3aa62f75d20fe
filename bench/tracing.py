"""Timing wrappers installed around jtcurv's layer entry points for a traced run.

Each wrapped entry point gets a ``Stat``: ``calls``, ``busy`` (seconds inside
the outermost call), ``self_s`` (busy minus the busy time of wrapped calls
nested inside it) and ``errors`` (exceptions that propagated out of it).
Recursive entry points (``FnExpr.eval``, ``_CovREngine.value``) are charged at
the outermost call only, so self time stays well defined; ``count_nested``
additionally counts the nested calls without timing them.

Modules bind some names at import (``realizations.solve``,
``planewave.mat_inv``, ...), so every wrapper is installed in each namespace
where the name is looked up.  ``scipy.integrate.quad`` is imported lazily by
the float geodesic path and is patched on the scipy module itself.
"""

from __future__ import annotations

import contextlib
import time
import warnings

_clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "busy", "self_s", "errors", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.depth = 0


class Tracer:
    """Span accounting plus the patch list that undoes the installation."""

    def __init__(self):
        self.stats = {}
        self.stack = []        # child-time accumulators of the open spans
        self.top_busy = 0.0    # busy time of spans with no wrapped parent
        self.quad_warnings = 0
        #: work the returned reports say was done
        self.tallies = {"pairs_checked": 0, "components_checked": 0}
        self._patches = []

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- wrappers --------------------------------------------------------
    def span(self, name, fn, count_nested=False, pick=None):
        """Wrap fn as a timed span; pick(args, kwargs) may choose the stat."""
        fixed = None if pick else self.stat(name)
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            st = fixed if pick is None else tracer.stat(pick(args, kwargs))
            if st.depth:
                if count_nested:
                    st.calls += 1
                st.depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    st.depth -= 1
            st.calls += 1
            st.depth = 1
            stack.append(0.0)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                dt = _clock() - t0
                child = stack.pop()
                st.depth = 0
                st.busy += dt
                st.self_s += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    tracer.top_busy += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Count calls (and propagated exceptions) without timing them."""
        st = self.stat(name)

        def wrapper(*args, **kwargs):
            st.calls += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    def tally(self, fn, keys, into):
        """Add the report's stats[keys] to tallies[into] after each call."""
        tallies = self.tallies

        def wrapper(*args, **kwargs):
            rep = fn(*args, **kwargs)
            tallies[into] += sum(rep.stats.get(k, 0) for k in keys)
            return rep

        return wrapper

    def quad_span(self, fn):
        """Span around scipy's quad that also counts IntegrationWarnings."""
        from scipy.integrate import IntegrationWarning
        tracer = self

        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                out = fn(*args, **kwargs)
            for w in caught:
                if issubclass(w.category, IntegrationWarning):
                    tracer.quad_warnings += 1
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename,
                                           w.lineno)
            return out

        return self.span("planewave.quad", counted, count_nested=True)

    # -- installation ----------------------------------------------------
    def patch(self, owners, attr, wrapper):
        for owner in owners:
            self._patches.append((owner, attr, owner.__dict__[attr], wrapper))
            setattr(owner, attr, wrapper)

    def install(self, J):
        """Wrap the layer entry points of the jtcurv modules held by J."""
        md, la, sy, pw, rz, ex, po = (J.models, J.linalg, J.symmetry,
                                       J.planewave, J.realizations, J.expr,
                                       J.poly)
        span, count = self.span, self.counter

        self.patch([md], "check_property",
                   self.tally(span("models.check_property", md.check_property),
                              ("pairs_checked", "monomials_checked"),
                              "pairs_checked"))
        op = md.Operator
        self.patch([op], "__matmul__",
                   span("models.Operator.matmul", op.__matmul__))
        for attr in ("__add__", "__sub__"):
            self.patch([op], attr,
                       span("models.Operator.addsub", op.__dict__[attr]))
        for name in ("jacobi_polarized", "skew"):
            self.patch([md], name,
                       span("models.operator_build", md.__dict__[name]))
        self.patch([md], "validate_curvature_symmetries",
                   span("models.validate_curvature_symmetries",
                        md.validate_curvature_symmetries))

        self.patch([sy], "is_symmetry",
                   span("symmetry.is_symmetry", sy.is_symmetry))
        self.patch([la], "rref", span("linalg.rref", la.rref))
        self.patch([la, md, pw], "mat_inv",
                   span("linalg.mat_inv", la.mat_inv))
        self.patch([la, rz], "solve", span("linalg.solve", la.solve))
        bf = la.BilinearForm
        self.patch([bf], "apply",
                   span("linalg.BilinearForm.apply", bf.apply))

        eng = pw._CovREngine
        self.patch([eng], "value",
                   span("planewave.cov_engine", eng.value, count_nested=True))
        self.patch([eng], "_compute",
                   count("planewave.cov_engine.computes", eng._compute))

        def by_order(args, kwargs):
            k = kwargs["k"] if "k" in kwargs else args[2]
            return f"planewave.covariant_derivative_R.k{k}"

        self.patch([pw], "covariant_derivative_R",
                   span("planewave.covariant_derivative_R",
                        pw.covariant_derivative_R, pick=by_order))
        self.patch([pw, rz], "nabla_R_frame",
                   span("planewave.nabla_R_frame", pw.nabla_R_frame))
        for name in ("curvature_at", "curvature_generic", "christoffel"):
            self.patch([pw], name,
                       span("planewave.curvature", pw.__dict__[name]))
        pwm = pw.PlaneWaveMetric
        self.patch([pwm], "dpsi_val",
                   count("planewave.dpsi_val", pwm.dpsi_val))

        fe = ex.FnExpr
        self.patch([fe], "eval", span("expr.FnExpr.eval", fe.eval))
        self.patch([fe], "diff", span("expr.FnExpr.diff", fe.diff))

        self.patch([rz], "verify_0_model",
                   self.tally(span("realizations.verify_0_model", rz.verify_0_model),
                              ("components_checked",), "components_checked"))
        for name in ("normalize_basis_0", "normalize_basis_1"):
            self.patch([rz], name,
                       span("realizations.normalize_basis", rz.__dict__[name]))
        self.patch([rz], "xi_invariant",
                   span("realizations.xi_invariant", rz.xi_invariant))
        self.patch([rz], "symmetric_space_check",
                   span("realizations.symmetric_space_check",
                        rz.symmetric_space_check))

        import scipy.integrate
        self.patch([scipy.integrate], "quad",
                   self.quad_span(scipy.integrate.quad))
        geo = pw._Geodesic
        for name in ("_F", "_G"):
            self.patch([geo], name,
                       count("planewave.integrand", geo.__dict__[name]))
        for name in ("geodesic", "exp_inverse", "geodesic_residual"):
            self.patch([pw], name,
                       span(f"planewave.{name}", pw.__dict__[name]))

        poly = po.Poly
        for name in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                     "__truediv__", "__pow__", "eval", "deriv", "integrate"):
            self.patch([poly], name,
                       span("poly.Poly.ops", poly.__dict__[name]))
        # reflected aliases are separate class attributes
        self.patch([poly], "__radd__", poly.__add__)
        self.patch([poly], "__rmul__", poly.__mul__)
        self.patch([poly], "__call__", poly.eval)

        self.patch([J.cli], "main", span("cli.main", J.cli.main))

    def uninstall(self):
        while self._patches:
            owner, attr, orig, _ = self._patches.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def paused(self):
        """Put the unwrapped entry points back for the duration, so that an
        oracle's own calls into jtcurv are not charged to any layer."""
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        try:
            yield
        finally:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
