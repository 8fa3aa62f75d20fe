"""Expression trees for the warping functions of the plane-wave metrics.

A FnExpr is an immutable tree over variables x1..xa with nodes
{const, var, +, -, *, /, pow(int), exp, log, sin, cos, compose}.  Evaluation
follows the data: sums, products, quotients and integer powers of exact
values (Fraction, int) stay exact, and so do exp, log, sin and cos at the
points where their value is rational (exp 0, log 1, sin 0, cos 0); anywhere
else a transcendental node returns a float, and from there the result is a
float.  A tree with no transcendental node that divides only by constants
(``is_polynomial``) also evaluates at Poly arguments, which is how exact
geodesic quadrature composes the warping functions with the affine x(t).

At a point of floats, ``FnExpr.compiled`` (nested closures, built once per
node) returns what ``eval`` returns, bit for bit and of the same type, and
raises what it raises, when called.  A subtree with no variable is folded:
it keeps its exact value at the top, and is float(value) under a node that
reads a float, the conversion Fraction's mixed-type fallback makes there.

The ``log`` node is not strictly needed for polynomial metrics but is what
makes antiderivatives of reciprocal exponentials (needed for the phi
families with phi' = rational function of e^t) expressible.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .scalars import is_exact, scalar_from_json, scalar_to_json


class EvalError(ValueError):
    """Evaluation hit a singularity (division by zero, log of nonpositive)."""


def _exp(x):
    return Fraction(1) if x == 0 and not isinstance(x, float) else math.exp(x)


def _log(x):
    if x == 1 and not isinstance(x, float):
        return Fraction(0)
    if x <= 0:
        raise EvalError("log of nonpositive value")
    return math.log(x)


def _sin(x):
    return Fraction(0) if x == 0 and not isinstance(x, float) else math.sin(x)


def _cos(x):
    return Fraction(1) if x == 0 and not isinstance(x, float) else math.cos(x)


# pow and / as functions, for the compiled path; eval inlines them, as the
# tree walk is the hot path of exact data
def _pow(a, k):
    if k < 0 and a == 0:
        raise EvalError("zero raised to a negative power")
    return a ** k


def _div(a, b):
    if b == 0:
        raise EvalError("division by zero")
    return a / b


_UNARY = {"exp": _exp, "log": _log, "sin": _sin, "cos": _cos}
#: the same functions on a float argument
_FLOAT_UNARY = {**_UNARY, "exp": math.exp, "sin": math.sin, "cos": math.cos}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div}


class FnExpr:
    """Immutable scalar expression in variables x1..xa (1-based indices)."""

    __slots__ = ("op", "args", "value", "index", "_dcache", "_compiled", "_poly")

    def __init__(self, op, args=(), value=None, index=None):
        self.op = op
        self.args = tuple(args)
        self.value = value
        self.index = index
        self._dcache = {}
        self._compiled = self._poly = None

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c):
        if isinstance(c, int):
            c = Fraction(c)
        return FnExpr("const", value=c)

    @staticmethod
    def var(i):
        if type(i) is not int or i < 1:
            raise ValueError(f"variable indices are ints from 1, got {i!r}")
        return FnExpr("var", index=i)

    @staticmethod
    def compose(outer, *inner):
        """outer evaluated at the values of inner; outer's x_i reads inner[i-1]."""
        k = max(outer.variables(), default=0)
        if k > len(inner):
            raise ValueError(f"compose: outer function reads x{k} "
                             f"but only {len(inner)} inner arguments are given")
        return FnExpr("compose", (outer,) + tuple(inner))

    def _wrap(self, other):
        if isinstance(other, FnExpr):
            return other
        return FnExpr.const(other)

    def __add__(self, other):
        return FnExpr("+", (self, self._wrap(other)))

    def __radd__(self, other):
        return FnExpr("+", (self._wrap(other), self))

    def __sub__(self, other):
        return FnExpr("-", (self, self._wrap(other)))

    def __rsub__(self, other):
        return FnExpr("-", (self._wrap(other), self))

    def __mul__(self, other):
        return FnExpr("*", (self, self._wrap(other)))

    def __rmul__(self, other):
        return FnExpr("*", (self._wrap(other), self))

    def __truediv__(self, other):
        return FnExpr("/", (self, self._wrap(other)))

    def __rtruediv__(self, other):
        return FnExpr("/", (self._wrap(other), self))

    def __neg__(self):
        return FnExpr.const(-1) * self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("power exponent must be an integer")
        return FnExpr("pow", (self,), value=k)

    def exp(self):
        return FnExpr("exp", (self,))

    def log(self):
        return FnExpr("log", (self,))

    def sin(self):
        return FnExpr("sin", (self,))

    def cos(self):
        return FnExpr("cos", (self,))

    # -- evaluation ----------------------------------------------------
    def eval(self, point):
        """Evaluate at point (sequence indexed so that var i reads point[i-1])."""
        op = self.op
        if op == "const":
            return self.value
        if op == "var":
            return point[self.index - 1]
        if op == "compose":
            inner = [g.eval(point) for g in self.args[1:]]
            return self.args[0].eval(inner)
        a = self.args[0].eval(point)
        if op == "pow":
            k = self.value
            if k < 0 and a == 0:
                raise EvalError("zero raised to a negative power")
            return a ** k
        if op == "exp":
            return _exp(a)
        if op == "log":
            return _log(a)
        if op == "sin":
            return _sin(a)
        if op == "cos":
            return _cos(a)
        b = self.args[1].eval(point)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise EvalError("division by zero")
            return a / b
        raise ValueError(f"unknown op {op!r}")

    def compiled(self):
        """The tree as a closure for points of floats (module docstring),
        built on first use and cached on the node: a pair (kind, f) with
        f(x) == eval(x), of the same type, at every x whose entries are all
        floats.  kind "float": f(x) is a float; "const": f ignores x and
        returns an exact value, or a float constant; "any": no such promise."""
        if self._compiled is None:
            self._compiled = _compile(self)
        return self._compiled

    def __call__(self, *point):
        return self.eval(point)

    # -- differentiation ------------------------------------------------
    def diff(self, i):
        """Partial derivative with respect to x_i, with constant folding."""
        d = self._dcache.get(i)
        if d is None:
            d = self._diff(i)
            self._dcache[i] = d
        return d

    def _diff(self, i):
        op = self.op
        if op == "const":
            return _ZERO
        if op == "var":
            return _ONE if self.index == i else _ZERO
        if op == "+":
            return _add(self.args[0].diff(i), self.args[1].diff(i))
        if op == "-":
            return _sub(self.args[0].diff(i), self.args[1].diff(i))
        if op == "*":
            f, g = self.args
            return _add(_mul(f.diff(i), g), _mul(f, g.diff(i)))
        if op == "/":
            f, g = self.args
            num = _sub(_mul(f.diff(i), g), _mul(f, g.diff(i)))
            return FnExpr("/", (num, FnExpr("pow", (g,), value=2))) if num is not _ZERO else _ZERO
        if op == "pow":
            f, k = self.args[0], self.value
            if k == 0:
                return _ZERO
            inner = f.diff(i)
            outer = _mul(FnExpr.const(k), FnExpr("pow", (f,), value=k - 1))
            return _mul(outer, inner)
        if op == "exp":
            return _mul(self, self.args[0].diff(i))
        if op == "log":
            return FnExpr("/", (self.args[0].diff(i), self.args[0])) \
                if self.args[0].diff(i) is not _ZERO else _ZERO
        if op == "sin":
            return _mul(FnExpr("cos", (self.args[0],)), self.args[0].diff(i))
        if op == "cos":
            return _mul(_neg(FnExpr("sin", (self.args[0],))), self.args[0].diff(i))
        if op == "compose":
            outer, inner = self.args[0], self.args[1:]
            total = _ZERO
            for j, g in enumerate(inner, start=1):
                gi = g.diff(i)
                if gi is _ZERO:
                    continue
                total = _add(total, _mul(FnExpr.compose(outer.diff(j), *inner), gi))
            return total
        raise ValueError(f"unknown op {op!r}")

    def is_zero_const(self):
        return self.op == "const" and self.value == 0

    def has_transcendental(self):
        if self.op in ("exp", "log", "sin", "cos"):
            return True
        return any(a.has_transcendental() for a in self.args)

    def variables(self):
        """The indices i of the x_i read from the evaluation point; inside a
        compose node only the inner arguments read the point."""
        if self.op == "var":
            return {self.index}
        args = self.args[1:] if self.op == "compose" else self.args
        return set().union(*(a.variables() for a in args))

    def is_polynomial(self):
        """True for a polynomial with exact coefficients: no exp, log, sin or
        cos node, every constant exact, and ``/`` and negative powers only
        applied to subtrees with no variable; cached on the (immutable) node."""
        if self._poly is None:
            self._poly = self._is_polynomial()
        return self._poly

    def _is_polynomial(self):
        op = self.op
        if op == "const":
            return is_exact(self.value)
        if op in ("exp", "log", "sin", "cos"):
            return False
        if op == "/" and self.args[1].variables() \
                or op == "pow" and self.value < 0 and self.args[0].variables():
            return False
        return all(a.is_polynomial() for a in self.args)

    # -- serialization ----------------------------------------------------
    def to_json(self):
        if self.op == "const":
            return scalar_to_json(self.value)
        if self.op == "var":
            return {"var": self.index}
        if self.op == "pow":
            return {"op": "pow", "args": [self.args[0].to_json(), self.value]}
        return {"op": self.op, "args": [a.to_json() for a in self.args]}

    @staticmethod
    def from_json(obj):
        """The tree to_json writes; ValueError on an unknown op, a wrong
        argument count, or a variable index or exponent that is not an int."""
        if isinstance(obj, dict) and "var" in obj:
            return FnExpr.var(obj["var"])
        if isinstance(obj, dict) and "op" in obj:
            op, args = str(obj["op"]), obj.get("args")
            arity = 1 if op in _UNARY else 2 if op in _BINARY or op == "pow" else None
            if arity is None and op != "compose":
                raise ValueError(f"unknown op {op!r}")
            if not isinstance(args, list) or not args or arity and len(args) != arity:
                raise ValueError(f"op {op!r} takes {arity or 'one or more'} arguments")
            if op == "pow":
                if type(args[1]) is not int:
                    raise ValueError(f"exponent must be an int, got {args[1]!r}")
                return FnExpr("pow", (FnExpr.from_json(args[0]),), value=args[1])
            args = tuple(FnExpr.from_json(a) for a in args)
            if op == "compose":
                return FnExpr.compose(*args)
            return FnExpr(op, args)
        return FnExpr.const(scalar_from_json(obj))

    def __repr__(self):
        if self.op == "const":
            return f"{self.value}"
        if self.op == "var":
            return f"x{self.index}"
        if self.op == "pow":
            return f"({self.args[0]!r})**{self.value}"
        if self.op in ("+", "-", "*", "/"):
            return f"({self.args[0]!r} {self.op} {self.args[1]!r})"
        return f"{self.op}({', '.join(map(repr, self.args))})"


def _compile(e):
    """(kind, f) of FnExpr.compiled, from the children's."""
    if e.op == "const":
        return "const", lambda x, v=e.value: v
    if e.op == "var":
        return "float", operator.itemgetter(e.index - 1)
    kinds, fns = zip(*(g.compiled() for g in e.args))
    if e.op == "compose":
        if set(kinds[1:]) != {"float"}:
            return "any", e.eval
        outer, inner = fns[0], fns[1:]
        return ("float" if kinds[0] == "float" else "any",
                lambda x: outer([g(x) for g in inner]))
    fn = (lambda a, k=e.value: _pow(a, k)) if e.op == "pow" else \
        _UNARY.get(e.op) or _BINARY[e.op]
    if "float" not in kinds:
        try:
            if "any" not in kinds:
                v = fn(*[f(()) for f in fns])
                return "const", lambda x: v
        except (ArithmeticError, ValueError):
            pass
        return "any", lambda x: fn(*[f(x) for f in fns])
    if len(fns) == 1:
        f, fn = fns[0], _FLOAT_UNARY.get(e.op, fn)
        return "float", lambda x: fn(f(x))
    (ka, kb), (fa, fb) = kinds, fns
    if ka == "const":
        ca = _floated(fa(()))
        return "float", lambda x: fn(ca, fb(x))
    if kb == "const":
        cb = _floated(fb(()))
        return "float", lambda x: fn(fa(x), cb)
    return "float", lambda x: fn(fa(x), fb(x))


def _floated(v):
    """float(v), the value Fraction's fallback gives v beside a float; v
    itself when that overflows, so that the call raises as eval does."""
    try:
        return float(v)
    except OverflowError:
        return v


# -- term lists: the entries of planewave's tables, sums of terms (coef, expr,
# y), each coef * expr(x) * (P[y] if y is not None else 1) with x = P[:a]; a
# partial by the coordinate dy keeps the terms with y == dy, without P[y]


def terms_evaluator(P, a, plans=None):
    """The sum of a term list at P, or its partial by the x indices xpartials
    and the coordinate dy, as a function of (terms, xpartials=(), dy=None).
    It walks the trees; at a point of floats, given a dict plans, it runs the
    list's plan (_plan) instead, to the same value, built on first use and
    held in plans by the list's id, with the list: the caller keeps plans no
    longer than its lists."""
    x = P[:a]

    def walk(terms, xpartials=(), dy=None):
        total = 0
        for coef, expr, y in terms:
            if dy is not None:
                if y != dy:
                    continue
                y = None
            for d in xpartials:
                expr = expr.diff(d + 1)
            if expr.is_zero_const():
                continue
            val = expr.eval(x)
            # Fraction * float is float(Fraction) * float, without the fallback
            val = float(coef) * val if isinstance(val, float) else coef * val
            total += val if y is None else val * P[y]
        return total
    if plans is None or not all(type(c) is float for c in P):
        return walk

    def at(terms, xpartials=(), dy=None):
        if not terms:
            return 0
        key = (id(terms), xpartials, dy)
        hit = plans.get(key) or plans.setdefault(key, (terms, _plan(terms, xpartials, dy)))
        if hit[1] is None:
            return walk(terms, xpartials, dy)
        total = 0
        for c, f, y in hit[1]:
            val = c if f is None else c * f(P)
            total += val if y is None else val * P[y]
        return total
    return at


def _plan(terms, xpartials, dy):
    """The tree walk's sum at points of floats, term by term in its order:
    a tuple of (c, f, y), the term being c * f(P), or c where f is None,
    times P[y] unless y is None; None where a tree compiles to kind "any".
    A term with no variable is multiplied by coef once, and made
    float(value) where the walk converts it: beside a float P[y], or once
    the sum is a float."""
    plan, float_sum = [], False
    for coef, expr, y in terms:
        if dy is not None:
            if y != dy:
                continue
            y = None
        for d in xpartials:
            expr = expr.diff(d + 1)
        if expr.is_zero_const():
            continue
        kind, f = expr.compiled()
        if kind == "any":
            return None
        if kind == "float":
            plan.append((float(coef), f, y))
            float_sum = True
            continue
        v = f(())
        v = float(coef) * v if isinstance(v, float) else coef * v
        float_sum = float_sum or y is not None or isinstance(v, float)
        plan.append((_floated(v) if float_sum else v, None, y))
    return tuple(plan)


_ZERO = FnExpr.const(0)
_ONE = FnExpr.const(1)


def _is_const(e, v):
    return e.op == "const" and e.value == v


def _add(a, b):
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if a.op == "const" and b.op == "const":
        return FnExpr.const(a.value + b.value)
    return FnExpr("+", (a, b))


def _sub(a, b):
    if _is_const(b, 0):
        return a
    if a.op == "const" and b.op == "const":
        return FnExpr.const(a.value - b.value)
    return FnExpr("-", (a, b))


def _mul(a, b):
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if a.op == "const" and b.op == "const":
        return FnExpr.const(a.value * b.value)
    return FnExpr("*", (a, b))


def _neg(a):
    return _mul(FnExpr.const(-1), a)


# convenient aliases
const = FnExpr.const
var = FnExpr.var
