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

The ``log`` node is not strictly needed for polynomial metrics but is what
makes antiderivatives of reciprocal exponentials (needed for the phi
families with phi' = rational function of e^t) expressible.
"""

from __future__ import annotations

import math
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


class FnExpr:
    """Immutable scalar expression in variables x1..xa (1-based indices)."""

    __slots__ = ("op", "args", "value", "index", "_dcache")

    def __init__(self, op, args=(), value=None, index=None):
        self.op = op
        self.args = tuple(args)
        self.value = value
        self.index = index
        self._dcache = {}

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c):
        if isinstance(c, int):
            c = Fraction(c)
        return FnExpr("const", value=c)

    @staticmethod
    def var(i):
        if i < 1:
            raise ValueError("variable indices are 1-based")
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
        applied to subtrees with no variable."""
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
        if isinstance(obj, dict) and "var" in obj:
            return FnExpr.var(int(obj["var"]))
        if isinstance(obj, dict) and "op" in obj:
            op = obj["op"]
            if op == "pow":
                return FnExpr("pow", (FnExpr.from_json(obj["args"][0]),),
                              value=int(obj["args"][1]))
            args = tuple(FnExpr.from_json(a) for a in obj["args"])
            if op == "compose":
                return FnExpr.compose(*args)
            if op in ("+", "-", "*", "/", "exp", "log", "sin", "cos"):
                return FnExpr(op, args)
            raise ValueError(f"unknown op {op!r}")
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
