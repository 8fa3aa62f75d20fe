"""Exact univariate polynomials in t over Fraction.

Used to thread exact quadrature through geodesic integration: evaluating a
polynomial warping function at a Poly argument produces the composed Poly,
and antiderivatives stay rational.  Transcendental operations deliberately
raise, which is what forces float mode for non-polynomial metrics.
"""

from __future__ import annotations

from fractions import Fraction


class TranscendentalError(TypeError):
    """A transcendental function was applied to an exact polynomial."""


class Poly:
    """Polynomial sum(c[k] t^k) with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c):
        return Poly((Fraction(c),))

    @staticmethod
    def t():
        return Poly((Fraction(0), Fraction(1)))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def _wrap(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero")
            return Poly(c / other for c in self.coeffs)
        if isinstance(other, Poly):
            if other.degree == 0:
                return self / other.coeffs[0]
            raise TranscendentalError("division by a non-constant polynomial")
        return NotImplemented

    def __rtruediv__(self, other):
        if self.degree == 0 and self.coeffs:
            return Poly.const(Fraction(other) / self.coeffs[0])
        raise TranscendentalError("reciprocal of a non-constant polynomial")

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.degree == 0 and self.coeffs:
                return Poly.const(self.coeffs[0] ** k)
            raise TranscendentalError("negative power of a non-constant polynomial")
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # transcendental hooks called by FnExpr duck-typed evaluation
    def exp(self):
        if self.degree <= 0:
            v = self.coeffs[0] if self.coeffs else Fraction(0)
            if v == 0:
                return Poly.const(1)
        raise TranscendentalError("exp of a polynomial is not polynomial")

    def log(self):
        if self.degree <= 0:
            v = self.coeffs[0] if self.coeffs else Fraction(0)
            if v == 1:
                return Poly.const(0)
        raise TranscendentalError("log of a polynomial is not polynomial")

    def sin(self):
        raise TranscendentalError("sin of a polynomial is not polynomial")

    def cos(self):
        raise TranscendentalError("cos of a polynomial is not polynomial")

    def eval(self, x):
        acc = Fraction(0) if not isinstance(x, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (c if not isinstance(x, float) else float(c))
        return acc

    __call__ = eval

    def deriv(self):
        return Poly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def integrate(self):
        """Antiderivative with zero constant term."""
        return Poly([Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"{c}*t^{k}" if k else f"{c}" for k, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"
