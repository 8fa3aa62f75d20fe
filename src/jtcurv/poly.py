"""Exact univariate polynomials in t over Fraction.

Used to thread exact quadrature through geodesic integration: evaluating a
polynomial warping function at a Poly argument produces the composed Poly,
and antiderivatives stay rational.  Only ring operations, division by a
constant and powers >= 0 are defined; geodesics reach Poly only for warping
functions that FnExpr.is_polynomial accepts, so nothing else is needed.
"""

from __future__ import annotations

from fractions import Fraction


class Poly:
    """Polynomial sum(c[k] t^k) with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # a constant changes the constant coefficient only
            a = self.coeffs or (Fraction(0),)
            return Poly((a[0] + other,) + a[1:])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
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
        return NotImplemented

    def __pow__(self, k):
        # a negative k would never end the loop below
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
