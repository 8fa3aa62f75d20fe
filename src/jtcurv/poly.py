"""Exact univariate polynomials in t with rational coefficients.

Used to thread exact quadrature through geodesic integration: evaluating a
polynomial warping function at a Poly argument produces the composed Poly,
and antiderivatives stay rational.  Only ring operations, division by a
constant and powers >= 0 are defined; geodesics reach Poly only for warping
functions that FnExpr.is_polynomial accepts, so nothing else is needed.

A Poly is sum(nums[k] t^k) / den, int numerators over one denominator in
canonical form (den > 0, no trailing zero, gcd(den, *nums) == 1): arithmetic
runs in ints with one gcd per result, and a Fraction is built only where a
value leaves the Poly (coeffs, eval, repr).  eval at a float takes each
coefficient to its nearest float (int n / den is correctly rounded, as
float(Fraction) is) and runs Horner's rule in floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _poly(nums, den):
    """The canonical Poly sum(nums[k] t^k) / den, from a list of ints and den > 0."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    p = object.__new__(Poly)
    p.nums = tuple(n // g for n in nums) if g > 1 else tuple(nums)
    p.den = den // g
    return p


def _sum(p, q, sp, sq):
    """sp * p + sq * q for a Poly p; NotImplemented unless q is a Poly, int or Fraction."""
    if isinstance(q, Poly):
        b, db = q.nums, q.den
    elif isinstance(q, (int, Fraction)):
        b, db = (q.numerator,), q.denominator
    else:
        return NotImplemented
    g = gcd(p.den, db)
    fa, fb = sp * db // g, sq * p.den // g
    out = [x * fa for x in p.nums] + [0] * (len(b) - len(p.nums))
    for k, y in enumerate(b):
        out[k] += y * fb
    return _poly(out, p.den // g * db)


class Poly:
    """Polynomial sum(c[k] t^k), c[k] = nums[k] / den (module docstring)."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = _poly([c.numerator * (den // c.denominator) for c in cs], den)
        self.nums, self.den = p.nums, p.den

    @property
    def coeffs(self):
        return tuple(Fraction(n, self.den) for n in self.nums)

    @staticmethod
    def const(c):
        return Poly((c,))

    @staticmethod
    def t():
        return _poly([0, 1], 1)

    @property
    def degree(self):
        return len(self.nums) - 1

    def is_zero(self):
        return not self.nums

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return isinstance(other, Poly) and (self.nums, self.den) == (other.nums, other.den)

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        return _sum(self, other, 1, 1)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-n for n in self.nums], self.den)

    def __sub__(self, other):
        return _sum(self, other, 1, -1)

    def __rsub__(self, other):
        return _sum(self, other, -1, 1)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.nums, other.nums
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return _poly(out, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _poly([x * n for x in self.nums], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        d = other.denominator if other > 0 else -other.denominator
        return _poly([x * d for x in self.nums], self.den * abs(other.numerator))

    def __pow__(self, k):
        # a negative k would never end the loop below
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out, base = _poly([1], 1), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval(self, x):
        """The value at x: a float at a float, a Fraction at an int or Fraction."""
        if isinstance(x, float):
            acc = 0.0
            for n in reversed(self.nums):
                acc = acc * x + n / self.den
            return acc
        # Horner's rule on sum(nums[k] p^k q^(degree - k)), x = p / q
        p, q = x.numerator, x.denominator
        acc, qk = 0, 1
        for n in reversed(self.nums):
            acc, qk = acc * p + n * qk, qk * q
        return Fraction(acc, self.den * qk // q) if self.nums else Fraction(0)

    __call__ = eval

    def deriv(self):
        return _poly([k * n for k, n in enumerate(self.nums)][1:], self.den)

    def integrate(self):
        """Antiderivative with zero constant term."""
        m = lcm(*range(1, len(self.nums) + 1))
        return _poly([0] + [n * (m // (k + 1)) for k, n in enumerate(self.nums)], self.den * m)

    def __repr__(self):
        terms = [f"{c}*t^{k}" if k else f"{c}" for k, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + (" + ".join(terms) or "0") + ")"
