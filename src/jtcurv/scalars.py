"""Scalar modes: exact rationals (the default) and binary64 floats.

Rational mode is the workhorse: every model-level identity is checked
bit-exactly with ``fractions.Fraction``.  Float mode exists for metrics whose
warping functions contain transcendental nodes; all float comparisons go
through :func:`close` with a relative tolerance.
"""

from __future__ import annotations

from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"

#: Default relative tolerance for float-mode comparisons.
REL_TOL = 1e-9
#: Absolute floor so comparisons against zero are meaningful.
ABS_TOL = 1e-12


def is_exact(x) -> bool:
    return isinstance(x, (Fraction, int))


def close(a, b, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    """Compare two scalars: exact equality for rationals, tolerant for floats."""
    if is_exact(a) and is_exact(b):
        return a == b
    a, b = float(a), float(b)
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def iszero(x, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    if is_exact(x):
        return x == 0
    return abs(x) <= abs_


def scalar_to_json(x):
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return {"num": str(x.numerator), "den": str(x.denominator)}
    return float(x)


def scalar_from_json(obj):
    if isinstance(obj, dict):
        return Fraction(int(obj["num"]), int(obj["den"]))
    if isinstance(obj, bool):
        raise TypeError("boolean is not a scalar")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, float):
        return obj
    if isinstance(obj, str):
        return Fraction(obj)
    raise TypeError(f"cannot parse scalar from {obj!r}")
