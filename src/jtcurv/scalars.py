"""Scalars: exact rationals (Fraction, int) and binary64 floats.

There is no mode switch: a value is exact when its inputs are, and Python's
numeric tower carries Fraction versus float through every sum and product.
Every model-level identity on exact data is therefore checked bit-exactly.
A float enters only from float input or from a transcendental node of a
warping function evaluated where its value is irrational; comparisons that
involve a float go through :func:`close` with a relative tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Default relative tolerance for float comparisons.
REL_TOL = 1e-9
#: Absolute floor so comparisons against zero are meaningful.
ABS_TOL = 1e-12


def is_exact(x) -> bool:
    return isinstance(x, (Fraction, int))


def close(a, b, rel: float = REL_TOL, scale=0) -> bool:
    """Compare two scalars: exact equality for rationals, tolerant for floats.
    scale is the size of the terms a float was summed from, which bounds
    its rounding error better than its value does: rel * scale is a floor.
    No value is close to inf or NaN; an infinite tolerance asks for a == b."""
    if is_exact(a) and is_exact(b):
        return a == b
    a, b = float(a), float(b)
    tol = max(ABS_TOL, rel * max(abs(a), abs(b), scale))
    return abs(a - b) <= tol if math.isfinite(tol) else math.isfinite(a) and a == b


def as_divisor(x):
    """x ready to divide by: an int becomes a Fraction, since int / int
    would give a float."""
    return Fraction(x) if isinstance(x, int) else x


def adds_nothing(s, *factors) -> bool:
    """Is s + x, x a zero product of the factors, s in value and type?  Yes
    for a float s (a sum run from 0 is never -0.0) and for a Fraction s
    beside exact factors: a sparse sum skips those zeros only, to the dense
    sum bit for bit."""
    return isinstance(s, float) or isinstance(s, Fraction) and not any(
        isinstance(f, float) for f in factors)


def iszero(x) -> bool:
    if is_exact(x):
        return x == 0
    return abs(x) <= ABS_TOL


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
        if not math.isfinite(obj):
            raise ValueError(f"scalar must be finite, got {obj!r}")
        return obj
    if isinstance(obj, str):
        return Fraction(obj)
    raise TypeError(f"cannot parse scalar from {obj!r}")


def pair_keys(obj):
    """{(i, j): value} from a JSON object keyed "i,j"; ValueError when two
    keys name the same pair (say "1,2" and "01,2"), so none is dropped."""
    out, seen = {}, {}
    for key, value in obj.items():
        i, j = (int(t) for t in key.split(","))
        if (i, j) in seen:
            raise ValueError(f"keys {seen[i, j]!r} and {key!r} both name "
                             f"the pair {i},{j}")
        seen[i, j] = key
        out[i, j] = value
    return out
