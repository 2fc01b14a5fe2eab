"""Pochhammer symbols, integer-offset gamma ratios and terminating
hypergeometric sums.

Everything here is exact: inputs are rationals, outputs are Fractions (or
exact MPoly for the polynomial-argument series).  Gamma functions never
appear per se; each gamma quotient used by the norm and connection
formulas has an integer offset between numerator and denominator and is
reduced to a rising factorial.  Terminating series are accumulated with
running term ratios, never with precomputed factorial tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .ratpoly import MPoly, _as_fraction

Scalar = Union[int, Fraction]


class PoleHit(ArithmeticError):
    """A zero factor appeared in a denominator position."""


def pochhammer(lam: Scalar, n: int) -> Fraction:
    """Rising factorial lam*(lam+1)*...*(lam+n-1), with (lam)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer order must be >= 0")
    lam = _as_fraction(lam)
    out = Fraction(1)
    for i in range(n):
        out *= lam + i
    return out


def gamma_ratio(base: Scalar, offset: int) -> Fraction:
    """Exact Gamma(base+offset)/Gamma(base).

    For offset >= 0 this is (base)_offset; for offset < 0 it is
    1/(base+offset)_(-offset).  Raises PoleHit when a factor in the
    denominator position vanishes.
    """
    base = _as_fraction(base)
    if offset >= 0:
        return pochhammer(base, offset)
    denom = pochhammer(base + offset, -offset)
    if denom == 0:
        raise PoleHit(f"gamma ratio pole at base={base}, offset={offset}")
    return 1 / denom


def factorial(n: int) -> Fraction:
    return Fraction(math.factorial(n))


def hyper2f1_terminating(n: int, b: Scalar, c: Scalar, x: MPoly) -> MPoly:
    """2F1(-n, b; c; x) as an exact polynomial in the MPoly argument x.

    The sum terminates after n+1 terms; c, c+1, ..., c+n-1 must all be
    nonzero (PoleHit otherwise).
    """
    if n < 0:
        raise ValueError("series order must be >= 0")
    b = _as_fraction(b)
    c = _as_fraction(c)
    if not isinstance(x, MPoly):
        x = MPoly.const(x)
    total = MPoly.const(1)
    term = Fraction(1)
    xpow = MPoly.const(1)
    for m in range(n):
        if c + m == 0:
            raise PoleHit(f"2F1 pole: c + {m} = 0")
        term *= Fraction(-n + m) * (b + m) / ((c + m) * (m + 1))
        if term == 0:
            break
        xpow = xpow * x
        total = total + xpow.scale(term)
    return total


def hyper3f2_unit(n: int, a2: Scalar, a3: Scalar, b1: Scalar, b2: Scalar) -> Fraction:
    """3F2(-n, a2, a3; b1, b2; 1), terminating after n+1 terms."""
    if n < 0:
        raise ValueError("series order must be >= 0")
    a2, a3, b1, b2 = map(_as_fraction, (a2, a3, b1, b2))
    total = Fraction(1)
    term = Fraction(1)
    for m in range(n):
        if b1 + m == 0 or b2 + m == 0:
            raise PoleHit(f"3F2 pole in lower parameter at m={m}")
        term *= Fraction(-n + m) * (a2 + m) * (a3 + m) / ((b1 + m) * (b2 + m) * (m + 1))
        total += term
        if term == 0:
            break
    return total
