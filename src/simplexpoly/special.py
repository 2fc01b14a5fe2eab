"""Pochhammer symbols, integer-offset gamma ratios and terminating
hypergeometric sums.

Everything here is exact: inputs are rationals, outputs are Fractions (or
exact MPoly for the polynomial-argument series).  Gamma functions never
appear per se; each gamma quotient used by the norm and connection
formulas has an integer offset between numerator and denominator and is
reduced to a rising factorial.  Terminating series are accumulated with
running term ratios, never with precomputed factorial tables.

The scalar kernels run on integers: with lam = N/D, the rising factorial
(lam)_n is prod(N + i D) / D^n, and the 3F2 sum puts its four rational
parameters over one denominator L (`ratpoly.over_lcm`), so each term ratio
is a quotient of integer products.  Each kernel makes one Fraction, at the
end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .ratpoly import MPoly, _as_fraction, _ratio, over_lcm

Scalar = Union[int, Fraction]


class PoleHit(ArithmeticError):
    """A zero factor appeared in a denominator position."""


def _rising(num: int, den: int, n: int) -> int:
    """den^n (num/den)_n = prod(num + i den), i < n, an integer."""
    out = 1
    for i in range(n):
        out *= num + i * den
    return out


def pochhammer(lam: Scalar, n: int) -> Fraction:
    """Rising factorial lam*(lam+1)*...*(lam+n-1), with (lam)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer order must be >= 0")
    num, den = _ratio(lam)
    return Fraction(_rising(num, den, n), den**n)


def gamma_ratio(base: Scalar, offset: int) -> Fraction:
    """Exact Gamma(base+offset)/Gamma(base).

    For offset >= 0 this is (base)_offset; for offset < 0 it is
    1/(base+offset)_(-offset).  Raises PoleHit when a factor in the
    denominator position vanishes.
    """
    if offset >= 0:
        return pochhammer(base, offset)
    num, den = _ratio(base)
    denom = _rising(num + offset * den, den, -offset)
    if denom == 0:
        raise PoleHit(f"gamma ratio pole at base={Fraction(num, den)}, offset={offset}")
    return Fraction(den**-offset, denom)


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


def _hyper3f2_integers(n: int, a2: int, a3: int, b1: int, b2: int, den: int):
    """3F2(-n, a2/den, a3/den; b1/den, b2/den; 1) as an integer pair
    (numerator, denominator), the denominator not reduced."""
    # The sum is total/term_den; the term is term/term_den, and each ratio
    # (m-n)(a2+m)(a3+m) / ((b1+m)(b2+m)(m+1)) has its den^2 cancelled.
    total = term = term_den = 1
    for m in range(n):
        lower = (b1 + m * den) * (b2 + m * den)
        if lower == 0:
            raise PoleHit(f"3F2 pole in lower parameter at m={m}")
        step = lower * (m + 1)
        term *= (m - n) * (a2 + m * den) * (a3 + m * den)
        total = total * step + term
        term_den *= step
        if term == 0:
            break
    return total, term_den


def hyper3f2_unit(n: int, a2: Scalar, a3: Scalar, b1: Scalar, b2: Scalar) -> Fraction:
    """3F2(-n, a2, a3; b1, b2; 1), terminating after n+1 terms."""
    if n < 0:
        raise ValueError("series order must be >= 0")
    return Fraction(*_hyper3f2_integers(n, *over_lcm(a2, a3, b1, b2)))
