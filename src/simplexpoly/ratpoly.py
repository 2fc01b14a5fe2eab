"""Exact sparse polynomial arithmetic in (x, y, z) over the rationals.

A polynomial is represented as a dictionary mapping exponent triples
(i, j, k) to nonzero Fraction coefficients:

    x^2*y + 3/4   ->   {(2, 1, 0): Fraction(1), (0, 0, 0): Fraction(3, 4)}

The zero polynomial is the empty map.  Zero coefficients are never stored,
so two polynomials are equal iff their term maps are equal; every identity
check in this package is a direct structural comparison of canonical forms.
Coefficients are always Fractions, never floats: float evaluation exists
only for quadrature (see `MPoly.eval_float`).

Instances are immutable by convention: every operation returns a fresh
MPoly and nothing mutates `_terms` after construction.  This makes the
values safe to cache and to share across processes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Tuple, Union

Exponent = Tuple[int, int, int]
Scalar = Union[int, Fraction]
#: Evaluation point (exact): one Fraction per variable in (x, y, z) order.
Point = Tuple[Fraction, Fraction, Fraction]

_VARS = ("x", "y", "z")
_VAR_AXIS = {"x": 0, "y": 1, "z": 2}


class NonzeroRemainder(ArithmeticError):
    """Exact division left a nonzero remainder.

    Carries the remainder so verification harnesses can report it: a
    nonzero remainder in an operator application signals either a bug or
    an erratum candidate in a transcribed operator.
    """

    def __init__(self, remainder: "MPoly"):
        self.remainder = remainder
        super().__init__(f"nonzero remainder: {remainder}")


def _as_fraction(v: Scalar) -> Fraction:
    if isinstance(v, Fraction):
        return v
    return Fraction(v)


class MPoly:
    """Sparse polynomial in (x, y, z) with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[Exponent, Fraction] = None, *, _clean: bool = True):
        if terms is None:
            self._terms: Dict[Exponent, Fraction] = {}
        elif _clean:
            self._terms = {e: c for e, c in terms.items() if c != 0}
        else:
            self._terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MPoly":
        return MPoly({}, _clean=False)

    @staticmethod
    def const(c: Scalar) -> "MPoly":
        c = _as_fraction(c)
        if c == 0:
            return MPoly.zero()
        return MPoly({(0, 0, 0): c}, _clean=False)

    @staticmethod
    def monomial(exps: Exponent, coeff: Scalar = 1) -> "MPoly":
        c = _as_fraction(coeff)
        if c == 0:
            return MPoly.zero()
        if min(exps) < 0:
            raise ValueError(f"negative exponent in {exps}")
        return MPoly({tuple(exps): c}, _clean=False)

    @staticmethod
    def variable(name: str) -> "MPoly":
        exps = [0, 0, 0]
        exps[_VAR_AXIS[name]] = 1
        return MPoly({tuple(exps): Fraction(1)}, _clean=False)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterable[Tuple[Exponent, Fraction]]:
        return self._terms.items()

    def degree(self, var: str) -> int:
        """Max exponent of `var`; -1 for the zero polynomial."""
        axis = _VAR_AXIS[var]
        return max((e[axis] for e in self._terms), default=-1)

    def coeff(self, i: int, j: int, k: int) -> Fraction:
        return self._terms.get((i, j, k), Fraction(0))

    def constant(self) -> Fraction:
        """The coefficient as a scalar; raises if not a constant polynomial."""
        if self.is_zero:
            return Fraction(0)
        if len(self._terms) == 1 and (0, 0, 0) in self._terms:
            return self._terms[(0, 0, 0)]
        raise ValueError(f"not a constant polynomial: {self}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Union["MPoly", Scalar]) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.const(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s == 0:
                    del out[e]
                else:
                    out[e] = s
        return MPoly(out, _clean=False)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly({e: -c for e, c in self._terms.items()}, _clean=False)

    def __sub__(self, other: Union["MPoly", Scalar]) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "MPoly":
        return MPoly.const(other) - self

    def __mul__(self, other: Union["MPoly", Scalar]) -> "MPoly":
        if not isinstance(other, MPoly):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return MPoly.zero()
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: Dict[Exponent, Fraction] = {}
        for (i1, j1, k1), c1 in a.items():
            for (i2, j2, k2), c2 in b.items():
                e = (i1 + i2, j1 + j2, k1 + k2)
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return MPoly(out)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "MPoly":
        c = _as_fraction(c)
        if c == 0:
            return MPoly.zero()
        return MPoly({e: c * v for e, v in self._terms.items()}, _clean=False)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def diff(self, var: str) -> "MPoly":
        """Formal partial derivative with respect to `var`."""
        axis = _VAR_AXIS[var]
        out: Dict[Exponent, Fraction] = {}
        for e, c in self._terms.items():
            m = e[axis]
            if m == 0:
                continue
            ne = list(e)
            ne[axis] = m - 1
            out[tuple(ne)] = c * m
        return MPoly(out, _clean=False)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Point) -> Fraction:
        """Exact value at a rational point (x, y, z)."""
        px, py, pz = (_as_fraction(v) for v in point)
        total = Fraction(0)
        for (i, j, k), c in self._terms.items():
            total += c * px**i * py**j * pz**k
        return total

    def eval_float(self, x, y=0.0, z=0.0):
        """Float evaluation; accepts scalars or numpy arrays."""
        total = 0.0 * x
        for (i, j, k), c in self._terms.items():
            total = total + float(c) * x**i * y**j * z**k
        return total

    # -- exact division ----------------------------------------------------

    def div_exact(self, d: "MPoly") -> "MPoly":
        """Exact quotient self / d, raising NonzeroRemainder on failure.

        `d` must have a unique highest-x-degree term that is a pure power
        of x with constant coefficient.  Every admissible divisor here
        (1-x, 1-x-y, 1-x-y-z and their products) has this shape, so a
        single synthetic long division in x decides divisibility.
        """
        dterms = d._terms
        if not dterms:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(dterms) == 1 and (0, 0, 0) in dterms:
            return self.scale(1 / dterms[(0, 0, 0)])
        dxdeg = max(e[0] for e in dterms)
        lead = [(e, c) for e, c in dterms.items() if e[0] == dxdeg]
        if dxdeg == 0 or len(lead) != 1 or lead[0][0] != (dxdeg, 0, 0):
            raise ValueError(f"unsupported divisor shape: {d}")
        lead_coeff = lead[0][1]

        quot: Dict[Exponent, Fraction] = {}
        rem = dict(self._terms)
        while rem:
            m = max(e[0] for e in rem)
            if m < dxdeg:
                break
            top = [(e, c) for e, c in rem.items() if e[0] == m]
            for (i, j, k), c in top:
                qe = (i - dxdeg, j, k)
                qc = c / lead_coeff
                s = quot.get(qe)
                quot[qe] = qc if s is None else s + qc
                for (di, dj, dk), dc in dterms.items():
                    e = (qe[0] + di, qe[1] + dj, qe[2] + dk)
                    s = rem.get(e, Fraction(0)) - qc * dc
                    if s == 0:
                        rem.pop(e, None)
                    else:
                        rem[e] = s
        if rem:
            raise NonzeroRemainder(MPoly(rem, _clean=False))
        return MPoly(quot)

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == MPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def to_text(self) -> str:
        """Canonical textual form: sorted `coeff * x^i y^j z^k` terms.

        Terms are sorted by descending (total degree, exponents); rationals
        print as num/den.  The zero polynomial prints as "0".
        """
        if self.is_zero:
            return "0"
        keys = sorted(self._terms, key=lambda e: (sum(e), e), reverse=True)
        parts = []
        for e, first in zip(keys, [True] + [False] * len(keys)):
            c = self._terms[e]
            mono = " ".join(
                f"{v}^{p}" for v, p in zip(_VARS, e) if p > 0
            )
            mag = abs(c)
            body = f"{mag} * {mono}" if mono else f"{mag}"
            if first:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __str__ = to_text

    def __repr__(self) -> str:
        return f"MPoly({self.to_text()})"


# Shared building blocks used throughout the operator catalogs.
ZERO = MPoly.zero()
ONE = MPoly.const(1)
X = MPoly.variable("x")
Y = MPoly.variable("y")
Z = MPoly.variable("z")
ONE_MINUS_X = ONE - X
ONE_MINUS_XY = ONE - X - Y
ONE_MINUS_XYZ = ONE - X - Y - Z
X_ONE_MINUS_X = X * ONE_MINUS_X
Y_ONE_MINUS_XY = Y * ONE_MINUS_XY
XY = X * Y
