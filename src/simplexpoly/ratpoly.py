"""Exact sparse polynomial arithmetic in (x, y, z) over the rationals.

A polynomial is stored as integer numerators over one common positive
denominator: a dictionary `_num` mapping packed exponent keys to nonzero
ints, and an int `_den`.  The key of x^i y^j z^k is the int
i + j * 2^10 + k * 2^20: each variable has a 10-bit field, x lowest, and
the top bit of each field is a guard bit that no stored key sets.  So
every exponent lies in 0..511, and a key is an int below 2^30, which
CPython adds, compares and hashes as a single digit.

    x^2*y + 3/4   ->   _num = {2 + 1 * 2^10: 4, 0: 3},  _den = 4

The form is canonical: no zero numerator is stored, `_den > 0`, and
gcd(_den, *numerators) == 1; the zero polynomial is the empty map over 1.
So two polynomials are equal iff their denominators and term maps are
equal, and every identity check in this package is a direct structural
comparison of canonical forms.  The kernels below run on ints and restore
the canonical form with one gcd per result, in the manner of the
integer-coefficient kernels of Monagan & Pearce, "Sparse polynomial
multiplication and division in Maple 14" (2010).  Multiplying monomials
adds their keys, and dividing subtracts them, as with the packed exponent
vectors of Monagan & Pearce, "Polynomial division using dynamic arrays,
heaps, and packed exponent vectors" (CASC 2007).  Two fields below the
guard bit add without a carry into the next field, so a product whose
exponent reaches 512 sets a guard bit and raises OverflowError instead of
turning into a monomial in another variable.

One kernel serves every differential operator in the package:
`MPoly.apply_derivatives({key: coeff})` returns the sum of coeff times the
derivative of the polynomial along the letters of key ("" for itself,
"x", "xy", ...).  The ladder operators, the differential-equation
residuals and the derivative corollaries of `simplex3d` call it, and no
module calls `MPoly.diff`; it accumulates all the products into one
integer map with one gcd at the end.

An identity u == c * v between polynomials is decided by
`u.is_multiple(v, c)` on the integer numerators, by cross-multiplication,
without forming c * v in canonical form; `operators.report_equality`, the
one judge of every identity, a monic lead and an a = b = 0 coefficient
too, decides lhs == scale * denominator * rhs this way and divides only
to print a failing sample.

The interface speaks exponent triples (i, j, k) and Fractions: `terms`
and `coeff` return Fractions, the constructor and `scale` take ints or
Fractions, and a float coefficient is refused with TypeError, as is a
negative exponent or one above 511 with ValueError.

Exact rationals outside the polynomials take one of two forms, both owned
here.  `Rat` is a Fraction whose +, - and * with an int or another Rat run
on ints alone (Knuth, TAOCP Vol. 2, section 4.5.1) and skip Fraction's
generic dispatch and constructor; it equals, hashes, prints and pickles as
the Fraction of the same value.  Every entry of a parameter row is a Rat
(`operators.as_tuple` converts with `as_rat`), so the table lines and
every other row-level computation run on it.  `over_lcm` puts rationals
over their least common denominator, as integer numerators followed by
that denominator; the MPoly constructor, the collapsed Jacobi factors, the
3F2 sum, the connection coefficients and the classical recurrence build on
that integer form, and no other module takes an lcm of denominators.

`MPoly.eval_float` sums the monomials in floating point; the Gram matrices
in `quadrature` do not use it, since that sum cancels as the degree grows,
and evaluate members factor by factor.

Instances are immutable by convention: every operation returns a fresh
MPoly and nothing mutates `_num` or `_den` after construction.  This makes
the values safe to cache and to share across processes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import index, or_
from typing import Dict, Iterable, Iterator, Tuple, Union

Exponent = Tuple[int, int, int]
Scalar = Union[int, Fraction]

_VARS = ("x", "y", "z")
# Bits per exponent field, the guard bit included; every exponent is
# below EXPONENT_LIMIT.
_BITS = 10
EXPONENT_LIMIT = 1 << (_BITS - 1)
_FIELD = (1 << _BITS) - 1
_GUARDS = EXPONENT_LIMIT | EXPONENT_LIMIT << _BITS | EXPONENT_LIMIT << 2 * _BITS
_SHIFT = {"x": 0, "y": _BITS, "z": 2 * _BITS}


def _derivative(shift: int):
    """The formal derivative along the field at `shift`, on (key, integer
    numerator) pairs."""
    unit, field = 1 << shift, _FIELD
    return lambda terms: [(e - unit, c * p) for e, c in terms if (p := e >> shift & field)]


_DIFF = {var: _derivative(shift) for var, shift in _SHIFT.items()}


class NonzeroRemainder(ArithmeticError):
    """Exact division left a nonzero remainder.

    Carries the remainder so verification harnesses can report it: a
    nonzero remainder in an operator application signals either a bug or
    an erratum candidate in a transcribed operator.
    """

    def __init__(self, remainder: "MPoly"):
        self.remainder = remainder
        super().__init__(f"nonzero remainder: {remainder}")


def _fits(i: int, j: int, k: int) -> bool:
    return 0 <= min(i, j, k) and max(i, j, k) < EXPONENT_LIMIT


def _pack(exps: Exponent) -> int:
    i, j, k = map(index, exps)
    if not _fits(i, j, k):
        raise ValueError(f"exponent outside 0..{EXPONENT_LIMIT - 1} in {tuple(exps)}")
    return i | j << _BITS | k << 2 * _BITS


def _unpack(key: int) -> Exponent:
    return key & _FIELD, key >> _BITS & _FIELD, key >> 2 * _BITS


def _span(keys: Iterable[int]) -> int:
    """The bitwise OR of keys: each field is at least its largest exponent."""
    return reduce(or_, keys, 0)


def _check_sums(bound: int, sums: Dict[int, int]) -> None:
    """Raise OverflowError if a key of `sums` reaches a guard bit.  Each
    key of `sums` adds a key of one operand to a key of the other, and
    `bound` adds the operands' spans, so each field of `bound` is at least
    that field of every key.  Below the guard bits two fields add without
    a carry, so the keys are read only when `bound` reaches a guard bit."""
    if bound & _GUARDS and _span(sums) & _GUARDS:
        raise OverflowError(f"an exponent of the product reaches {EXPONENT_LIMIT}")


def _as_fraction(v: Scalar) -> Fraction:
    """`v` as a Fraction.  A float or a bool is refused (TypeError), so
    0.1 is not read as a nearby dyadic rational nor true as 1; a string
    such as '1/3' is parsed, and one with a zero denominator, such as
    '1/0', is refused (ValueError, naming the text)."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (float, bool)):
        raise TypeError(f"refusing {type(v).__name__} {v!r}; pass an int or a Fraction")
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"{v!r} has a zero denominator") from None


def _ratio(v: Scalar) -> Tuple[int, int]:
    """(numerator, denominator) of a scalar, the denominator positive."""
    if type(v) is int:
        return v, 1
    if type(v) is Rat:
        return v._numerator, v._denominator
    v = _as_fraction(v)
    return v.numerator, v.denominator


class Rat(Fraction):
    """A Fraction whose +, -, * and unary - run on ints alone.

    With an int or another Rat as the other operand, the result is a Rat
    made from the two numerator-denominator pairs as in Knuth, TAOCP
    Vol. 2, section 4.5.1: a sum divides by the gcd of the denominators
    first and then reduces by the gcd of that and the new numerator only,
    and a product cancels across (a/b * c/d divides a and d by their gcd,
    and c and b by theirs).  Every result is in lowest terms with a
    positive denominator, so `==`, `hash`, `str`, the comparisons and
    pickling are Fraction's and agree with it.  With any other operand
    (a Fraction, a float) the operation is Fraction's, result type
    included; so is every other operation (/, **, abs, ...).
    """

    __slots__ = ()

    def __add__(a, b):
        if type(b) is int:
            return _rat(a._numerator + b * a._denominator, a._denominator)
        if type(b) is Rat:
            return _rat_sum(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__add__(a, b)

    def __sub__(a, b):
        if type(b) is int:
            return _rat(a._numerator - b * a._denominator, a._denominator)
        if type(b) is Rat:
            return _rat_sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(a, b):
        if type(b) is int:
            return _rat(b * a._denominator - a._numerator, a._denominator)
        return Fraction.__rsub__(a, b)

    def __mul__(a, b):
        if type(b) is int:
            g = gcd(b, a._denominator)
            return _rat(a._numerator * (b // g), a._denominator // g)
        if type(b) is Rat:
            na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
            g1, g2 = gcd(na, db), gcd(nb, da)
            return _rat((na // g1) * (nb // g2), (da // g2) * (db // g1))
        return Fraction.__mul__(a, b)

    # b + a and b * a are a + b and a * b, result type included.
    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(a):
        return _rat(-a._numerator, a._denominator)


def _rat(n: int, d: int) -> Rat:
    """The Rat n/d, for n/d already in lowest terms and d > 0."""
    r = object.__new__(Rat)
    r._numerator = n
    r._denominator = d
    return r


def _rat_sum(na: int, da: int, nb: int, db: int) -> Rat:
    """na/da + nb/db in lowest terms (Knuth's order of the gcds)."""
    g = gcd(da, db)
    if g == 1:
        return _rat(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _rat(t, s * db)
    return _rat(t // g2, s * (db // g2))


def as_rat(v: Scalar) -> Rat:
    """`v`, an int, a Fraction or a string that `_as_fraction` reads, as a
    Rat equal to it."""
    if type(v) is Rat:
        return v
    return _rat(*_ratio(v))


def over_lcm(*values: Scalar) -> Tuple[int, ...]:
    """The values over their least common denominator L, as the ints
    (n_1, ..., n_k, L) with n_i / L == values[i]; L is the lcm of the
    values' denominators, 1 for no values."""
    ratios = list(map(_ratio, values))
    den = lcm(*[d for _, d in ratios])
    return (*[n * (den // d) for n, d in ratios], den)


class MPoly:
    """Sparse polynomial in (x, y, z) with exact rational coefficients."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Dict[Exponent, Scalar] = None):
        """The polynomial sum(c * x^i y^j z^k) of a map {(i, j, k): c}."""
        self._num: Dict[int, int] = {}
        self._den = 1
        if not terms:
            return
        keys = [_pack(e) for e in terms]
        # Over the lcm of the denominators the numerators are already
        # coprime to it: the factor p^k of the lcm comes from a term whose
        # denominator holds all of p^k, and that term's numerator lacks p.
        # A zero coefficient has denominator 1, so the zero map gets 1.
        *nums, self._den = over_lcm(*terms.values())
        self._num = {e: n for e, n in zip(keys, nums) if n}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MPoly":
        return _poly({}, 1)

    @staticmethod
    def const(c: Scalar) -> "MPoly":
        n, d = _ratio(c)
        if n == 0:
            return _poly({}, 1)
        return _poly({0: n}, d)

    @staticmethod
    def variable(name: str) -> "MPoly":
        return _poly({1 << _SHIFT[name]: 1}, 1)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def terms(self) -> "_Terms":
        """The ((i, j, k), Fraction) pairs, as a sized iterable."""
        return _Terms(self)

    def degree(self, var: str) -> int:
        """Max exponent of `var`; -1 for the zero polynomial."""
        shift = _SHIFT[var]
        return max((e >> shift & _FIELD for e in self._num), default=-1)

    def coeff(self, i: int, j: int, k: int) -> Fraction:
        if not _fits(i, j, k):
            return Fraction(0)
        return Fraction(self._num.get(i | j << _BITS | k << 2 * _BITS, 0), self._den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Union["MPoly", Scalar]) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.const(other)
        if not self._num:
            return other
        if not other._num:
            return self
        d1, d2 = self._den, other._den
        g = gcd(d1, d2)
        if d1 == d2:
            out = dict(self._num)
            s2 = 1
        else:
            s1, s2 = d2 // g, d1 // g
            out = {e: c * s1 for e, c in self._num.items()}
        for e, c in other._num.items():
            c *= s2
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s += c
                if s:
                    out[e] = s
                else:
                    del out[e]
        # Over the lcm, a prime that divides every numerator must divide g:
        # one outside g would divide the content of one operand and its
        # denominator, which the canonical form rules out.
        return _canon(out, d2 * s2, g)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _poly({e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other: Union["MPoly", Scalar]) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "MPoly":
        return MPoly.const(other) - self

    def __mul__(self, other: Union["MPoly", Scalar]) -> "MPoly":
        if not isinstance(other, MPoly):
            return self.scale(other)
        a, b = self._num, other._num
        if not a or not b:
            return _poly({}, 1)
        if len(a) > len(b):
            a, b = b, a
        bt = list(b.items())
        out: Dict[int, int] = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in bt:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        _check_sums(_span(a) + _span(b), out)
        return _canon(out, self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "MPoly":
        n, d = _ratio(c)
        if n == 0:
            return _poly({}, 1)
        return _canon({e: v * n for e, v in self._num.items()}, self._den * d)

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
        return _canon(dict(_DIFF[var](self._num.items())), self._den)

    def apply_derivatives(self, coeffs: Dict[str, "MPoly"]) -> "MPoly":
        """sum(coeffs[key] * self differentiated along each letter of key).

        A key is a string of variable letters: "" for self, "x", "yy",
        "xz" and so on.  The coefficients come to one common denominator,
        every product accumulates into a single integer map, and the sum
        is made canonical once, rather than per derivative, product and
        partial sum.
        """
        items = [(key, c) for key, c in coeffs.items() if c._num]
        if not items or not self._num:
            return _poly({}, 1)
        den = lcm(*(c._den for _, c in items))
        bits = 0
        out: Dict[int, int] = {}
        get = out.get
        for key, c in items:
            du = self._num.items()
            for var in key:
                du = _DIFF[var](du)
            s = den // c._den
            bits |= _span(c._num)
            for e1, c1 in c._num.items():
                c1 *= s
                if e1:
                    for e2, c2 in du:
                        e = e1 + e2
                        out[e] = get(e, 0) + c1 * c2
                else:
                    # A constant term shifts no exponent: skip the sums.
                    for e, c2 in du:
                        out[e] = get(e, 0) + c1 * c2
        if 0 in out.values():
            out = {e: v for e, v in out.items() if v}
        # Every derivative's keys lie field by field below self's.
        _check_sums(_span(self._num) + bits, out)
        return _canon(out, den * self._den)

    # -- evaluation --------------------------------------------------------

    def eval_float(self, x, y=0.0, z=0.0):
        """Float evaluation; accepts scalars or numpy arrays."""
        den = self._den
        total = 0.0 * x
        for e, c in self._num.items():
            i, j, k = _unpack(e)
            total = total + float(Fraction(c, den)) * x**i * y**j * z**k
        return total

    # -- exact division ----------------------------------------------------

    def divisor_degree(self) -> int:
        """The x-degree of self as the divisor of `div_exact`, 0 for a
        nonzero constant.  Raises what `div_exact` raises before it divides:
        ZeroDivisionError for the zero polynomial, and ValueError for a
        shape it cannot divide by."""
        dnum = self._num
        if not dnum:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(dnum) == 1 and 0 in dnum:
            return 0
        dxdeg = max(e & _FIELD for e in dnum)
        lead = [e for e in dnum if e & _FIELD == dxdeg]
        # The key of the pure power x^dxdeg is dxdeg itself.
        if dxdeg == 0 or lead != [dxdeg]:
            raise ValueError(f"unsupported divisor shape: {self}")
        return dxdeg

    def div_exact(self, d: "MPoly") -> "MPoly":
        """Exact quotient self / d, raising NonzeroRemainder on failure.

        `d` must have a unique highest-x-degree term that is a pure power
        of x with constant coefficient.  Every admissible divisor here
        (1-x, 1-x-y, 1-x-y-z and their products) has this shape, so a
        single synthetic long division in x decides divisibility.

        The division runs on integers: d's rational content comes out
        first (2-2x divides as 1-x), and a leading coefficient that is
        still not +-1 (as in 1-2x) is met by pseudo-division, which
        multiplies the dividend by a power of it up front.
        """
        dnum = d._num
        dxdeg = d.divisor_degree()
        if not dxdeg:
            return self.scale(Fraction(d._den, dnum[0]))

        # d = (content / d._den) * prim, with prim an integer polynomial.
        content = gcd(*dnum.values())
        prim = [(e, c // content) for e, c in dnum.items()]
        lc = dnum[dxdeg] // content
        # f * self._num divides by prim in integers: f is lc to the number
        # of x-degrees the loop below eliminates, at most.
        mx = max((e & _FIELD for e in self._num), default=-1)
        f = 1 if lc in (1, -1) else lc ** max(0, mx - dxdeg + 1)
        rem = {e: c * f for e, c in self._num.items()}

        quot: Dict[int, int] = {}
        for m in range(mx, dxdeg - 1, -1):
            top = [(e, c) for e, c in rem.items() if e & _FIELD == m]
            for e, c in top:
                # Each quotient key is a leading key less x^dxdeg; one that
                # reached a guard bit would carry in the sums below.
                if e & _GUARDS:
                    raise OverflowError(f"an exponent of the quotient reaches {EXPONENT_LIMIT}")
                qe = e - dxdeg
                qc = c // lc
                quot[qe] = qc
                for dk, dc in prim:
                    e2 = qe + dk
                    s = rem.get(e2, 0) - qc * dc
                    if s:
                        rem[e2] = s
                    else:
                        rem.pop(e2, None)
        # self = quot * prim / (f * self._den) + rem / (f * self._den)
        if rem:
            if _span(rem) & _GUARDS:
                raise OverflowError(f"an exponent of the remainder reaches {EXPONENT_LIMIT}")
            raise NonzeroRemainder(_canon(rem, f * self._den))
        return _canon({e: c * d._den for e, c in quot.items()}, f * self._den * content)

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self == MPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def is_multiple(self, other: "MPoly", c: Scalar) -> bool:
        """Whether self == other.scale(c), decided without forming the
        product: with self = A/a, other = B/b and c = n/d, it holds iff
        both have the same monomials and A_e * b * d == B_e * n * a at
        each, the two factors first divided by their gcd."""
        if type(c) is int and c == 1:
            return self == other
        n, d = _ratio(c)
        mine, theirs = self._num, other._num
        if not n or not theirs:
            return not mine
        if len(mine) != len(theirs):
            return False
        left, right = other._den * d, n * self._den
        g = gcd(left, right)
        if g != 1:
            left //= g
            right //= g
        get = theirs.get
        for e, v in mine.items():
            w = get(e)
            if w is None or v * left != w * right:
                return False
        return True

    def to_text(self) -> str:
        """Canonical textual form: sorted `coeff * x^i y^j z^k` terms.

        Terms are sorted by descending (total degree, exponents); rationals
        print as num/den.  The zero polynomial prints as "0".
        """
        if self.is_zero:
            return "0"
        terms = sorted(((_unpack(e), c) for e, c in self._num.items()),
                       key=lambda t: (sum(t[0]), t[0]), reverse=True)
        parts = []
        for first, (e, c) in zip([True] + [False] * len(terms), terms):
            mono = " ".join(
                f"{v}^{p}" for v, p in zip(_VARS, e) if p > 0
            )
            mag = Fraction(abs(c), self._den)
            body = f"{mag} * {mono}" if mono else f"{mag}"
            if first:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __str__ = to_text

    def __repr__(self) -> str:
        return f"MPoly({self.to_text()})"


class _Terms:
    """A view of an MPoly's terms: its length costs nothing, and the
    exponent triples and Fraction coefficients are made only as the pairs
    are iterated."""

    __slots__ = ("_poly",)

    def __init__(self, poly: MPoly):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._num)

    def __iter__(self) -> Iterator[Tuple[Exponent, Fraction]]:
        den = self._poly._den
        return ((_unpack(e), Fraction(n, den)) for e, n in self._poly._num.items())


def _poly(num: Dict[int, int], den: int) -> MPoly:
    """An MPoly over num/den, which must already be canonical."""
    p = object.__new__(MPoly)
    p._num = num
    p._den = den
    return p


def _canon(num: Dict[int, int], den: int, g: int = None) -> MPoly:
    """The canonical MPoly num/den, for a nonzero den and no zero in num.

    `g` is a divisor of den known to hold every factor that den may share
    with all the numerators (den itself when nothing better is known).
    """
    if not num:
        return _poly({}, 1)
    if den < 0:
        num = {e: -c for e, c in num.items()}
        den = -den
    g = gcd(den if g is None else g, *num.values())
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    return _poly(num, den)


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
