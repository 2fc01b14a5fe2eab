"""Shifted Jacobi polynomials on (0, 1), their ladder relations, and the
`Family` record that describes all three families.

P(n; a, b) here denotes the degree-n Jacobi polynomial mapped to (0, 1),
orthogonal against the weight (1-x)^a * x^b for a, b > -1.  The module
provides exact construction, the norm ratio h_n/h_0, the products of
Jacobi factors in collapsed coordinates that make the triangle and
tetrahedron members, the twelve first-order ladder operators with their
sparse recurrence table, and the twenty-four second-order composition
identities.

Every family is such a product (Koornwinder 1975), the interval with one
axis, so one `Family` record says what each is: its collapsed base pairs,
degree map, index grid, monic line and tables.  It builds every member,
monic solution and exact norm ratio, states where its weight is
integrable and gives the weight's mass, refusing a mass or a norm ratio
where it is not, and the sweeps, the quadrature and the CLI read it.
A factor's exponents (A_j + 2 s_j, B_j) take s_j, the sum of the later
axes' degrees, from `later_sums`, the one function that sums them.

One formula builds every member and collapsed factor: P(n; a, b) =
sum_m c_m (1-x)^m, c_m = (-1)^m C(n, m) (n+a+b+1)_m (a+1+m)_(n-m) / n!, a
product of linear factors in a and b, for every rational pair, down to the
-2 that the ladder relations reach outside the orthogonality regime.  With
a = A/L and b = B/L over their common denominator L (`ratpoly.over_lcm`),
each linear factor times L is an integer, so the factors are built on the
integer numerators L^n n! c_m, as integer term maps, and divided by L^n n!
once, at the end.  The record puts a row's base pairs over their
denominators once per row (`Family.integer_axes`), so the exponents of
each factor, (A + 2 s L, B, L), the keys of its cache, cost integer
additions.

The construction caches, the one member store of every record and
`_lifted_factor`, last one parameter row: `enter_row` empties them when a
sweep's task moves to another row, so a sweep holds the members of one row
and of the rows its checks shift to, however many rows its grids have.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import accumulate, count, starmap
from operator import index, mul
from typing import Callable, Optional, Tuple

from .operators import (
    DiffOperator,
    Row,
    SecondOrder,
    SparseRelation,
    as_tuple,
    verify_composition,
    verify_sparse,
)
from .ratpoly import (EXPONENT_LIMIT, MPoly, ONE, ONE_MINUS_X, X, X_ONE_MINUS_X, Y, Z, ZERO,
                      _canon, _pack, over_lcm)
from .special import PoleHit, factorial, pochhammer


def _coefficients(n: int, big_a: int, big_b: int, den: int):
    """The integer numerators [N_0, ..., N_n] of c_m = N_m / (n! den^n) at
    a = big_a/den, b = big_b/den: (a+1+m)_(n-m) is built from the top
    down and (n+a+b+1)_m from the bottom up, each factor times den."""
    tails = [1]
    for m in range(n, 0, -1):
        tails.append(tails[-1] * (den * m + big_a))
    out, rising, top = [], 1, den * (n + 1) + big_a + big_b
    for m, tail in enumerate(reversed(tails)):
        out.append((-1) ** m * math.comb(n, m) * rising * tail)
        rising *= top + den * m
    return out


def shifted_jacobi_raw(n: int, a: Fraction, b: Fraction) -> MPoly:
    """Degree-n member for arbitrary rational parameters (exact MPoly in
    x), zero for n < 0; the positional entry into the member cache."""
    return FAMILY.member((n,), as_tuple((a, b), 2))


def shifted_jacobi(n: int, p) -> MPoly:
    """Public constructor; `p` is the (a, b) pair."""
    return FAMILY.member((index(n),), as_tuple(p, 2))


def h_ratio(n: int, s: int, a: Fraction, b: Fraction) -> Fraction:
    """h_n^{(a+2s,b)} / h_0^{(a,b)}: the squared norm of the degree-n factor
    whose leading exponent the later axes' degrees (sum s) have raised by
    2s, against the degree-0 factor of the base pair (a, b).

    Equal to (a+1)_{2s+n} (b+1)_n / (n! (a+b+2s+2n+1) (a+b+2)_{2s+n-1}),
    which stays finite when a+b+1 = 0; where the weight is integrable (a, b
    > -1) every factor of the denominator is positive.  This is the
    building block of the collapsed norm ratios.
    """
    offset = 2 * s + n
    if offset == 0:
        return Fraction(1)
    num = pochhammer(a + 1, offset) * pochhammer(b + 1, n)
    return num / (factorial(n) * (a + b + 2 * (s + n) + 1) * pochhammer(a + b + 2, offset - 1))


def mass(a, b) -> float:
    """The mass B(b+1, a+1) of the weight (1-x)^a x^b, h_0, as a float."""
    return math.exp(math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2))


# ---------------------------------------------------------------------------
# Products of Jacobi factors in collapsed coordinates (Koornwinder 1975).  A
# family declares its axes once, as base pairs (A_j, B_j); the member with
# per-axis degrees (d_0, d_1, ...) is the product over the axes of
# P(d_j; A_j + 2 s_j, B_j) in collapsed coordinate j, lifted by its
# cofactor to the power d_j, where s_j is the sum of the later degrees.
# ---------------------------------------------------------------------------

# W_j = 1, 1-x, 1-x-y, 1-x-y-z: collapsed coordinate j is 1 - W_{j+1}/W_j
# (x, y/(1-x), z/(1-x-y)), and its cofactor is W_j.  W_j is 1 minus the
# first j variables, held as the packed keys of those variables.
_UNITS = tuple(map(_pack, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
_W_UNITS = tuple(_UNITS[:j] for j in range(4))


def later_sums(degrees) -> list:
    """[s_0, s_1, ...]: s_j is the sum of the degrees after axis j, which
    raises axis j's leading exponent to A_j + 2 s_j.  No s_j reads
    degrees[0]."""
    return list(accumulate(degrees[:0:-1], initial=0))[::-1]


def lift_univariate(q: MPoly, num: MPoly, cof: MPoly, power: int) -> MPoly:
    """Expand cof^power * q(num/cof) for a degree <= power polynomial q in x.

    Writing q = sum_j q_j x^j, the result is sum_j q_j num^j cof^(power-j),
    which is how the inner Jacobi factors of the triangle and tetrahedron
    families become honest polynomials.
    """
    degree = q.degree("x")
    if degree > power:
        raise ValueError(f"degree {degree} above the lift power {power}")
    num_powers, cof_powers = [ONE], [ONE]
    for _ in range(degree):
        num_powers.append(num_powers[-1] * num)
    for _ in range(power):
        cof_powers.append(cof_powers[-1] * cof)
    out = ZERO
    for j in range(degree + 1):
        qj = q.coeff(j, 0, 0)
        if qj == 0:
            continue
        out = out + (num_powers[j] * cof_powers[power - j]).scale(qj)
    return out


def _times_w(num: dict, units) -> dict:
    """num * W on integer term maps, W = 1 minus the variables `units`."""
    out = dict(num)
    get = out.get
    for unit in units:
        for e, c in num.items():
            e += unit
            out[e] = get(e, 0) - c
    return out


@lru_cache(maxsize=None)
def _lifted_factor(axis: int, d: int, big_a: int, big_b: int, den: int) -> MPoly:
    """W_axis^d P(d; big_a/den, big_b/den) in collapsed coordinate `axis`,
    which is sum_m c_m W_{axis+1}^m W_axis^(d-m): Horner's rule in
    W_{axis+1} on the integer numerators and integer term maps, then one
    canonical division by d! den^d."""
    if d >= EXPONENT_LIMIT:
        raise OverflowError(f"a factor of degree {d} reaches the exponent limit {EXPONENT_LIMIT}")
    inner, outer = _W_UNITS[axis + 1], _W_UNITS[axis]
    out, cofactor = {}, {0: 1}
    for c in reversed(_coefficients(d, big_a, big_b, den)):
        out = _times_w(out, inner)
        get = out.get
        for e, v in cofactor.items():
            out[e] = get(e, 0) + c * v
        cofactor = _times_w(cofactor, outer)
    return _canon({e: c for e, c in out.items() if c}, math.factorial(d) * den**d)


def collapsed_member(int_axes, degrees) -> MPoly:
    """The member with the given per-axis degrees, exactly, from the
    family's integer base triples (`integer_axes`); zero when a degree is
    negative.  A total degree at the exponent limit raises OverflowError
    before any factor is built."""
    if min(degrees) < 0:
        return ZERO
    if sum(degrees) >= EXPONENT_LIMIT:
        raise OverflowError(f"a member of total degree {sum(degrees)} reaches "
                            f"the exponent limit {EXPONENT_LIMIT}")
    return reduce(mul, (_lifted_factor(j, d, big_a + 2 * s * den, big_b, den)
                        for j, (d, s, (big_a, big_b, den))
                        in enumerate(zip(degrees, later_sums(degrees), int_axes))))


#: Collapsed coordinate j, as `Family.integrable_axes` names an axis it refuses.
_COORDINATES = ("x", "y/(1-x)", "z/(1-x-y)")


@dataclass(frozen=True, eq=False)
class Family:
    """What a family is: all that the shared checks, the sweeps, the
    quadrature and the CLI read about it.

    `axes(*row)` gives the weight's collapsed base pairs (A_j, B_j), one per
    axis, `degrees(*idx)` a member's per-axis degrees (by default its
    index) and `indices(D)` the index grid of total degree <= D; the
    domain (`valid`) is where no per-axis degree is negative.  `build`
    makes every member from these, through the row's integer base pairs
    (`integer_axes`, one function per record, so `Row.derive` keys them
    once per row), `member(idx, row)` looks it up in the member store
    under the record itself, which `enter_row` empties at each new row of
    a sweep, and
    `combination` sums multiples of members.  `monic` is the monic
    line, or None: the `pde` id of the equation that the monic solution
    solves and its prefactor(*idx, p).
    `names` are the weight's parameter names, in row order; every table
    line takes the index entries, then p = row.derive(view), the row's
    named view.  `index` and `params` turn the caller's index into ints and
    parameters into a Row; `check` also refuses a parameter outside the
    weight's domain (> -1), and `integrable_axes` a row whose weight is not
    integrable, which `mass` and `norm_ratios` read.  `sparse`,
    `second_order` and `pde` map ids to the table lines; a composition's id
    names its two sparse lines, and a `pde` builder is called as
    builder(*idx, p).  A record holds no verdict rule: the shared checks
    judge every family alike.
    """

    names: Tuple[str, ...]
    view: Callable
    index: Callable
    axes: Callable
    indices: Callable
    sparse: dict
    second_order: dict
    pde: dict = field(default_factory=dict)
    degrees: Callable = lambda *idx: idx
    monic: Optional[Tuple[str, Callable]] = None

    @cached_property
    def integer_axes(self) -> Callable:
        """The function of a row that gives `axes(*row)` as integer triples
        (A L, B L, L), each pair over its own least common denominator L."""
        return lambda *row: tuple(starmap(over_lcm, self.axes(*row)))

    def index_count(self, max_degree: int) -> int:
        """len(indices(max_degree)), without building the grid: the degree
        map takes the domain one to one onto the nonnegative degree tuples."""
        k = len(self.indices(0)[0])
        return math.comb(max_degree + k, k) if max_degree >= 0 else 0

    def valid(self, idx) -> bool:
        """Whether `idx` is in the index domain: no per-axis degree is negative."""
        return min(self.degrees(*idx)) >= 0

    def params(self, p) -> Row:
        return as_tuple(p, len(self.names))

    def check(self, p) -> Row:
        """The parameters as a Row, refused (ValueError) unless every one
        exceeds -1."""
        params = self.params(p)
        for name, value in zip(self.names, params):
            if value <= -1:
                raise ValueError(f"parameter {name} = {value} must exceed -1")
        return params

    def build(self, idx: Tuple[int, ...], row: Row) -> MPoly:
        """The member at the index tuple `idx` and the Row `row`, built."""
        return collapsed_member(row.derive(self.integer_axes), self.degrees(*idx))

    def member(self, idx: Tuple[int, ...], row) -> MPoly:
        """The member at the index tuple `idx` and the parameters `row`
        (converted by `params` unless it is a Row), built once."""
        if type(row) is not Row:
            row = self.params(row)
        key = self, idx, row
        poly = _members.get(key)
        if poly is None:
            poly = _members[key] = self.build(idx, row)
        return poly

    def combination(self, terms, row) -> MPoly:
        """The sum of coeff * member(idx, row) over the (idx, coeff) pairs of
        `terms`; a member outside the index domain is zero and is not built."""
        return sum((self.member(idx, row).scale(coeff) for idx, coeff in terms
                    if self.valid(idx)), ZERO)

    def monic_solution(self, idx, p) -> MPoly:
        """The monic solution at `idx`: the prefactor of `monic` times the
        first axis's factor, times y^d_1 (z^d_2), d being the member's
        per-axis degrees; not renormalised, so a wrong prefactor shows as a
        leading coefficient other than 1."""
        idx, params = self.index(idx), self.params(p)
        try:
            prefactor = self.monic[1](*idx, params.derive(self.view))
        except PoleHit as exc:
            raise PoleHit(f"monic prefactor at index {','.join(map(str, idx))}: {exc}") from exc
        degrees = self.degrees(*idx)
        big_a, big_b, den = params.derive(self.integer_axes)[0]
        first = _lifted_factor(0, degrees[0], big_a + 2 * later_sums(degrees)[0] * den, big_b, den)
        return reduce(mul, (v**d for v, d in zip((Y, Z), degrees[1:])), first.scale(prefactor))

    def integrable_axes(self, p):
        """`axes` at the parameters `p`, refused (ValueError) where an
        exponent is at or below -1: each parameter may exceed -1 and the
        weight still not be integrable along that axis."""
        axes = self.axes(*self.params(p))
        for coordinate, pair in zip(_COORDINATES, axes):
            for exponent in pair:
                if exponent <= -1:
                    raise ValueError(f"the weight's exponent {exponent} on axis {coordinate} "
                                     "must exceed -1")
        return axes

    def mass(self, p) -> float:
        """The weight's integral at the parameters `p`, the product of each
        integrable axis's `mass`."""
        return math.prod(starmap(mass, self.integrable_axes(p)))

    def norm_ratios(self, indices, p) -> list:
        """The exact squared-norm ratios of the members at `indices` against
        the degree-0 member, refused (ValueError) where the weight is not
        integrable.  A member's ratio is the product over the axes of
        h_ratio(d_j, s_j, A_j, B_j), s_j from `later_sums`; the members
        share these factors, so each is computed once per (j, d_j, s_j)."""
        axes = self.integrable_axes(p)
        axis_ratio = lru_cache(maxsize=None)(lambda j, d, s: h_ratio(d, s, *axes[j]))
        ratios = []
        for idx in indices:
            ds = self.degrees(*idx)
            ratios.append(math.prod(map(axis_ratio, count(), ds, later_sums(ds))))
        return ratios

    def norm_ratio(self, idx, p) -> Fraction:
        """Squared-norm ratio of the member at `idx` against the degree-0
        member, exactly."""
        return self.norm_ratios([self.index(idx)], p)[0]


# The members built at the row that the caches hold now, keyed (record,
# idx, row), and that row.  A record hashes by identity (eq=False), so one
# made by `dataclasses.replace` never reads another's members.
_members = {}
_row = None


def enter_row(row) -> None:
    """Scope the construction caches to `row`, the row that the members of
    the task about to run are built at.  When it is not the previous
    task's row (compared by value, since a pool worker unpickles each
    chunk into new rows), the member store and `_lifted_factor` are
    emptied: the members of the previous row are not asked for again."""
    global _row
    if row == _row:
        return
    _row = row
    _members.clear()
    _lifted_factor.cache_clear()


# ---------------------------------------------------------------------------
# The twelve first-order ladder relations.  Each line holds the operator, the
# steps of (n; a, b) and the scale; the operator and the scale are both
# built from the degree n and the row's view p.
# ---------------------------------------------------------------------------

_cst = MPoly.const

SPARSE_1D = {
    "L1": SparseRelation(
        lambda n, p: DiffOperator(c0=ZERO, cx=ONE),
        (-1,), (+1, +1), lambda n, p: n + p.a + p.b + 1),
    "L2": SparseRelation(
        lambda n, p: DiffOperator(c0=_cst(p.a + p.b + n + 1), cx=X),
        (0,), (+1, 0), lambda n, p: n + p.a + p.b + 1),
    "L3": SparseRelation(
        lambda n, p: DiffOperator(c0=_cst(p.a + p.b + n + 1), cx=-ONE_MINUS_X),
        (0,), (0, +1), lambda n, p: n + p.a + p.b + 1),
    "L4": SparseRelation(
        lambda n, p: DiffOperator(
            c0=X.scale(p.a) - ONE_MINUS_X.scale(p.b + n + 1), cx=-X_ONE_MINUS_X),
        (+1,), (-1, 0), lambda n, p: n + 1),
    "L5": SparseRelation(
        lambda n, p: DiffOperator(
            c0=X.scale(p.a + n + 1) - ONE_MINUS_X.scale(p.b), cx=-X_ONE_MINUS_X),
        (+1,), (0, -1), lambda n, p: n + 1),
    "L6": SparseRelation(
        lambda n, p: DiffOperator(c0=_cst(p.b), cx=X),
        (0,), (+1, -1), lambda n, p: n + p.b),
    "L1p": SparseRelation(
        lambda n, p: DiffOperator(c0=X.scale(p.a) - ONE_MINUS_X.scale(p.b), cx=-X_ONE_MINUS_X),
        (+1,), (-1, -1), lambda n, p: n + 1),
    "L2p": SparseRelation(
        lambda n, p: DiffOperator(c0=_cst(p.a) + ONE_MINUS_X.scale(n), cx=-X_ONE_MINUS_X),
        (0,), (-1, 0), lambda n, p: n + p.a),
    "L3p": SparseRelation(
        lambda n, p: DiffOperator(c0=_cst(p.b) + X.scale(n), cx=X_ONE_MINUS_X),
        (0,), (0, -1), lambda n, p: n + p.b),
    "L4p": SparseRelation(
        lambda n, p: DiffOperator(c0=_cst(-n), cx=X),
        (-1,), (+1, 0), lambda n, p: n + p.b),
    "L5p": SparseRelation(
        lambda n, p: DiffOperator(c0=_cst(n), cx=ONE_MINUS_X),
        (-1,), (0, +1), lambda n, p: n + p.a),
    "L6p": SparseRelation(
        lambda n, p: DiffOperator(c0=_cst(p.a), cx=-ONE_MINUS_X),
        (0,), (-1, +1), lambda n, p: n + p.a),
}


# ---------------------------------------------------------------------------
# Second-order compositions.
#
# Each entry "outer.inner.rel" or "outer.inner.eig" states: apply `inner`
# then `outer` to the member at the shifted operand (n + dn, (a, b) +
# dparams); the result is eig(n, p) times that member.  The ".rel" entries
# are the raising/lowering pairings on shifted operands; the ".eig" entries
# are the same compositions as eigenvalue equations for the unshifted member.
# ---------------------------------------------------------------------------

SECOND_ORDER_1D = {
    "L1p.L1.rel": SecondOrder((0,), (-1, -1), lambda n, p: n * (n + p.a + p.b - 1)),
    "L1.L1p.rel": SecondOrder((0,), (0, 0), lambda n, p: (n + 1) * (p.a + p.b + n)),
    "L2p.L2.rel": SecondOrder((0,), (-1, +1), lambda n, p: (n + p.a) * (n + p.a + p.b + 1)),
    "L2.L2p.rel": SecondOrder((0,), (0, +1), lambda n, p: (n + p.a) * (n + p.a + p.b + 1)),
    "L3p.L3.rel": SecondOrder((0,), (+1, -1), lambda n, p: (n + p.b) * (n + p.a + p.b + 1)),
    "L3.L3p.rel": SecondOrder((0,), (+1, 0), lambda n, p: (n + p.b) * (n + p.a + p.b + 1)),
    "L4p.L4.rel": SecondOrder((-1,), (0, +1), lambda n, p: n * (n + p.b + 1)),
    "L4.L4p.rel": SecondOrder((0,), (-1, +1), lambda n, p: n * (n + p.b + 1)),
    "L5p.L5.rel": SecondOrder((-1,), (+1, 0), lambda n, p: n * (n + p.a + 1)),
    "L5.L5p.rel": SecondOrder((0,), (+1, -1), lambda n, p: n * (n + p.a + 1)),
    "L6p.L6.rel": SecondOrder((0,), (-1, 0), lambda n, p: (n + p.a) * (n + p.b)),
    "L6.L6p.rel": SecondOrder((0,), (0, -1), lambda n, p: (n + p.a) * (n + p.b)),
    "L1p.L1.eig": SecondOrder((0,), (0, 0), lambda n, p: n * (n + p.a + p.b + 1)),
    "L1.L1p.eig": SecondOrder((0,), (0, 0), lambda n, p: (n + 1) * (p.a + p.b + n)),
    "L2p.L2.eig": SecondOrder((0,), (0, 0), lambda n, p: (n + p.a + 1) * (n + p.a + p.b + 1)),
    "L2.L2p.eig": SecondOrder((0,), (0, 0), lambda n, p: (n + p.a) * (n + p.a + p.b)),
    "L3p.L3.eig": SecondOrder((0,), (0, 0), lambda n, p: (n + p.b + 1) * (n + p.a + p.b + 1)),
    "L3.L3p.eig": SecondOrder((0,), (0, 0), lambda n, p: (n + p.b) * (n + p.a + p.b)),
    "L4p.L4.eig": SecondOrder((0,), (0, 0), lambda n, p: (n + 1) * (n + p.b + 1)),
    "L4.L4p.eig": SecondOrder((0,), (0, 0), lambda n, p: n * (n + p.b)),
    "L5p.L5.eig": SecondOrder((0,), (0, 0), lambda n, p: (n + 1) * (n + p.a + 1)),
    "L5.L5p.eig": SecondOrder((0,), (0, 0), lambda n, p: n * (n + p.a)),
    "L6p.L6.eig": SecondOrder((0,), (0, 0), lambda n, p: (n + p.a + 1) * (n + p.b)),
    "L6.L6p.eig": SecondOrder((0,), (0, 0), lambda n, p: (n + p.a) * (n + p.b + 1)),
}


def indices(max_degree: int):
    """All degrees (n,) up to max_degree."""
    return [(n,) for n in range(max_degree + 1)]


FAMILY = Family(
    names=("a", "b"),
    view=namedtuple("Params", "a b"),
    index=lambda n: (index(n),),
    # The row (a, b) is the one axis's base pair.
    axes=lambda a, b: ((a, b),),
    indices=indices,
    sparse=SPARSE_1D,
    second_order=SECOND_ORDER_1D,
)

# verify_ladder(op, n, p), verify_second_order_1d(entry_id, n, p) and
# norm_ratio(n, p), h_n / h_0 for the weight (1-x)^a x^b.
verify_ladder = partial(verify_sparse, FAMILY)
verify_second_order_1d = partial(verify_composition, FAMILY)
norm_ratio = FAMILY.norm_ratio
