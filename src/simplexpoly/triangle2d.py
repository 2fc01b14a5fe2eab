"""Four-parameter orthogonal family on the unit triangle.

P(n, k; a, b, c, d) is built from two shifted Jacobi factors: a degree
(n-k) factor in x with leading parameter 2k+b+c+d+1, and a degree-k factor
in t = y/(1-x) multiplied by (1-x)^k so the substitution expands to a
polynomial.  The family is orthogonal on {x, y > 0, x + y < 1} against
x^a y^b (1-x-y)^c (1-x)^d.

The module carries the twenty-four M ladder operators, their sparse
recurrence and second-order composition tables, the three second-order
differential equations satisfied by the family, the monic solution of the
third equation, and an independent classical (d = 0) construction used as
a reduction cross-check.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial
from operator import index

from .operators import (
    DiffOperator,
    SecondOrder,
    SparseRelation,
    VerificationReport,
    as_tuple,
    report_equality,
    residual,
    verify_composition,
    verify_sparse,
)
from .ratpoly import (
    MPoly,
    ONE,
    ONE_MINUS_X,
    ONE_MINUS_XY,
    X,
    X_ONE_MINUS_X,
    XY,
    Y,
    Y_ONE_MINUS_XY,
    ZERO,
    over_lcm,
)
from .special import PoleHit, factorial, gamma_ratio
from .jacobi1d import Family, lift_univariate


def axes(a, b, c, d):
    """Collapsed base pairs (A_j, B_j) of the weight, x then y/(1-x)."""
    return ((b + c + d + 1, a), (c, b))


def triangle_poly_raw(n, k, a, b, c, d) -> MPoly:
    """The member (n, k); the positional entry into the member cache."""
    return FAMILY.member((n, k), as_tuple((a, b, c, d), 4))


def triangle_poly(idx, p) -> MPoly:
    return FAMILY.member(FAMILY.index(idx), FAMILY.params(p))


def classical_triangle_poly_raw(n, k, a, b, c) -> MPoly:
    """Independent d = 0 construction via the classical recurrence.

    Builds each univariate Jacobi factor by the classical three-term
    recurrence in t and substitutes t = 2x - 1, avoiding the closed-form
    path used by `triangle_poly`.
    """
    if n < 0 or k < 0 or k > n:
        return ZERO
    fx = classical_jacobi_shifted(n - k, 2 * k + b + c + 1, a)
    fy = lift_univariate(classical_jacobi_shifted(k, c, b), Y, ONE_MINUS_X, k)
    return fx * fy


def classical_jacobi_shifted(m: int, big_a: Fraction, big_b: Fraction) -> MPoly:
    """Classical Jacobi polynomial by three-term recurrence, mapped to (0,1).

    With A = NA/L and B = NB/L, every recurrence coefficient times L^3 is
    an integer, so the members in t = 2x - 1 are integer coefficient lists
    over one running denominator; t is substituted once, at the end.
    """
    if m == 0:
        return ONE
    na, nb, den = over_lcm(big_a, big_b)
    # prev and cur over the running denominator `scale`, lowest power first.
    prev, cur, scale = [2 * den], [na - nb, na + nb + 2 * den], 2 * den
    for j in range(1, m):
        s = 2 * j * den + na + nb
        a1 = 2 * (j + 1) * (j * den + na + nb + den) * s * den
        a2 = (s + den) * (na**2 - nb**2)
        a3 = s * (s + den) * (s + 2 * den)
        a4 = 2 * (j * den + na) * (j * den + nb) * (s + 2 * den)
        if a1 == 0:
            raise PoleHit(f"Jacobi recurrence pole: 2(j+1)(j+A+B+1)(2j+A+B) = 0 at j={j}, "
                          f"A+B={Fraction(na + nb, den)}")
        nxt = [a2 * c for c in cur] + [0]
        for i, c in enumerate(cur):
            nxt[i + 1] += a3 * c
        for i, c in enumerate(prev):
            nxt[i] -= a4 * c
        prev, cur, scale = [a1 * c for c in cur], nxt, scale * a1
    # Horner's rule in t = 2x - 1 on the integer coefficients.
    coeffs = []
    for c in reversed(cur):
        coeffs = [2 * below - at for below, at in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += c
    return MPoly({(i, 0, 0): Fraction(c, scale) for i, c in enumerate(coeffs)})


def _d0(a, b, c):
    """The four parameters (a, b, c, 0) of the d = 0 subfamily."""
    return as_tuple((a, b, c, 0), 4)


def verify_d0_reduction(idx, abc) -> VerificationReport:
    """d = 0 member equals the classical construction, exactly."""
    idx, abc = FAMILY.index(idx), as_tuple(abc, 3)
    lhs = FAMILY.member(idx, abc.derive(_d0))
    rhs = classical_triangle_poly_raw(*idx, *abc)
    return report_equality("reduction.d0", idx, abc, lhs, rhs)


# ---------------------------------------------------------------------------
# The twenty-four M ladder relations.  Each line holds the operator, the
# steps of (n, k; a, b, c, d) and the scale; the operator and the scale are
# both built from the index n, k and the row's view p.  Rational-function
# coefficients are stored as polynomial numerators over the single common
# denominator `denom`.
# ---------------------------------------------------------------------------

_cst = MPoly.const

SPARSE_2D = {
    "M01": SparseRelation(
        lambda n, k, p: DiffOperator(c0=ZERO, cy=ONE),
        (-1, -1), (0, +1, +1, 0), lambda n, k, p: k + p.b + p.c + 1),
    "M02": SparseRelation(
        lambda n, k, p: DiffOperator(c0=_cst(k + p.b + p.c + 1), cy=Y),
        (0, 0), (0, 0, +1, -1), lambda n, k, p: k + p.b + p.c + 1),
    "M03": SparseRelation(
        lambda n, k, p: DiffOperator(c0=_cst(k + p.b + p.c + 1), cy=-ONE_MINUS_XY),
        (0, 0), (0, +1, 0, -1), lambda n, k, p: k + p.b + p.c + 1),
    "M04": SparseRelation(
        lambda n, k, p: DiffOperator(
            c0=Y.scale(p.c) - ONE_MINUS_XY.scale(p.b + k + 1), cy=-Y_ONE_MINUS_XY),
        (+1, +1), (0, 0, -1, -1), lambda n, k, p: k + 1),
    "M05": SparseRelation(
        lambda n, k, p: DiffOperator(
            c0=Y.scale(p.c + k + 1) - ONE_MINUS_XY.scale(p.b), cy=-Y_ONE_MINUS_XY),
        (+1, +1), (0, -1, 0, -1), lambda n, k, p: k + 1),
    "M06": SparseRelation(
        lambda n, k, p: DiffOperator(c0=_cst(p.b), cy=Y),
        (0, 0), (0, -1, +1, 0), lambda n, k, p: k + p.b),
    "M01p": SparseRelation(
        lambda n, k, p: DiffOperator(
            c0=Y.scale(p.c) - ONE_MINUS_XY.scale(p.b), cy=-Y_ONE_MINUS_XY),
        (+1, +1), (0, -1, -1, 0), lambda n, k, p: k + 1),
    "M02p": SparseRelation(
        lambda n, k, p: DiffOperator(
            c0=ONE_MINUS_X.scale(p.c + k) - Y.scale(k), cy=-Y_ONE_MINUS_XY, denom=ONE_MINUS_X),
        (0, 0), (0, 0, -1, +1), lambda n, k, p: k + p.c),
    "M03p": SparseRelation(
        lambda n, k, p: DiffOperator(
            c0=ONE_MINUS_X.scale(p.b) + Y.scale(k), cy=Y_ONE_MINUS_XY, denom=ONE_MINUS_X),
        (0, 0), (0, -1, 0, +1), lambda n, k, p: k + p.b),
    "M04p": SparseRelation(
        lambda n, k, p: DiffOperator(c0=_cst(-k), cy=Y, denom=ONE_MINUS_X),
        (-1, -1), (0, 0, +1, +1), lambda n, k, p: k + p.b),
    "M05p": SparseRelation(
        lambda n, k, p: DiffOperator(c0=_cst(k), cy=ONE_MINUS_XY, denom=ONE_MINUS_X),
        (-1, -1), (0, +1, 0, +1), lambda n, k, p: k + p.c),
    "M06p": SparseRelation(
        lambda n, k, p: DiffOperator(c0=_cst(p.c), cy=-ONE_MINUS_XY),
        (0, 0), (0, +1, -1, 0), lambda n, k, p: k + p.c),
    "M10": SparseRelation(
        lambda n, k, p: DiffOperator(c0=_cst(k), cx=ONE_MINUS_X, cy=-Y, denom=ONE_MINUS_X),
        (-1, 0), (+1, 0, 0, +1), lambda n, k, p: n + k + p.a + p.b + p.c + p.d + 2),
    "M20": SparseRelation(
        lambda n, k, p: DiffOperator(
            c0=ONE_MINUS_X.scale(n + k + p.a + p.b + p.c + p.d + 2) + X.scale(k),
            cx=X_ONE_MINUS_X, cy=-XY, denom=ONE_MINUS_X),
        (0, 0), (0, 0, 0, +1), lambda n, k, p: n + k + p.a + p.b + p.c + p.d + 2),
    "M30": SparseRelation(
        lambda n, k, p: DiffOperator(
            c0=_cst(n + p.a + p.b + p.c + p.d + 2), cx=-ONE_MINUS_X, cy=Y),
        (0, 0), (+1, 0, 0, 0), lambda n, k, p: n + k + p.a + p.b + p.c + p.d + 2),
    "M40": SparseRelation(
        lambda n, k, p: DiffOperator(
            c0=X.scale(n + p.a + p.b + p.c + p.d + 2) - _cst(p.a + n - k + 1), cx=-X_ONE_MINUS_X, cy=XY),
        (+1, 0), (0, 0, 0, -1), lambda n, k, p: n - k + 1),
    "M50": SparseRelation(
        lambda n, k, p: DiffOperator(
            c0=X.scale(n + p.a + p.b + p.c + p.d + 2) - _cst(p.a), cx=-X_ONE_MINUS_X, cy=XY),
        (+1, 0), (-1, 0, 0, 0), lambda n, k, p: n - k + 1),
    "M60": SparseRelation(
        lambda n, k, p: DiffOperator(
            c0=ONE_MINUS_X.scale(p.a) + X.scale(k), cx=X_ONE_MINUS_X, cy=-XY, denom=ONE_MINUS_X),
        (0, 0), (-1, 0, 0, +1), lambda n, k, p: n - k + p.a),
    "M10p": SparseRelation(
        lambda n, k, p: DiffOperator(
            c0=X.scale(k + p.a + p.b + p.c + p.d + 1) - _cst(p.a), cx=-X_ONE_MINUS_X, cy=XY),
        (+1, 0), (-1, 0, 0, -1), lambda n, k, p: n - k + 1),
    "M20p": SparseRelation(
        lambda n, k, p: DiffOperator(
            c0=_cst(n + k + p.b + p.c + p.d + 1) - X.scale(n), cx=-X_ONE_MINUS_X, cy=XY),
        (0, 0), (0, 0, 0, -1), lambda n, k, p: n + k + p.b + p.c + p.d + 1),
    "M30p": SparseRelation(
        lambda n, k, p: DiffOperator(c0=_cst(p.a) + X.scale(n), cx=X_ONE_MINUS_X, cy=-XY),
        (0, 0), (-1, 0, 0, 0), lambda n, k, p: n - k + p.a),
    "M40p": SparseRelation(
        lambda n, k, p: DiffOperator(
            c0=_cst(k) - ONE_MINUS_X.scale(n), cx=X_ONE_MINUS_X, cy=-XY, denom=ONE_MINUS_X),
        (-1, 0), (0, 0, 0, +1), lambda n, k, p: n - k + p.a),
    "M50p": SparseRelation(
        lambda n, k, p: DiffOperator(c0=_cst(n), cx=ONE_MINUS_X, cy=-Y),
        (-1, 0), (+1, 0, 0, 0), lambda n, k, p: n + k + p.b + p.c + p.d + 1),
    "M60p": SparseRelation(
        lambda n, k, p: DiffOperator(c0=_cst(k + p.b + p.c + p.d + 1), cx=-ONE_MINUS_X, cy=Y),
        (0, 0), (+1, 0, 0, -1), lambda n, k, p: n + k + p.b + p.c + p.d + 1),
}


SECOND_ORDER_2D = {
    "M01p.M01": SecondOrder((0, 0), (0, -1, -1, 0), lambda n, k, p: k * (k + p.b + p.c - 1)),
    "M01.M01p": SecondOrder((0, 0), (0, 0, 0, 0), lambda n, k, p: (k + 1) * (k + p.b + p.c)),
    "M02p.M02": SecondOrder((0, 0), (0, +1, -1, 0), lambda n, k, p: (k + p.c) * (k + p.b + p.c + 1)),
    "M02.M02p": SecondOrder((0, 0), (0, +1, 0, 0), lambda n, k, p: (k + p.c) * (k + p.b + p.c + 1)),
    "M03p.M03": SecondOrder((0, 0), (0, -1, +1, 0), lambda n, k, p: (k + p.b) * (k + p.b + p.c + 1)),
    "M03.M03p": SecondOrder((0, 0), (0, 0, +1, 0), lambda n, k, p: (k + p.b) * (k + p.b + p.c + 1)),
    "M04p.M04": SecondOrder((0, -1), (0, +1, 0, 0), lambda n, k, p: k * (k + p.b + 1)),
    "M04.M04p": SecondOrder((0, 0), (0, +1, -1, 0), lambda n, k, p: k * (k + p.b + 1)),
    "M05p.M05": SecondOrder((0, -1), (0, 0, +1, 0), lambda n, k, p: k * (k + p.c + 1)),
    "M05.M05p": SecondOrder((0, 0), (0, -1, +1, 0), lambda n, k, p: k * (k + p.c + 1)),
    "M06p.M06": SecondOrder((0, 0), (0, 0, -1, 0), lambda n, k, p: (k + p.b) * (k + p.c)),
    "M06.M06p": SecondOrder((0, 0), (0, -1, 0, 0), lambda n, k, p: (k + p.b) * (k + p.c)),
    "M10p.M10": SecondOrder((0, 0), (-1, 0, 0, -1), lambda n, k, p: (n - k) * (n + k + p.a + p.b + p.c + p.d)),
    "M10.M10p": SecondOrder((0, 0), (0, 0, 0, 0), lambda n, k, p: (n - k + 1) * (n + k + p.a + p.b + p.c + p.d + 1)),
    "M20p.M20": SecondOrder((0, 0), (+1, 0, 0, -1), lambda n, k, p: (n + k + p.a + p.b + p.c + p.d + 2) * (n + k + p.b + p.c + p.d + 1)),
    "M20.M20p": SecondOrder((0, 0), (+1, -1, 0, +1), lambda n, k, p: (n + k + p.a + p.b + p.c + p.d + 2) * (n + k + p.b + p.c + p.d + 1)),
    "M30p.M30": SecondOrder((0, 0), (-1, +1, 0, 0), lambda n, k, p: (n + k + p.a + p.b + p.c + p.d + 2) * (n - k + p.a)),
    "M30.M30p": SecondOrder((0, 0), (0, +1, 0, 0), lambda n, k, p: (n + k + p.a + p.b + p.c + p.d + 2) * (n - k + p.a)),
    "M40p.M40": SecondOrder((-1, 0), (+1, 0, 0, 0), lambda n, k, p: (n - k) * (n - k + p.a + 1)),
    "M40.M40p": SecondOrder((0, 0), (+1, -1, 0, 0), lambda n, k, p: (n - k) * (n - k + p.a + 1)),
    "M50p.M50": SecondOrder((-1, 0), (0, +1, 0, 0), lambda n, k, p: (n - k) * (n + k + p.b + p.c + p.d + 2)),
    "M50.M50p": SecondOrder((0, 0), (-1, +1, 0, 0), lambda n, k, p: (n - k) * (n + k + p.b + p.c + p.d + 2)),
    "M60p.M60": SecondOrder((0, 0), (0, 0, 0, -1), lambda n, k, p: (n - k + p.a) * (n + k + p.b + p.c + p.d + 1)),
    "M60.M60p": SecondOrder((0, 0), (-1, 0, 0, 0), lambda n, k, p: (n - k + p.a) * (n + k + p.b + p.c + p.d + 1)),
}


# ---------------------------------------------------------------------------
# Second-order differential equations.  Each builder returns the equation
# as (derivative order -> polynomial coefficient) with all rational terms
# cleared by the stated denominator power, so the residual on a family
# member is an exact zero polynomial.
# ---------------------------------------------------------------------------

def _pde_coeffs_y_direction(n, k, p):
    # y(1-x-y) u_yy + ((b+1)(1-x) - (b+c+2) y) u_y + k(k+b+c+1) u, cleared by 1.
    return {
        "yy": Y_ONE_MINUS_XY,
        "y": ONE_MINUS_X.scale(p.b + 1) - Y.scale(p.b + p.c + 2),
        "": MPoly.const(k * (k + p.b + p.c + 1)),
    }


# The parameter-free coefficients of the two equations below, built once.
_FULL_FIXED = {
    "xx": X * ONE_MINUS_X * ONE_MINUS_X,
    "xy": (X * Y).scale(-2) * ONE_MINUS_X,
    "yy": Y * (ONE - Y) * ONE_MINUS_X,
}
_X_DIRECTION_FIXED = {
    "xx": X * ONE_MINUS_X * ONE_MINUS_X,
    "xy": (X * Y).scale(-2) * ONE_MINUS_X,
    "yy": X * Y * Y,
}


def _pde_coeffs_full(n, k, p):
    # The full second-order equation; 1/(1-x) terms cleared by (1-x).
    s = p.a + p.b + p.c + p.d + 3
    lam = n * (n + p.a + p.b + p.c + p.d + 2)
    return {
        **_FULL_FIXED,
        "x": (MPoly.const(p.a + 1) - X.scale(s)) * ONE_MINUS_X,
        "y": (MPoly.const(p.b + 1) - Y.scale(s)) * ONE_MINUS_X + Y.scale(p.d),
        "": ONE_MINUS_X.scale(lam) - MPoly.const(k * p.d),
    }


def _pde_coeffs_x_direction(n, k, p):
    # The difference of the two equations above; 1/(1-x) cleared by (1-x).
    s = p.a + p.b + p.c + p.d + 3
    lam = n * (n + p.a + p.b + p.c + p.d + 2)
    drift = MPoly.const(p.a + 1) - X.scale(s)
    return {
        **_X_DIRECTION_FIXED,
        "x": drift * ONE_MINUS_X,
        "y": -Y * drift,
        "": ONE_MINUS_X.scale(lam) - MPoly.const(k * (k + p.b + p.c + p.d + 1)),
    }


PDE_2D = {
    "L1": _pde_coeffs_y_direction,
    "L2": _pde_coeffs_full,
    "B1": _pde_coeffs_x_direction,
}


def monic_prefactor(n, k, p) -> Fraction:
    """(n-k)! / (a+b+c+d+n+k+2)_(n-k); PoleHit where the lead of P(n-k) is 0."""
    return factorial(n - k) * gamma_ratio(p.a + p.b + p.c + p.d + 2 * n + 2, -(n - k))


def indices(max_degree: int):
    """All (n, k) with 0 <= k <= n <= max_degree, by total degree n."""
    return [(n, k) for n in range(max_degree + 1) for k in range(n + 1)]


FAMILY = Family(
    names=("a", "b", "c", "d"),
    view=namedtuple("Params", "a b c d"),
    index=lambda idx: as_tuple(idx, 2, index),
    axes=axes,
    indices=indices,
    sparse=SPARSE_2D,
    second_order=SECOND_ORDER_2D,
    pde=PDE_2D,
    degrees=lambda n, k: (n - k, k),
    # The monic solution of the x-direction equation, prefactor * y^k P(n-k).
    monic=("B1", monic_prefactor),
)

# verify_m_relation(op, idx, p), verify_second_order_m(entry_id, idx, p),
# pde_residual(which, idx, p, u=None), monic_triangle(idx, p) and
# triangle_norm_ratio(idx, p), the squared-norm ratio against the (0, 0)
# member.
verify_m_relation = partial(verify_sparse, FAMILY)
verify_second_order_m = partial(verify_composition, FAMILY)
pde_residual = partial(residual, FAMILY)
monic_triangle = FAMILY.monic_solution
triangle_norm_ratio = FAMILY.norm_ratio
