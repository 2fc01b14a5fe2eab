"""Six-parameter orthogonal family on the unit tetrahedron.

P(n1, n2, n3; alpha, beta, gamma, delta, a, b) is a product of three
shifted Jacobi factors: degree n1 in x, degree n2 in y/(1-x) carrying
(1-x)^n2, and degree n3 in z/(1-x-y) carrying (1-x-y)^n3.  The family is
orthogonal on {x, y, z > 0, x+y+z < 1} against

    x^alpha y^beta z^gamma (1-x-y-z)^delta (1-x)^a (1-x-y)^b.

This module carries the thirty-six ladder operators acting along the
three collapsed directions, their sparse recurrence and second-order
composition tables, the four second-order differential equations, the
monic solution, two connection expansions (each judged by its `report`),
the three-term recurrence in x, and the derivative / weighted-derivative
/ multiplication identities for the classical (a = b = 0) subfamily.

Throughout, e abbreviates alpha+beta+gamma+delta+a+b and n = n1+n2+n3;
both are recomputed from the shifted values on every parameter step, never
incremented independently (`Params.e` sums e once per row).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import add, index
from typing import Callable, Tuple

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
    ONE_MINUS_XYZ,
    X,
    X_ONE_MINUS_X,
    XY,
    Y,
    Y_ONE_MINUS_XY,
    Z,
    ZERO,
    as_rat,
    over_lcm,
)
from .special import PoleHit, _hyper3f2_integers, _rising, factorial, gamma_ratio, pochhammer
from .jacobi1d import Family, later_sums, lift_univariate
from .triangle2d import classical_jacobi_shifted


class Params(namedtuple("Params", "al be ga de a b")):
    """The named view of a parameter row that every table line reads."""

    @cached_property
    def e(self) -> Fraction:
        """e = alpha+beta+gamma+delta+a+b, summed on first use."""
        return self.al + self.be + self.ga + self.de + self.a + self.b


def axes(alpha, beta, gamma, delta, a, b):
    """Collapsed base pairs (A_j, B_j) of the weight, x, y/(1-x) then
    z/(1-x-y)."""
    return ((beta + gamma + delta + a + b + 2, alpha), (gamma + delta + b + 1, beta),
            (delta, gamma))


def _ab0(al, be, ga, de):
    """The six parameters (al, be, ga, de, 0, 0) of the a = b = 0 subfamily."""
    return as_tuple((al, be, ga, de, 0, 0), 6)


def simplex_poly_raw(n1, n2, n3, alpha, beta, gamma, delta, a, b) -> MPoly:
    """The member (n1, n2, n3); the positional entry into the member cache."""
    return FAMILY.member((n1, n2, n3), as_tuple((alpha, beta, gamma, delta, a, b), 6))


def simplex_poly(idx, p) -> MPoly:
    return FAMILY.member(FAMILY.index(idx), FAMILY.params(p))


def simplex_norm(idx, p) -> Tuple[Fraction, float]:
    """(exact ratio against the (0,0,0) member, that ratio times the mass),
    refused (ValueError) where the weight is not integrable."""
    ratio = FAMILY.norm_ratio(idx, p)
    return ratio, float(ratio) * FAMILY.mass(p)


def classical_simplex_poly_raw(n1, n2, n3, alpha, beta, gamma, delta) -> MPoly:
    """Independent construction of the four-parameter (a = b = 0) family.

    Uses the classical three-term recurrence for every univariate factor,
    exercising none of the hypergeometric code paths.
    """
    if min(n1, n2, n3) < 0:
        return ZERO
    fx = classical_jacobi_shifted(n1, beta + gamma + delta + 2 * n2 + 2 * n3 + 2, alpha)
    fy = lift_univariate(
        classical_jacobi_shifted(n2, gamma + delta + 2 * n3 + 1, beta), Y, ONE_MINUS_X, n2
    )
    fz = lift_univariate(classical_jacobi_shifted(n3, delta, gamma), Z, ONE_MINUS_XY, n3)
    return fx * fy * fz


# ---------------------------------------------------------------------------
# The thirty-six ladder relations of Theorem 1: twelve along y, twelve along
# x, twelve along z.  Each line holds the operator, the steps of
# (n1, n2, n3; alpha, beta, gamma, delta, a, b) and the scale; the operator
# and the scale are both built from the index n1, n2, n3 and the row's view
# p.  Coefficients are numerators over the common denominator.
# ---------------------------------------------------------------------------

_cst = MPoly.const
_W = ONE_MINUS_XYZ
_XZ = X * Z
_YZ = Y * Z
_ZW = Z * _W

THEOREM1 = {
    "N01": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=_cst(n3), cy=ONE_MINUS_XY, cz=-Z, denom=ONE_MINUS_XY),
        (0, -1, 0), (0, +1, 0, 0, 0, +1),
        lambda n1, n2, n3, p: n2 + 2 * n3 + p.be + p.ga + p.de + p.b + 2),
    "N02": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=ONE_MINUS_XY.scale(n2 + 2 * n3 + p.be + p.ga + p.de + p.b + 2) + Y.scale(n3),
            cy=Y_ONE_MINUS_XY, cz=-_YZ, denom=ONE_MINUS_XY),
        (0, 0, 0), (0, 0, 0, 0, -1, +1),
        lambda n1, n2, n3, p: n2 + 2 * n3 + p.be + p.ga + p.de + p.b + 2),
    "N03": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=_cst(n2 + n3 + p.be + p.ga + p.de + p.b + 2), cy=-ONE_MINUS_XY, cz=Z),
        (0, 0, 0), (0, +1, 0, 0, -1, 0),
        lambda n1, n2, n3, p: n2 + 2 * n3 + p.be + p.ga + p.de + p.b + 2),
    "N04": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=Y.scale(n3 + p.ga + p.de + p.b + 1) - ONE_MINUS_XY.scale(p.be + n2 + 1),
            cy=-Y_ONE_MINUS_XY, cz=_YZ),
        (0, +1, 0), (0, 0, 0, 0, -1, -1), lambda n1, n2, n3, p: n2 + 1),
    "N05": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=Y.scale(n2 + n3 + p.ga + p.de + p.b + 2) - ONE_MINUS_XY.scale(p.be),
            cy=-Y_ONE_MINUS_XY, cz=_YZ),
        (0, +1, 0), (0, -1, 0, 0, -1, 0), lambda n1, n2, n3, p: n2 + 1),
    "N06": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=ONE_MINUS_XY.scale(p.be) + Y.scale(n3),
            cy=Y_ONE_MINUS_XY, cz=-_YZ, denom=ONE_MINUS_XY),
        (0, 0, 0), (0, -1, 0, 0, 0, +1), lambda n1, n2, n3, p: n2 + p.be),
    "N01p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=Y.scale(p.ga + p.de + n3 + p.b + 1) - ONE_MINUS_XY.scale(p.be),
            cy=-Y_ONE_MINUS_XY, cz=_YZ),
        (0, +1, 0), (0, -1, 0, 0, 0, -1), lambda n1, n2, n3, p: n2 + 1),
    "N02p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=ONE_MINUS_X.scale(n2 + 2 * n3 + p.ga + p.de + p.b + 1) - Y.scale(n2 + n3),
            cy=-Y_ONE_MINUS_XY, cz=_YZ, denom=ONE_MINUS_X),
        (0, 0, 0), (0, 0, 0, 0, +1, -1),
        lambda n1, n2, n3, p: n2 + 2 * n3 + p.ga + p.de + p.b + 1),
    "N03p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=ONE_MINUS_X.scale(p.be) + Y.scale(n2 + n3),
            cy=Y_ONE_MINUS_XY, cz=-_YZ, denom=ONE_MINUS_X),
        (0, 0, 0), (0, -1, 0, 0, +1, 0), lambda n1, n2, n3, p: n2 + p.be),
    "N04p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=ONE_MINUS_XY.scale(-n2) + Y.scale(n3),
            cy=Y_ONE_MINUS_XY, cz=-_YZ, denom=ONE_MINUS_X * ONE_MINUS_XY),
        (0, -1, 0), (0, 0, 0, 0, +1, +1), lambda n1, n2, n3, p: n2 + p.be),
    "N05p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=_cst(n2 + n3), cy=ONE_MINUS_XY, cz=-Z, denom=ONE_MINUS_X),
        (0, -1, 0), (0, +1, 0, 0, +1, 0),
        lambda n1, n2, n3, p: n2 + 2 * n3 + p.ga + p.de + p.b + 1),
    "N06p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=_cst(p.ga + p.de + n3 + p.b + 1), cy=-ONE_MINUS_XY, cz=Z),
        (0, 0, 0), (0, +1, 0, 0, 0, -1),
        lambda n1, n2, n3, p: n2 + 2 * n3 + p.ga + p.de + p.b + 1),
    "N10": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=_cst(n2 + n3), cx=ONE_MINUS_X, cy=-Y, cz=-Z, denom=ONE_MINUS_X),
        (-1, 0, 0), (+1, 0, 0, 0, +1, 0),
        lambda n1, n2, n3, p: (n1 + n2 + n3) + n2 + n3 + p.e + 3),
    "N20": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=ONE_MINUS_X.scale((n1 + n2 + n3) + n2 + n3 + p.e + 3)
            + X.scale(n2 + n3),
            cx=X_ONE_MINUS_X, cy=-XY, cz=-_XZ, denom=ONE_MINUS_X),
        (0, 0, 0), (0, 0, 0, 0, +1, 0),
        lambda n1, n2, n3, p: (n1 + n2 + n3) + n2 + n3 + p.e + 3),
    "N30": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=_cst((n1 + n2 + n3) + p.e + 3),
            cx=-ONE_MINUS_X, cy=Y, cz=Z),
        (0, 0, 0), (+1, 0, 0, 0, 0, 0),
        lambda n1, n2, n3, p: (n1 + n2 + n3) + n2 + n3 + p.e + 3),
    "N40": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=X.scale((n1 + n2 + n3) + p.e + 3) - _cst(p.al + n1 + 1),
            cx=-X_ONE_MINUS_X, cy=XY, cz=_XZ),
        (+1, 0, 0), (0, 0, 0, 0, -1, 0), lambda n1, n2, n3, p: n1 + 1),
    "N50": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=X.scale((n1 + n2 + n3) + p.e + 3) - _cst(p.al),
            cx=-X_ONE_MINUS_X, cy=XY, cz=_XZ),
        (+1, 0, 0), (-1, 0, 0, 0, 0, 0), lambda n1, n2, n3, p: n1 + 1),
    "N60": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=ONE_MINUS_X.scale(p.al) + X.scale(n2 + n3),
            cx=X_ONE_MINUS_X, cy=-XY, cz=-_XZ, denom=ONE_MINUS_X),
        (0, 0, 0), (-1, 0, 0, 0, +1, 0), lambda n1, n2, n3, p: n1 + p.al),
    "N10p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=X.scale(n2 + n3 + p.e + 2) - _cst(p.al),
            cx=-X_ONE_MINUS_X, cy=XY, cz=_XZ),
        (+1, 0, 0), (-1, 0, 0, 0, -1, 0), lambda n1, n2, n3, p: n1 + 1),
    "N20p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=_cst((n1 + n2 + n3) + n2 + n3 + p.e - p.al + 2)
            - X.scale(n1 + n2 + n3),
            cx=-X_ONE_MINUS_X, cy=XY, cz=_XZ),
        (0, 0, 0), (0, 0, 0, 0, -1, 0),
        lambda n1, n2, n3, p: (n1 + n2 + n3) + n2 + n3 + p.e - p.al + 2),
    "N30p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=_cst(p.al) + X.scale(n1 + n2 + n3), cx=X_ONE_MINUS_X, cy=-XY, cz=-_XZ),
        (0, 0, 0), (-1, 0, 0, 0, 0, 0), lambda n1, n2, n3, p: n1 + p.al),
    "N40p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=ONE_MINUS_X.scale(-(n1 + n2 + n3)) + _cst(n2 + n3),
            cx=X_ONE_MINUS_X, cy=-XY, cz=-_XZ, denom=ONE_MINUS_X),
        (-1, 0, 0), (0, 0, 0, 0, +1, 0), lambda n1, n2, n3, p: n1 + p.al),
    "N50p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(c0=_cst(n1 + n2 + n3), cx=ONE_MINUS_X, cy=-Y, cz=-Z),
        (-1, 0, 0), (+1, 0, 0, 0, 0, 0),
        lambda n1, n2, n3, p: (n1 + n2 + n3) + n2 + n3 + p.e - p.al + 2),
    "N60p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=_cst(n2 + n3 + p.e - p.al + 2),
            cx=-ONE_MINUS_X, cy=Y, cz=Z),
        (0, 0, 0), (+1, 0, 0, 0, -1, 0),
        lambda n1, n2, n3, p: (n1 + n2 + n3) + n2 + n3 + p.e - p.al + 2),
    "O10": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(c0=ZERO, cz=ONE),
        (0, 0, -1), (0, 0, +1, +1, 0, 0),
        lambda n1, n2, n3, p: n3 + p.de + p.ga + 1),
    "O20": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(c0=_cst(p.de + p.ga + n3 + 1), cz=Z),
        (0, 0, 0), (0, 0, 0, +1, 0, -1),
        lambda n1, n2, n3, p: n3 + p.de + p.ga + 1),
    "O30": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(c0=_cst(p.de + p.ga + n3 + 1), cz=-_W),
        (0, 0, 0), (0, 0, +1, 0, 0, -1),
        lambda n1, n2, n3, p: n3 + p.de + p.ga + 1),
    "O40": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(c0=Z.scale(p.de) - _W.scale(p.ga + n3 + 1), cz=-_ZW),
        (0, 0, +1), (0, 0, 0, -1, 0, -1), lambda n1, n2, n3, p: n3 + 1),
    "O50": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(c0=Z.scale(p.de + n3 + 1) - _W.scale(p.ga), cz=-_ZW),
        (0, 0, +1), (0, 0, -1, 0, 0, -1), lambda n1, n2, n3, p: n3 + 1),
    "O60": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(c0=_cst(p.ga), cz=Z),
        (0, 0, 0), (0, 0, -1, +1, 0, 0), lambda n1, n2, n3, p: n3 + p.ga),
    "O10p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(c0=Z.scale(p.de) - _W.scale(p.ga), cz=-_ZW),
        (0, 0, +1), (0, 0, -1, -1, 0, 0), lambda n1, n2, n3, p: n3 + 1),
    "O20p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=ONE_MINUS_XY.scale(p.de) + _W.scale(n3), cz=-_ZW, denom=ONE_MINUS_XY),
        (0, 0, 0), (0, 0, 0, -1, 0, +1), lambda n1, n2, n3, p: n3 + p.de),
    "O30p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(
            c0=ONE_MINUS_XY.scale(p.ga) + Z.scale(n3), cz=_ZW, denom=ONE_MINUS_XY),
        (0, 0, 0), (0, 0, -1, 0, 0, +1), lambda n1, n2, n3, p: n3 + p.ga),
    "O40p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(c0=_cst(-n3), cz=Z, denom=ONE_MINUS_XY),
        (0, 0, -1), (0, 0, 0, +1, 0, +1), lambda n1, n2, n3, p: n3 + p.ga),
    "O50p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(c0=_cst(n3), cz=_W, denom=ONE_MINUS_XY),
        (0, 0, -1), (0, 0, +1, 0, 0, +1), lambda n1, n2, n3, p: n3 + p.de),
    "O60p": SparseRelation(
        lambda n1, n2, n3, p: DiffOperator(c0=_cst(p.de), cz=-_W),
        (0, 0, 0), (0, 0, +1, -1, 0, 0), lambda n1, n2, n3, p: n3 + p.de),
}


SECOND_ORDER_3D = {
    # y-direction pairs
    "N01p.N01": SecondOrder((0, 0, 0), (0, -1, 0, 0, 0, -1),
        lambda n1, n2, n3, p: n2 * (n2 + 2 * n3 + p.be + p.ga + p.de + p.b)),
    "N01.N01p": SecondOrder((0, 0, 0), (0, 0, 0, 0, 0, 0),
        lambda n1, n2, n3, p: (n2 + 1) * (n2 + 2 * n3 + p.be + p.ga + p.de + p.b + 1)),
    "N02p.N02": SecondOrder((0, 0, 0), (0, +1, 0, 0, 0, -1),
        lambda n1, n2, n3, p:
        (n2 + 2 * n3 + p.be + p.ga + p.de + p.b + 2) * (n2 + 2 * n3 + p.ga + p.de + p.b + 1)),
    "N02.N02p": SecondOrder((0, 0, 0), (0, +1, 0, 0, 0, 0),
        lambda n1, n2, n3, p:
        (n2 + 2 * n3 + p.be + p.ga + p.de + p.b + 2) * (n2 + 2 * n3 + p.ga + p.de + p.b + 1)),
    "N03p.N03": SecondOrder((0, 0, 0), (0, -1, 0, 0, 0, +1),
        lambda n1, n2, n3, p: (n2 + p.be) * (n2 + 2 * n3 + p.be + p.ga + p.de + p.b + 2)),
    "N03.N03p": SecondOrder((0, 0, 0), (0, 0, 0, 0, 0, +1),
        lambda n1, n2, n3, p: (n2 + p.be) * (n2 + 2 * n3 + p.be + p.ga + p.de + p.b + 2)),
    "N04p.N04": SecondOrder((0, -1, 0), (0, +1, 0, 0, 0, 0),
        lambda n1, n2, n3, p: n2 * (n2 + p.be + 1)),
    "N04.N04p": SecondOrder((0, 0, 0), (0, +1, 0, 0, 0, -1),
        lambda n1, n2, n3, p: n2 * (n2 + p.be + 1)),
    "N05p.N05": SecondOrder((0, -1, 0), (0, 0, 0, 0, 0, +1),
        lambda n1, n2, n3, p: n2 * (n2 + 2 * n3 + p.ga + p.de + p.b + 2)),
    "N05.N05p": SecondOrder((0, 0, 0), (0, -1, 0, 0, 0, +1),
        lambda n1, n2, n3, p: n2 * (n2 + 2 * n3 + p.ga + p.de + p.b + 2)),
    "N06p.N06": SecondOrder((0, 0, 0), (0, 0, 0, 0, 0, -1),
        lambda n1, n2, n3, p: (n2 + p.be) * (n2 + 2 * n3 + p.ga + p.de + p.b + 1)),
    "N06.N06p": SecondOrder((0, 0, 0), (0, -1, 0, 0, 0, 0),
        lambda n1, n2, n3, p: (n2 + p.be) * (n2 + 2 * n3 + p.ga + p.de + p.b + 1)),
    # x-direction pairs
    "N10p.N10": SecondOrder((0, 0, 0), (-1, 0, 0, 0, 0, -1),
        lambda n1, n2, n3, p: n1 * ((n1 + n2 + n3) + n2 + n3 + p.e + 1)),
    "N10.N10p": SecondOrder((0, 0, 0), (0, 0, 0, 0, 0, 0),
        lambda n1, n2, n3, p: (n1 + 1) * ((n1 + n2 + n3) + n2 + n3 + p.e + 2)),
    "N20p.N20": SecondOrder((0, 0, 0), (+1, 0, 0, 0, 0, -1),
        lambda n1, n2, n3, p: ((n1 + n2 + n3) + n2 + n3 + p.e + 3)
        * ((n1 + n2 + n3) + n2 + n3 + p.e - p.al + 2)),
    "N20.N20p": SecondOrder((0, 0, 0), (+1, 0, 0, 0, 0, 0),
        lambda n1, n2, n3, p: ((n1 + n2 + n3) + n2 + n3 + p.e + 3)
        * ((n1 + n2 + n3) + n2 + n3 + p.e - p.al + 2)),
    "N30p.N30": SecondOrder((0, 0, 0), (-1, 0, 0, 0, +1, 0),
        lambda n1, n2, n3, p: (n1 + p.al) * ((n1 + n2 + n3) + n2 + n3 + p.e + 3)),
    "N30.N30p": SecondOrder((0, 0, 0), (0, 0, 0, 0, +1, 0),
        lambda n1, n2, n3, p: (n1 + p.al) * ((n1 + n2 + n3) + n2 + n3 + p.e + 3)),
    "N40p.N40": SecondOrder((-1, 0, 0), (+1, 0, 0, 0, 0, 0),
        lambda n1, n2, n3, p: n1 * (n1 + p.al + 1)),
    "N40.N40p": SecondOrder((0, 0, 0), (+1, 0, 0, 0, 0, -1),
        lambda n1, n2, n3, p: n1 * (n1 + p.al + 1)),
    "N50p.N50": SecondOrder((-1, 0, 0), (0, 0, 0, 0, +1, 0),
        lambda n1, n2, n3, p: n1 * ((n1 + n2 + n3) + n2 + n3 + p.e - p.al + 3)),
    "N50.N50p": SecondOrder((0, 0, 0), (-1, 0, 0, 0, +1, 0),
        lambda n1, n2, n3, p: n1 * ((n1 + n2 + n3) + n2 + n3 + p.e - p.al + 3)),
    "N60p.N60": SecondOrder((0, 0, 0), (0, 0, 0, 0, 0, -1),
        lambda n1, n2, n3, p: (n1 + p.al) * ((n1 + n2 + n3) + n2 + n3 + p.e - p.al + 2)),
    "N60.N60p": SecondOrder((0, 0, 0), (-1, 0, 0, 0, 0, 0),
        lambda n1, n2, n3, p: (n1 + p.al) * ((n1 + n2 + n3) + n2 + n3 + p.e - p.al + 2)),
    # z-direction pairs
    "O10p.O10": SecondOrder((0, 0, 0), (0, 0, -1, -1, 0, 0),
        lambda n1, n2, n3, p: n3 * (n3 + p.ga + p.de - 1)),
    "O10.O10p": SecondOrder((0, 0, 0), (0, 0, 0, 0, 0, 0),
        lambda n1, n2, n3, p: (n3 + 1) * (n3 + p.ga + p.de)),
    "O20p.O20": SecondOrder((0, 0, 0), (0, 0, +1, -1, 0, 0),
        lambda n1, n2, n3, p: (n3 + p.de) * (n3 + p.ga + p.de + 1)),
    "O20.O20p": SecondOrder((0, 0, 0), (0, 0, +1, 0, 0, 0),
        lambda n1, n2, n3, p: (n3 + p.de) * (n3 + p.ga + p.de + 1)),
    "O30p.O30": SecondOrder((0, 0, 0), (0, 0, -1, +1, 0, 0),
        lambda n1, n2, n3, p: (n3 + p.ga) * (n3 + p.ga + p.de + 1)),
    "O30.O30p": SecondOrder((0, 0, 0), (0, 0, 0, +1, 0, 0),
        lambda n1, n2, n3, p: (n3 + p.ga) * (n3 + p.ga + p.de + 1)),
    "O40p.O40": SecondOrder((0, 0, -1), (0, 0, +1, 0, 0, 0),
        lambda n1, n2, n3, p: n3 * (n3 + p.ga + 1)),
    "O40.O40p": SecondOrder((0, 0, 0), (0, 0, +1, -1, 0, 0),
        lambda n1, n2, n3, p: n3 * (n3 + p.ga + 1)),
    "O50p.O50": SecondOrder((0, 0, -1), (0, 0, 0, +1, 0, 0),
        lambda n1, n2, n3, p: n3 * (n3 + p.de + 1)),
    "O50.O50p": SecondOrder((0, 0, 0), (0, 0, -1, +1, 0, 0),
        lambda n1, n2, n3, p: n3 * (n3 + p.de + 1)),
    "O60p.O60": SecondOrder((0, 0, 0), (0, 0, 0, -1, 0, 0),
        lambda n1, n2, n3, p: (n3 + p.ga) * (n3 + p.de)),
    "O60.O60p": SecondOrder((0, 0, 0), (0, 0, -1, 0, 0, 0),
        lambda n1, n2, n3, p: (n3 + p.ga) * (n3 + p.de)),
}


# ---------------------------------------------------------------------------
# Second-order differential equations T1..T4 (coefficients cleared by the
# stated denominators) and the classical a = b = 0 comparison form.
# ---------------------------------------------------------------------------

# The clearing factor of T1 and the parameter-free coefficients of each
# equation, built once.
_D12 = ONE_MINUS_X * ONE_MINUS_XY
_T1_FIXED = {
    "xx": X * ONE_MINUS_X * _D12,
    "yy": Y * (ONE - Y) * _D12,
    "zz": Z * (ONE - Z) * _D12,
    "xz": (X * Z).scale(-2) * _D12,
    "yz": (Y * Z).scale(-2) * _D12,
    "xy": (X * Y).scale(-2) * _D12,
}
_T2_FIXED = {
    "yy": Y * ONE_MINUS_XY * ONE_MINUS_XY,
    "yz": (Y * Z).scale(-2) * ONE_MINUS_XY,
    "zz": Y * Z * Z,
}
_T4_FIXED = {
    "xx": X * ONE_MINUS_X * ONE_MINUS_X,
    "yy": X * Y * Y,
    "zz": X * Z * Z,
    "xy": (X * Y).scale(-2) * ONE_MINUS_X,
    "xz": (X * Z).scale(-2) * ONE_MINUS_X,
    "yz": (X * Y * Z).scale(2),
}
_XZ_1XY = X * Z * ONE_MINUS_XY
_Z_1XY = Z * ONE_MINUS_XY


def _t1_coeffs(n1, n2, n3, p):
    # Cleared by (1-x)(1-x-y).
    n = n1 + n2 + n3
    s4 = p.al + p.be + p.ga + p.de + 4
    return {
        **_T1_FIXED,
        "x": (MPoly.const(p.al + 1) - X.scale(p.e + 4)) * _D12,
        "y": ((MPoly.const(p.be + 1) - Y.scale(s4)) * ONE_MINUS_X
              + XY.scale(p.a + p.b) - Y.scale(p.b)) * ONE_MINUS_XY,
        "z": ((MPoly.const(p.ga + 1) - Z.scale(s4)) * _D12
              + _XZ_1XY.scale(p.a + p.b) + _YZ.scale(p.b)),
        "": (_D12.scale(n * (n + p.e + 3))
             - ONE_MINUS_XY.scale(p.a * (n2 + n3))
             - ONE_MINUS_X.scale(n3 * p.b)),
    }


def _t2_coeffs(n1, n2, n3, p):
    # Cleared by (1-x-y).
    lam = (p.be + 1) * n3 + n2 * (n2 + 2 * n3 + p.be + p.ga + p.de + p.b + 2)
    return {
        **_T2_FIXED,
        "y": (ONE_MINUS_XY.scale(p.be + 1) - Y.scale(p.ga + p.de + p.b + 2)) * ONE_MINUS_XY,
        "z": _YZ.scale(p.ga + p.de + p.b + 2) - _Z_1XY.scale(p.be + 1),
        "": ONE_MINUS_XY.scale(lam) - Y.scale(n3 * (p.ga + p.de + p.b + n3 + 1)),
    }


def _t3_coeffs(n1, n2, n3, p):
    return {
        "zz": _ZW,
        "z": ONE_MINUS_XYZ.scale(p.ga + 1) - Z.scale(p.de + 1),
        "": MPoly.const(n3 * (n3 + p.ga + p.de + 1)),
    }


def _t4_coeffs(n1, n2, n3, p):
    # Cleared by (1-x).
    n = n1 + n2 + n3
    drift = MPoly.const(p.al + 1) - X.scale(p.e + 4)
    return {
        **_T4_FIXED,
        "x": drift * ONE_MINUS_X,
        "y": -Y * drift,
        "z": -Z * drift,
        "": (ONE_MINUS_X.scale(n * (n + p.e + 3))
             - MPoly.const((n2 + n3) * (n2 + n3 + p.be + p.ga + p.de + p.a + p.b + 2))),
    }


PDE_3D = {"T1": _t1_coeffs, "T2": _t2_coeffs, "T3": _t3_coeffs, "T4": _t4_coeffs}


def classical_t1_coeffs(n1, n2, n3, p):
    """The a = b = 0 form of the first equation, cleared by nothing."""
    n = n1 + n2 + n3
    s = p.al + p.be + p.ga + p.de
    return {
        "xx": X * ONE_MINUS_X,
        "yy": Y * (ONE - Y),
        "zz": Z * (ONE - Z),
        "xz": (X * Z).scale(-2),
        "yz": (Y * Z).scale(-2),
        "xy": (X * Y).scale(-2),
        "x": MPoly.const(p.al + 1) - X.scale(s + 4),
        "y": MPoly.const(p.be + 1) - Y.scale(s + 4),
        "z": MPoly.const(p.ga + 1) - Z.scale(s + 4),
        "": MPoly.const(n * (n + s + 3)),
    }


def verify_reduction_ab0(idx, fourparams) -> VerificationReport:
    """a = b = 0 members equal the independent classical construction, and
    the first equation collapses coefficient-by-coefficient to its
    classical form."""
    idx, q = FAMILY.index(idx), as_tuple(fourparams, 4)
    params = q.derive(_ab0)
    lhs = FAMILY.member(idx, params)
    rhs = classical_simplex_poly_raw(*idx, *q)
    rep = report_equality("reduction.ab0", idx, q, lhs, rhs)
    if rep.status != "pass":
        return rep
    # Coefficient comparison: T1 at a = b = 0 against the classical display
    # times the same clearing factor (1-x)(1-x-y), u's coefficient last.
    p = params.derive(FAMILY.view)
    classical = classical_t1_coeffs(*idx, p)
    for key, coeff in _t1_coeffs(*idx, p).items():
        expected = classical[key] * _D12
        if coeff != expected:
            return report_equality("reduction.ab0", idx, q, coeff, expected,
                                   detail=f"first-equation coefficient mismatch on u_{key or '0'}")
    return rep


def monic_prefactor(n1, n2, n3, p) -> Fraction:
    """n1! / (e+n+n2+n3+3)_(n1), n = n1+n2+n3; PoleHit where the lead of P(n1) is 0."""
    return factorial(n1) * gamma_ratio(p.e + 2 * (n1 + n2 + n3) + 3, -n1)


# ---------------------------------------------------------------------------
# Connection expansions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectionTerm:
    index: Tuple[int, int, int]
    coeff: Fraction
    # Extra monomial factor (1-x)^p (1-x-y)^q attached to the target member.
    pow_1x: int = 0
    pow_1xy: int = 0


@dataclass(frozen=True)
class ConnectionExpansion:
    source_index: Tuple[int, int, int]
    source_params: Tuple[Fraction, ...]
    target_params: Tuple[Fraction, ...]
    terms: Tuple[ConnectionTerm, ...]

    def reassemble(self) -> MPoly:
        """The sum of coeff * member * (1-x)^p (1-x-y)^q over the terms; the
        members that share a monomial factor are summed before it
        multiplies them, once."""
        parts = {}
        for t in self.terms:
            parts.setdefault((t.pow_1x, t.pow_1xy), []).append((t.index, t.coeff))
        return sum((FAMILY.combination(terms, self.target_params)
                    * (ONE_MINUS_X**p * ONE_MINUS_XY**q)
                    for (p, q), terms in parts.items()), ZERO)

    def report(self, relation: str, row) -> VerificationReport:
        """The judge's report, as `relation` at `row`, on reassembly = source member."""
        return report_equality(relation, self.source_index, row, self.reassemble(),
                               FAMILY.member(self.source_index, self.source_params))


def connect_alpha(idx, p, xi) -> ConnectionExpansion:
    """Expand the member over the family with first parameter xi.

    The sum runs over m = 0..n1, lowering n1 by m; all other parameters are
    untouched.  Each coefficient is a product of three integer-offset gamma
    ratios, a Pochhammer in (alpha - xi), and the telescoping linear factor.
    """
    (n1, n2, n3), params = FAMILY.index(idx), FAMILY.params(p)
    al, e = params[0], params.derive(FAMILY.view).e
    xi = as_rat(xi)
    n = n1 + n2 + n3
    terms = []
    for m in range(n1 + 1):
        poch = pochhammer(al - xi, m)
        if poch == 0 and m > 0:
            continue
        try:
            coeff = (
                Fraction((-1) ** m)
                * (2 * n - 2 * m + e - al + xi + 3)
                * pochhammer(n + n2 + n3 - m + e - al + 3, m)
                * gamma_ratio(n + n2 + n3 + e + 3, n1 - m)
                * gamma_ratio(2 * n - m + e - al + xi + 4, -(n1 + 1))
                * poch
                / factorial(m)
            )
        except PoleHit as exc:
            raise PoleHit(f"alpha connection coefficient of {n1},{n2},{n3} on "
                          f"{n1 - m},{n2},{n3}: {exc}") from exc
        if coeff != 0:
            terms.append(ConnectionTerm((n1 - m, n2, n3), coeff))
    target_params = as_tuple((xi,) + params[1:], 6)
    return ConnectionExpansion((n1, n2, n3), params, target_params, tuple(terms))


def _conn1d_coeff(n, k, pa, pb, qa, qb) -> Fraction:
    """Coefficient of the degree-k target in the expansion of a degree-n
    Jacobi factor with parameters (pa, pb) over the family (qa, qb):

        (k+pa+1)_(n-k) (n+pa+pb+1)_k / ((n-k)! (k+qa+qb+1)_k)
          * 3F2(k-n, n+k+pa+pb+1, k+qa+1; 2k+qa+qb+2, k+pa+1; 1).

    Over the common denominator den of the four parameters every argument
    is an integer over den, so the value is built on integers and made a
    Fraction once."""
    pa, pb, qa, qb, den = over_lcm(pa, pb, qa, qb)
    lower = den ** (n - k) * math.factorial(n - k) * _rising(k * den + qa + qb + den, den, k)
    if lower == 0:
        raise PoleHit(f"connection coefficient pole: (k+qa+qb+1)_k = 0 at k={k}, "
                      f"qa+qb={Fraction(qa + qb, den)}")
    upper = _rising(k * den + pa + den, den, n - k) * _rising(n * den + pa + pb + den, den, k)
    f32_num, f32_den = _hyper3f2_integers(
        n - k,
        (n + k + 1) * den + pa + pb,
        (k + 1) * den + qa,
        (2 * k + 2) * den + qa + qb,
        (k + 1) * den + pa,
        den,
    )
    return Fraction(upper * f32_num, lower * f32_den)


def connect_general(idx, p, target) -> ConnectionExpansion:
    """Expand the member over a family with all four leading parameters
    replaced by (phi, theta, eta, xi); the auxiliary (a, b) are shared.

    The triple sum runs over componentwise-lower indices, and targets carry
    the compensating (1-x)^(n2-k2) (1-x-y)^(n3-k3) monomial factors.
    """
    (n1, n2, n3), params = FAMILY.index(idx), FAMILY.params(p)
    phi, theta, eta, xi = as_tuple(target, 4)
    target_params = as_tuple((phi, theta, eta, xi) + params[4:], 6)
    source = [(big_a + 2 * s, big_b) for (big_a, big_b), s
              in zip(axes(*params), later_sums((n1, n2, n3)))]
    target_axes = axes(*target_params)
    terms = []
    for k3 in range(n3 + 1):
        c3 = _conn1d_coeff(n3, k3, *source[2], *target_axes[2])
        if c3 == 0:
            continue
        for k2 in range(n2 + 1):
            target = [(big_a + 2 * s, big_b) for (big_a, big_b), s
                      in zip(target_axes, later_sums((0, k2, k3)))]
            c2 = _conn1d_coeff(n2, k2, *source[1], *target[1])
            if c2 == 0:
                continue
            for k1 in range(n1 + 1):
                coeff = _conn1d_coeff(n1, k1, *source[0], *target[0]) * c2 * c3
                if coeff != 0:
                    terms.append(
                        ConnectionTerm((k1, k2, k3), coeff, n2 - k2, n3 - k3)
                    )
    return ConnectionExpansion((n1, n2, n3), params, target_params, tuple(terms))


# ---------------------------------------------------------------------------
# Three-term recurrence in x.
# ---------------------------------------------------------------------------

def three_term_x(idx, p) -> Tuple[Fraction, Fraction, Fraction]:
    """(A, B, C) with x*P(n1) = A*P(n1+1) + B*P(n1) + C*P(n1-1).

    The C coefficient multiplies the zero polynomial when n1 = 0.  Raises
    PoleHit if a structural denominator e+2n+2..e+2n+4 vanishes (possible
    for parameter sums <= -2 even inside the orthogonality regime).
    """
    (n1, n2, n3), params = FAMILY.index(idx), FAMILY.params(p)
    al, e = params[0], params.derive(FAMILY.view).e
    n = n1 + n2 + n3
    for v in (e + 2 * n + 2, e + 2 * n + 3, e + 2 * n + 4):
        if v == 0:
            raise PoleHit(f"three-term denominator vanishes: e+2n in {{-2,-3,-4}} at e={e}, n={n}")
    coeff_up = Fraction((n1 + 1) * (e + n + n2 + n3 + 3)) / ((e + 2 * n + 3) * (e + 2 * n + 4))
    coeff_mid = ((al + 2 * n1 + 1) * (e + 2 * n + 2) - 2 * n1 * (al + n1)) / (
        (e + 2 * n + 2) * (e + 2 * n + 4)
    )
    coeff_down = ((n + n2 + n3 + e - al + 2) * (al + n1)) / (
        (e + 2 * n + 2) * (e + 2 * n + 3)
    )
    return coeff_up, coeff_mid, coeff_down


def verify_three_term(idx, p) -> VerificationReport:
    idx, params = FAMILY.index(idx), FAMILY.params(p)
    n1, n2, n3 = idx
    ca, cb, cc = three_term_x(idx, params)
    rhs = FAMILY.combination(
        (((n1 + 1, n2, n3), ca), (idx, cb), ((n1 - 1, n2, n3), cc)), params)
    return report_equality("three-term.x", idx, params, X * FAMILY.member(idx, params), rhs)


# ---------------------------------------------------------------------------
# Identities for the classical (a = b = 0) subfamily: derivatives, weighted
# derivatives, and multiplication by x, y, z, w, one Corollary per line.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Corollary:
    """One identity at the member u = P(idx; q, 0, 0), q = (al, be, ga, de).

    lhs(u, *idx, p) equals the sum of coeff times the member at
    (idx + dn, q + dparams) over the (dn, coeff) pairs of terms(*idx, p),
    where p is the view of the row (q, 0, 0); a member outside the index
    domain is zero.  The two sides are transcribed from the paper
    separately, so a typo in either fails it.
    """

    lhs: Callable
    dparams: Tuple[int, int, int, int]
    terms: Callable


def _dx_dy(u: MPoly) -> MPoly:
    return u.diff("x") - u.diff("y")


DERIVATIVES = {
    "dx-dy": Corollary(
        lambda u, n1, n2, n3, p: _dx_dy(u).scale(2 * n2 + 2 * n3 + p.be + p.ga + p.de + 2),
        (+1, +1, 0, 0),
        lambda n1, n2, n3, p: (
            ((-1, 0, 0), (n2 + 2 * n3 + p.be + p.ga + p.de + 2)
             * ((n1 + n2 + n3) + n2 + n3 + (p.al + p.be + p.ga + p.de) + 3)),
            ((0, -1, 0), -(n1 + 2 * n2 + 2 * n3 + p.be + p.ga + p.de + 2)
             * (n2 + 2 * n3 + p.ga + p.de + 1)))),
    "dz-dy": Corollary(
        lambda u, n1, n2, n3, p: (u.diff("z") - u.diff("y")).scale(2 * n3 + p.ga + p.de + 1),
        (0, +1, +1, 0),
        lambda n1, n2, n3, p: (
            ((0, 0, -1), (n3 + p.de) * (n2 + 2 * n3 + p.ga + p.de + 1)),
            ((0, -1, 0), -(n2 + 2 * n3 + p.be + p.ga + p.de + 2) * (n3 + p.ga + p.de + 1)))),
    "dz": Corollary(
        lambda u, n1, n2, n3, p: u.diff("z"), (0, 0, +1, +1),
        lambda n1, n2, n3, p: (((0, 0, -1), n3 + p.ga + p.de + 1),)),
    "dz.dx-dy": Corollary(
        lambda u, n1, n2, n3, p:
        _dx_dy(u).diff("z").scale(2 * n2 + 2 * n3 + p.be + p.ga + p.de + 2),
        (+1, +1, +1, +1),
        lambda n1, n2, n3, p: (
            ((-1, 0, -1), (n2 + 2 * n3 + p.be + p.ga + p.de + 2)
             * ((n1 + n2 + n3) + n2 + n3 + (p.al + p.be + p.ga + p.de) + 3)
             * (n3 + p.ga + p.de + 1)),
            ((0, -1, -1), -(n1 + 2 * n2 + 2 * n3 + p.be + p.ga + p.de + 2)
             * (n2 + 2 * n3 + p.ga + p.de + 1) * (n3 + p.ga + p.de + 1)))),
}


# Derivatives of the fully weighted member in weight-cleared form: pulling
# x^al y^be z^ga w^de through the derivative leaves a rational operator, and
# multiplying by the minimal monomial in {x, y, z, w} clears it exactly.

def _xy_weighted(u: MPoly, p) -> MPoly:
    # x*y*(d/dx - d/dy)(x^al y^be w^de u) / (x^(al-1) y^(be-1) w^de)
    return XY * _dx_dy(u) + (Y.scale(p.al) - X.scale(p.be)) * u


def _zw_weighted(u: MPoly, p) -> MPoly:
    # z*w*d/dz(z^ga w^de u) / (z^(ga-1) w^(de-1))
    return _ZW * u.diff("z") + (_W.scale(p.ga) - Z.scale(p.de)) * u


WEIGHTED = {
    "dx-dy": Corollary(
        lambda u, n1, n2, n3, p:
        _xy_weighted(u, p).scale(2 * n2 + 2 * n3 + p.be + p.ga + p.de + 2),
        (-1, -1, 0, 0),
        lambda n1, n2, n3, p: (
            ((0, +1, 0), (n1 + p.al) * (n2 + 1)), ((+1, 0, 0), -(n1 + 1) * (n2 + p.be)))),
    "dz-dy": Corollary(
        lambda u, n1, n2, n3, p: (
            _YZ * (u.diff("z") - u.diff("y")) + (Y.scale(p.ga) - Z.scale(p.be)) * u
        ).scale(2 * n3 + p.ga + p.de + 1),
        (0, -1, -1, 0),
        lambda n1, n2, n3, p: (
            ((0, 0, +1), -(n2 + p.be) * (n3 + 1)), ((0, +1, 0), (n2 + 1) * (n3 + p.ga)))),
    "dz": Corollary(
        lambda u, n1, n2, n3, p: _zw_weighted(u, p), (0, 0, -1, -1),
        lambda n1, n2, n3, p: (((0, 0, +1), -(n3 + 1)),)),
    "dz.dx-dy": Corollary(
        lambda u, n1, n2, n3, p:
        _zw_weighted(_xy_weighted(u, p), p).scale(2 * n2 + 2 * n3 + p.be + p.ga + p.de + 2),
        (-1, -1, -1, -1),
        lambda n1, n2, n3, p: (
            ((0, +1, +1), -(n1 + p.al) * (n2 + 1) * (n3 + 1)),
            ((+1, 0, +1), (n1 + 1) * (n2 + p.be) * (n3 + 1)))),
}


def _f123(n1, n2, n3, p):
    """f1*f2*f3, the left-hand scale of the z and w multiplications."""
    return ((2 * (n1 + n2 + n3) + (p.al + p.be + p.ga + p.de) + 3)
            * (2 * n2 + 2 * n3 + p.be + p.ga + p.de + 2) * (p.ga + p.de + 2 * n3 + 1))


def _gh(n1, n2, n3, p):
    """The shorthands g1, g2, h1, h2 of the z and w multiplications."""
    n = n1 + n2 + n3
    return (n + n2 + n3 + p.be + p.ga + p.de + 2, n + n2 + n3 + (p.al + p.be + p.ga + p.de) + 3,
            n2 + 2 * n3 + p.ga + p.de + 1, n2 + 2 * n3 + p.be + p.ga + p.de + 2)


def _mult_z_terms(n1, n2, n3, p):
    g1, g2, h1, h2 = _gh(n1, n2, n3, p)
    return (
        ((0, 0, 0), g1 * h1 * (n3 + p.ga)), ((+1, 0, 0), -(n1 + 1) * h1 * (n3 + p.ga)),
        ((0, +1, 0), -g2 * (n2 + 1) * (n3 + p.ga)),
        ((-1, +1, 0), (n1 + p.al) * (n2 + 1) * (n3 + p.ga)),
        ((0, 0, +1), g2 * h2 * (n3 + 1)), ((-1, 0, +1), -(n1 + p.al) * h2 * (n3 + 1)),
        ((0, -1, +1), -g1 * (n2 + p.be) * (n3 + 1)),
        ((+1, -1, +1), (n1 + 1) * (n2 + p.be) * (n3 + 1)))


def _mult_w_terms(n1, n2, n3, p):
    g1, g2, h1, h2 = _gh(n1, n2, n3, p)
    return (
        ((0, 0, +1), -g2 * h2 * (n3 + 1)), ((-1, 0, +1), (n1 + p.al) * h2 * (n3 + 1)),
        ((0, -1, +1), g1 * (n2 + p.be) * (n3 + 1)),
        ((+1, -1, +1), -(n1 + 1) * (n2 + p.be) * (n3 + 1)),
        ((0, 0, 0), g1 * h1 * (n3 + p.de)), ((+1, 0, 0), -(n1 + 1) * h1 * (n3 + p.de)),
        ((0, +1, 0), -g2 * (n2 + 1) * (n3 + p.de)),
        ((-1, +1, 0), (n1 + p.al) * (n2 + 1) * (n3 + p.de)))


MULTIPLICATIONS = {
    "x": Corollary(
        lambda u, n1, n2, n3, p:
        (X * u).scale(2 * (n1 + n2 + n3) + (p.al + p.be + p.ga + p.de) + 3),
        (-1, 0, 0, 0),
        lambda n1, n2, n3, p: (((0, 0, 0), n1 + p.al), ((+1, 0, 0), n1 + 1))),
    "y": Corollary(
        lambda u, n1, n2, n3, p: (Y * u).scale(
            (2 * (n1 + n2 + n3) + (p.al + p.be + p.ga + p.de) + 3)
            * (2 * n2 + 2 * n3 + p.be + p.ga + p.de + 2)),
        (0, -1, 0, 0),
        lambda n1, n2, n3, p: (
            ((0, 0, 0), ((n1 + n2 + n3) + n2 + n3 + p.be + p.ga + p.de + 2) * (n2 + p.be)),
            ((0, +1, 0), ((n1 + n2 + n3) + n2 + n3 + (p.al + p.be + p.ga + p.de) + 3) * (n2 + 1)),
            ((+1, 0, 0), -(n1 + 1) * (n2 + p.be)), ((-1, +1, 0), -(n1 + p.al) * (n2 + 1)))),
    "z": Corollary(lambda u, n1, n2, n3, p: (Z * u).scale(_f123(n1, n2, n3, p)),
                   (0, 0, -1, 0), _mult_z_terms),
    "w": Corollary(lambda u, n1, n2, n3, p: (_W * u).scale(_f123(n1, n2, n3, p)),
                   (0, 0, 0, -1), _mult_w_terms),
}

def verify_corollary(kind: str, table: dict, which: str, idx, fourparams) -> VerificationReport:
    """Check one corollary line at the a = b = 0 member (idx, fourparams),
    reported as corollary.<kind>.<which>."""
    idx, q = FAMILY.index(idx), as_tuple(fourparams, 4)
    line = table[which]
    params = q.derive(_ab0)
    p = params.derive(FAMILY.view)
    lhs = line.lhs(FAMILY.member(idx, params), *idx, p)
    rhs = FAMILY.combination(((tuple(map(add, idx, dn)), coeff)
                              for dn, coeff in line.terms(*idx, p)),
                             q.shift(line.dparams).derive(_ab0))
    return report_equality(f"corollary.{kind}.{which}", idx, q, lhs, rhs)


# verify_corollary_derivatives(which, idx, fourparams), and likewise the
# weighted derivatives and the multiplications.
verify_corollary_derivatives = partial(verify_corollary, "deriv", DERIVATIVES)
verify_corollary_weighted = partial(verify_corollary, "weighted", WEIGHTED)
verify_corollary_multiplication = partial(verify_corollary, "mult", MULTIPLICATIONS)


def indices(max_degree: int):
    """All (n1, n2, n3) with n1+n2+n3 <= max_degree, by total degree, then
    n1, then n2."""
    return [
        (n1, n2, n - n1 - n2)
        for n in range(max_degree + 1)
        for n1 in range(n + 1)
        for n2 in range(n - n1 + 1)
    ]


FAMILY = Family(
    names=("alpha", "beta", "gamma", "delta", "a", "b"),
    view=Params,
    index=lambda idx: as_tuple(idx, 3, index),
    axes=axes,
    indices=indices,
    sparse=THEOREM1,
    second_order=SECOND_ORDER_3D,
    pde=PDE_3D,
    # The monic solution of the fourth equation, prefactor * y^n2 z^n3 P(n1).
    monic=("T4", monic_prefactor),
)

# verify_theorem1(op, idx, p), verify_second_order_3d(entry_id, idx, p),
# pde_residual_3d(which, idx, p, u=None) and monic_simplex(idx, p).
verify_theorem1 = partial(verify_sparse, FAMILY)
verify_second_order_3d = partial(verify_composition, FAMILY)
pde_residual_3d = partial(residual, FAMILY)
monic_simplex = FAMILY.monic_solution
