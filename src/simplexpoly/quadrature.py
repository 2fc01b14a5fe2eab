"""Gauss-Jacobi quadrature on (0, 1) and collapsed tensor rules on the
triangle and tetrahedron.

Everything here is floating point; it exists to confirm orthogonality and
absolute norm constants numerically, complementing the exact algebra in
the family modules.  A rule's nodes are the eigenvalues of the symmetric
tridiagonal recurrence matrix (Golub & Welsch 1969) and its weights are the
Christoffel numbers 1 / sum_k q_k(x_i)^2 of the same orthonormal recurrence
(Gautschi 2004, sec. 3.1), which keep their relative accuracy where a
weight is tiny, as near an end point with a large exponent.  On the
simplices the weight factorizes exactly through the collapsed substitution

    x = u,  y = v (1 - u),  z = t (1 - u) (1 - v),

whose Jacobian (1-u)^2 (1-v) is absorbed into the one-dimensional Jacobi
exponents, so a tensor rule is exact for weighted polynomial integrands up
to the tensor order.

Gram matrices never expand a member into monomials.  Each member is a
product of shifted Jacobi factors in the collapsed coordinates, for the
tetrahedron

    p_{n1}(u) (1-u)^{n2+n3} . p_{n2}(v) (1-v)^{n3} . p_{n3}(t)

(Koornwinder 1975, Dubiner 1991), so the factors are evaluated at the
rule's nodes by the orthonormal three-term recurrence and the weighted
sum over the tensor rule splits into one small Gram matrix per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Tuple

import numpy as np

from . import simplex3d, triangle2d
from .jacobi1d import collapsed_exponents, collapsed_norm, h_absolute
from .operators import as_tuple
from .special import pochhammer


class ConvergenceFailure(RuntimeError):
    """The symmetric tridiagonal eigensolver did not converge."""


@dataclass(frozen=True)
class QuadRule1D:
    """Nodes/weights on (0, 1) for the weight (1-x)^a x^b; exact through
    polynomial degree 2m-1 for m points."""

    nodes: np.ndarray
    weights: np.ndarray
    a: float
    b: float

    @property
    def exactness_degree(self) -> int:
        return 2 * len(self.nodes) - 1


def jacobi_recurrence(m: int, a: float, b: float):
    """Orthonormal recurrence coefficients (diag, off) of the weight
    (1-x)^a x^b on (0, 1), in the variable t = 2x - 1:

        t q_n = off[n+1] q_{n+1} + diag[n] q_n + off[n] q_{n-1},

    for n < m; diag has m entries, off has m + 1 and off[0] = 0.  These are
    the classical Jacobi coefficients mapped from (-1, 1).
    """
    diag = np.zeros(m)
    off_sq = np.zeros(m + 1)
    apb = a + b
    if m:
        diag[0] = (b - a) / (apb + 2)
    for i in range(1, m + 1):
        s = 2 * i + apb
        if i < m:
            diag[i] = (b * b - a * a) / (s * (s + 2))
        # (i + apb) / (s - 1) is 1 at i = 1 for every a, b; taking it as 1
        # there avoids 0/0 when a + b = -1.
        ratio = (i + apb) / (s - 1) if i > 1 else 1.0
        off_sq[i] = 4 * i * (i + a) * (i + b) * ratio / (s * s * (s + 1))
    return diag, np.sqrt(off_sq)


def gauss_jacobi_01(m: int, a, b) -> QuadRule1D:
    """m-point Gauss rule for the weight (1-x)^a x^b on (0, 1).

    The nodes are the eigenvalues of the `jacobi_recurrence` matrix, in
    ascending order; each weight is the Christoffel number
    1 / sum_{k<m} q_k(x_i)^2 of the orthonormal `jacobi_orthonormal`, whose
    q_0 carries the weight's mass B(b+1, a+1).
    """
    if m < 1:
        raise ValueError("rule needs at least one point")
    a = float(a)
    b = float(b)
    if a <= -1 or b <= -1:
        raise ValueError("weight exponents must exceed -1")
    diag, off = jacobi_recurrence(m, a, b)
    jacobi_matrix = np.diag(diag) + np.diag(off[1:m], -1)
    try:
        t = np.linalg.eigvalsh(jacobi_matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc
    nodes = (t + 1.0) / 2.0
    # The q_k overflow only at a node whose weight is below the smallest
    # double (a large exponent and many points): inf - inf leaves nan
    # there, and its weight is 0.
    with np.errstate(over="ignore", invalid="ignore"):
        weights = 1.0 / (jacobi_orthonormal(m - 1, a, b, nodes) ** 2).sum(axis=0)
    weights[np.isnan(weights)] = 0.0
    return QuadRule1D(nodes=nodes, weights=weights, a=a, b=b)


@dataclass(frozen=True)
class SimplexRule:
    """Collapsed tensor rule on the open unit triangle (coordinates x, y) or
    tetrahedron (x, y, z) for a family's weight."""

    coords: Tuple[np.ndarray, ...]
    weights: np.ndarray

    x = property(lambda self: self.coords[0])
    y = property(lambda self: self.coords[1])
    z = property(lambda self: self.coords[2])

    def integrate(self, f) -> float:
        return float(np.sum(self.weights * f(*self.coords)))


#: Collapsed coordinate j, as `gram` names an axis whose weight it refuses.
_COORDINATES = ("x", "y/(1-x)", "z/(1-x-y)")


def _axes(family, params):
    """The collapsed base pairs of the family record at the given
    parameters, as floats.  Refused (ValueError) where an exponent is at or
    below -1: each parameter may exceed -1 and the weight still not be
    integrable along that axis."""
    axes = family.axes(*family.params(params))
    for coordinate, pair in zip(_COORDINATES, axes):
        for exponent in pair:
            if exponent <= -1:
                raise ValueError(f"the weight's exponent {exponent} on axis {coordinate} "
                                 "must exceed -1")
    return [tuple(map(float, pair)) for pair in axes]


def collapsed_rule(family, params, m: int) -> SimplexRule:
    """Tensor product of m-point Gauss rules, one per collapsed axis, mapped
    to x = u, y = v (1 - u), z = t (1 - u) (1 - v)."""
    rules = [gauss_jacobi_01(m, *axis) for axis in _axes(family, params)]
    grid = np.meshgrid(*(r.nodes for r in rules), indexing="ij")
    coords = []
    for j, u in enumerate(grid):
        for earlier in grid[:j]:
            u = u * (1 - earlier)
        coords.append(u.ravel())
    weights = reduce(np.multiply.outer, (r.weights for r in rules))
    return SimplexRule(coords=tuple(coords), weights=weights.ravel())


tetra_rule = partial(collapsed_rule, simplex3d.FAMILY)
triangle_rule = partial(collapsed_rule, triangle2d.FAMILY)


# ---------------------------------------------------------------------------
# Monomial-moment oracles.  Relative moments (against the weight mass) are
# exact rationals for arbitrary rational exponents.
# ---------------------------------------------------------------------------

def _beta_ratio(p: Fraction, q: Fraction, i: int, j: int) -> Fraction:
    # B(p+i, q+j) / B(p, q) for integer shifts.
    return pochhammer(p, i) * pochhammer(q, j) / pochhammer(p + q, i + j)


def tetra_moment_ratio(i: int, j: int, k: int, params) -> Fraction:
    """Exact integral of x^i y^j z^k against the weight, divided by the
    weight mass."""
    alpha, beta, gamma, delta, a, b = as_tuple(params, 6)
    big = beta + gamma + delta + a + b + 3
    return (
        _beta_ratio(alpha + 1, big, i, j + k)
        * _beta_ratio(beta + 1, gamma + delta + b + 2, j, k)
        * _beta_ratio(gamma + 1, delta + 1, k, 0)
    )


def triangle_moment_ratio(i: int, j: int, params) -> Fraction:
    a, b, c, d = as_tuple(params, 4)
    return _beta_ratio(a + 1, b + c + d + 2, i, j) * _beta_ratio(b + 1, c + 1, j, 0)


# ---------------------------------------------------------------------------
# Gram matrices.
# ---------------------------------------------------------------------------

def jacobi_orthonormal(n: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Values at x of q_0..q_n, the Jacobi polynomials on (0, 1) of
    `jacobi1d` scaled to unit norm against (1-x)^a x^b; shape (n+1, len(x)).

    q_k = P(k; a, b) / sqrt(h_absolute(k, a, b)): both have a positive
    leading coefficient for a, b > -1.
    """
    diag, off = jacobi_recurrence(n, a, b)
    t = 2.0 * x - 1.0
    q = np.empty((n + 1, len(x)))
    q[0] = 1.0 / math.sqrt(h_absolute(0, a, b))
    if n > 0:
        q[1] = (t - diag[0]) * q[0] / off[1]
    for k in range(1, n):
        q[k + 1] = ((t - diag[k]) * q[k] - off[k] * q[k - 1]) / off[k + 1]
    return q


def _collapsed_factors(degrees, axes, points, max_degree: int):
    """Per-axis factor values of members in collapsed coordinates.

    Returns one array (len(degrees), len(points[j])) per axis holding each
    member's factor P(d_j; A_j + 2 s_j, B_j)(x_j) (1 - x_j)^{s_j} with unit
    norm, and the members' squared norms (the products of the h_n).  One
    recurrence per axis and per s_j serves every member that shares it.
    """
    factors = [np.empty((len(degrees), len(x))) for x in points]
    norms = np.ones(len(degrees))
    for j, x in enumerate(points):
        ladder = {}
        for i, d in enumerate(degrees):
            s = sum(d[j + 1:])
            if s not in ladder:
                big_a, big_b = collapsed_exponents(axes, d)[j]
                top = max_degree - s
                ladder[s] = (
                    jacobi_orthonormal(top, big_a, big_b, x) * (1.0 - x) ** s,
                    [h_absolute(n, big_a, big_b) for n in range(top + 1)],
                )
            values, h = ladder[s]
            factors[j][i] = values[d[j]]
            norms[i] *= h[d[j]]
    return factors, norms


def _members(family, max_degree: int):
    """Sorted indices of the members of total degree <= max_degree, and
    their per-axis degrees."""
    idxs = sorted(family.indices(max_degree))
    return idxs, [family.degrees(*idx) for idx in idxs]


def collapsed_gram(family, max_degree: int, params, points: int = None):
    """Weighted Gram matrix of all members with total degree <= max_degree.

    Returns (indices, matrix).  Member values and tensor weights are
    products over the axes, so the weighted sum over the rule's nodes is the
    entrywise product of one Gram matrix per axis.  With unit-norm factors
    each of these has a unit diagonal, so no entry grows with the degree or
    the parameters; the members' norms are multiplied back in at the end.
    The default rule order integrates products of two members exactly.
    """
    idxs, degrees = _members(family, max_degree)
    axes = _axes(family, params)
    m = max_degree + 1 if points is None else points
    rules = [gauss_jacobi_01(m, *axis) for axis in axes]
    factors, norms = _collapsed_factors(degrees, axes, [r.nodes for r in rules], max_degree)
    gram = np.ones((len(degrees), len(degrees)))
    for f, rule in zip(factors, rules):
        gram *= (f * rule.weights) @ f.T
    scale = np.sqrt(norms)
    return idxs, gram * np.outer(scale, scale)


def collapsed_values(family, max_degree: int, params, *coords):
    """(indices, values): every member of total degree <= max_degree at the
    interior points with Cartesian coordinates `coords`, evaluated factor by
    factor in collapsed coordinates; values has one row per member and one
    column per point.
    """
    idxs, degrees = _members(family, max_degree)
    points, rest = [], 1.0
    for c in coords:
        c = np.asarray(c, dtype=float)
        points.append(c / rest)
        rest = rest - c
    factors, norms = _collapsed_factors(degrees, _axes(family, params), points, max_degree)
    return idxs, np.prod(factors, axis=0) * np.sqrt(norms)[:, None]


gram_matrix = partial(collapsed_gram, simplex3d.FAMILY)
gram_matrix_triangle = partial(collapsed_gram, triangle2d.FAMILY)


def expected_gram_diagonal(family, indices, params) -> np.ndarray:
    """Float squared norms of the family's members at `indices` from the
    interval-norm product formula."""
    axes = family.axes(*family.params(params))
    return np.array([collapsed_norm(axes, family.degrees(*idx)) for idx in indices])


def gram_offdiag_max(indices, gram: np.ndarray) -> float:
    """Largest off-diagonal entry normalized by sqrt(diag_i diag_j).

    A zero diagonal entry (a rule too short to see a member, whose nodes
    are then that member's roots) leaves 0/0; it reads as inf, so the
    matrix fails every bound.
    """
    d = np.sqrt(np.abs(np.diag(gram)))
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.abs(gram) / np.outer(d, d)
    np.fill_diagonal(scaled, 0.0)
    return float(np.nan_to_num(scaled, nan=np.inf).max()) if len(indices) > 1 else 0.0
