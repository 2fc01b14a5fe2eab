"""Gauss-Jacobi quadrature on (0, 1) and collapsed tensor rules on the
triangle and tetrahedron.

Everything here is floating point; it exists to confirm orthogonality and
absolute norm constants numerically, complementing the exact algebra in
the family modules.  Rules are built by the Golub-Welsch eigenvalue method
from the symmetric tridiagonal recurrence matrix.  On the simplices the
weight factorizes exactly through the collapsed substitution

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
from typing import List, Tuple

import numpy as np

from . import simplex3d, triangle2d
from .jacobi1d import h_absolute
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

    Golub-Welsch on `jacobi_recurrence`; the weight scale is the total mass
    B(b+1, a+1).
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
        eigvals, eigvecs = np.linalg.eigh(jacobi_matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc
    order = np.argsort(eigvals)
    t = eigvals[order]
    first_row = eigvecs[0, order]
    weights = h_absolute(0, a, b) * first_row**2
    nodes = (t + 1.0) / 2.0
    return QuadRule1D(nodes=nodes, weights=weights, a=a, b=b)


@dataclass(frozen=True)
class TriangleRule:
    """Collapsed tensor rule on {x, y > 0, x + y < 1} for the weight
    x^a y^b (1-x-y)^c (1-x)^d."""

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray

    def integrate(self, f) -> float:
        return float(np.sum(self.weights * f(self.x, self.y)))


def _triangle_axes(params):
    """Jacobi exponent pairs of the collapsed weight, u then v."""
    a, b, c, d = (float(v) for v in as_tuple(params, 4))
    return ((b + c + d + 1, a), (c, b))


def triangle_rule(params, m: int) -> TriangleRule:
    ru, rv = (gauss_jacobi_01(m, *axis) for axis in _triangle_axes(params))
    u = ru.nodes[:, None]
    v = rv.nodes[None, :]
    w = ru.weights[:, None] * rv.weights[None, :]
    x = np.broadcast_to(u, w.shape).ravel()
    y = (v * (1 - u)).ravel()
    return TriangleRule(x=x, y=y, weights=w.ravel())


@dataclass(frozen=True)
class SimplexRule:
    """Collapsed tensor rule on the open unit tetrahedron for the weight
    x^alpha y^beta z^gamma (1-x-y-z)^delta (1-x)^a (1-x-y)^b."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    weights: np.ndarray

    def integrate(self, f) -> float:
        return float(np.sum(self.weights * f(self.x, self.y, self.z)))


def _tetra_axes(params):
    """Jacobi exponent pairs of the collapsed weight, u, v then t."""
    alpha, beta, gamma, delta, a, b = (float(v) for v in as_tuple(params, 6))
    return ((beta + gamma + delta + a + b + 2, alpha), (gamma + delta + b + 1, beta),
            (delta, gamma))


def tetra_rule(params, m: int) -> SimplexRule:
    ru, rv, rt = (gauss_jacobi_01(m, *axis) for axis in _tetra_axes(params))
    u = ru.nodes[:, None, None]
    v = rv.nodes[None, :, None]
    t = rt.nodes[None, None, :]
    w = (
        ru.weights[:, None, None]
        * rv.weights[None, :, None]
        * rt.weights[None, None, :]
    )
    shape = w.shape
    x = np.broadcast_to(u, shape).ravel()
    y = np.broadcast_to(v * (1 - u), shape).ravel()
    z = (t * (1 - u) * (1 - v)).ravel()
    return SimplexRule(x=x, y=y, z=z, weights=w.ravel())


# ---------------------------------------------------------------------------
# Monomial-moment oracles.  Relative moments (against the weight mass) are
# exact rationals for arbitrary rational exponents; absolute values go
# through log-gamma.
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


def _log_beta(p: float, q: float) -> float:
    return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)


def tetra_mass(params) -> float:
    """Float integral of the weight over the tetrahedron."""
    alpha, beta, gamma, delta, a, b = (float(v) for v in as_tuple(params, 6))
    return math.exp(
        _log_beta(alpha + 1, beta + gamma + delta + a + b + 3)
        + _log_beta(beta + 1, gamma + delta + b + 2)
        + _log_beta(gamma + 1, delta + 1)
    )


def triangle_mass(params) -> float:
    a, b, c, d = (float(v) for v in as_tuple(params, 4))
    return math.exp(_log_beta(a + 1, b + c + d + 2) + _log_beta(b + 1, c + 1))


def tetra_moment(i: int, j: int, k: int, params) -> float:
    return float(tetra_moment_ratio(i, j, k, params)) * tetra_mass(params)


# ---------------------------------------------------------------------------
# Gram matrices.
# ---------------------------------------------------------------------------

def simplex_indices(max_degree: int) -> List[Tuple[int, int, int]]:
    """All (n1, n2, n3) with n1+n2+n3 <= max_degree, in sorted order."""
    return sorted(simplex3d.indices(max_degree))


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

    A member with per-axis degrees (d_0, d_1, ...) is the product over
    axes j of P(d_j; A_j + 2 s_j, B_j)(x_j) (1 - x_j)^{s_j}, where (A_j,
    B_j) = axes[j] and s_j = d_{j+1} + d_{j+2} + ...  Returns one array
    (len(degrees), len(points[j])) per axis holding the factors with unit
    norm, and the members' squared norms (the products of the h_n).
    """
    factors = [np.empty((len(degrees), len(x))) for x in points]
    norms = np.ones(len(degrees))
    for j, ((big_a, big_b), x) in enumerate(zip(axes, points)):
        ladder = {}
        for i, d in enumerate(degrees):
            s = sum(d[j + 1:])
            if s not in ladder:
                top = max_degree - s
                ladder[s] = (
                    jacobi_orthonormal(top, big_a + 2 * s, big_b, x) * (1.0 - x) ** s,
                    [h_absolute(n, big_a + 2 * s, big_b) for n in range(top + 1)],
                )
            values, h = ladder[s]
            factors[j][i] = values[d[j]]
            norms[i] *= h[d[j]]
    return factors, norms


def _collapsed_gram(degrees, axes, max_degree: int, points) -> np.ndarray:
    """Gram matrix of the members on the tensor Gauss rule.

    Member values and tensor weights are products over the axes, so the
    weighted sum over the rule's nodes is the entrywise product of one
    Gram matrix per axis.  With unit-norm factors each of these has a unit
    diagonal, so no entry grows with the degree or the parameters; the
    members' norms are multiplied back in at the end.
    """
    m = max_degree + 1 if points is None else points
    rules = [gauss_jacobi_01(m, *axis) for axis in axes]
    factors, norms = _collapsed_factors(degrees, axes, [r.nodes for r in rules], max_degree)
    gram = np.ones((len(degrees), len(degrees)))
    for f, rule in zip(factors, rules):
        gram *= (f * rule.weights) @ f.T
    scale = np.sqrt(norms)
    return gram * np.outer(scale, scale)


def gram_matrix(max_degree: int, params, points: int = None):
    """Weighted Gram matrix of all members with total degree <= max_degree.

    Returns (indices, matrix).  The default rule order integrates products
    of two members exactly.
    """
    idxs = simplex_indices(max_degree)
    return idxs, _collapsed_gram(idxs, _tetra_axes(params), max_degree, points)


def gram_matrix_triangle(max_degree: int, params, points: int = None):
    idxs = triangle2d.indices(max_degree)
    degrees = [(n - k, k) for n, k in idxs]
    return idxs, _collapsed_gram(degrees, _triangle_axes(params), max_degree, points)


def tetra_values(max_degree: int, params, x, y, z):
    """(indices, values): every member of total degree <= max_degree at the
    interior points (x, y, z), evaluated factor by factor in collapsed
    coordinates; values has shape (len(indices), len(x))."""
    idxs = simplex_indices(max_degree)
    x, y, z = (np.asarray(c, dtype=float) for c in (x, y, z))
    points = (x, y / (1 - x), z / (1 - x - y))
    factors, norms = _collapsed_factors(idxs, _tetra_axes(params), points, max_degree)
    return idxs, np.prod(factors, axis=0) * np.sqrt(norms)[:, None]


def triangle_values(max_degree: int, params, x, y):
    """(indices, values) as `tetra_values`, for the triangle family."""
    idxs = triangle2d.indices(max_degree)
    x, y = (np.asarray(c, dtype=float) for c in (x, y))
    degrees = [(n - k, k) for n, k in idxs]
    factors, norms = _collapsed_factors(degrees, _triangle_axes(params), (x, y / (1 - x)),
                                        max_degree)
    return idxs, np.prod(factors, axis=0) * np.sqrt(norms)[:, None]


def expected_gram_diagonal(indices, params) -> np.ndarray:
    """Float norms from the interval-norm product formula."""
    from .simplex3d import simplex_norm

    return np.array([simplex_norm(idx, params)[1] for idx in indices])


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
