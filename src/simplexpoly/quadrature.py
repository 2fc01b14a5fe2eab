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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from . import simplex3d, triangle2d
from .operators import as_tuple
from .special import pochhammer
from .triangle2d import triangle_poly_raw
from .simplex3d import simplex_poly_raw


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


def gauss_jacobi_01(m: int, a, b) -> QuadRule1D:
    """m-point Gauss rule for the weight (1-x)^a x^b on (0, 1).

    Recurrence coefficients are the classical Jacobi ones mapped from
    (-1, 1); the weight scale is the total mass B(b+1, a+1).
    """
    if m < 1:
        raise ValueError("rule needs at least one point")
    a = float(a)
    b = float(b)
    if a <= -1 or b <= -1:
        raise ValueError("weight exponents must exceed -1")
    diag = np.zeros(m)
    offdiag_sq = np.zeros(m)
    apb = a + b
    diag[0] = (b - a) / (apb + 2)
    for i in range(1, m):
        s = 2 * i + apb
        diag[i] = (b * b - a * a) / (s * (s + 2))
        # (i + apb) / (s - 1) is 1 at i = 1 for every a, b; taking it as 1
        # there avoids 0/0 when a + b = -1.
        ratio = (i + apb) / (s - 1) if i > 1 else 1.0
        offdiag_sq[i] = 4 * i * (i + a) * (i + b) * ratio / (s * s * (s + 1))
    jacobi_matrix = np.diag(diag) + np.diag(np.sqrt(offdiag_sq[1:]), -1)
    try:
        eigvals, eigvecs = np.linalg.eigh(jacobi_matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc
    order = np.argsort(eigvals)
    t = eigvals[order]
    first_row = eigvecs[0, order]
    mass = math.exp(math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(apb + 2))
    weights = mass * first_row**2
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


def triangle_rule(params, m: int) -> TriangleRule:
    a, b, c, d = (float(v) for v in as_tuple(params, 4))
    ru = gauss_jacobi_01(m, b + c + d + 1, a)
    rv = gauss_jacobi_01(m, c, b)
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


def tetra_rule(params, m: int) -> SimplexRule:
    alpha, beta, gamma, delta, a, b = (float(v) for v in as_tuple(params, 6))
    ru = gauss_jacobi_01(m, beta + gamma + delta + a + b + 2, alpha)
    rv = gauss_jacobi_01(m, gamma + delta + b + 1, beta)
    rt = gauss_jacobi_01(m, delta, gamma)
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


def _gram(members, coords, weights) -> np.ndarray:
    """Weighted Gram matrix of the members' values at the rule's nodes."""
    basis = np.stack([m.eval_float(*coords) for m in members])
    weighted = basis * weights[None, :]
    return weighted @ basis.T


def gram_matrix(max_degree: int, params, rule: SimplexRule = None, points: int = None):
    """Weighted Gram matrix of all members with total degree <= max_degree.

    Returns (indices, matrix).  The default rule order integrates products
    of two members exactly.
    """
    vals = as_tuple(params, 6)
    if rule is None:
        rule = tetra_rule(vals, max_degree + 1 if points is None else points)
    idxs = simplex_indices(max_degree)
    members = (simplex_poly_raw(*idx, *vals) for idx in idxs)
    return idxs, _gram(members, (rule.x, rule.y, rule.z), rule.weights)


def gram_matrix_triangle(max_degree: int, params, points: int = None):
    vals = as_tuple(params, 4)
    rule = triangle_rule(vals, max_degree + 1 if points is None else points)
    idxs = triangle2d.indices(max_degree)
    members = (triangle_poly_raw(*idx, *vals) for idx in idxs)
    return idxs, _gram(members, (rule.x, rule.y), rule.weights)


def expected_gram_diagonal(indices, params) -> np.ndarray:
    """Float norms from the interval-norm product formula."""
    from .simplex3d import simplex_norm

    return np.array([simplex_norm(idx, params)[1] for idx in indices])


def gram_offdiag_max(indices, gram: np.ndarray) -> float:
    """Largest off-diagonal entry normalized by sqrt(diag_i diag_j)."""
    d = np.sqrt(np.abs(np.diag(gram)))
    scaled = np.abs(gram) / np.outer(d, d)
    np.fill_diagonal(scaled, 0.0)
    return float(scaled.max()) if len(indices) > 1 else 0.0
