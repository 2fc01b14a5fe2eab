"""Gauss-Jacobi quadrature on (0, 1) and collapsed tensor rules on the
triangle and tetrahedron.

Everything here is floating point, to confirm orthogonality and norms
numerically beside the family modules' exact algebra, and runs on one
closed-form orthonormal Jacobi recurrence over arrays of exponents.  A
rule's nodes are the eigenvalues of its matrix (Golub & Welsch 1969), its
weights the Christoffel numbers 1 / sum_k q_k(x_i)^2 (Gautschi 2004, sec.
3.1), accurate where a weight is tiny.  On the simplices the weight
factorizes through the collapsed substitution

    x = u,  y = v (1 - u),  z = t (1 - u) (1 - v),

whose Jacobian (1-u)^2 (1-v) is absorbed into the Jacobi exponents, so a
tensor rule is exact for weighted polynomials up to the tensor order.

Gram matrices never expand a member into monomials: it is a product of
shifted Jacobi factors in the collapsed coordinates, on the tetrahedron

    p_{n1}(u) (1-u)^{n2+n3} . p_{n2}(v) (1-v)^{n3} . p_{n3}(t)

(Koornwinder 1975, Dubiner 1991).  One recurrence over the factor rows,
an axis at one sum s of the later degrees, gives each axis's (N + 1)-point
rule (s = 0), exact for products of members of degree <= N, and in one
pass at its nodes every factor and the rule's weights; the sum over the
tensor rule splits into one small Gram matrix per axis, whose entrywise
product fills the one output matrix a block of rows at a time.
`gram_error` reads that matrix against the members' exact norm ratios.
What the weight is, where it is integrable, its mass and those ratios,
the family record states (`Family.integrable_axes`, `mass`,
`norm_ratios`); this module reads them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Tuple

import numpy as np

from . import simplex3d, triangle2d
from .jacobi1d import later_sums, mass


class ConvergenceFailure(RuntimeError):
    """The symmetric tridiagonal eigensolver did not converge."""


# QuadRule1D and gauss_jacobi_01 stay here only because the benchmark's
# tracer binds them; ROADMAP item 19 moves them out.
@dataclass(frozen=True)
class QuadRule1D:
    """Nodes/weights on (0, 1) for the weight (1-x)^a x^b, a row per entry
    of arrays a and b; exact through polynomial degree 2m-1 for m points."""

    nodes: np.ndarray
    weights: np.ndarray


def jacobi_recurrence(m: int, a, b):
    """Closed-form orthonormal recurrence of the weight (1-x)^a x^b on
    (0, 1), the classical Jacobi one mapped from (-1, 1), in t = 2x - 1:

        t q_n = off[n+1] q_{n+1} + diag[n] q_n + off[n] q_{n-1}

    for n < m, with q_n = P(n; a, b) / sqrt(h_n) for `jacobi1d`'s P and
    squared norms h.  Returns (diag, off, h), of m, m + 1 (off[0] = 0) and
    m + 1 entries on the last axis, one recurrence per entry of exponent
    arrays a and b.
    """
    a, b = (np.asarray(v, dtype=float)[..., None] for v in (a, b))
    apb = a + b
    i = np.arange(1, m + 1)
    s = 2 * i + apb
    # (i + apb) / (s - 1) is 1 at i = 1 for every a, b; taking it as 1
    # there avoids 0/0 when a + b = -1.
    num, den = i + apb, s - 1
    num[..., :1] = den[..., :1] = 1.0
    ratio, ab, s1, inner = num / den, (i + a) * (i + b), s + 1, s[..., :-1]
    diag = np.concatenate([(b - a) / (apb + 2), (b * b - a * a) / (inner * (inner + 2))], -1)
    h0 = np.frompyfunc(mass, 2, 1)(a, b).astype(float)
    first = np.zeros(apb.shape)
    return (diag[..., :m], np.concatenate([first, np.sqrt(4 * i * ab * ratio / (s * s * s1))], -1),
            h0 * np.cumprod(np.concatenate([first + 1, ab / (i * s1 * ratio)], -1), -1))


def _evaluate(recurrence, n: int):
    """(x, q, weights) for a `jacobi_recurrence` over exponents of shape
    (..., rows) with more than n entries: x, the (n + 1)-point Gauss nodes
    of each first row; q_0..q_n of every row at those nodes, shape (...,
    rows, n + 1, n + 1); and the Christoffel numbers 1 / sum_k q_k(x)^2 of
    each first row."""
    diag, off, h = recurrence
    jacobi_matrix = np.zeros(diag.shape[:-2] + (n + 1, n + 1))
    k = np.arange(n + 1)
    jacobi_matrix[..., k, k] = diag[..., 0, :n + 1]
    jacobi_matrix[..., k[1:], k[:-1]] = off[..., 0, 1:n + 1]
    try:
        x = (np.linalg.eigvalsh(jacobi_matrix) + 1.0) / 2.0
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc
    t = 2.0 * x[..., None, :] - 1.0
    q = np.empty(h.shape[:-1] + (n + 1, n + 1))
    # The q_k overflow only at a node whose weight is below the smallest
    # double (a large exponent and many points, or a mass that underflows
    # to 0): inf - inf leaves nan there, and its weight is 0.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q[..., 0, :] = 1.0 / np.sqrt(h[..., :1])
        prev = np.zeros_like(q[..., 0, :])
        for k in range(n):
            # off[0] = 0 drops prev, still 0, at k = 0.
            q[..., k + 1, :] = ((t - diag[..., k, None]) * q[..., k, :]
                                - off[..., k, None] * prev) / off[..., k + 1, None]
            prev = q[..., k, :]
        weights = 1.0 / np.square(q[..., 0, :, :]).sum(axis=-2)
    weights[np.isnan(weights)] = 0.0
    return x, q, weights


def gauss_jacobi_01(m: int, a, b) -> QuadRule1D:
    """m-point Gauss rule for the weight (1-x)^a x^b on (0, 1), one per
    entry of exponent arrays a and b: the nodes are the eigenvalues of the
    `jacobi_recurrence` matrix, ascending, and each weight the Christoffel
    number 1 / sum_{k<m} q_k(x_i)^2 of the same recurrence, whose q_0
    carries the weight's mass B(b+1, a+1).  Refused for m < 1; the
    exponents are the caller's to check (`Family.integrable_axes`)."""
    if m < 1:
        raise ValueError("rule needs at least one point")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nodes, _, weights = _evaluate(jacobi_recurrence(m, a[..., None], b[..., None]), m - 1)
    return QuadRule1D(nodes=nodes, weights=weights)


# SimplexRule, collapsed_rule, tetra_rule and triangle_rule stay here only
# because the benchmark's tracer binds them; ROADMAP item 19 moves them out.
@dataclass(frozen=True)
class SimplexRule:
    """Collapsed tensor rule on the open unit triangle (coordinates x, y) or
    tetrahedron (x, y, z) for a family's weight."""

    coords: Tuple[np.ndarray, ...]
    weights: np.ndarray

    x = property(lambda self: self.coords[0])
    y = property(lambda self: self.coords[1])
    z = property(lambda self: self.coords[2])


def _axes(family, params):
    """The record's `integrable_axes` at the given parameters, as floats,
    one row per axis."""
    return np.array(family.integrable_axes(params), dtype=float)


def collapsed_rule(family, params, m: int) -> SimplexRule:
    """Tensor product of m-point Gauss rules, one per collapsed axis, mapped
    to x = u, y = v (1 - u), z = t (1 - u) (1 - v)."""
    rule = gauss_jacobi_01(m, *_axes(family, params).T)
    grid = np.meshgrid(*rule.nodes, indexing="ij")
    coords = []
    for j, u in enumerate(grid):
        for earlier in grid[:j]:
            u = u * (1 - earlier)
        coords.append(u.ravel())
    weights = reduce(np.multiply.outer, rule.weights)
    return SimplexRule(coords=tuple(coords), weights=weights.ravel())


tetra_rule = partial(collapsed_rule, simplex3d.FAMILY)
triangle_rule = partial(collapsed_rule, triangle2d.FAMILY)


# ---------------------------------------------------------------------------
# Gram matrices.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _layout(family, max_degree: int):
    """The sorted indices of the members of total degree <= max_degree, and
    lookup[j, i], where member i's factor on axis j sits among the values
    q_0..q_max_degree of the factor rows (axis, later-degree sum s), laid
    end to end; neither depends on the parameters."""
    idxs = sorted(family.indices(max_degree))
    degrees = [family.degrees(*idx) for idx in idxs]
    degrees, later = np.array(degrees).T, np.array(list(map(later_sums, degrees))).T
    row = np.arange(len(degrees))[:, None] * (max_degree + 1) + later
    return idxs, row * (max_degree + 1) + degrees


def _factors(family, max_degree: int, params):
    """(indices, factors, norms, weights) of the members of total degree
    <= max_degree: factors[j, i] is member i's factor P(d_j; A_j + 2 s_j,
    B_j)(x_j) (1 - x_j)^{s_j} with unit norm at the nodes x_j of axis j's
    (max_degree + 1)-point rule, whose weights are returned; norms[i] is
    its squared norm, the product of the h_n.  Refused (ValueError) where
    one is below the smallest double."""
    idxs, lookup = _layout(family, max_degree)
    axes = _axes(family, params)
    shift = np.arange(max_degree + 1)
    recurrence = jacobi_recurrence(max_degree + 1, axes[:, :1] + 2 * shift, axes[:, 1:])
    norms = recurrence[2][..., :max_degree + 1].ravel()[lookup].prod(axis=0)
    if norms.min() < sys.float_info.min:
        raise ValueError(f"the members' squared norms underflow double precision "
                         f"(the smallest is {norms.min():.3g})")
    x, q, weights = _evaluate(recurrence, max_degree)
    q *= ((1.0 - x[:, None]) ** shift[:, None])[..., None, :]
    return list(idxs), q.reshape(-1, max_degree + 1)[lookup], norms, weights


def _row_blocks(size: int, least: int = 1):
    """Slices of consecutive rows covering range(size), for work on a
    size x size matrix a block at a time: about 256 KB of doubles per block,
    which stays in a 2 MB L2 cache with what it is computed from, and never
    fewer than `least` rows."""
    height = max(least, 32768 // size)
    return [slice(start, start + height) for start in range(0, size, height)]


def collapsed_gram(family, max_degree: int, params):
    """Weighted Gram matrix of all members with total degree <= max_degree.

    Returns (indices, matrix).  Member values and tensor weights are
    products over the axes, so the weighted sum over the rule's nodes is the
    entrywise product of one Gram matrix per axis.  With unit-norm factors
    each of these has a unit diagonal, so no entry grows with the degree or
    the parameters; the members' norms are multiplied in at the end.  The
    matrix is filled a block of rows at a time, each block's axis products
    taken in order while it stays in cache.
    """
    idxs, factors, norms, weights = _factors(family, max_degree, params)
    scale = np.sqrt(norms)
    gram = np.empty((len(idxs), len(idxs)))
    # Each block reads every factor matrix (members x points) once, so a
    # block of fewer rows than points would spend its time re-reading them.
    blocks = _row_blocks(len(idxs), max_degree + 1)
    # One scratch block for the later factors: a fresh one per block would
    # be paged in again (27,000 more page faults at N = 24).
    scratch = np.empty_like(gram[blocks[0]])
    for rows in blocks:
        block = gram[rows]
        product = scratch[:len(block)]
        (f, w), *rest = zip(factors, weights)
        np.matmul(f[rows] * w, f.T, out=block)
        for f, w in rest:
            block *= np.matmul(f[rows] * w, f.T, out=product)
        block *= np.multiply.outer(scale[rows], scale, out=product)
    return idxs, gram


# gram_matrix and gram_matrix_triangle stay here only because the benchmark's
# tracer and workloads bind them; ROADMAP item 19 moves them out.
gram_matrix = partial(collapsed_gram, simplex3d.FAMILY)
gram_matrix_triangle = partial(collapsed_gram, triangle2d.FAMILY)


def gram_error(family, indices, gram: np.ndarray, params):
    """(worst, i, j): the largest |g_ij / sqrt(h_i h_j) - delta_ij| over a
    Gram matrix of the family's members at `indices`, h their squared
    norms, each exact `norm_ratios` entry rounded once times the weight's
    `mass`, and where it first occurs; read a block of rows at a time, a
    nan entry as inf."""
    ratios = np.array([float(r) for r in family.norm_ratios(indices, params)])
    d = np.sqrt(ratios * family.mass(params))
    worst = (-1.0, 0, 0)
    for rows in _row_blocks(len(d)):
        error = gram[rows] / np.multiply.outer(d[rows], d)
        error[:, rows] -= np.eye(len(error))
        np.nan_to_num(np.abs(error, out=error), copy=False, nan=np.inf, posinf=np.inf)
        i, j = divmod(int(error.argmax()), len(d))
        if error[i, j] > worst[0]:
            worst = (float(error[i, j]), rows.start + i, j)
    return worst
