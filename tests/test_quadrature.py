"""Quadrature rules, moment oracles, Gram matrices."""

import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from simplexpoly import simplex3d, triangle2d
from simplexpoly.quadrature import (
    _factors,
    collapsed_gram,
    gauss_jacobi_01,
    gram_error,
    gram_matrix,
    gram_matrix_triangle,
    jacobi_recurrence,
    tetra_rule,
    triangle_rule,
)
from simplexpoly.jacobi1d import h_ratio, mass
from simplexpoly.simplex3d import simplex_poly_raw
from simplexpoly.triangle2d import triangle_norm_ratio, triangle_poly_raw

from oracles import (
    exact_member_gram,
    exact_values,
    integrate_tetra,
    integrate_triangle,
    tetra_mass,
    tetra_moment,
    tetra_weighted_mean,
    triangle_mass,
    triangle_weighted_mean,
)
from simplexpoly.ratpoly import MPoly

F = Fraction

ZEROS6 = (F(0),) * 6
PARAMS6 = (F(1, 3), F(-1, 2), F(1), F(0), F(1, 2), F(2))


def test_one_point_rule_legendre():
    rule = gauss_jacobi_01(1, 0, 0)
    assert rule.nodes == pytest.approx([0.5])
    assert rule.weights == pytest.approx([1.0])


def test_two_point_rule_legendre():
    rule = gauss_jacobi_01(2, 0, 0)
    off = 1 / (2 * math.sqrt(3))
    assert rule.nodes == pytest.approx([0.5 - off, 0.5 + off])
    assert rule.weights == pytest.approx([0.5, 0.5])


@pytest.mark.parametrize("m", [0, -3], ids=["rule-0", "rule-minus-3"])
def test_a_rule_with_no_points_is_refused(m):
    """A refusal, not a numpy shape error."""
    with pytest.raises(ValueError, match="rule needs at least one point"):
        gauss_jacobi_01(m, 0, 0)


def test_one_point_rule_rational_exponent():
    b = F(3, 2)
    rule = gauss_jacobi_01(1, 0, b)
    assert rule.nodes == pytest.approx([float((b + 1) / (b + 2))])
    assert rule.weights == pytest.approx([1 / float(b + 1)])


def test_weights_sum_to_mass():
    for a, b in [(0.0, 0.0), (0.5, -0.25), (2.5, 1.0)]:
        rule = gauss_jacobi_01(7, a, b)
        mass = math.exp(
            math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2)
        )
        assert rule.weights.sum() == pytest.approx(mass, rel=1e-13)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert np.all((rule.nodes > 0) & (rule.nodes < 1))


def test_against_library_oracle():
    """Nodes/weights match the classical-interval rule mapped to (0, 1)."""
    roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
    for a, b in [(0.0, 0.0), (1.5, 0.5), (0.25, -0.5)]:
        m = 9
        rule = gauss_jacobi_01(m, a, b)
        t, w = roots_jacobi(m, a, b)
        assert rule.nodes == pytest.approx((t + 1) / 2, abs=1e-13)
        # abs=0: the default absolute tolerance of 1e-12 would pass any
        # weight below it whatever its digits.
        assert rule.weights == pytest.approx(w * 0.5 ** (a + b + 1), rel=1e-12, abs=0)


@pytest.mark.parametrize("a, b", [(37.05, -0.95), (85.0, 0.0)])
def test_tiny_weights_keep_their_relative_accuracy(a, b):
    """A large exponent makes the weights span many orders of magnitude;
    each still matches the library's to 1e-9 relative."""
    roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
    rule = gauss_jacobi_01(25, a, b)
    t, w = roots_jacobi(25, a, b)
    assert rule.nodes == pytest.approx((t + 1) / 2, abs=1e-13)
    # Relative in every weight: pytest.approx would pass the weights below
    # its absolute tolerance of 1e-12 whatever their digits.
    assert np.abs(rule.weights / (w * 0.5 ** (a + b + 1)) - 1).max() <= 1e-9


def test_one_call_gives_one_rule_per_exponent_pair():
    a = np.array([0.0, 1.5, 37.05])
    b = np.array([-0.5, 0.25, -0.95])
    rules = gauss_jacobi_01(9, a, b)
    assert rules.nodes.shape == rules.weights.shape == (3, 9)
    for row, pair in enumerate(zip(a, b)):
        rule = gauss_jacobi_01(9, *pair)
        assert np.abs(rules.nodes[row] - rule.nodes).max() <= 1e-15
        assert np.abs(rules.weights[row] / rule.weights - 1).max() <= 1e-14


@pytest.mark.parametrize("a, b", [(0.0, 0.0), (-0.5, -0.5), (-0.95, 0.0), (37.05, -0.95),
                                  (85.0, 12.0)])
def test_recurrence_norms_match_the_closed_form(a, b):
    """The squared norms that the recurrence carries, by products of their
    ratios, against the exact ratios h_n / h_0 times the mass; (-1/2, -1/2)
    is the pair whose sum is -1."""
    _, _, h = jacobi_recurrence(24, a, b)
    exact_a, exact_b = Fraction(a), Fraction(b)
    expected = np.array([float(h_ratio(n, 0, exact_a, exact_b)) * mass(a, b)
                         for n in range(25)])
    assert np.abs(h / expected - 1).max() <= 1e-12


def test_weights_below_the_smallest_double_are_zero():
    """With 1000 points and the exponent 1000 the orthonormal recurrence
    overflows at the nodes nearest x = 1, whose weights are below the
    smallest double; the rule still holds the weight's mass."""
    a = 1000.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = gauss_jacobi_01(1000, a, 0)
    assert np.all(rule.weights >= 0) and np.any(rule.weights == 0)
    assert rule.weights.sum() == pytest.approx(1 / (a + 1), rel=1e-12)


def test_a_mass_below_the_smallest_double_gives_zero_weights():
    """B(1001, 1001) underflows to 0, so q_0 = 1 / sqrt(h_0) is inf; the
    rule gives zero weights, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = gauss_jacobi_01(5, 1000.0, 1000.0)
    assert np.all(rule.weights == 0)


def test_rule_exactness_for_moments():
    """Weighted monomial means match the exact rational oracle."""
    order = 5
    rule = tetra_rule(PARAMS6, order + 1)
    mass = rule.weights.sum()
    for i in range(order + 1):
        for j in range(order + 1 - i):
            for k in range(order + 1 - i - j):
                approx = float(np.sum(rule.weights * rule.x**i * rule.y**j * rule.z**k))
                mean = tetra_weighted_mean(MPoly({(i, j, k): 1}), PARAMS6)
                exact = float(mean) * mass
                assert approx == pytest.approx(exact, rel=1e-12), (i, j, k)


def _integrate(rule, f) -> float:
    return float(np.sum(rule.weights * f(*rule.coords)))


def test_tetra_rule_frozen_values():
    rule = tetra_rule(ZEROS6, 3)
    one = lambda x, y, z: np.ones_like(x)
    assert _integrate(rule, one) == pytest.approx(1 / 6, rel=1e-13)
    assert _integrate(rule, lambda x, y, z: x) == pytest.approx(1 / 24, rel=1e-13)
    assert _integrate(rule, lambda x, y, z: (4 * x - 1) ** 2) == pytest.approx(
        1 / 10, rel=1e-12
    )
    assert np.all(rule.x + rule.y + rule.z < 1)
    assert np.all((rule.x > 0) & (rule.y > 0) & (rule.z > 0))


def test_moment_oracle_against_factorial_integration():
    for i, j, k in [(0, 0, 0), (1, 0, 0), (2, 1, 1), (0, 3, 2)]:
        mono = MPoly({(i, j, k): 1})
        assert tetra_moment(i, j, k, ZEROS6) == pytest.approx(
            float(integrate_tetra(mono)), rel=1e-13
        )
        mono = MPoly({(i, j, 0): 1})
        mean = triangle_weighted_mean(mono, ZEROS6[:4])
        assert float(mean) * triangle_mass(ZEROS6[:4]) == pytest.approx(
            float(integrate_triangle(mono)), rel=1e-13
        )
    assert tetra_mass(ZEROS6) == pytest.approx(1 / 6, rel=1e-13)
    assert triangle_mass(ZEROS6[:4]) == pytest.approx(1 / 2, rel=1e-13)


def test_gram_degree_zero():
    idxs, gram = gram_matrix(0, ZEROS6)
    assert idxs == [(0, 0, 0)]
    assert gram[0, 0] == pytest.approx(1 / 6, rel=1e-12)


def test_gram_degree_one():
    idxs, gram = gram_matrix(1, ZEROS6)
    assert len(idxs) == 4
    pos = idxs.index((1, 0, 0))
    assert gram[pos, pos] == pytest.approx(1 / 10, rel=1e-12)
    zero_pos = idxs.index((0, 0, 0))
    scale = math.sqrt(gram[pos, pos] * gram[zero_pos, zero_pos])
    assert abs(gram[zero_pos, pos]) <= 1e-10 * scale


@pytest.mark.parametrize(
    "params",
    [
        ZEROS6,
        PARAMS6,
        (F(1), F(1), F(1), F(1), F(1), F(1)),
        # delta + gamma = -1: a Jacobi rule whose two exponents sum to -1.
        (F(0), F(0), F(-1, 2), F(-1, 2), F(0), F(0)),
    ],
)
def test_gram_diagonal_and_offdiagonal(params):
    idxs, gram = gram_matrix(4, params)
    assert gram_error(simplex3d.FAMILY, idxs, gram, params)[0] <= 1e-10


def test_simplex_indices_ordering():
    idxs, _ = gram_matrix(2, ZEROS6)
    assert len(idxs) == 10
    assert idxs == sorted(idxs)


def test_triangle_gram_orthogonality():
    params = (F(1, 3), F(0), F(-1, 2), F(1))
    idxs, gram = gram_matrix_triangle(4, params)
    d = np.sqrt(np.abs(np.diag(gram)))
    scaled = np.abs(gram) / np.outer(d, d)
    np.fill_diagonal(scaled, 0.0)
    assert scaled.max() <= 1e-10
    # diagonal matches the exact norm ratio scaled by the weight mass
    mass = triangle_mass(params)
    base = triangle_poly_raw(0, 0, *params)
    for pos, idx in enumerate(idxs):
        expected = float(triangle_norm_ratio(idx, params)) * mass
        assert gram[pos, pos] == pytest.approx(expected, rel=1e-10)


def test_triangle_moment_ratio_matches_rule():
    params = (F(1, 3), F(0), F(-1, 2), F(1))
    rule = triangle_rule(params, 6)
    mass = rule.weights.sum()
    for i, j in [(0, 0), (1, 0), (0, 1), (2, 3), (4, 1)]:
        approx = float(np.sum(rule.weights * rule.x**i * rule.y**j))
        assert approx == pytest.approx(
            float(triangle_weighted_mean(MPoly({(i, j, 0): 1}), params)) * mass, rel=1e-12
        )


# The collapsed evaluator against the exact members.  Each family's rows
# include the mixed integer/non-integer row of test_golden_text.py.
TETRA_ROWS = [ZEROS6, PARAMS6, (F(2), F(1, 2), F(-1, 4), F(5, 2), F(0), F(1))]
TRIANGLE_ROWS = [
    (F(1, 2), F(0), F(2), F(-1, 3)),
    (F(1, 3), F(0), F(-1, 2), F(1)),
    (F(0), F(0), F(0), F(0)),
]


def _rule_values(family, max_degree, params):
    """(indices, values, coords): every member of total degree <= max_degree
    from `_factors` at its default rule's nodes, taking node a of each axis
    for the a-th point, and those points' Cartesian coordinates, mapped
    from the nodes of `gauss_jacobi_01` on the family's axes."""
    idxs, factors, norms, _ = _factors(family, max_degree, params)
    axes = np.array(family.axes(*family.params(params)), dtype=float)
    coords, rest = [], 1.0
    for u in gauss_jacobi_01(max_degree + 1, *axes.T).nodes:
        coords.append(u * rest)
        rest = rest * (1 - u)
    return idxs, np.prod(factors, axis=0) * np.sqrt(norms)[:, None], coords


def _assert_values_match(idxs, values, member, coords):
    exact = exact_values([member(idx) for idx in idxs], coords)
    for idx, row, want in zip(idxs, values, exact):
        assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max(), idx


@pytest.mark.parametrize("params", TETRA_ROWS)
def test_tetra_values_match_exact_members(params):
    idxs, values, coords = _rule_values(simplex3d.FAMILY, 6, params)
    assert idxs == sorted(simplex3d.indices(6))
    _assert_values_match(idxs, values, lambda idx: simplex_poly_raw(*idx, *params), coords)


@pytest.mark.parametrize("params", TRIANGLE_ROWS)
def test_triangle_values_match_exact_members(params):
    idxs, values, coords = _rule_values(triangle2d.FAMILY, 6, params)
    _assert_values_match(idxs, values, lambda idx: triangle_poly_raw(*idx, *params), coords)


def test_values_at_large_shifts_match_exact_members():
    """The x-axis exponent 37.05 plus twice the later degrees, up to 53.05
    at N = 8."""
    params = simplex3d.FAMILY.check("-19/20,7,12,-19/20,12,5".split(","))
    idxs, values, coords = _rule_values(simplex3d.FAMILY, 8, params)
    _assert_values_match(idxs, values, lambda idx: simplex3d.FAMILY.member(idx, params), coords)


@pytest.mark.parametrize("family, params", [(simplex3d.FAMILY, PARAMS6),
                                            (triangle2d.FAMILY, TRIANGLE_ROWS[0])])
def test_a_longer_rule_gives_the_default_matrix(family, params):
    """The N = 11 matrix takes twelve points per axis; its block of the
    N = 6 members is their matrix with the default seven."""
    idxs, gram = collapsed_gram(family, 6, params)
    longer_idxs, longer = collapsed_gram(family, 11, params)
    rows = [longer_idxs.index(idx) for idx in idxs]
    d = np.sqrt(np.diag(gram))
    assert (np.abs(longer[np.ix_(rows, rows)] - gram) / np.outer(d, d)).max() <= 1e-13


def _exact_norms(family, idxs, params):
    """The members' squared norms: each member's exact ratio on its own,
    rounded once, times the weight's mass, the product of the axes' masses."""
    h0 = math.prod(mass(*pair) for pair in family.axes(*family.params(params)))
    return np.array([float(family.norm_ratio(idx, params)) * h0 for idx in idxs])


def _norm_roots(family, idxs, params):
    """Square roots of the members' squared norms."""
    return np.sqrt(_exact_norms(family, idxs, params))


def _assert_gram_close(family, idxs, params, gram, oracle):
    """Within 1e-12 of the oracle, relative to the members' norms."""
    d = _norm_roots(family, idxs, params)
    assert (np.abs(gram - oracle) / np.outer(d, d)).max() <= 1e-12


def _rule_lengths(rows):
    """Each row with the oracle at the default rule's nodes, then at those
    of 12 points per axis, a rule longer than the products."""
    return ([pytest.param(params, None, id=f"params{i}") for i, params in enumerate(rows)]
            + [pytest.param(params, 12, id=f"params{i}-points12") for i, params in enumerate(rows)])


@pytest.mark.parametrize("params, points", _rule_lengths(TETRA_ROWS))
def test_gram_matches_exact_member_gram(params, points):
    idxs, gram = gram_matrix(6, params)
    rule = tetra_rule(params, points or 7)
    members = [simplex_poly_raw(*idx, *params) for idx in idxs]
    oracle = exact_member_gram(members, (rule.x, rule.y, rule.z), rule.weights)
    _assert_gram_close(simplex3d.FAMILY, idxs, params, gram, oracle)


@pytest.mark.parametrize("params, points", _rule_lengths(TRIANGLE_ROWS))
def test_triangle_gram_matches_exact_member_gram(params, points):
    idxs, gram = gram_matrix_triangle(6, params)
    rule = triangle_rule(params, points or 7)
    members = [triangle_poly_raw(*idx, *params) for idx in idxs]
    oracle = exact_member_gram(members, (rule.x, rule.y), rule.weights)
    _assert_gram_close(triangle2d.FAMILY, idxs, params, gram, oracle)


def _whole_array_gram(family, max_degree, params):
    """The matrix as one product of whole per-axis Gram matrices, in the
    blocked assembly's order: first axis, the others in turn, the norms."""
    _, factors, norms, weights = _factors(family, max_degree, params)
    scale = np.sqrt(norms)
    axes = [(f * w) @ f.T for f, w in zip(factors, weights)]
    return reduce(np.multiply, axes) * np.multiply.outer(scale, scale)


# One block (N = 0 with one member, and N = 6) runs the very calls of the
# whole-array product, so the entries are equal.  Over several blocks,
# tetrahedron N = 12 (455 members in 72-row blocks) and triangle N = 20
# (231 in 141-row blocks), BLAS may round the edge rows of a row slice
# differently on another CPU, so there they agree to 1e-15.
@pytest.mark.parametrize("family, params, max_degree, exact", [
    (simplex3d.FAMILY, PARAMS6, 0, True),
    (triangle2d.FAMILY, TRIANGLE_ROWS[0], 0, True),
    (simplex3d.FAMILY, PARAMS6, 6, True),
    (triangle2d.FAMILY, TRIANGLE_ROWS[0], 6, True),
    (simplex3d.FAMILY, PARAMS6, 12, False),
    (triangle2d.FAMILY, TRIANGLE_ROWS[0], 20, False),
])
def test_blocked_gram_matches_the_whole_array_product(family, params, max_degree, exact):
    _, gram = collapsed_gram(family, max_degree, params)
    whole = _whole_array_gram(family, max_degree, params)
    if exact:
        assert np.array_equal(gram, whole)
    else:
        d = np.sqrt(np.diag(whole))
        assert (np.abs(gram - whole) / np.outer(d, d)).max() <= 1e-15


def _whole_array_error(family, indices, gram, params):
    """gram_error's figure and position from the whole matrix at once."""
    d = _norm_roots(family, indices, params)
    error = np.abs(gram / np.outer(d, d) - np.eye(len(d)))
    error[np.isnan(error)] = np.inf
    i, j = divmod(int(error.argmax()), len(d))
    return error[i, j], i, j


@pytest.mark.parametrize("size", [2, 3, 200, 455])
def test_offdiag_max_matches_the_whole_array_formula(size):
    """gram_error read by blocks, against the whole-array formula on a
    matrix of the first `size` tetrahedron members, near their norms; 200
    and 455 rows take two and seven blocks."""
    family, params = simplex3d.FAMILY, PARAMS6
    idxs = sorted(family.indices(12))[:size]
    d = _norm_roots(family, idxs, params)
    noise = np.random.default_rng(size).standard_normal((size, size)) * 1e-3
    gram = (np.eye(size) + noise + noise.T) * np.outer(d, d)
    assert gram_error(family, idxs, gram, params) == _whole_array_error(family, idxs, gram, params)
    gram[size - 1, 0] = gram[size // 2, 1] = np.nan  # the first in row order reads as inf
    blocked = gram_error(family, idxs, gram, params)
    assert blocked[0] == math.inf
    assert blocked == _whole_array_error(family, idxs, gram, params)


@pytest.mark.parametrize("family, params", [
    (simplex3d.FAMILY, PARAMS6), (triangle2d.FAMILY, (F(1, 3), F(-1, 2), F(5), F(7)))])
def test_norm_ratios_are_each_members_exact_ratio_rounded_once(family, params):
    """The per-axis factors, shared between members, give each member's
    `norm_ratio` exactly, and times the mass its norm to the last bit, at
    N = 12."""
    idxs = sorted(family.indices(12))
    ratios = family.norm_ratios(idxs, params)
    assert ratios == [family.norm_ratio(idx, params) for idx in idxs]
    norms = np.array([float(r) for r in ratios]) * family.mass(params)
    assert np.array_equal(norms, _exact_norms(family, idxs, params))


@pytest.mark.parametrize("family, oracle, params", (
    [(simplex3d.FAMILY, tetra_mass, params) for params in TETRA_ROWS + [(F(-1, 2),) * 6]]
    + [(triangle2d.FAMILY, triangle_mass, params)
       for params in TRIANGLE_ROWS + [(F(-19, 20), F(7), F(5), F(5))]]))
def test_mass_matches_the_log_gamma_oracle(family, oracle, params):
    assert family.mass(params) == pytest.approx(oracle(params), rel=1e-14)


def _numpy_peak(call):
    """Peak bytes that tracemalloc, which sees numpy's buffers, counts
    during call() above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# Tetrahedron N = 16: 969 members, a 7.5 MB matrix.
def test_gram_assembly_holds_one_matrix():
    """The assembly holds the matrix and a few blocks, not a second
    whole-matrix buffer."""
    _, gram = gram_matrix(16, PARAMS6)
    assert _numpy_peak(lambda: gram_matrix(16, PARAMS6)) < 1.25 * gram.nbytes


def test_offdiag_max_holds_a_few_blocks():
    """gram_error reads the matrix a few blocks at a time."""
    idxs, gram = gram_matrix(16, PARAMS6)
    peak = _numpy_peak(lambda: gram_error(simplex3d.FAMILY, idxs, gram, PARAMS6))
    assert peak < 0.25 * gram.nbytes
