"""Triangle family: construction, norms, M relations, equations, monic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from simplexpoly.ratpoly import MPoly, ONE, ONE_MINUS_X, X, Y
from simplexpoly.special import PoleHit
from simplexpoly.triangle2d import (
    FAMILY,
    SECOND_ORDER_2D,
    SPARSE_2D,
    classical_jacobi_shifted,
    classical_triangle_poly_raw,
    monic_triangle,
    pde_residual,
    triangle_norm_ratio,
    triangle_poly,
    triangle_poly_raw,
    verify_d0_reduction,
    verify_m_relation,
    verify_second_order_m,
)

from oracles import integrate_triangle, jacobi_shifted_by_recurrence, triangle_weighted_mean

F = Fraction

PARAMS_GRID = [
    (F(0), F(0), F(0), F(0)),
    (F(-1, 2), F(0), F(1, 3), F(1)),
    (F(1), F(1, 3), F(0), F(-1, 2)),
    (F(1, 3), F(-1, 2), F(1), F(0)),
]


def indices(max_n):
    return [(n, k) for n in range(max_n + 1) for k in range(n + 1)]


def test_index_validation():
    assert not FAMILY.valid((1, 2))
    with pytest.raises(ValueError):
        FAMILY.check((F(-2), F(0), F(0), F(0)))


def test_degree_zero():
    assert triangle_poly((0, 0), (F(1, 3), F(0), F(1), F(2))) == ONE


@pytest.mark.parametrize("params", PARAMS_GRID)
def test_degree_one_members(params):
    a, b, c, d = params
    assert triangle_poly((1, 0), params) == X.scale(a + b + c + d + 3) - (a + 1)
    assert triangle_poly((1, 1), params) == Y.scale(b + c + 2) - ONE_MINUS_X.scale(b + 1)


def test_norm_ratio_frozen_values():
    zeros = (F(0),) * 4
    assert triangle_norm_ratio((0, 0), zeros) == 1
    assert triangle_norm_ratio((1, 1), zeros) == F(1, 6)
    assert triangle_norm_ratio((1, 0), zeros) == F(1, 2)


def test_norm_ratio_against_exact_integration():
    """Unweighted case: direct factorial-formula integration."""
    zeros = (F(0),) * 4
    mass = integrate_triangle(ONE)
    for idx in indices(4):
        p = triangle_poly_raw(*idx, *zeros)
        assert integrate_triangle(p * p) / mass == triangle_norm_ratio(idx, zeros)


def test_norm_ratio_against_weighted_moments():
    """Rational parameters via exact collapsed moments."""
    for params in PARAMS_GRID:
        for idx in indices(3):
            p = triangle_poly_raw(*idx, *params)
            assert triangle_weighted_mean(p * p, params) == triangle_norm_ratio(
                idx, params
            )


def test_orthogonality_of_distinct_members():
    params = PARAMS_GRID[1]
    members = [triangle_poly_raw(*idx, *params) for idx in indices(3)]
    for i, p in enumerate(members):
        for q in members[:i]:
            assert triangle_weighted_mean(p * q, params) == 0


def test_operator_descriptors():
    p = FAMILY.view(F(1, 3), F(1), F(-1, 2), F(2))
    op = SPARSE_2D["M01"].operator(3, 2, p)
    assert op.cy == ONE and op.c0.is_zero
    op = SPARSE_2D["M06"].operator(3, 2, p)
    assert op.c0 == MPoly.const(p.b) and op.cy == Y
    op = SPARSE_2D["M40p"].operator(3, 2, p)
    assert op.denom == ONE_MINUS_X
    assert op.c0 == MPoly.const(2) - ONE_MINUS_X.scale(3)
    assert op.cx == X * ONE_MINUS_X and op.cy == -(X * Y)


def test_sparse_spot_examples():
    assert verify_m_relation("M01", (1, 1), PARAMS_GRID[1]).status == "pass"
    assert verify_m_relation("M30p", (0, 0), PARAMS_GRID[2]).status == "pass"
    assert verify_m_relation("M20", (0, 0), PARAMS_GRID[3]).status == "pass"


def test_second_order_spot_examples():
    assert verify_second_order_m("M01.M01p", (0, 0), PARAMS_GRID[1]).status == "pass"
    assert verify_second_order_m("M10.M10p", (0, 0), PARAMS_GRID[2]).status == "pass"
    assert verify_second_order_m("M60p.M60", (1, 0), PARAMS_GRID[3]).status == "pass"


def test_table_sizes():
    assert len(SPARSE_2D) == 24
    assert len(SECOND_ORDER_2D) == 24


@pytest.mark.parametrize("params", PARAMS_GRID)
def test_all_relations_small_sweep(params):
    for idx in indices(4):
        for op in SPARSE_2D:
            assert verify_m_relation(op, idx, params).ok, (op, idx)
        for key in SECOND_ORDER_2D:
            assert verify_second_order_m(key, idx, params).ok, (key, idx)


# Parameters at or below the pole, which ladder steps reach from inside the
# domain, mixed with values inside it.
AT_OR_BELOW_POLE = st.sampled_from([F(-2), F(-3, 2), F(-1)])
IN_DOMAIN = st.fractions(min_value=-1, max_value=3, max_denominator=6).filter(lambda v: v > -1)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(AT_OR_BELOW_POLE, IN_DOMAIN), min_size=4, max_size=4)
    .filter(lambda p: min(p) <= -1),
    st.sampled_from(indices(4)),
)
def test_ladder_relations_hold_next_to_the_pole(params, idx):
    failed = [op for op in SPARSE_2D if verify_m_relation(op, idx, params).status == "fail"]
    assert failed == []


@pytest.mark.parametrize("params", PARAMS_GRID)
def test_pde_residuals_vanish(params):
    for idx in indices(4):
        for which in ("L1", "L2", "B1"):
            assert pde_residual(which, idx, params).is_zero, (which, idx)


def test_pde_nonmember_leaves_residual():
    res = pde_residual("L1", (2, 1), PARAMS_GRID[0], u=X * Y * Y)
    assert not res.is_zero


def test_d0_reduction():
    for params in PARAMS_GRID:
        for idx in indices(4):
            assert verify_d0_reduction(idx, params[:3]).status == "pass"


def test_classical_construction_differs_from_generic_path():
    # Same polynomials, produced by the recurrence route.
    p = classical_triangle_poly_raw(3, 1, F(1, 3), F(0), F(1))
    q = triangle_poly_raw(3, 1, F(1, 3), F(0), F(1), F(0))
    assert p == q


def test_monic_frozen_examples():
    zeros = (F(0),) * 4
    assert monic_triangle((0, 0), zeros) == ONE
    assert monic_triangle((1, 1), zeros) == Y
    assert monic_triangle((1, 0), zeros) == X - F(1, 3)


@pytest.mark.parametrize("params", PARAMS_GRID)
def test_monic_satisfies_equation_with_unit_lead(params):
    for idx in indices(5):
        n, k = idx
        m = monic_triangle(idx, params)
        assert m.coeff(n - k, k, 0) == 1
        assert pde_residual("B1", idx, params, m).is_zero


def _outcome(build, pole, m, big_a, big_b):
    """build(m, big_a, big_b), or "pole" where it raises `pole`."""
    try:
        return build(m, big_a, big_b)
    except pole:
        return "pole"


# The integer recurrence against the MPoly one it replaced: equal members,
# and PoleHit exactly where the MPoly recurrence divides by zero: where
# a1 = 2(j+1)(j+A+B+1)(2j+A+B) vanishes for some 1 <= j < m, that is where
# A + B is an integer from 2 - 2m to -2.
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8),
       st.builds(F, st.integers(-20, 20), st.sampled_from([1, 2, 3, 4])),
       st.builds(F, st.integers(-20, 20), st.sampled_from([1, 3, 5, 6])))
def test_classical_jacobi_shifted_matches_mpoly_recurrence(m, big_a, big_b):
    assert _outcome(classical_jacobi_shifted, PoleHit, m, big_a, big_b) == _outcome(
        jacobi_shifted_by_recurrence, ZeroDivisionError, m, big_a, big_b)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 8), st.builds(F, st.integers(-20, 20), st.sampled_from([1, 3, 4])),
       st.integers(2, 14))
def test_classical_jacobi_shifted_raises_where_a1_vanishes(m, big_a, s):
    # A + B = -s: 2j + A + B vanishes at j = s/2, j + A + B + 1 at j = s - 1.
    big_b = -s - big_a
    vanishes = s - 1 < m or (s % 2 == 0 and s // 2 < m)
    outcome = _outcome(classical_jacobi_shifted, PoleHit, m, big_a, big_b)
    assert outcome == _outcome(jacobi_shifted_by_recurrence, ZeroDivisionError, m, big_a, big_b)
    assert (outcome == "pole") == vanishes


def test_classical_jacobi_shifted_pole_names_its_factor():
    # A + B = -2: 2j + A + B vanishes at j = 1.
    with pytest.raises(PoleHit, match=r"^Jacobi recurrence pole: 2\(j\+1\)\(j\+A\+B\+1\)"
                                      r"\(2j\+A\+B\) = 0 at j=1, A\+B=-2$"):
        classical_jacobi_shifted(3, F(-1, 2), F(-3, 2))
