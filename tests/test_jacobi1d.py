"""Shifted Jacobi family: construction, norms, ladder relations."""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from math import factorial, gcd, lcm

from simplexpoly import jacobi1d, triangle2d
from simplexpoly.jacobi1d import (
    FAMILY,
    SECOND_ORDER_1D,
    SPARSE_1D,
    _coefficients,
    _lifted_factor,
    collapsed_member,
    h_ratio,
    norm_ratio,
    shifted_jacobi,
    shifted_jacobi_raw,
    verify_ladder,
    verify_second_order_1d,
)
from simplexpoly.ratpoly import MPoly, ONE, ONE_MINUS_X, X, ZERO, as_rat, over_lcm

from oracles import (
    interval_weighted_mean,
    jacobi_shifted_by_binomial_sum,
    jacobi_shifted_by_recurrence,
    lifted_factor_by_mpoly_horner,
)

F = Fraction

GRID = [F(-1, 2), F(-1, 4), F(0), F(1, 3), F(1), F(5, 2)]


def test_params_validated():
    with pytest.raises(ValueError):
        FAMILY.check((F(-3, 2), F(0)))


def test_degree_zero_is_one():
    assert shifted_jacobi(0, (F(1, 2), F(2))) == ONE


@pytest.mark.parametrize("a,b", [(F(0), F(0)), (F(1, 3), F(-1, 2)), (F(5, 2), F(1))])
def test_degree_one_closed_form(a, b):
    assert shifted_jacobi(1, (a, b)) == X.scale(a + b + 2) - (b + 1)


def test_degree_two_shifted_legendre():
    assert shifted_jacobi(2, (F(0), F(0))) == X.scale(-6) * (ONE - X) + 1


def test_matches_recurrence_oracle():
    for a in GRID:
        for b in GRID:
            for n in range(9):
                assert shifted_jacobi_raw(n, a, b) == jacobi_shifted_by_recurrence(
                    n, a, b
                ), (n, a, b)


def test_matches_binomial_sum_oracle_at_and_below_the_poles():
    # The binomial sum has no pole at any parameter, and the grid holds the
    # integers -3, -2 and -1 where the 2F1 form's denominators vanish.
    grid = [F(-3), F(-5, 2), F(-2), F(-3, 2), F(-1), F(-2, 3), F(-1, 2), F(0), F(1, 3),
            F(1), F(7, 3)]
    for a in grid:
        for b in grid:
            for n in range(9):
                assert shifted_jacobi_raw(n, a, b) == jacobi_shifted_by_binomial_sum(
                    n, a, b
                ), (n, a, b)


# Parameters with denominators 1, 2, 3, 4 and 6, from -2 to 2.
small_rationals = st.sampled_from([1, 2, 3, 4, 6]).flatmap(
    lambda q: st.integers(-2 * q, 2 * q).map(lambda k: F(k, q)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), small_rationals, small_rationals)
def test_integer_coefficients_match_binomial_sum_oracle(n, a, b):
    big_a, big_b, den = over_lcm(a, b)
    assert (F(big_a, den), F(big_b, den)) == (a, b)
    assert den == lcm(a.denominator, b.denominator)
    numerators = _coefficients(n, big_a, big_b, den)
    assert len(numerators) == n + 1 and all(type(c) is int for c in numerators)
    scale = F(1, factorial(n) * den**n)
    built = sum((ONE_MINUS_X**m).scale(c * scale) for m, c in enumerate(numerators))
    assert built == jacobi_shifted_by_binomial_sum(n, a, b), (n, a, b)


@contextmanager
def _recorded_factor_keys(factor):
    """The keys that `collapsed_member` passes to `_lifted_factor`, which
    `factor` answers while the block runs."""
    keys = []

    def record(*key):
        keys.append(key)
        return factor(*key)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jacobi1d, "_lifted_factor", record)
        yield keys


def test_one_factor_from_rows_with_different_denominators_is_one_cache_entry():
    # Both rows give the x-axis factor P(1; 3, 1/7), though their common
    # denominators are 77 and 91: it is cached once, under (21, 1, 7).
    first, second = (F(1, 7), F(0), F(2, 11), F(-2, 11)), (F(1, 7), F(0), F(3, 13), F(-3, 13))
    degrees = triangle2d.FAMILY.degrees(2, 1)
    first_axes, second_axes = (triangle2d.FAMILY.integer_axes(*row) for row in (first, second))
    collapsed_member(first_axes, degrees)
    before = _lifted_factor.cache_info()
    with _recorded_factor_keys(_lifted_factor) as keys:
        collapsed_member(second_axes, degrees)
    after = _lifted_factor.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)
    assert keys[0] == (0, degrees[0], 21, 1, 7)


def _integer_pair_walk(axes, degrees):
    """Each axis's (A, B, L), computed on the parts of its base pair: the
    exponents (big_a + 2 later, big_b) over the lcm L of the two base
    denominators, `later` the sum of the later axes' degrees."""
    out, later = [], 0
    for (big_a, big_b), d in zip(reversed(axes), reversed(degrees)):
        da, db = big_a.denominator, big_b.denominator
        den = da * db // gcd(da, db)
        out.append((big_a.numerator * (den // da) + 2 * later * den,
                    big_b.numerator * (den // db), den))
        later += d
    return out[::-1]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda count: st.tuples(
    st.lists(st.tuples(small_rationals, small_rationals), min_size=count, max_size=count),
    st.lists(st.integers(0, 6), min_size=count, max_size=count))), st.booleans())
def test_factor_keys_match_the_per_axis_walk(case, as_rats):
    # The cache keys of `_lifted_factor` stay the integers of the per-axis
    # walk, with the later axes' degrees folded into the first exponent,
    # whether the axes hold Fractions or the Rats of a parameter row.  The
    # "row" here is the list of base pairs itself; no factor is built.
    axes, degrees = case
    if as_rats:
        axes = [tuple(map(as_rat, pair)) for pair in axes]
    with _recorded_factor_keys(lambda *key: ONE) as keys:
        collapsed_member([over_lcm(*pair) for pair in axes], degrees)
    assert keys == [(j, d, *triple) for j, (d, triple)
                    in enumerate(zip(degrees, _integer_pair_walk(axes, degrees)))]
    assert all(type(v) is int for key in keys for v in key)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2), st.integers(0, 8), small_rationals, small_rationals, st.integers(0, 3))
def test_integer_horner_matches_the_mpoly_horner(axis, d, a, b, later):
    # The factor at exponents (a + 2 later, b), a and b down to -2, built on
    # integer term maps, equals the same Horner rule run on canonical MPolys.
    key = over_lcm(a + 2 * later, b)
    built = _lifted_factor.__wrapped__(axis, d, *key)
    assert built == lifted_factor_by_mpoly_horner(axis, d, *key), (axis, d, a, b, later)


def test_a_member_past_the_exponent_limit_is_refused_before_it_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"built {args}")
    monkeypatch.setattr(jacobi1d, "_lifted_factor", refuse)
    ax = ((0, 0, 1),) * 3
    for degrees in [(0, 0, 512), (200, 200, 112), (0, 520, 0)]:
        with pytest.raises(OverflowError, match="a member of total degree 5(12|20) reaches"):
            collapsed_member(ax, degrees)
    assert collapsed_member(ax, (-1, 0, 600)) == ZERO


def test_a_factor_past_the_exponent_limit_is_refused_before_any_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"computed {args}")
    monkeypatch.setattr(jacobi1d, "_coefficients", refuse)
    for axis in range(3):
        with pytest.raises(OverflowError, match="a factor of degree 512 reaches the exponent limit 512"):
            _lifted_factor.__wrapped__(axis, 512, 0, 0, 1)


def test_continuation_at_negative_integer_parameter():
    # Ladder targets reach a = -1; the construction must stay consistent
    # with the recurrence there.
    for b in (F(0), F(1, 3), F(5, 2)):
        for n in range(6):
            assert shifted_jacobi_raw(n, F(-1), b) == jacobi_shifted_by_recurrence(
                n, F(-1), b
            )


def test_norm_ratio_frozen_values():
    assert norm_ratio(0, (F(1, 3), F(7))) == 1
    assert norm_ratio(1, (F(0), F(0))) == F(1, 3)
    assert norm_ratio(1, (F(1), F(0))) == F(1, 2)


def test_norm_ratio_against_weighted_moments():
    """Exact cross-check of h_n/h_0 by direct monomial integration."""
    for a in GRID:
        for b in GRID:
            for n in range(6):
                p = shifted_jacobi_raw(n, a, b)
                assert interval_weighted_mean(p * p, a, b) == norm_ratio(n, (a, b))


@pytest.mark.parametrize("b", [F(-1, 4), F(0), F(1)])
@pytest.mark.parametrize("a", [F(-1, 2), F(0), F(1, 3), F(5, 2)])
def test_h_ratio_against_weighted_moments(a, b):
    """h_ratio(n, s, a, b) is the mean, over the weight (1-x)^a x^b, of the
    square of P(n; a + 2s, b) times (1-x)^(2s)."""
    for s in range(3):
        for n in range(4):
            p = shifted_jacobi_raw(n, a + 2 * s, b)
            assert interval_weighted_mean(p * p * ONE_MINUS_X**(2 * s), a, b) == h_ratio(
                n, s, a, b), (n, s, a, b)


def test_orthogonality_by_weighted_moments():
    a, b = F(1, 3), F(-1, 2)
    for n in range(5):
        for m in range(n):
            inner = interval_weighted_mean(
                shifted_jacobi_raw(n, a, b) * shifted_jacobi_raw(m, a, b), a, b
            )
            assert inner == 0


def test_operator_descriptors():
    p = FAMILY.view(F(1, 3), F(5, 2))
    op = SPARSE_1D["L1"].operator(4, p)
    assert (op.c0, op.cx) == (ZERO, ONE)
    op = SPARSE_1D["L6"].operator(4, p)
    assert (op.c0, op.cx) == (MPoly.const(p.b), X)
    op = SPARSE_1D["L5p"].operator(4, p)
    assert (op.c0, op.cx) == (MPoly.const(4), ONE_MINUS_X)


def test_ladder_spot_examples():
    # derivative of the degree-one member is a degree-zero member scaled
    assert verify_ladder("L1", 1, (F(0), F(0))).status == "pass"
    # at degree zero these reduce to scalar identities
    assert verify_ladder("L6", 0, (F(1, 3), F(5, 2))).status == "pass"
    assert verify_ladder("L2", 0, (F(-1, 2), F(1))).status == "pass"


def test_negative_degree_target_annihilates():
    report = verify_ladder("L1", 0, (F(1, 3), F(1)))
    assert report.status == "not_applicable"


def test_second_order_spot_examples():
    assert verify_second_order_1d("L1p.L1.rel", 1, (F(1), F(1))).status == "pass"
    assert verify_second_order_1d("L6p.L6.rel", 0, (F(1, 3), F(1))).status == "pass"
    assert verify_second_order_1d("L1.L1p.rel", 0, (F(0), F(0))).status == "pass"


def test_table_sizes():
    assert len(SPARSE_1D) == 12
    assert len(SECOND_ORDER_1D) == 24


params_strategy = st.sampled_from(GRID)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(list(SPARSE_1D)),
    st.integers(0, 8),
    params_strategy,
    params_strategy,
)
def test_ladder_relations_hold(op, n, a, b):
    assert verify_ladder(op, n, (a, b)).ok


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(SECOND_ORDER_1D)),
    st.integers(0, 8),
    params_strategy,
    params_strategy,
)
def test_second_order_identities_hold(entry, n, a, b):
    assert verify_second_order_1d(entry, n, (a, b)).ok


POLES = st.sampled_from([F(-1), F(-2)])
REGULAR = st.fractions(min_value=-1, max_value=3, max_denominator=6).filter(lambda v: v > -1)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.tuples(POLES, st.one_of(POLES, REGULAR)), st.tuples(REGULAR, POLES)),
    st.integers(0, 5),
)
def test_ladder_relations_hold_next_to_the_pole(ab, n):
    # At a or b in {-1, -2} the ladders step onto members outside the weight
    # domain, and for a onto the poles of the 2F1 form; the constructor's
    # coefficients have no pole in either parameter.
    a, b = ab
    failed = [op for op in SPARSE_1D if verify_ladder(op, n, (a, b)).status == "fail"]
    assert failed == []
