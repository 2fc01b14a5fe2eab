"""Pochhammer, gamma ratios, terminating hypergeometric sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from simplexpoly.ratpoly import MPoly, ONE, X
from simplexpoly.special import (
    PoleHit,
    gamma_ratio,
    hyper2f1_terminating,
    hyper3f2_unit,
    pochhammer,
)

from oracles import hyper2f1_series, hyper3f2_series

F = Fraction

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def test_pochhammer_examples():
    assert pochhammer(F(-22, 7), 0) == 1
    assert pochhammer(1, 4) == 24
    assert pochhammer(F(1, 2), 2) == F(3, 4)


@settings(max_examples=80, deadline=None)
@given(rationals, st.integers(0, 10), st.integers(0, 10))
def test_pochhammer_addition_law(lam, m, n):
    assert pochhammer(lam, m + n) == pochhammer(lam, m) * pochhammer(lam + m, n)


def test_gamma_ratio_examples():
    assert gamma_ratio(5, 0) == 1
    assert gamma_ratio(3, 2) == 12
    assert gamma_ratio(F(1, 2), -1) == -2


def test_gamma_ratio_fraction_base():
    assert gamma_ratio(F(3), 2) == 12


def test_gamma_ratio_pole():
    with pytest.raises(PoleHit):
        gamma_ratio(1, -1)  # denominator factor Gamma(0) side


@settings(max_examples=80, deadline=None)
@given(rationals, st.integers(0, 8))
def test_gamma_ratio_inverse(base, k):
    try:
        forward = gamma_ratio(base, k)
        backward = gamma_ratio(base + k, -k)
    except PoleHit:
        return
    if forward != 0:
        assert forward * backward == 1


def test_2f1_order_zero():
    assert hyper2f1_terminating(0, F(7), F(9), X) == ONE


def test_2f1_order_one():
    b, c = F(2, 3), F(5, 4)
    assert hyper2f1_terminating(1, b, c, X) == ONE - X.scale(b / c)


def test_2f1_binomial_collapse():
    # 2F1(-2, 1; 1; x) = (1-x)^2, which vanishes at x = 1.
    val = hyper2f1_terminating(2, 1, 1, MPoly.const(1))
    assert val == MPoly.zero()


def test_2f1_at_zero_is_one():
    poly = hyper2f1_terminating(5, F(3, 2), F(7, 3), X)
    assert poly.evaluate((F(0), F(0), F(0))) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), rationals, rationals, st.fractions(min_value=-2, max_value=2, max_denominator=5))
def test_2f1_matches_series_oracle(n, b, c, xval):
    if any((c + m) == 0 for m in range(n)):
        return
    poly = hyper2f1_terminating(n, b, c, X)
    assert poly.evaluate((xval, F(0), F(0))) == hyper2f1_series(n, b, c, xval)


def test_3f2_order_zero():
    assert hyper3f2_unit(0, F(1), F(1), F(1), F(1)) == 1


def test_3f2_order_one():
    assert hyper3f2_unit(1, 2, 3, 4, 5) == F(7, 10)


def test_3f2_vanishing_numerator_parameter():
    assert hyper3f2_unit(6, F(5, 3), 0, F(7, 2), F(9, 4)) == 1


def test_3f2_pole():
    with pytest.raises(PoleHit):
        hyper3f2_unit(2, 1, 1, -1, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), rationals, rationals, rationals)
def test_3f2_reduces_to_2f1_when_parameters_cancel(n, a2, a3, b1):
    """With a3 matching the second lower parameter the sum collapses."""
    if any((b1 + m) == 0 or (a3 + m) == 0 for m in range(n)):
        return
    lhs = hyper3f2_unit(n, a2, a3, b1, a3)
    rhs = hyper2f1_terminating(n, a2, b1, MPoly.const(1)).constant()
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), rationals, rationals, rationals, rationals)
def test_3f2_matches_series_oracle(n, a2, a3, b1, b2):
    if any((b1 + m) == 0 or (b2 + m) == 0 for m in range(n)):
        return
    assert hyper3f2_unit(n, a2, a3, b1, b2) == hyper3f2_series(n, a2, a3, b1, b2)
