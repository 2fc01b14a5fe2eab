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

from oracles import evaluate, hyper2f1_series, hyper3f2_series, rising

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
    assert evaluate(poly, (0, 0, 0)) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), rationals, rationals, st.fractions(min_value=-2, max_value=2, max_denominator=5))
def test_2f1_matches_series_oracle(n, b, c, xval):
    if any((c + m) == 0 for m in range(n)):
        return
    poly = hyper2f1_terminating(n, b, c, X)
    assert evaluate(poly, (xval, 0, 0)) == hyper2f1_series(n, b, c, xval)


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
    rhs = hyper2f1_terminating(n, a2, b1, MPoly.const(1)).coeff(0, 0, 0)
    assert lhs == rhs




# The integer kernels against the Fraction oracles, on arguments that mix
# denominators (thirds with halves), negative values and plain ints.
mixed = st.one_of(
    st.integers(-6, 6),
    st.builds(F, st.integers(-20, 20), st.sampled_from([2, 3, 6])),
    rationals,
)


@settings(max_examples=120, deadline=None)
@given(mixed, st.integers(0, 9))
def test_pochhammer_matches_rising_oracle(lam, n):
    out = pochhammer(lam, n)
    assert type(out) is F and out == rising(lam, n)


@settings(max_examples=120, deadline=None)
@given(mixed, st.integers(-8, 8))
def test_gamma_ratio_matches_rising_oracle(base, offset):
    if offset >= 0:
        expected = rising(base, offset)
    else:
        denom = rising(F(base) + offset, -offset)
        if denom == 0:
            with pytest.raises(PoleHit) as hit:
                gamma_ratio(base, offset)
            assert str(hit.value) == f"gamma ratio pole at base={F(base)}, offset={offset}"
            return
        expected = 1 / denom
    out = gamma_ratio(base, offset)
    assert type(out) is F and out == expected


def _first_pole(n, a2, a3, b1, b2):
    """The m at which the running-ratio sum meets a zero lower parameter,
    or None: the sum stops after the first term whose upper factor
    a2 + m or a3 + m vanishes."""
    for m in range(n):
        if b1 + m == 0 or b2 + m == 0:
            return m
        if a2 + m == 0 or a3 + m == 0:
            return None
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), mixed, mixed, mixed, mixed)
def test_3f2_matches_series_oracle(n, a2, a3, b1, b2):
    pole = _first_pole(n, a2, a3, b1, b2)
    if pole is not None:
        with pytest.raises(PoleHit) as hit:
            hyper3f2_unit(n, a2, a3, b1, b2)
        assert str(hit.value) == f"3F2 pole in lower parameter at m={pole}"
        return
    if any(b1 + m == 0 or b2 + m == 0 for m in range(n)):
        return  # a pole past a zero term, where the oracle divides by 0
    out = hyper3f2_unit(n, a2, a3, b1, b2)
    assert type(out) is F and out == hyper3f2_series(n, a2, a3, b1, b2)


def test_3f2_pole_past_a_zero_term_is_not_reached():
    # a3 + 1 = 0 ends the sum at m = 1, before b1 + 2 = 0 at m = 2.
    assert hyper3f2_unit(4, F(1, 2), -1, -2, F(1, 3)) == -2
    with pytest.raises(PoleHit) as hit:
        hyper3f2_unit(4, F(1, 2), F(-5, 2), -2, F(1, 3))
    assert str(hit.value) == "3F2 pole in lower parameter at m=2"
