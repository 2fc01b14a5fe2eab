"""Exact polynomial arithmetic: examples, ring axioms, division."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from simplexpoly.ratpoly import (
    MPoly,
    NonzeroRemainder,
    ONE,
    ONE_MINUS_X,
    ONE_MINUS_XY,
    ONE_MINUS_XYZ,
    X,
    Y,
    Z,
    ZERO,
)

F = Fraction


def test_add_cancellation():
    assert (X + 1) + (-X) == ONE


def test_add_identity():
    p = X * Y - Z.scale(F(2, 3))
    assert p + ZERO == p


def test_add_doubles_coefficient():
    assert (X * Y) + (X * Y) == (X * Y).scale(2)


def test_mul_square():
    assert ONE_MINUS_X * ONE_MINUS_X == ONE - X.scale(2) + X * X


def test_mul_identity():
    p = X.scale(3) - Y * Z + 7
    assert p * ONE == p


def test_mul_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_diff_examples():
    assert (X * X * Y).diff("x") == (X * Y).scale(2)
    assert MPoly.const(F(5, 7)).diff("z") == ZERO
    assert (X * Y * Z).diff("z") == X * Y


def test_div_exact_square():
    assert (ONE - X.scale(2) + X * X).div_exact(ONE_MINUS_X) == ONE_MINUS_X


def test_div_exact_simplex_factor():
    assert (ONE_MINUS_XY * Y).div_exact(ONE_MINUS_XY) == Y


def test_div_exact_remainder_reported():
    with pytest.raises(NonzeroRemainder) as err:
        X.div_exact(ONE_MINUS_X)
    assert err.value.remainder == ONE


def test_eval_examples():
    assert (X + Y + Z).evaluate((F(1, 2), F(1, 4), F(1, 8))) == F(7, 8)
    assert ZERO.evaluate((F(3), F(-1), F(22, 7))) == 0
    assert (ONE_MINUS_X * ONE_MINUS_X).evaluate((F(1, 3), F(0), F(0))) == F(4, 9)


def test_to_text_format():
    assert (X.scale(4) - 1).to_text() == "4 * x^1 - 1"
    assert ZERO.to_text() == "0"
    assert (X * Y - Z.scale(F(1, 2))).to_text() == "1 * x^1 y^1 - 1/2 * z^1"


# -- randomized algebra ------------------------------------------------------

coeffs = st.integers(-9, 9).map(F) | st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        terms[draw(exponents)] = draw(coeffs)
    return MPoly(terms)


divisors = st.sampled_from(
    [
        ONE_MINUS_X,
        ONE_MINUS_XY,
        ONE_MINUS_XYZ,
        ONE_MINUS_X * ONE_MINUS_XY,
        ONE_MINUS_X * ONE_MINUS_XY * ONE_MINUS_XYZ,
    ]
)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p


@settings(max_examples=60, deadline=None)
@given(polys(), divisors)
def test_div_exact_inverts_multiplication(p, d):
    assert (p * d).div_exact(d) == p


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.sampled_from(["x", "y", "z"]))
def test_leibniz_rule(p, q, var):
    assert (p * q).diff(var) == p.diff(var) * q + p * q.diff(var)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.sampled_from(["x", "y", "z"]))
def test_diff_linearity(p, q, var):
    assert (p + q).diff(var) == p.diff(var) + q.diff(var)


@settings(max_examples=30, deadline=None)
@given(polys(), polys())
def test_identity_testing_on_grid(p, q):
    """Degree <= 3 polynomials agree on a 5^3 rational grid iff equal."""
    pts = [F(i, 4) for i in range(5)]
    agree = all(
        p.evaluate((x, y, z)) == q.evaluate((x, y, z))
        for x in pts
        for y in pts
        for z in pts
    )
    assert agree == (p == q)
