"""Connection expansions between parameter families."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from simplexpoly.simplex3d import (
    _conn1d_coeff,
    connect_alpha,
    connect_general,
    simplex_poly_raw,
)
from simplexpoly.operators import PASS
from simplexpoly.special import PoleHit

from oracles import hyper3f2_series, rising

F = Fraction

ZEROS = (F(0),) * 6
PARAMS_GRID = [
    ZEROS,
    (F(1, 3), F(1, 3), F(1, 3), F(1, 3), F(1, 3), F(1, 3)),
    (F(1), F(-1, 2), F(0), F(1, 3), F(1), F(0)),
    (F(2), F(0), F(1), F(-1, 2), F(1, 3), F(1)),
]
XIS = [F(1, 2), F(-1, 4), F(2), F(1, 3)]


def indices(max_n):
    return [
        (i, j, k)
        for i in range(max_n + 1)
        for j in range(max_n + 1)
        for k in range(max_n + 1)
        if i + j + k <= max_n
    ]


def test_alpha_identity_target_collapses():
    for params in PARAMS_GRID:
        for idx in indices(3):
            exp = connect_alpha(idx, params, params[0])
            assert len(exp.terms) == 1
            assert exp.terms[0].coeff == 1
            assert exp.terms[0].index == idx


def test_alpha_degree_zero_in_first_slot():
    exp = connect_alpha((0, 2, 1), PARAMS_GRID[2], F(1, 2))
    assert len(exp.terms) == 1 and exp.terms[0].coeff == 1


def test_alpha_two_term_expansion():
    exp = connect_alpha((1, 0, 0), ZEROS, F(1, 2))
    assert [t.index for t in exp.terms] == [(1, 0, 0), (0, 0, 0)]
    assert exp.report("connect.alpha", (*ZEROS, F(1, 2))).status == PASS


@pytest.mark.parametrize("params", PARAMS_GRID)
def test_alpha_reassembles_exactly(params):
    for idx in indices(4):
        for xi in XIS:
            report = connect_alpha(idx, params, xi).report("connect.alpha", (*params, xi))
            assert report.status == PASS, (idx, xi)


def test_general_identity_target_collapses():
    for params in PARAMS_GRID:
        for idx in indices(2):
            exp = connect_general(idx, params, params[:4])
            assert len(exp.terms) == 1
            term = exp.terms[0]
            assert term.coeff == 1 and term.index == idx
            assert term.pow_1x == 0 and term.pow_1xy == 0


def test_general_origin_is_single_unit_term():
    exp = connect_general((0, 0, 0), PARAMS_GRID[2], (F(1), F(0), F(-1, 2), F(1, 3)))
    assert len(exp.terms) == 1 and exp.terms[0].coeff == 1


def test_general_second_slot_expansion():
    exp = connect_general((0, 1, 0), ZEROS, (F(0), F(1, 2), F(0), F(0)))
    ks = sorted(t.index for t in exp.terms)
    assert ks == [(0, 0, 0), (0, 1, 0)]
    assert exp.report("connect.general", (*ZEROS, F(0), F(1, 2), F(0), F(0))).status == PASS
    # the lowered term carries the compensating (1-x) factor
    lowered = [t for t in exp.terms if t.index == (0, 0, 0)][0]
    assert lowered.pow_1x == 1 and lowered.pow_1xy == 0


TARGETS = [
    (F(0), F(1, 2), F(0), F(0)),
    (F(1), F(0), F(-1, 2), F(1, 3)),
    (F(1, 3), F(1), F(2), F(0)),
]


@pytest.mark.parametrize("params", PARAMS_GRID)
def test_general_reassembles_exactly(params):
    for idx in indices(3):
        for target in TARGETS:
            report = connect_general(idx, params, target).report("connect.general",
                                                                 (*params, *target))
            assert report.status == PASS, (idx, target)


def _sorted_terms(expansion):
    return sorted((t.index, t.coeff, t.pow_1x, t.pow_1xy) for t in expansion.terms)


# The two theorems are transcribed separately, so where only alpha changes
# each one checks the other's coefficients: an erratum in either formula
# makes the two expansions differ.
@pytest.mark.parametrize("params", PARAMS_GRID)
def test_the_two_connection_theorems_agree_where_only_alpha_changes(params):
    for idx in indices(4):
        for xi in XIS:
            alpha = connect_alpha(idx, params, xi)
            general = connect_general(idx, params, (xi, *params[1:4]))
            assert _sorted_terms(alpha) == _sorted_terms(general), (idx, xi)


def test_expansion_coefficients_are_exact_fractions():
    exp = connect_general((1, 1, 1), PARAMS_GRID[1], TARGETS[1])
    assert all(isinstance(t.coeff, F) for t in exp.terms)
    assert exp.reassemble() == simplex_poly_raw(1, 1, 1, *PARAMS_GRID[1])


def _conn1d_by_fractions(n, k, pa, pb, qa, qb):
    """The 1-D connection coefficient as a Fraction product, with the 3F2
    summed by the factorial series."""
    lead = (rising(k + pa + 1, n - k) * rising(n + pa + pb + 1, k)
            / (math.factorial(n - k) * rising(k + qa + qb + 1, k)))
    return lead * hyper3f2_series(n - k, n + k + pa + pb + 1, k + qa + 1, 2 * k + qa + qb + 2,
                                  k + pa + 1)


def _outcome(fn, pole, *args):
    """fn(*args), or "pole" where it raises `pole`."""
    try:
        return fn(*args)
    except pole:
        return "pole"


mixed = st.one_of(st.integers(-5, 5).map(F),
                  st.builds(F, st.integers(-15, 15), st.sampled_from([2, 3, 4, 6])))


# The integer coefficient against the Fraction formula, on parameters that
# mix denominators and reach the zeros of (k+qa+qb+1)_k: equal values, and
# PoleHit exactly where the formula divides by zero.  The 3F2's own poles
# are left to tests/test_special.py: its running-ratio sum stops at a zero
# term, and the factorial series does not.
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), mixed, mixed, mixed, mixed)
def test_conn1d_coeff_matches_fraction_formula(n, k, pa, pb, qa, qb):
    k = min(k, n)
    if rising(k + qa + qb + 1, k) != 0 and any(
            2 * k + qa + qb + 2 + m == 0 or k + pa + 1 + m == 0 for m in range(n - k)):
        return
    got = _outcome(_conn1d_coeff, PoleHit, n, k, pa, pb, qa, qb)
    assert got == _outcome(_conn1d_by_fractions, ZeroDivisionError, n, k, pa, pb, qa, qb)
    assert got == "pole" or type(got) is F


def test_conn1d_coeff_zero_lower_pochhammer_is_a_pole():
    # (k + qa + qb + 1)_k = (1/2 - 3/2)(...) = 0 at k = 1.
    with pytest.raises(ZeroDivisionError):
        _conn1d_by_fractions(2, 1, F(1, 3), F(1, 2), F(-1, 2), F(-3, 2))
    with pytest.raises(PoleHit, match=r"^connection coefficient pole: \(k\+qa\+qb\+1\)_k = 0 "
                                      r"at k=1, qa\+qb=-2$"):
        _conn1d_coeff(2, 1, F(1, 3), F(1, 2), F(-1, 2), F(-3, 2))
