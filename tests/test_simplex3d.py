"""Tetrahedron family: construction, relations, equations, recurrences."""

import math
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from simplexpoly import sweeps
from simplexpoly.operators import as_tuple
from simplexpoly.ratpoly import (
    MPoly,
    ONE,
    ONE_MINUS_X,
    ONE_MINUS_XY,
    ONE_MINUS_XYZ,
    X,
    Y,
    Z,
)
from simplexpoly.simplex3d import (
    DERIVATIVES,
    MULTIPLICATIONS,
    PDE_3D,
    SECOND_ORDER_3D,
    THEOREM1,
    WEIGHTED,
    FAMILY,
    Params,
    classical_simplex_poly_raw,
    monic_simplex,
    pde_residual_3d,
    simplex_norm,
    simplex_poly,
    simplex_poly_raw,
    three_term_x,
    verify_corollary_derivatives,
    verify_corollary_multiplication,
    verify_corollary_weighted,
    verify_reduction_ab0,
    verify_second_order_3d,
    verify_theorem1,
    verify_three_term,
)
from simplexpoly.special import PoleHit

from oracles import evaluate, integrate_tetra, tetra_weighted_mean

F = Fraction

ZEROS = (F(0),) * 6
PARAMS_GRID = [
    ZEROS,
    (F(1, 3), F(-1, 2), F(1), F(0), F(1, 2), F(2)),
    (F(-1, 2), F(0), F(1, 3), F(1), F(2), F(-1, 2)),
    (F(1), F(1, 3), F(0), F(-1, 2), F(0), F(1)),
]


def indices(max_n):
    return [
        (i, j, k)
        for i in range(max_n + 1)
        for j in range(max_n + 1)
        for k in range(max_n + 1)
        if i + j + k <= max_n
    ]


def test_validation():
    with pytest.raises(ValueError):
        FAMILY.check((F(-2), F(0), F(0), F(0), F(0), F(0)))
    assert not FAMILY.valid((1, -1, 0))
    assert FAMILY.view(*PARAMS_GRID[1]).e == sum(PARAMS_GRID[1])
    assert FAMILY.valid((1, 2, 3))


def test_degree_zero_and_one_members():
    assert simplex_poly((0, 0, 0), ZEROS) == ONE
    assert simplex_poly((1, 0, 0), ZEROS) == X.scale(4) - 1
    al, be, ga, de, a, b = PARAMS_GRID[1]
    assert simplex_poly((0, 0, 1), PARAMS_GRID[1]) == Z.scale(
        ga + de + 2
    ) - ONE_MINUS_XY.scale(ga + 1)


def test_norm_frozen_values():
    ratio, absolute = simplex_norm((0, 0, 0), ZEROS)
    assert ratio == 1
    assert absolute == pytest.approx(F(1, 6), rel=1e-13)
    ratio, absolute = simplex_norm((1, 0, 0), ZEROS)
    assert absolute == pytest.approx(F(1, 10), rel=1e-13)


def test_norm_at_exponents_of_minus_one_half():
    """At (-1/2,)*6 every collapsed exponent is -1/2, an integrable weight
    whose mass is B(1/2, 1/2)^3 = pi^3."""
    ratio, absolute = simplex_norm((0, 0, 0), (F(-1, 2),) * 6)
    assert ratio == 1
    assert absolute == pytest.approx(math.pi**3, rel=1e-13)


@pytest.mark.parametrize("params, refusal", [
    # Every parameter exceeds -1, but beta + gamma + delta + a + b + 2 does not.
    ((F(-9, 10),) * 6, r"exponent -5/2 on axis x must"),
    # gamma + delta + b + 1 is -1 exactly, the edge where the integral diverges.
    ((0, 0, F(-2, 3), F(-2, 3), 0, F(-2, 3)), r"exponent -1 on axis y/\(1-x\) must"),
])
def test_norm_refuses_a_weight_that_is_not_integrable(params, refusal):
    with pytest.raises(ValueError, match="the weight's " + refusal + " exceed -1"):
        simplex_norm((0, 0, 0), params)


def test_norm_against_exact_integration():
    mass = integrate_tetra(ONE)
    assert mass == F(1, 6)
    for idx in indices(3):
        p = simplex_poly_raw(*idx, *ZEROS)
        ratio, absolute = simplex_norm(idx, ZEROS)
        exact = integrate_tetra(p * p)
        assert exact / mass == ratio
        assert absolute == pytest.approx(exact, rel=1e-12)


def test_norm_against_weighted_moments():
    for params in PARAMS_GRID:
        for idx in indices(3):
            p = simplex_poly_raw(*idx, *params)
            ratio, _ = simplex_norm(idx, params)
            assert tetra_weighted_mean(p * p, params) == ratio


def test_orthogonality_of_distinct_members():
    params = PARAMS_GRID[1]
    members = [simplex_poly_raw(*idx, *params) for idx in indices(3)]
    for i, p in enumerate(members):
        for q in members[:i]:
            assert tetra_weighted_mean(p * q, params) == 0


def test_operator_descriptors():
    idx = (2, 1, 3)
    p = FAMILY.view(*PARAMS_GRID[1])
    al, be, ga, de, a, b = p
    op = THEOREM1["O10"].operator(*idx, p)
    assert op.cz == ONE and op.c0.is_zero
    op = THEOREM1["N06"].operator(*idx, p)
    assert op.denom == ONE_MINUS_XY
    assert op.c0 == ONE_MINUS_XY.scale(be) + Y.scale(3)
    assert op.cy == Y * ONE_MINUS_XY and op.cz == -(Y * Z)
    op = THEOREM1["O60p"].operator(*idx, p)
    assert op.c0 == MPoly.const(de) and op.cz == -ONE_MINUS_XYZ


def _shifted_rows(row):
    """`row` and every row that its shifts, and theirs, have reached."""
    rows, stack = [], [row]
    while stack:
        r = stack.pop()
        if all(r is not seen for seen in rows):
            rows.append(r)
            stack.extend(r.shift(d) for d in r._shifts)
    return rows


def test_row_view_and_e_are_built_once_per_row(monkeypatch):
    evaluations = []
    sum_e = Params.__dict__["e"].func  # the function that Params caches as e

    def counting_e(view):
        evaluations.append(view)
        return sum_e(view)

    e = cached_property(counting_e)
    e.__set_name__(Params, "e")
    monkeypatch.setattr(Params, "e", e)
    row = FAMILY.params(PARAMS_GRID[1])
    view, shifted = row.derive(FAMILY.view), row.shift((1,) * 6)
    assert row.derive(FAMILY.view) is view
    assert shifted.derive(FAMILY.view) is shifted.derive(FAMILY.view)
    for idx in indices(2):
        for op in THEOREM1:
            verify_theorem1(op, idx, row)
        for key in SECOND_ORDER_3D:
            verify_second_order_3d(key, idx, row)
        for which in PDE_3D:
            pde_residual_3d(which, idx, row)
    # Every line that reads p.e ran at each of these indices, yet e was
    # summed at most once per row: only on the view cached on a row that
    # the checks reached, never on a view built again.
    views = [r.derive(FAMILY.view) for r in _shifted_rows(row)]
    assert 1 < len(evaluations) <= len(views)
    assert all(any(v is w for w in views) for v in evaluations)
    assert view.e == sum(PARAMS_GRID[1])


def test_theorem1_spot_examples():
    assert verify_theorem1("O10", (0, 0, 1), PARAMS_GRID[1]).status == "pass"
    assert verify_theorem1("N30p", (0, 0, 0), PARAMS_GRID[1]).status == "pass"
    assert verify_theorem1("N20", (0, 0, 0), PARAMS_GRID[2]).status == "pass"


def test_second_order_spot_examples():
    assert verify_second_order_3d("N01.N01p", (0, 0, 0), PARAMS_GRID[1]).status == "pass"
    assert verify_second_order_3d("O10.O10p", (0, 0, 0), PARAMS_GRID[2]).status == "pass"
    assert verify_second_order_3d("N40p.N40", (1, 0, 0), PARAMS_GRID[3]).status == "pass"


def test_table_sizes():
    assert len(THEOREM1) == 36
    assert len(SECOND_ORDER_3D) == 36


@pytest.mark.parametrize("params", PARAMS_GRID)
def test_all_relations_small_sweep(params):
    for idx in indices(3):
        for op in THEOREM1:
            assert verify_theorem1(op, idx, params).ok, (op, idx)
        for key in SECOND_ORDER_3D:
            assert verify_second_order_3d(key, idx, params).ok, (key, idx)


# Parameters at or below the pole, which ladder steps reach from inside the
# domain, mixed with values inside it.
AT_OR_BELOW_POLE = st.sampled_from([F(-2), F(-3, 2), F(-1)])
IN_DOMAIN = st.fractions(min_value=-1, max_value=3, max_denominator=6).filter(lambda v: v > -1)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(AT_OR_BELOW_POLE, IN_DOMAIN), min_size=6, max_size=6)
    .filter(lambda p: min(p) <= -1),
    st.sampled_from(indices(3)),
)
def test_ladder_relations_hold_next_to_the_pole(params, idx):
    failed = [op for op in THEOREM1 if verify_theorem1(op, idx, params).status == "fail"]
    assert failed == []


@pytest.mark.parametrize("params", PARAMS_GRID)
def test_pde_residuals_vanish(params):
    for idx in indices(3):
        for which in ("T1", "T2", "T3", "T4"):
            assert pde_residual_3d(which, idx, params).is_zero, (which, idx)


def test_pde_spot_examples():
    assert pde_residual_3d("T3", (0, 0, 1), PARAMS_GRID[1]).is_zero
    assert pde_residual_3d("T1", (0, 0, 0), PARAMS_GRID[2]).is_zero
    assert pde_residual_3d("T4", (1, 0, 0), PARAMS_GRID[3]).is_zero


def test_pde_nonmember_leaves_residual():
    assert not pde_residual_3d("T3", (1, 1, 1), ZEROS, u=X * Y * Z).is_zero


def test_reduction_examples():
    assert simplex_poly((1, 0, 0), ZEROS) == classical_simplex_poly_raw(1, 0, 0, 0, 0, 0, 0)
    for params in PARAMS_GRID:
        for idx in indices(3):
            assert verify_reduction_ab0(idx, params[:4]).status == "pass"


@pytest.mark.parametrize("typos, key", [
    ({"y", "z"}, "y"), ({"x", ""}, "x"), ({""}, "0"),
    # One typo per coefficient of T1, each of which is compared on its own.
    *(({k}, k or "0") for k in ("xx", "yy", "zz", "xz", "yz", "xy", "x", "y", "z", "")),
])
def test_reduction_ab0_reports_the_first_coefficient_mismatch(typos, key, monkeypatch):
    # The coefficients are compared in T1's key order, u's last; a failure
    # names the first mismatch.
    from simplexpoly import simplex3d

    t1 = simplex3d._t1_coeffs
    q = (F(1, 3), F(-1, 2), F(1), F(2))
    right = t1(1, 1, 0, FAMILY.view(*q, F(0), F(0)))[key if key != "0" else ""]

    def typo(*args):
        return {k: c + ONE if k in typos else c for k, c in t1(*args).items()}

    monkeypatch.setattr(simplex3d, "_t1_coeffs", typo)
    r = verify_reduction_ab0((1, 1, 0), q)
    assert r.status == "fail" and r.detail == f"first-equation coefficient mismatch on u_{key}"
    assert r.lhs == (right + ONE).to_text()
    assert r.difference == "1"


def test_reduced_equation_drift_coefficient():
    """At a = b = 0 the y-drift of the first equation collapses to
    (beta+1) - (alpha+beta+gamma+delta+4) y times the clearing factor."""
    from simplexpoly.simplex3d import _t1_coeffs

    al, be, ga, de = F(1, 3), F(-1, 2), F(1), F(2)
    coeffs = _t1_coeffs(2, 1, 0, FAMILY.view(al, be, ga, de, F(0), F(0)))
    expected = (MPoly.const(be + 1) - Y.scale(al + be + ga + de + 4)) * (
        ONE_MINUS_X * ONE_MINUS_XY
    )
    assert coeffs["y"] == expected


def test_monic_frozen_examples():
    assert monic_simplex((0, 0, 0), ZEROS) == ONE
    assert monic_simplex((0, 1, 1), ZEROS) == Y * Z
    m = monic_simplex((1, 0, 0), PARAMS_GRID[1])
    assert m.coeff(1, 0, 0) == 1
    assert pde_residual_3d("T4", (1, 0, 0), PARAMS_GRID[1], m).is_zero


@pytest.mark.parametrize("params", PARAMS_GRID)
def test_monic_satisfies_equation_with_unit_lead(params):
    for idx in indices(4):
        m = monic_simplex(idx, params)
        assert m.coeff(*idx) == 1
        assert pde_residual_3d("T4", idx, params, m).is_zero


def test_three_term_hand_checked_case():
    ca, cb, cc = three_term_x((0, 0, 0), ZEROS)
    assert (ca, cb, cc) == (F(1, 4), F(1, 4), F(0))
    # x * 1 == 1/4 * (4x - 1) + 1/4
    assert X == simplex_poly_raw(1, 0, 0, *ZEROS).scale(ca) + ONE.scale(cb)


def test_three_term_coefficient_values():
    ca, _, _ = three_term_x((0, 0, 0), ZEROS)
    assert ca == F(1, 4)
    _, cb, _ = three_term_x((1, 0, 0), ZEROS)
    assert cb == F(5, 12)


@pytest.mark.parametrize("params", PARAMS_GRID)
def test_three_term_holds(params):
    for idx in indices(4):
        assert verify_three_term(idx, params).status == "pass"


@st.composite
def three_term_pole_rows(draw):
    """(index, parameters) with e + 2n in {-2, -3, -4}: five parameters
    drawn freely, the sixth solved for."""
    idx = draw(st.tuples(*[st.integers(0, 3)] * 3))
    params = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                           min_size=5, max_size=5))
    target = draw(st.sampled_from([-2, -3, -4]))
    params.insert(draw(st.integers(0, 5)), target - 2 * sum(idx) - sum(params))
    return idx, tuple(F(v) for v in params)


@settings(max_examples=60, deadline=None)
@given(three_term_pole_rows())
def test_three_term_pole_is_not_applicable(row):
    idx, params = row
    with pytest.raises(PoleHit):
        three_term_x(idx, params)
    report = sweeps.run_task(("three_term", None, idx, params))
    assert report.relation == "three-term.x"
    assert report.status == "not_applicable"
    assert f"e+2n in {{-2,-3,-4}} at e={sum(params)}, n={sum(idx)}" in report.detail


def test_three_term_evaluation_spot_check():
    """Evaluating both sides at (1, 0, 0) reduces the recurrence to a
    scalar identity between boundary values."""
    params = PARAMS_GRID[1]
    at = (F(1), F(0), F(0))
    for n1 in range(5):
        ca, cb, cc = three_term_x((n1, 0, 0), params)
        lhs = evaluate(simplex_poly_raw(n1, 0, 0, *params), at)  # times x = 1
        rhs = (
            ca * evaluate(simplex_poly_raw(n1 + 1, 0, 0, *params), at)
            + cb * evaluate(simplex_poly_raw(n1, 0, 0, *params), at)
            + cc * evaluate(simplex_poly_raw(n1 - 1, 0, 0, *params), at)
        )
        assert lhs == rhs


def test_three_term_degenerate_parameter_sum_not_applicable():
    # Parameter sum -3 makes a denominator vanish: the verifier raises, and
    # the sweep reports the sample n/a.
    degenerate = as_tuple((F(-1, 2),) * 6, 6)
    with pytest.raises(PoleHit, match="three-term denominator vanishes"):
        verify_three_term((0, 0, 0), degenerate)
    report = sweeps.run_task(("three_term", None, (0, 0, 0), degenerate))
    assert (report.relation, report.status) == ("three-term.x", "not_applicable")
    assert report.detail.startswith("PoleHit: three-term denominator vanishes")


QUADS = [p[:4] for p in PARAMS_GRID]


@pytest.mark.parametrize("quad", QUADS)
def test_corollary_identities(quad):
    for idx in indices(3):
        for which in DERIVATIVES:
            assert verify_corollary_derivatives(which, idx, quad).ok, (which, idx)
        for which in WEIGHTED:
            assert verify_corollary_weighted(which, idx, quad).ok, (which, idx)
        for which in MULTIPLICATIONS:
            assert verify_corollary_multiplication(which, idx, quad).ok, (which, idx)


def test_corollary_spot_examples():
    quad = QUADS[1]
    # pure z-derivative at the first nontrivial index
    assert verify_corollary_derivatives("dz", (0, 0, 1), quad).status == "pass"
    # degree zero: both sides vanish
    assert verify_corollary_derivatives("dx-dy", (0, 0, 0), quad).status == "pass"
    assert verify_corollary_derivatives("dz.dx-dy", (0, 0, 0), quad).status == "pass"
    # weighted z-derivative at the origin member
    assert verify_corollary_weighted("dz", (0, 0, 0), quad).status == "pass"
    assert verify_corollary_weighted("dx-dy", (0, 0, 0), quad).status == "pass"
    # multiplication identities at the origin member
    for which in MULTIPLICATIONS:
        assert verify_corollary_multiplication(which, (0, 0, 0), quad).status == "pass"


# The derivative and weighted-derivative left-hand sides as the paper writes
# them, with MPoly.diff and products: a transcription of the operators that
# is independent of the maps the tables hand to MPoly.apply_derivatives.
def _dx_dy(u):
    return u.diff("x") - u.diff("y")


def _xy_weighted(u, p):
    # x y (d/dx - d/dy)(x^al y^be w^de u) / (x^(al-1) y^(be-1) w^de)
    return X * Y * _dx_dy(u) + (Y.scale(p.al) - X.scale(p.be)) * u


def _zw_weighted(u, p):
    # z w d/dz(z^ga w^de u) / (z^(ga-1) w^(de-1)), w = 1-x-y-z
    w = ONE_MINUS_XYZ
    return Z * w * u.diff("z") + (w.scale(p.ga) - Z.scale(p.de)) * u


def _h2(n1, n2, n3, p):
    return 2 * n2 + 2 * n3 + p.be + p.ga + p.de + 2


def _h3(n1, n2, n3, p):
    return 2 * n3 + p.ga + p.de + 1


COROLLARY_ORACLES = {
    ("deriv", "dx-dy"): lambda u, idx, p: _dx_dy(u).scale(_h2(*idx, p)),
    ("deriv", "dz-dy"): lambda u, idx, p: (u.diff("z") - u.diff("y")).scale(_h3(*idx, p)),
    ("deriv", "dz"): lambda u, idx, p: u.diff("z"),
    ("deriv", "dz.dx-dy"): lambda u, idx, p: _dx_dy(u).diff("z").scale(_h2(*idx, p)),
    ("weighted", "dx-dy"): lambda u, idx, p: _xy_weighted(u, p).scale(_h2(*idx, p)),
    ("weighted", "dz-dy"): lambda u, idx, p: (
        Y * Z * (u.diff("z") - u.diff("y")) + (Y.scale(p.ga) - Z.scale(p.be)) * u
    ).scale(_h3(*idx, p)),
    ("weighted", "dz"): lambda u, idx, p: _zw_weighted(u, p),
    ("weighted", "dz.dx-dy"): lambda u, idx, p:
    _zw_weighted(_xy_weighted(u, p), p).scale(_h2(*idx, p)),
}
ORACLE_INDICES = [(1, 1, 1), (2, 1, 1), (1, 2, 2), (0, 1, 3), (3, 0, 1)]


def _oracle_mismatches():
    """(kind, line, index, row) of each derivative or weighted-derivative
    left-hand side that differs from its transcription, on two rows."""
    tables = {"deriv": DERIVATIVES, "weighted": WEIGHTED}
    assert set(COROLLARY_ORACLES) == {(kind, which) for kind, table in tables.items()
                                      for which in table}
    out = []
    for quad in QUADS[1:3]:
        row = as_tuple((*quad, 0, 0), 6)
        p = row.derive(FAMILY.view)
        for idx in ORACLE_INDICES:
            u = FAMILY.member(idx, row)
            out += [(kind, which, idx, quad) for (kind, which), oracle in COROLLARY_ORACLES.items()
                    if tables[kind][which].lhs(u, *idx, p) != oracle(u, idx, p)]
    return out


def test_corollary_left_hand_sides_match_their_transcription():
    assert _oracle_mismatches() == []


# Each mutant changes one key of _xy_weighted's map: its sign, its letter,
# or the drop of the undifferentiated term.
XY_WEIGHTED_MUTANTS = {
    "sign": lambda p: {"x": X * Y, "y": X * Y, "": Y.scale(p.al) - X.scale(p.be)},
    "letter": lambda p: {"x": X * Y, "z": -(X * Y), "": Y.scale(p.al) - X.scale(p.be)},
    "dropped": lambda p: {"x": X * Y, "y": -(X * Y)},
}


@pytest.mark.parametrize("mutant", sorted(XY_WEIGHTED_MUTANTS))
def test_a_one_key_mutant_of_the_xy_weighted_map_fails_the_transcription(mutant, monkeypatch):
    from simplexpoly import simplex3d

    coeffs = XY_WEIGHTED_MUTANTS[mutant]
    monkeypatch.setattr(simplex3d, "_xy_weighted", lambda u, p: u.apply_derivatives(coeffs(p)))
    failed = {(kind, which) for kind, which, _, _ in _oracle_mismatches()}
    assert failed == {("weighted", "dx-dy"), ("weighted", "dz.dx-dy")}
