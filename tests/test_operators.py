"""Operator application, verification reports, erratum aggregation."""

import pickle
from dataclasses import replace
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from simplexpoly import (
    connect_alpha,
    connect_general,
    gamma_ratio,
    pochhammer,
    shifted_jacobi,
    simplex_poly,
    triangle_poly,
    verify_reduction_ab0,
    verify_theorem1,
)
from simplexpoly.operators import (
    DiffOperator,
    Row,
    VerificationReport,
    as_tuple,
    report_equality,
    summarize,
    verify_composition,
    verify_sparse,
)
from simplexpoly.ratpoly import (
    MPoly,
    NonzeroRemainder,
    ONE,
    ONE_MINUS_X,
    ONE_MINUS_XY,
    X,
    Y,
    ZERO,
    Rat,
)
from simplexpoly import jacobi1d, sweeps, triangle2d
from simplexpoly.simplex3d import FAMILY as FAMILY_3D
from simplexpoly.triangle2d import verify_d0_reduction

F = Fraction


def test_apply_combines_value_and_derivatives():
    op = DiffOperator(c0=MPoly.const(2), cx=X, cy=-Y)
    u = X * Y
    assert op.apply(u) == (X * Y).scale(2) + X * Y - Y * X == (X * Y).scale(2)


def test_apply_divides_exactly():
    # (1-x) * d/dx over denominator (1-x) is plain d/dx on any input
    op = DiffOperator(c0=ZERO, cx=ONE_MINUS_X * ONE, denom=ONE_MINUS_X)
    assert op.apply(X * X) == X.scale(2)


def test_apply_reports_nonzero_remainder():
    op = DiffOperator(c0=ONE, denom=ONE_MINUS_XY)
    with pytest.raises(NonzeroRemainder):
        op.apply(X)


def test_report_equality_pass_and_fail():
    ok = report_equality("r", (1,), (F(0),), X, X)
    assert ok.status == "pass" and ok.ok
    bad = report_equality("r", (1,), (F(0),), X, Y)
    assert bad.status == "fail" and not bad.ok
    assert bad.lhs == "1 * x^1" and bad.rhs == "1 * y^1"
    assert bad.difference == "1 * x^1 - 1 * y^1" and ok.difference is None


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_targets = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _rationals, max_size=5).map(MPoly)
_DENOMINATORS = [ONE, ONE_MINUS_X, ONE_MINUS_XY, ONE_MINUS_X * ONE_MINUS_XY]


@settings(max_examples=150, deadline=None)
@given(_targets, st.sampled_from(_DENOMINATORS), _rationals,
       st.tuples(*[st.integers(0, 3)] * 3), _rationals.filter(bool))
def test_the_judge_decides_lhs_as_scale_times_denom_times_rhs(t, d, s, where, step):
    num = (t * d).scale(s)
    assert report_equality("r", (1,), (F(0),), num, t, scale=s, denom=d).status == "pass"
    assert report_equality("r", (1,), (F(0),), num, t, scale=s, denom=d,
                           applicable=False).status == "not_applicable"
    # One coefficient of num / d moved: num itself moves by step * m * d.
    moved = MPoly({where: step})
    bad = report_equality("r", (1,), (F(0),), num + moved * d, t, scale=s, denom=d,
                          detail="why")
    assert bad.status == "fail" and bad.detail == "why"
    assert bad.lhs == (t.scale(s) + moved).to_text()
    assert bad.rhs == t.scale(s).to_text()
    assert bad.difference == moved.to_text()
    assert report_equality("r", (1,), (F(0),), num + moved * d, t, scale=s, denom=d,
                           applicable=False).status == "fail"


def test_report_json_shape():
    rep = report_equality("r", (1, 2), (F(1, 3),), X, Y, detail="why")
    rep.suite = "s"
    payload = rep.to_json()
    assert payload == {
        "relation": "r",
        "index": [1, 2],
        "params": ["1/3"],
        "status": "fail",
        "suite": "s",
        "lhs": "1 * x^1",
        "rhs": "1 * y^1",
        "detail": "why",
        "difference": "1 * x^1 - 1 * y^1",
    }


def _rep(relation, status):
    return VerificationReport(relation, (0,), (F(0),), status)


def test_summarize_counts_and_erratum_detection():
    reports = [
        _rep("good", "pass"),
        _rep("good", "pass"),
        _rep("flaky", "pass"),
        _rep("flaky", "fail"),
        _rep("typo", "fail"),
        _rep("typo", "fail"),
        _rep("typo", "not_applicable"),
    ]
    summary = summarize(reports)
    assert summary["totals"] == {"pass": 3, "fail": 3, "not_applicable": 1}
    # a relation failing on every applicable sample is an erratum candidate;
    # a partially failing one points at an implementation bug instead
    assert summary["erratum_candidates"] == ["typo"]
    assert summary["per_relation"]["flaky"]["fail"] == 1


# Every public exact entry point refuses a float or bool parameter with
# TypeError, and each member constructor a float index entry, instead of
# reading 0.1 as a nearby dyadic rational, true as 1 or 1.5 as 1.
_Z4, _Z6 = (0,) * 4, (0,) * 6
FLOAT_INPUTS = {
    "simplex_poly-param": lambda: simplex_poly((1, 0, 0), (0.1, 0, 0, 0, 0, 0)),
    "simplex_poly-index": lambda: simplex_poly((1.5, 0, 0), _Z6),
    "triangle_poly-param": lambda: triangle_poly((1, 0), (0.1, 0, 0, 0)),
    "triangle_poly-index": lambda: triangle_poly((1.5, 0), _Z4),
    "shifted_jacobi-param": lambda: shifted_jacobi(1, (0.1, 0)),
    # Below the domain, where the member is zero before any arithmetic
    # could trip over the float.
    "shifted_jacobi-index": lambda: shifted_jacobi(-1.0, (0, 0)),
    "verify_theorem1": lambda: verify_theorem1("N01", (1, 1, 0), (0.1, 0, 0, 0, 0, 0)),
    "verify_reduction_ab0": lambda: verify_reduction_ab0((1, 0, 0), (0.1, 0, 0, 0)),
    "verify_d0_reduction": lambda: verify_d0_reduction((1, 0), (0.1, 0, 0)),
    "connect_alpha-param": lambda: connect_alpha((1, 0, 0), (0.1, 0, 0, 0, 0, 0), 1),
    "connect_alpha-xi": lambda: connect_alpha((1, 0, 0), _Z6, 0.5),
    "connect_general-param": lambda: connect_general((1, 0, 0), (0.1, 0, 0, 0, 0, 0), _Z4),
    "connect_general-target": lambda: connect_general((1, 0, 0), _Z6, (0.5, 0, 0, 0)),
    "pochhammer": lambda: pochhammer(0.5, 2),
    "gamma_ratio": lambda: gamma_ratio(0.5, -2),
    "simplex_poly-param-bool": lambda: simplex_poly((1, 0, 0), (True, 0, 0, 0, 0, 0)),
    "triangle_poly-param-bool": lambda: triangle_poly((1, 0), (0, True, 0, 0)),
    "shifted_jacobi-param-bool": lambda: shifted_jacobi(1, (True, 0)),
    "connect_alpha-xi-bool": lambda: connect_alpha((1, 0, 0), _Z6, True),
    "connect_general-target-bool": lambda: connect_general((1, 0, 0), _Z6, (True, 0, 0, 0)),
    "pochhammer-bool": lambda: pochhammer(True, 2),
}


@pytest.mark.parametrize("case", sorted(FLOAT_INPUTS))
def test_float_input_is_refused(case):
    with pytest.raises(TypeError):
        FLOAT_INPUTS[case]()


# -- parameter rows -------------------------------------------------------------

def test_row_hashes_as_its_tuple_and_is_the_same_dict_key():
    values = (F(1, 3), F(-1, 2), F(0))
    row = as_tuple(values, 3)
    assert type(row) is Row and row == values
    assert hash(row) == hash(values) and hash(row) == hash(values)
    table = {values: "tuple"}
    assert table[row] == "tuple"
    table[row] = "row"
    assert table == {values: "row"}


def test_row_pickle_keeps_the_values_and_drops_the_caches():
    row = as_tuple(("1/3", 2), 2)
    hash(row), row.text, row.shift((1, 0)), row.derive(lambda a, b: a + b)
    back = pickle.loads(pickle.dumps(row))
    assert type(back) is Row and back == row and vars(back) == {}


def _rat_row(row, length):
    assert type(row) is Row and len(row) == length
    assert all(type(v) is Rat for v in row)
    return row


@pytest.mark.parametrize("source", ["as_tuple", "config_row", "check"])
def test_every_row_entry_is_a_rat_and_survives_a_pickle(source):
    values = ["1/3", -2, "0", "-3/4", 5, "2/6"]
    row = _rat_row({
        "as_tuple": lambda: as_tuple([F(v) for v in values], 6),
        "config_row": lambda: sweeps.config_row(values, "params[0]", 6),
        "check": lambda: FAMILY_3D.check(values[:1] + values[2:] + [F(-1, 2)]),
    }[source](), 6)
    _rat_row(row.shift((1, 0, -1, 0, 0, 0)), 6)
    # The --jobs pool sends rows to its workers and back as pickles.
    back = _rat_row(pickle.loads(pickle.dumps(row)), 6)
    assert back == row and hash(back) == hash(row) and back.text == row.text
    assert back.text == tuple(str(F(v)) for v in back)


def test_row_shift_is_the_same_row_again():
    row = as_tuple((F(1, 3), 0), 2)
    shifted = row.shift((1, -1))
    assert type(shifted) is Row and shifted == (F(4, 3), F(-1))
    assert row.shift((1, -1)) is shifted
    assert row.shift((0, 0)) == row


def test_row_derive_calls_its_function_once():
    calls = []

    def total(a, b):
        calls.append((a, b))
        return a + b

    row = as_tuple((F(1, 3), 1), 2)
    assert row.derive(total) == F(4, 3) and row.derive(total) == F(4, 3)
    assert calls == [(F(1, 3), F(1))]
    assert row.text == ("1/3", "1")


def test_row_passes_through_the_conversion():
    row = as_tuple((1, 2), 2)
    assert as_tuple(row, 2) is row
    with pytest.raises(ValueError):
        as_tuple(row, 3)


@pytest.mark.parametrize("bad", [0.5, True])
def test_row_refuses_a_float_or_a_bool(bad):
    with pytest.raises(TypeError):
        as_tuple((bad, 0), 2)


@pytest.mark.parametrize("family, entry_id, idx, width", [
    (jacobi1d.FAMILY, "L1p.L1.rel", 1, 2),
    (triangle2d.FAMILY, "M01p.M01", (1, 1), 4),
    (FAMILY_3D, "O10p.O10", (0, 0, 1), 6),
], ids=["interval", "triangle", "tetrahedron"])
def test_a_composition_on_a_zero_operand_is_not_applicable(family, entry_id, idx, width):
    # The operand's row has a parameter of -1, where its member vanishes and
    # the identity reads 0 = eig*0.
    row = (F(0),) * width
    idx0, params0 = family.second_order[entry_id].shifted(family.index(idx), family.params(row))
    assert family.member(idx0, params0).is_zero
    assert verify_composition(family, entry_id, idx, row).status == "not_applicable"


def test_an_unsupported_divisor_raises_on_a_zero_image():
    # Where the target leaves the index domain, a zero image still meets
    # the divisor check first, as the exact division did.
    fam = triangle2d.FAMILY
    rel = fam.sparse["M10"]
    typo = replace(fam, sparse={"M10": replace(
        rel, operator=lambda *args: replace(rel.operator(*args), denom=Y))})
    with pytest.raises(ValueError, match="unsupported divisor shape"):
        verify_sparse(typo, "M10", (0, 0), (F(1, 3), F(-1, 2), F(1), F(0)))
    assert verify_sparse(fam, "M10", (0, 0), (F(1, 3), F(-1, 2), F(1), F(0))).status \
        == "not_applicable"


def test_a_failing_composition_keeps_its_scale_detail():
    fam = triangle2d.FAMILY
    ent = fam.second_order["M20p.M20"]
    typo = replace(fam, second_order={"M20p.M20": replace(
        ent, eig=lambda *args: ent.eig(*args) + 1)})
    r = verify_composition(typo, "M20p.M20", (2, 1), (F(1, 3), F(-1, 2), F(1), F(0)))
    assert r.status == "fail" and r.detail.startswith("scale product ")
    assert " != tabulated eigenvalue " in r.detail and r.difference not in (None, "0")
