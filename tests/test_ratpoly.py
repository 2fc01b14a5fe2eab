"""Exact polynomial arithmetic: examples, ring axioms, division, and
agreement of every kernel with a plain Fraction-dict reference."""

import operator
import pickle
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from simplexpoly import jacobi1d, simplex3d, triangle2d
from simplexpoly.operators import DiffOperator
from simplexpoly.ratpoly import (
    EXPONENT_LIMIT as LIMIT,
    MPoly,
    NonzeroRemainder,
    ONE,
    ONE_MINUS_X,
    ONE_MINUS_XY,
    ONE_MINUS_XYZ,
    Rat,
    X,
    Y,
    Z,
    ZERO,
    as_rat,
    over_lcm,
)

from oracles import (
    evaluate,
    nonzero,
    ref_add,
    ref_diff,
    ref_divmod,
    ref_mul,
    ref_scale,
    ref_to_text,
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
    assert evaluate(X + Y + Z, (F(1, 2), F(1, 4), F(1, 8))) == F(7, 8)
    assert evaluate(ZERO, (F(3), F(-1), F(22, 7))) == 0
    assert evaluate(ONE_MINUS_X * ONE_MINUS_X, (F(1, 3), F(0), F(0))) == F(4, 9)


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
        evaluate(p, (x, y, z)) == evaluate(q, (x, y, z))
        for x in pts
        for y in pts
        for z in pts
    )
    assert agree == (p == q)


# -- agreement with the Fraction-dict reference ------------------------------

term_maps = st.dictionaries(exponents, coeffs, max_size=6)
scalars = coeffs | st.integers(-60, 60) | st.fractions(max_denominator=40)


def canonical(p):
    """p itself, after checking the canonical form: positive denominator,
    no zero numerator, coprime content, and the zero polynomial over 1."""
    assert type(p._den) is int and p._den > 0
    assert all(type(c) is int and c for c in p._num.values())
    assert gcd(p._den, *p._num.values()) == 1
    assert p._num or p._den == 1
    return p


def ref(p):
    return dict(p.terms())


@settings(max_examples=80, deadline=None)
@given(term_maps)
def test_inspection_agrees(t):
    p = canonical(MPoly(t))
    t = nonzero(t)
    assert ref(p) == t and len(p.terms()) == len(t)
    assert all(type(c) is Fraction for _, c in p.terms())
    assert p.to_text() == ref_to_text(t)
    for e in list(t) + [(4, 4, 4)]:
        assert p.coeff(*e) == t.get(e, 0) and type(p.coeff(*e)) is Fraction


@settings(max_examples=80, deadline=None)
@given(term_maps, term_maps)
def test_add_sub_mul_agree(t1, t2):
    p, q = MPoly(t1), MPoly(t2)
    t1, t2 = nonzero(t1), nonzero(t2)
    assert ref(canonical(p + q)) == ref_add(t1, t2)
    assert ref(canonical(p - q)) == ref_add(t1, ref_scale(t2, -1))
    assert ref(canonical(p * q)) == ref_mul(t1, t2)
    assert ref(canonical(-p)) == ref_scale(t1, -1)


@settings(max_examples=80, deadline=None)
@given(term_maps, scalars)
def test_scalar_ops_agree(t, c):
    p = MPoly(t)
    t = nonzero(t)
    assert ref(canonical(p.scale(c))) == ref_scale(t, c)
    assert ref(canonical(p * c)) == ref_scale(t, c)
    assert ref(canonical(p + c)) == ref_add(t, nonzero({(0, 0, 0): Fraction(c)}))
    assert ref(canonical(c - p)) == ref_add(nonzero({(0, 0, 0): Fraction(c)}), ref_scale(t, -1))


@settings(max_examples=80, deadline=None)
@given(term_maps, st.sampled_from(["x", "y", "z"]))
def test_diff_agrees(t, var):
    assert ref(canonical(MPoly(t).diff(var))) == ref_diff(nonzero(t), "xyz".index(var))


@settings(max_examples=60, deadline=None)
@given(term_maps, term_maps)
def test_equal_polynomials_hash_alike(t1, t2):
    p, q = MPoly(t1), MPoly(t2)
    assert (p + q) - q == p and hash((p + q) - q) == hash(p)
    assert (p == q) == (nonzero(t1) == nonzero(t2))


def test_rational_constant_times_integer_is_one():
    half = MPoly.const(F(1, 2))
    assert half * 2 == ONE and hash(half * 2) == hash(ONE)
    assert half + half == ONE and hash(half + half) == hash(ONE)
    assert (X.scale(F(2, 3)) - X.scale(F(2, 3))) == ZERO and hash(X - X) == hash(ZERO)


def _assert_division_agrees(t, d):
    """MPoly(t).div_exact(d) gives the reference quotient, or raises
    NonzeroRemainder carrying the reference remainder and its text."""
    quot, rem = ref_divmod(t, d)
    p, divisor = MPoly(t), MPoly(d)
    if rem:
        with pytest.raises(NonzeroRemainder) as err:
            p.div_exact(divisor)
        assert ref(canonical(err.value.remainder)) == rem
        assert str(err.value) == f"nonzero remainder: {ref_to_text(rem)}"
    else:
        assert ref(canonical(p.div_exact(divisor))) == quot


@st.composite
def admissible_divisors(draw):
    """A unique pure-x leading term c * x^k with any nonzero rational c,
    over terms of lower x-degree."""
    k = draw(st.integers(1, 2))
    lead = draw(coeffs.filter(bool) | st.sampled_from([F(2), F(-2), F(1, 3), F(-3, 2)]))
    lower = draw(st.dictionaries(
        st.tuples(st.integers(0, k - 1), st.integers(0, 2), st.integers(0, 2)),
        coeffs, max_size=3))
    return {**nonzero(lower), (k, 0, 0): lead}


@settings(max_examples=150, deadline=None)
@given(term_maps, term_maps, admissible_divisors(), st.booleans())
def test_div_exact_agrees(t, q, d, exact):
    _assert_division_agrees(ref_mul(nonzero(q), d) if exact else nonzero(t), d)


CONTENT_DIVISORS = {
    "2-2x": ONE_MINUS_X.scale(2),
    "(1-x)/3": ONE_MINUS_X.scale(F(1, 3)),
    "1-2x": ONE - X.scale(2),
    "-3(1-x-y)": ONE_MINUS_XY.scale(-3),
    "(2-2x)(1-x-y-z)/5": ONE_MINUS_X.scale(F(2, 5)) * ONE_MINUS_XYZ,
    "x/2-y/3": X.scale(F(1, 2)) - Y.scale(F(1, 3)),
    "3x^2-1": X * X.scale(3) - 1,
}


@pytest.mark.parametrize("name", CONTENT_DIVISORS)
@settings(max_examples=40, deadline=None)
@given(term_maps, term_maps, st.booleans())
def test_div_exact_content_divisors(name, t, q, exact):
    d = ref(CONTENT_DIVISORS[name])
    _assert_division_agrees(ref_mul(nonzero(q), d) if exact else nonzero(t), d)


def test_div_exact_refusals():
    for bad in (Y, X * Y + 1, X + X * Y):
        with pytest.raises(ValueError):
            X.div_exact(bad)
    with pytest.raises(ZeroDivisionError):
        X.div_exact(ZERO)
    assert (X + 1).div_exact(MPoly.const(F(2, 3))) == (X + 1).scale(F(3, 2))


# -- the fused differential-operator kernel -----------------------------------

# Keys of order 0 to 2; "yx" and "zy" name the same derivatives as "xy" and
# "yz", so a coefficient under one can cancel its negation under the other.
DERIVATIVE_KEYS = ["", "x", "y", "z", "xx", "yy", "zz", "xy", "yx", "xz", "zy", "yz"]


def ref_apply_derivatives(t, coeffs):
    out = {}
    for key, c in coeffs.items():
        d = t
        for var in key:
            d = ref_diff(d, "xyz".index(var))
        out = ref_add(out, ref_mul(c, d))
    return out


@st.composite
def derivative_maps(draw):
    """{key: term map}, with zero coefficients, and sometimes a pair of
    keys whose coefficients cancel each other."""
    coeffs = draw(st.dictionaries(st.sampled_from(DERIVATIVE_KEYS), term_maps, max_size=5))
    if draw(st.booleans()):
        c = draw(term_maps)
        first, second = draw(st.sampled_from([("xy", "yx"), ("zy", "yz")]))
        coeffs[first] = c
        coeffs[second] = {e: -v for e, v in c.items()}
    return coeffs


@settings(max_examples=200, deadline=None)
@given(term_maps, derivative_maps())
def test_apply_derivatives_agrees(t, coeffs):
    got = MPoly(t).apply_derivatives({key: MPoly(c) for key, c in coeffs.items()})
    want = ref_apply_derivatives(nonzero(t), {key: nonzero(c) for key, c in coeffs.items()})
    assert ref(canonical(got)) == want


def test_apply_derivatives_cancels_to_canonical_zero():
    u = X * X * Y.scale(F(3, 2)) + Y * Z
    c = X.scale(F(1, 3)) - Z.scale(F(2, 7))
    assert canonical(u.apply_derivatives({"xy": c, "yx": -c})) == ZERO
    assert canonical(u.apply_derivatives({"": ZERO, "zz": c})) == ZERO
    # x v_x = 2v for v of x-degree 2 throughout, so -v/3 + x v_x/6 = 0:
    # the terms cancel across keys of different denominators.
    v = X * X * (Y.scale(F(3, 2)) + Z)
    got = v.apply_derivatives({"": MPoly.const(F(-1, 3)), "x": X.scale(F(1, 6))})
    assert canonical(got) == ZERO and got._den == 1


def _apply_by_parts(op, u):
    """DiffOperator.apply written out as separate products and sums."""
    num = op.c0 * u + op.cx * u.diff("x") + op.cy * u.diff("y") + op.cz * u.diff("z")
    return num.div_exact(op.denom)


def _outcome(f, *args):
    try:
        return f(*args)
    except NonzeroRemainder as err:
        return ("remainder", err.remainder)


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), polys(), polys(), polys(),
       st.sampled_from([ONE, ONE_MINUS_X, ONE_MINUS_XY, ONE_MINUS_XYZ]), st.booleans())
def test_diff_operator_apply_agrees_with_parts(u, c0, cx, cy, cz, denom, exact):
    if exact:
        # A multiple of the denominator, so that the division is exact.
        u = u * denom
        c0, cx, cy, cz = (c * denom for c in (c0, cx, cy, cz))
    op = DiffOperator(c0=c0, cx=cx, cy=cy, cz=cz, denom=denom)
    assert _outcome(op.apply, u) == _outcome(_apply_by_parts, op, u)


@pytest.mark.parametrize("module, idx, params", [
    (jacobi1d, (3,), (F(1, 3), F(-1, 2))),
    (triangle2d, (2, 1), (F(-1, 2), F(0), F(1, 3), F(1))),
    (simplex3d, (1, 1, 1), (F(1, 3), F(-1, 2), F(1), F(0), F(1, 2), F(2))),
])
def test_table_operators_apply_as_by_parts(module, idx, params):
    u = module.FAMILY.member(idx, params)
    for rel in module.FAMILY.sparse.values():
        op = rel.operator(*idx, module.FAMILY.view(*params))
        assert op.apply(u) == _apply_by_parts(op, u)


# -- packed exponent keys at the edge of their fields --------------------------

# Exponents are stored in fixed-width fields below a guard bit, so exponents
# up to LIMIT - 1 must behave like small ones.  A `shifted` exponent plus a
# `low` one stays below LIMIT, and so does a `high_yz` exponent of y or z
# after the at most three division steps in x, each adding at most 2.
low = st.integers(0, 3)
edge = low | st.integers(LIMIT - 4, LIMIT - 1)
shifted = low | st.integers(LIMIT - 7, LIMIT - 4)
high_yz = low | st.integers(LIMIT - 10, LIMIT - 8)


def edge_maps(xs, ys=None):
    ys = xs if ys is None else ys
    return st.dictionaries(st.tuples(xs, ys, ys), coeffs, max_size=6)


@settings(max_examples=80, deadline=None)
@given(edge_maps(edge), edge_maps(edge), scalars, st.sampled_from(["x", "y", "z"]))
def test_near_limit_linear_kernels_agree(t1, t2, c, var):
    p, q = MPoly(t1), MPoly(t2)
    t1, t2 = nonzero(t1), nonzero(t2)
    assert ref(canonical(p)) == t1 and p.to_text() == ref_to_text(t1)
    assert ref(canonical(p + q)) == ref_add(t1, t2)
    assert ref(canonical(p - q)) == ref_add(t1, ref_scale(t2, -1))
    assert ref(canonical(p.scale(c))) == ref_scale(t1, c)
    assert ref(canonical(p.diff(var))) == ref_diff(t1, "xyz".index(var))
    assert p.degree(var) == max((e["xyz".index(var)] for e in t1), default=-1)


@settings(max_examples=80, deadline=None)
@given(edge_maps(shifted), edge_maps(low))
def test_near_limit_mul_agrees(t1, t2):
    p, q = MPoly(t1), MPoly(t2)
    want = ref_mul(nonzero(t1), nonzero(t2))
    assert ref(canonical(p * q)) == want and ref(canonical(q * p)) == want


@settings(max_examples=80, deadline=None)
@given(edge_maps(shifted),
       st.dictionaries(st.sampled_from(DERIVATIVE_KEYS), edge_maps(low), max_size=5))
def test_near_limit_apply_derivatives_agrees(t, coeffs):
    got = MPoly(t).apply_derivatives({key: MPoly(c) for key, c in coeffs.items()})
    want = ref_apply_derivatives(nonzero(t), {key: nonzero(c) for key, c in coeffs.items()})
    assert ref(canonical(got)) == want


@settings(max_examples=80, deadline=None)
@given(edge_maps(low, high_yz), edge_maps(low, high_yz), admissible_divisors(), st.booleans())
def test_near_limit_div_exact_agrees(t, q, d, exact):
    _assert_division_agrees(ref_mul(nonzero(q), d) if exact else nonzero(t), d)


@pytest.mark.parametrize("axis", range(3))
def test_exponent_crossing_the_limit_overflows(axis):
    """A result that would need exponent LIMIT raises instead of carrying
    into the next variable's field; one exponent less is fine."""
    def mono(e):
        exps = [0, 0, 0]
        exps[axis] = e
        return MPoly({tuple(exps): 1})

    var, top = (X, Y, Z)[axis], mono(LIMIT - 1)
    assert mono(LIMIT - 2) * var == top and top.degree("xyz"[axis]) == LIMIT - 1
    for overflow in (
        lambda: top * var,
        lambda: var * top,
        lambda: (top + ONE) * (var - ONE),
        lambda: mono(LIMIT // 2) ** 2,
        lambda: top.apply_derivatives({"": var}),
        lambda: top.apply_derivatives({"xyz"[axis]: var * var, "": ONE}),
    ):
        with pytest.raises(OverflowError):
            overflow()


def test_division_reaching_the_limit_overflows():
    # x^2 y^(LIMIT-1) / (1-x-y): the quotient needs y^LIMIT.
    with pytest.raises(OverflowError):
        MPoly({(2, LIMIT - 1, 0): 1}).div_exact(ONE_MINUS_XY)
    # x y^(LIMIT-1) / (1-x-y): only the remainder needs y^LIMIT.
    with pytest.raises(OverflowError):
        MPoly({(1, LIMIT - 1, 0): 1}).div_exact(ONE_MINUS_XY)
    # Each step in x adds y^(LIMIT-12), so the steps after the first would
    # carry out of the y field if the division went on.
    divisor = ONE_MINUS_X - MPoly({(0, LIMIT - 12, 0): 1})
    with pytest.raises(OverflowError):
        MPoly({(3, LIMIT - 1, 0): 1}).div_exact(divisor)
    # One exponent less: x y^k = -y^k (1-x-y) + y^k - y^(k+1).
    k = LIMIT - 2
    with pytest.raises(NonzeroRemainder) as err:
        MPoly({(1, k, 0): 1}).div_exact(ONE_MINUS_XY)
    assert err.value.remainder == MPoly({(0, k, 0): 1, (0, k + 1, 0): -1})


@pytest.mark.parametrize("exps", [(-1, 0, 0), (0, -2, 1), (0, 0, -1), (LIMIT, 0, 0),
                                  (0, LIMIT, 0), (1, 1, LIMIT + 5)])
def test_exponent_outside_the_field_is_refused(exps):
    with pytest.raises(ValueError):
        MPoly({exps: 1})
    with pytest.raises(ValueError):
        MPoly({(0, 0, 0): 1, exps: 0})
    assert X.coeff(*exps) == 0


def test_float_coefficient_is_refused():
    for make in (
        lambda: MPoly({(1, 0, 0): 0.1}),
        lambda: MPoly.const(0.5),
        lambda: X.scale(0.5),
        lambda: X * 0.5,
        lambda: X + 0.5,
    ):
        with pytest.raises(TypeError):
            make()


# -- the lean rational of the table lines --------------------------------------

# Zero and negative values included: with a zero numerator, a product whose
# gcds were taken across the operands must still end over 1.
rationals = st.just(F(0)) | st.integers(-40, 40).map(F) | st.fractions(
    min_value=-50, max_value=50, max_denominator=36)


def _agrees(value, expected, kind):
    """`value` is a `kind` equal to the Fraction `expected` in every way
    the package reads it: ==, hash, str, its parts and a pickle round trip."""
    assert type(value) is kind
    assert value == expected and expected == value and not value != expected
    assert hash(value) == hash(expected) and str(value) == str(expected)
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is kind and again == expected and str(again) == str(expected)


@settings(max_examples=300, deadline=None)
@given(rationals, rationals | st.integers(-40, 40),
       st.sampled_from([operator.add, operator.sub, operator.mul]))
@example(F(0), F(1, 3), operator.mul)
@example(F(2, 3), 0, operator.mul)
@example(F(1, 6), F(-1, 6), operator.add)
@example(F(-5, 6), F(1, 10), operator.sub)
def test_rat_agrees_with_fraction(a, b, op):
    r = as_rat(a)
    _agrees(r, a, Rat)
    _agrees(-r, -a, Rat)
    # An int or a Rat stays on the lean path; a Fraction gets Fraction's.
    others = [(b, Rat)] if type(b) is int else [(as_rat(b), Rat), (b, Fraction)]
    for other, kind in others:
        _agrees(op(r, other), op(a, b), kind)
        _agrees(op(other, r), op(b, a), kind)


@settings(max_examples=200, deadline=None)
@given(term_maps, term_maps, scalars | rationals.map(as_rat), st.booleans())
@example({}, {}, 0, False)
@example({(1, 0, 0): F(1, 2)}, {}, 3, False)
@example({}, {(1, 0, 0): F(1, 2)}, 0, False)
@example({(1, 0, 0): F(1, 2)}, {(1, 0, 0): F(1, 2)}, 0, False)
def test_is_multiple_agrees_with_scale(t1, t2, c, related):
    p, q = MPoly(t1), MPoly(t2)
    if related:
        # Equal up to the scalar (or up to one coefficient), so both answers occur.
        p = q.scale(c) + (MPoly({next(iter(t2)): 1}) if t2 and t1 else ZERO)
    assert p.is_multiple(q, c) == (p == q.scale(c))
    assert q.scale(c).is_multiple(q, c)


@settings(max_examples=300, deadline=None)
@given(st.lists(rationals | st.integers(-40, 40) | rationals.map(as_rat), min_size=1,
                max_size=6))
@example([0])
@example([F(-3, 4)])
@example([as_rat(F(1, 6)), 0, F(-5, 4), -7])
def test_over_lcm_puts_the_values_over_their_least_common_denominator(values):
    *nums, den = over_lcm(*values)
    assert all(type(n) is int for n in nums) and type(den) is int
    assert [F(n, den) for n in nums] == [F(v) for v in values]
    assert den == lcm(*(F(v).denominator for v in values))


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
def test_a_zero_denominator_is_refused_naming_the_text(text):
    with pytest.raises(ValueError, match=repr(text)):
        as_rat(text)
