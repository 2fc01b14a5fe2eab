"""Independent oracles used by the test-suite.

Everything here deliberately re-derives values through routes the package
does not use: classical three-term recurrences instead of hypergeometric
closed forms, explicit factorial series instead of running products, and
direct monomial integration instead of norm formulas.  Oracle results are
exact Fractions throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from simplexpoly.jacobi1d import _coefficients
from simplexpoly.ratpoly import MPoly, ONE, ONE_MINUS_X, ONE_MINUS_XY, ONE_MINUS_XYZ, X, ZERO


def rising(lam: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= Fraction(lam) + i
    return out


def jacobi_shifted_by_recurrence(n: int, a, b) -> MPoly:
    """Degree-n shifted Jacobi polynomial from the classical three-term
    recurrence, written against the variable t = 2x - 1."""
    a = Fraction(a)
    b = Fraction(b)
    t = X.scale(2) - 1
    if n == 0:
        return ONE
    prev = ONE
    cur = t.scale(Fraction(a + b + 2, 2)) + Fraction(a - b, 2)
    for m in range(1, n):
        c1 = 2 * (m + 1) * (m + a + b + 1) * (2 * m + a + b)
        c2 = (2 * m + a + b + 1) * (a * a - b * b)
        c3 = (2 * m + a + b) * (2 * m + a + b + 1) * (2 * m + a + b + 2)
        c4 = 2 * (m + a) * (m + b) * (2 * m + a + b + 2)
        nxt = (t.scale(c3) + c2) * cur - prev.scale(c4)
        prev, cur = cur, nxt.scale(Fraction(1, c1))
    return cur


def binomial(top, k: int) -> Fraction:
    """Generalised binomial coefficient C(top, k) for a rational top."""
    out = Fraction(1)
    for i in range(k):
        out *= (Fraction(top) - i) / (k - i)
    return out


def jacobi_shifted_by_binomial_sum(n: int, a, b) -> MPoly:
    """Degree-n shifted Jacobi polynomial from the binomial sum
    sum_s C(n+a, n-s) C(n+b, s) (-1)^s (1-x)^s x^(n-s), which has no pole
    at any rational (a, b)."""
    one_minus_x = ONE - X
    out = MPoly.zero()
    for s in range(n + 1):
        coeff = binomial(n + Fraction(a), n - s) * binomial(n + Fraction(b), s) * (-1) ** s
        out = out + (one_minus_x**s * X ** (n - s)).scale(coeff)
    return out


# W_j = 1, 1-x, 1-x-y, 1-x-y-z, the cofactors of the collapsed coordinates.
_W = (ONE, ONE_MINUS_X, ONE_MINUS_XY, ONE_MINUS_XYZ)


def lifted_factor_by_mpoly_horner(axis: int, d: int, big_a: int, big_b: int, den: int) -> MPoly:
    """W_axis^d P(d; big_a/den, big_b/den) in collapsed coordinate `axis`,
    sum_m c_m W_{axis+1}^m W_axis^(d-m), by Horner's rule in W_{axis+1} on
    canonical MPoly operations (a gcd per step), then one scale by
    1/(d! den^d)."""
    inner, outer = _W[axis + 1], _W[axis]
    out, cofactor = ZERO, ONE
    for c in reversed(_coefficients(d, big_a, big_b, den)):
        out = out * inner + cofactor.scale(c)
        cofactor = cofactor * outer
    return out.scale(Fraction(1, math.factorial(d) * den**d))


def hyper2f1_series(n: int, b, c, x_val: Fraction) -> Fraction:
    """Terminating 2F1(-n, b; c; x) from the explicit factorial series."""
    total = Fraction(0)
    for m in range(n + 1):
        denom = rising(Fraction(c), m) * math.factorial(m)
        total += rising(Fraction(-n), m) * rising(Fraction(b), m) / denom * x_val**m
    return total


def hyper3f2_series(n: int, a2, a3, b1, b2) -> Fraction:
    total = Fraction(0)
    for m in range(n + 1):
        denom = rising(Fraction(b1), m) * rising(Fraction(b2), m) * math.factorial(m)
        total += (
            rising(Fraction(-n), m) * rising(Fraction(a2), m) * rising(Fraction(a3), m)
        ) / denom
    return total


# ---------------------------------------------------------------------------
# Gram matrix from exactly built members.
# ---------------------------------------------------------------------------

def exact_member_gram(members, coords, weights, exact: bool = False) -> np.ndarray:
    """Weighted Gram matrix of exact members on a quadrature rule's nodes,
    each member expanded into monomials and summed by `MPoly.eval_float`.
    The monomial sum cancels as the degree grows, so this oracle holds its
    digits only at low degree (about 3e-13 at degree 6, 2e-12 at the nodes
    of a three-point rule).  With `exact`, each value is summed exactly by
    `exact_values` instead, at a cost of about 3 ms a node at degree 6."""
    basis = exact_values(members, coords) if exact else np.stack(
        [m.eval_float(*coords) for m in members])
    return (basis * weights[None, :]) @ basis.T


def exact_values(members, coords) -> np.ndarray:
    """Members' values at float points, each summed exactly at the points'
    binary values and rounded once: with every coordinate an integer over
    2^e, a monomial of degree d is an integer over 2^(e d)."""
    e = max(Fraction(v).denominator for c in coords for v in c).bit_length() - 1
    ints = [[int(Fraction(v) * 2 ** e) for v in c] for c in coords]
    ints += [[0] * len(ints[0])] * (3 - len(ints))
    rows = []
    for member in members:
        terms = list(member.terms())
        den = math.lcm(*(c.denominator for _, c in terms))
        deg = max(sum(powers) for powers, _ in terms)
        num = [(powers, int(c * den)) for powers, c in terms]
        rows.append([float(Fraction(sum(c * x ** i * y ** j * z ** k << e * (deg - i - j - k)
                                        for (i, j, k), c in num), den << e * deg))
                     for x, y, z in zip(*ints)])
    return np.array(rows)


# ---------------------------------------------------------------------------
# Exact integration.
# ---------------------------------------------------------------------------

def integrate_interval(p: MPoly) -> Fraction:
    """Integral of a univariate polynomial in x over (0, 1)."""
    total = Fraction(0)
    for (i, j, k), coef in p.terms():
        assert j == 0 and k == 0
        total += coef / (i + 1)
    return total


def integrate_triangle(p: MPoly) -> Fraction:
    """Integral over {x, y > 0, x + y < 1} by the factorial formula."""
    total = Fraction(0)
    for (i, j, k), coef in p.terms():
        assert k == 0
        total += coef * Fraction(
            math.factorial(i) * math.factorial(j), math.factorial(i + j + 2)
        )
    return total


def integrate_tetra(p: MPoly) -> Fraction:
    """Integral over the open unit tetrahedron."""
    total = Fraction(0)
    for (i, j, k), coef in p.terms():
        total += coef * Fraction(
            math.factorial(i) * math.factorial(j) * math.factorial(k),
            math.factorial(i + j + k + 3),
        )
    return total


def interval_weighted_mean(p: MPoly, a, b) -> Fraction:
    """Integral of p against (1-x)^a x^b over (0, 1), divided by the
    weight's mass; exact for arbitrary rational exponents since each
    monomial contributes (b+1)_i / (a+b+2)_i."""
    a = Fraction(a)
    b = Fraction(b)
    total = Fraction(0)
    for (i, j, k), coef in p.terms():
        assert j == 0 and k == 0
        total += coef * rising(b + 1, i) / rising(a + b + 2, i)
    return total


def triangle_weighted_mean(p: MPoly, params) -> Fraction:
    """Mean of p against x^a y^b (1-x-y)^c (1-x)^d, via collapsed moments."""
    a, b, c, d = (Fraction(v) for v in params)
    total = Fraction(0)
    for (i, j, k), coef in p.terms():
        assert k == 0
        mu = (
            rising(a + 1, i) * rising(b + c + d + 2, j) / rising(a + b + c + d + 3, i + j)
        ) * (rising(b + 1, j) / rising(b + c + 2, j))
        total += coef * mu
    return total


def tetra_weighted_mean(p: MPoly, params) -> Fraction:
    """Mean of p against the six-parameter tetrahedron weight."""
    al, be, ga, de, a, b = (Fraction(v) for v in params)
    big = be + ga + de + a + b + 3
    total = Fraction(0)
    for (i, j, k), coef in p.terms():
        mu = (
            rising(al + 1, i) * rising(big, j + k) / rising(al + big + 1, i + j + k)
        ) * (
            rising(be + 1, j)
            * rising(ga + de + b + 2, k)
            / rising(be + ga + de + b + 3, j + k)
        ) * (rising(ga + 1, k) / rising(ga + de + 2, k))
        total += coef * mu
    return total


def _log_beta(p: float, q: float) -> float:
    return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)


def tetra_mass(params) -> float:
    """Float integral of the weight over the tetrahedron, through
    log-gamma."""
    alpha, beta, gamma, delta, a, b = map(float, params)
    return math.exp(
        _log_beta(alpha + 1, beta + gamma + delta + a + b + 3)
        + _log_beta(beta + 1, gamma + delta + b + 2)
        + _log_beta(gamma + 1, delta + 1)
    )


def triangle_mass(params) -> float:
    """Float integral of the weight over the triangle, through log-gamma."""
    a, b, c, d = map(float, params)
    return math.exp(_log_beta(a + 1, b + c + d + 2) + _log_beta(b + 1, c + 1))


def tetra_moment(i: int, j: int, k: int, params) -> float:
    """Float integral of x^i y^j z^k against the tetrahedron's weight."""
    return float(tetra_weighted_mean(MPoly.monomial((i, j, k)), params)) * tetra_mass(params)


# ---------------------------------------------------------------------------
# Reference polynomial arithmetic on plain {(i, j, k): Fraction} maps, with
# no zero coefficient stored.  It keeps every coefficient a Fraction, so it
# checks the integer-numerator kernels of `MPoly` without sharing any code.
# ---------------------------------------------------------------------------

def nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c != 0}


def ref_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return nonzero(out)


def ref_scale(p: dict, c) -> dict:
    return nonzero({e: Fraction(c) * v for e, v in p.items()})


def ref_mul(p: dict, q: dict) -> dict:
    out = {}
    for (i1, j1, k1), c1 in p.items():
        for (i2, j2, k2), c2 in q.items():
            e = (i1 + i2, j1 + j2, k1 + k2)
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return nonzero(out)


def ref_diff(p: dict, axis: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[axis]:
            ne = list(e)
            ne[axis] -= 1
            out[tuple(ne)] = c * e[axis]
    return out


def ref_divmod(p: dict, d: dict):
    """(quotient, remainder) of p by d in x over Q[y, z], for a divisor
    whose highest x-power is a unique pure-x term; ValueError otherwise."""
    if set(d) == {(0, 0, 0)}:
        return ref_scale(p, 1 / d[(0, 0, 0)]), {}
    top = max(e[0] for e in d)
    leads = [e for e in d if e[0] == top]
    if top == 0 or leads != [(top, 0, 0)]:
        raise ValueError("unsupported divisor shape")
    quot, rem = {}, dict(p)
    while rem and max(e[0] for e in rem) >= top:
        m = max(e[0] for e in rem)
        step = {(e[0] - top, e[1], e[2]): c / d[(top, 0, 0)]
                for e, c in rem.items() if e[0] == m}
        quot = ref_add(quot, step)
        rem = ref_add(rem, ref_scale(ref_mul(step, d), -1))
    return quot, rem


def ref_evaluate(p: dict, point) -> Fraction:
    x, y, z = (Fraction(v) for v in point)
    return sum((c * x**i * y**j * z**k for (i, j, k), c in p.items()), Fraction(0))


def ref_to_text(p: dict) -> str:
    """`coeff * x^i y^j z^k` terms by descending (total degree, exponents),
    each after its sign; the first sign is written only when negative."""
    if not p:
        return "0"
    out = []
    for e in sorted(p, key=lambda e: (sum(e), e), reverse=True):
        c = p[e]
        mono = " ".join(f"{v}^{n}" for v, n in zip("xyz", e) if n)
        body = f"{abs(c)} * {mono}" if mono else str(abs(c))
        sign = "-" if c < 0 else "+"
        out.append((f"{sign} " if out else ("-" if c < 0 else "")) + body)
    return " ".join(out)
