"""Output checks computed by the benchmark alone; nothing here imports
simplexpoly.

- Exact orthogonality of a member against every monomial of lower total
  degree, from closed-form Beta moments of the weight in collapsed
  coordinates x = u, y = v (1-u), z = t (1-u) (1-v).
- Gram matrices: symmetry, normalised off-diagonal size, and the diagonal
  against the product of interval norms, computed with math.lgamma.
- Sweep reports: status, count, order, and field-for-field agreement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

GRAM_BOUND = 1e-10
# G[i, j] and G[j, i] are summed in different orders; they agree to a few
# ulps (about 1e-15 relative at N = 12).
SYMMETRY_BOUND = 1e-12
PASSING = ("pass", "not_applicable")


# ---------------------------------------------------------------------------
# Exact orthogonality.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _rising(p: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= p + i
    return out


def _beta_shift(p, q, i: int, j: int) -> Fraction:
    """B(p + i, q + j) / B(p, q) for integer shifts i, j >= 0."""
    return _rising(p, i) * _rising(q, j) / _rising(p + q, i + j)


def interval_moment(i: int, params) -> Fraction:
    """Moment of x^i for the weight (1-x)^a x^b on (0, 1), over its mass."""
    a, b = params
    return _beta_shift(b + 1, a + 1, i, 0)


def triangle_moment(i: int, j: int, params) -> Fraction:
    """x^i y^j against x^a y^b (1-x-y)^c (1-x)^d on the triangle.

    Collapsed: u^(a+i) (1-u)^(b+c+d+1+j) v^(b+j) (1-v)^c.
    """
    a, b, c, d = params
    return _beta_shift(a + 1, b + c + d + 2, i, j) * _beta_shift(b + 1, c + 1, j, 0)


def tetrahedron_moment(i: int, j: int, k: int, params) -> Fraction:
    """x^i y^j z^k against x^al y^be z^ga (1-x-y-z)^de (1-x)^a (1-x-y)^b.

    Collapsed: u^(al+i) (1-u)^(be+ga+de+a+b+2+j+k) v^(be+j)
    (1-v)^(ga+de+b+1+k) t^(ga+k) (1-t)^de.
    """
    al, be, ga, de, a, b = params
    return (
        _beta_shift(al + 1, be + ga + de + a + b + 3, i, j + k)
        * _beta_shift(be + 1, ga + de + b + 2, j, k)
        * _beta_shift(ga + 1, de + 1, k, 0)
    )


def _lower_monomials(family: str, degree: int):
    for total in range(degree):
        if family == "interval":
            yield (total, 0, 0)
            continue
        for i in range(total + 1):
            if family == "triangle":
                yield (i, total - i, 0)
                continue
            for j in range(total - i + 1):
                yield (i, j, total - i - j)


def orthogonal_to_lower(family: str, terms, degree: int, params) -> bool:
    """True when sum_e c_e * moment(e + m) == 0 for every monomial m of
    total degree below `degree`; `terms` maps (i, j, k) to coefficients."""
    params = tuple(Fraction(v) for v in params)
    if family == "interval":
        moment = lambda i, j, k: interval_moment(i, params)  # noqa: E731
    elif family == "triangle":
        moment = lambda i, j, k: triangle_moment(i, j, params)  # noqa: E731
    else:
        moment = lambda i, j, k: tetrahedron_moment(i, j, k, params)  # noqa: E731
    for mi, mj, mk in _lower_monomials(family, degree):
        total = sum(
            Fraction(c) * moment(i + mi, j + mj, k + mk) for (i, j, k), c in terms.items()
        )
        if total != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Gram matrices.
# ---------------------------------------------------------------------------

def interval_norm(n: int, a: float, b: float) -> float:
    """Squared norm of the degree-n Jacobi polynomial P_n^(a,b)(2x - 1)
    against (1-x)^a x^b on (0, 1):
    Gamma(n+a+1) Gamma(n+b+1) / ((2n+a+b+1) n! Gamma(n+a+b+1))."""
    if n == 0:
        return math.exp(math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2))
    log = (
        math.lgamma(n + a + 1)
        + math.lgamma(n + b + 1)
        - math.lgamma(n + 1)
        - math.lgamma(n + a + b + 1)
    )
    return math.exp(log) / (2 * n + a + b + 1)


def tetrahedron_norm(index, params) -> float:
    """Product of the three interval norms of a member's collapsed factors."""
    n1, n2, n3 = index
    al, be, ga, de, a, b = (float(v) for v in params)
    return (
        interval_norm(n1, be + ga + de + a + b + 2 * n2 + 2 * n3 + 2, al)
        * interval_norm(n2, ga + de + b + 2 * n3 + 1, be)
        * interval_norm(n3, de, ga)
    )


def gram_errors(indices, gram, params):
    """(asymmetry, worst normalised off-diagonal, worst relative diagonal
    error against the norm product), all relative to sqrt(G_ii G_jj)."""
    gram = np.asarray(gram, dtype=float)
    scale = np.sqrt(np.abs(np.diag(gram)))
    outer = np.outer(scale, scale)
    asym = float((np.abs(gram - gram.T) / outer).max())
    off = np.abs(gram) / outer
    np.fill_diagonal(off, 0.0)
    norms = np.array([tetrahedron_norm(idx, params) for idx in indices])
    diag = float(np.abs(np.diag(gram) / norms - 1).max())
    return asym, float(off.max()), diag


def gram_ok(errors) -> bool:
    asym, off, diag = errors
    return asym <= SYMMETRY_BOUND and off <= GRAM_BOUND and diag <= GRAM_BOUND


# ---------------------------------------------------------------------------
# Sweep reports.
# ---------------------------------------------------------------------------

def report_status_ok(report) -> bool:
    """One report object whose check passed or did not apply."""
    return getattr(report, "status", None) in PASSING


def _report_key(r):
    return (r.get("suite", ""), r["relation"], tuple(r["index"]), tuple(r["params"]))


def report_file_ok(payload, count: int, suite: str) -> bool:
    """A suite report file: one passing report per task, in sorted order,
    with totals that add up."""
    reports = payload["reports"]
    keys = [_report_key(r) for r in reports]
    totals = payload["summary"]["totals"]
    return (
        len(reports) == count
        and all(r.get("suite") == suite and r["status"] in PASSING for r in reports)
        and keys == sorted(keys)
        and totals["fail"] == 0
        and totals["pass"] + totals["not_applicable"] == count
    )


def report_listed(payload, expected: dict) -> bool:
    """The file holds a report equal to `expected` in every field."""
    return any(r == expected for r in payload["reports"])
