"""First-order differential operators and verification reports.

Every ladder operator used by the interval, triangle and tetrahedron
families fits one shape: polynomial numerator coefficients for u and its
partials, over a structured denominator that is a product of factors from
{1, 1-x, 1-x-y, 1-x-y-z}.  Applying such an operator to a family member
always produces a polynomial, so `apply` divides exactly and a nonzero
remainder is itself a reportable failure.

The three families check their ladder calculus the same way, so the checks
live here once: `verify_sparse`, `verify_composition` and `residual` run
over a family's record (`jacobi1d.Family`), which gives its members, index
domain, named view of a row and tables.  Every identity of the package
gets its verdict from one judge, `report_equality`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Callable, Optional, Sequence, Tuple

from .ratpoly import MPoly, ONE, ZERO, as_rat

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"


class Row(tuple):
    """One parameter row: a tuple of `ratpoly.Rat`s that only `as_tuple`
    builds, carrying what the checks at this row would otherwise recompute
    per task.  Every cache lives on the instance and is filled on first
    use: the hash (the plain tuple's, so a Row and an equal tuple of
    Fractions are the same dict key), `shift`, `text` and `derive`.  A
    pickle carries the values only."""

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash

    def __reduce__(self):
        return Row, (tuple(self),)

    @cached_property
    def text(self) -> Tuple[str, ...]:
        """The str of each entry, as reports print them."""
        return tuple(map(str, self))

    @cached_property
    def _shifts(self) -> dict:
        return {}

    @cached_property
    def _derived(self) -> dict:
        return {}

    def shift(self, dparams: Tuple[int, ...]) -> "Row":
        """The row plus the integer steps `dparams`, the same Row on every call."""
        shifts = self._shifts
        out = shifts.get(dparams)
        if out is None:
            out = shifts[dparams] = Row(p + d if d else p for p, d in zip(self, dparams))
        return out

    def derive(self, fn: Callable):
        """fn(*row), computed once per row and function."""
        derived = self._derived
        try:
            return derived[fn]
        except KeyError:
            out = derived[fn] = fn(*self)
            return out


def as_tuple(values, count: int, convert=as_rat) -> tuple:
    """The one conversion into the exact path: a sequence of `count`
    values as a tuple.  Parameters go through `ratpoly.as_rat` into a Row
    of Rats; it refuses a float or a bool with TypeError and a string with
    a zero denominator, such as '1/0', with ValueError.  A Row of `count`
    entries is returned as it is.  Index entries are converted with
    `operator.index`, which refuses 1.5 instead of truncating it."""
    if type(values) is Row and len(values) == count and convert is as_rat:
        return values
    vals = tuple(values)
    if len(vals) != count:
        raise ValueError(f"expected {count} values, got {len(vals)}")
    if convert is as_rat:
        return Row(map(convert, vals))
    return tuple(map(convert, vals))


@dataclass(frozen=True)
class DiffOperator:
    """u -> (c0*u + cx*u_x + cy*u_y + cz*u_z) / denom, exactly."""

    c0: MPoly
    cx: MPoly = MPoly.zero()
    cy: MPoly = MPoly.zero()
    cz: MPoly = MPoly.zero()
    denom: MPoly = ONE

    def apply(self, u: MPoly) -> MPoly:
        num = self.numerator(u)
        return num if self.denom == ONE else num.div_exact(self.denom)

    def numerator(self, u: MPoly) -> MPoly:
        """c0*u + cx*u_x + cy*u_y + cz*u_z, not yet divided.  Raises, as
        `apply` does, on a denominator that `div_exact` cannot divide by."""
        num = u.apply_derivatives({"": self.c0, "x": self.cx, "y": self.cy, "z": self.cz})
        self.denom.divisor_degree()
        return num


class _Shift:
    """Index and parameter steps (dn, dparams) of one table line."""

    def shifted(self, idx: Sequence[int], params: Row):
        return tuple(map(add, idx, self.dn)), params.shift(self.dparams)


@dataclass(frozen=True)
class SparseRelation(_Shift):
    """One line of a ladder-relation table.

    Applying operator(*idx, p), a DiffOperator, to the member at (idx,
    params), p being the family's view of params, yields scale(*idx, p) times
    the member at (idx + dn, params + dparams); shifts that leave the index
    domain target the zero polynomial.  The operator and the scale are
    transcribed from the paper separately, so a typo in either fails it.
    """

    operator: Callable
    dn: Tuple[int, ...]
    dparams: Tuple[int, ...]
    scale: "callable"


@dataclass(frozen=True)
class SecondOrder(_Shift):
    """One line of a second-order composition table.

    Its id `outer.inner` names two sparse lines (`composition_lines`).
    Applying inner then outer to the member at the shifted operand
    (idx + dn, params + dparams) gives eig(*idx, p) times that member.
    """

    dn: Tuple[int, ...]
    dparams: Tuple[int, ...]
    eig: "callable"


@dataclass(slots=True)
class VerificationReport:
    """Outcome of one identity check, serializable to a JSON dict.  A
    sweep holds one per task, so the fields are slots."""

    relation: str
    index: Tuple[int, ...]
    params: Row
    status: str
    lhs: Optional[str] = None
    rhs: Optional[str] = None
    detail: Optional[str] = None
    suite: Optional[str] = None
    difference: Optional[str] = None

    def __post_init__(self):
        if type(self.params) is not Row:
            self.params = as_tuple(self.params, len(self.params))

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_json(self) -> dict:
        out = {
            "relation": self.relation,
            "index": list(self.index),
            "params": list(self.params.text),
            "status": self.status,
        }
        for key in ("suite", "lhs", "rhs", "detail", "difference"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def sort_key(self):
        return (
            self.suite or "",
            self.relation,
            self.index,
            self.params.text,
        )


def report_equality(
    relation: str,
    index: Tuple[int, ...],
    params: Sequence[Fraction],
    lhs: MPoly,
    rhs: MPoly,
    *,
    scale=1,
    denom: MPoly = ONE,
    applicable: bool = True,
    detail: str = None,
) -> VerificationReport:
    """The one judge of an identity: whether lhs == scale * denom * rhs, by
    `MPoly.is_multiple`; a pass reads not_applicable unless `applicable`.
    Only a failing sample divides lhs by denom and scales rhs, to report
    both sides and their difference."""
    if lhs.is_multiple(rhs if denom == ONE else rhs * denom, scale):
        status = PASS if applicable else NOT_APPLICABLE
        return VerificationReport(relation, tuple(index), params, status, detail=detail)
    if denom != ONE:
        lhs = lhs.div_exact(denom)
    rhs = rhs.scale(scale)
    return VerificationReport(
        relation,
        tuple(index),
        params,
        FAIL,
        lhs=lhs.to_text(),
        rhs=rhs.to_text(),
        detail=detail,
        difference=(lhs - rhs).to_text(),
    )


def verify_sparse(family, op: str, idx, p) -> VerificationReport:
    """Check one sparse relation as an exact polynomial identity.

    A target outside the index domain is the zero polynomial; the check
    then asserts that the operator annihilates the member and the report
    is marked not_applicable.
    """
    idx, params = family.index(idx), family.params(p)
    rel = family.sparse[op]
    p = params.derive(family.view)
    u = family.member(idx, params)
    operator = rel.operator(*idx, p)
    num = operator.numerator(u)
    idx2, params2 = rel.shifted(idx, params)
    if not family.valid(idx2):
        return report_equality(op, idx, params, num, ZERO, denom=operator.denom, applicable=False)
    return report_equality(op, idx, params, num, family.member(idx2, params2),
                           scale=rel.scale(*idx, p), denom=operator.denom)


def composition_lines(entry_id: str) -> Tuple[str, str]:
    """The ids (outer, inner) of the two sparse lines that the composition
    `entry_id` names."""
    return tuple(entry_id.split(".")[:2])


def verify_composition(family, entry_id: str, idx, p) -> VerificationReport:
    """Check one second-order composition as an exact eigenvalue identity.

    The two steps chain the sparse table: the inner operator is built at
    the operand, the outer at the inner relation's target.  The product of
    the two sparse scales must reproduce the tabulated eigenvalue, which is
    asserted alongside the polynomial identity.  An operand outside the
    index domain, or one that is the zero polynomial, where the identity
    reads 0 = eig*0, makes the sample not_applicable in every family.
    """
    idx, params = family.index(idx), family.params(p)
    ent = family.second_order[entry_id]
    idx0, params0 = ent.shifted(idx, params)
    if not family.valid(idx0):
        return report_equality(entry_id, idx, params, ZERO, ZERO, applicable=False)
    eig = ent.eig(*idx, params.derive(family.view))
    u = family.member(idx0, params0)
    outer, inner = map(family.sparse.__getitem__, composition_lines(entry_id))
    p0 = params0.derive(family.view)
    v = inner.operator(*idx0, p0).apply(u)
    idx1, params1 = inner.shifted(idx0, params0)
    p1 = params1.derive(family.view)
    operator = outer.operator(*idx1, p1)
    num = operator.numerator(v)
    detail = None
    if family.valid(idx1):
        product = inner.scale(*idx0, p0) * outer.scale(*idx1, p1)
        if product != eig:
            detail = f"scale product {product} != tabulated eigenvalue {eig}"
    return report_equality(entry_id, idx, params, num, u, scale=eig, denom=operator.denom,
                           applicable=not u.is_zero, detail=detail)


def residual(family, which: str, idx, p, u: MPoly = None) -> MPoly:
    """Cleared residual of one differential equation on `u`, by default the
    member at (idx, p); it is the zero polynomial when u solves it."""
    idx, params = family.index(idx), family.params(p)
    if u is None:
        u = family.member(idx, params)
    return u.apply_derivatives(family.pde[which](*idx, params.derive(family.view)))


def summarize(reports) -> dict:
    """Aggregate counts per relation and flag erratum candidates.

    A relation is an erratum candidate when it failed on every applicable
    (index, params) sample: a transcription typo breaks an identity
    everywhere, whereas an implementation bug usually leaves some trace of
    partial success.
    """
    per_relation: dict = {}
    for r in reports:
        slot = per_relation.setdefault(r.relation, {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0})
        slot[r.status] += 1
    erratum = sorted(
        rel
        for rel, c in per_relation.items()
        if c[FAIL] > 0 and c[PASS] == 0
    )
    totals = {
        "pass": sum(c[PASS] for c in per_relation.values()),
        "fail": sum(c[FAIL] for c in per_relation.values()),
        "not_applicable": sum(c[NOT_APPLICABLE] for c in per_relation.values()),
    }
    return {
        "totals": totals,
        "per_relation": per_relation,
        "erratum_candidates": erratum,
    }
