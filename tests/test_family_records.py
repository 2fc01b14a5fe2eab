"""What each `Family` record says about its family agrees with itself.

The record states the index domain as the grid `indices(D)` and as the
degree map `degrees`, whose nonnegative values are the domain (`valid`),
and each composition's id names two lines of its sparse table; these tests
tie each pair together.  The record also states where its weight is
integrable, and its exact norm ratios are refused outside that.
"""

from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from operator import add

import pytest

from simplexpoly import jacobi1d, simplex3d, triangle2d
from simplexpoly.jacobi1d import collapsed_member
from simplexpoly.operators import composition_lines

FAMILIES = {"interval": jacobi1d.FAMILY, "triangle": triangle2d.FAMILY,
            "tetrahedron": simplex3d.FAMILY}


@pytest.mark.parametrize("max_degree", range(5))
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_the_index_grid_is_every_valid_index_up_to_the_degree(name, max_degree):
    family = FAMILIES[name]
    grid = family.indices(max_degree)
    assert len(set(grid)) == len(grid)
    # Every entry of an index within the degree lies in [0, max_degree], so
    # the box below holds them all, and indices just outside the domain too.
    box = product(range(-2, max_degree + 3), repeat=len(grid[0]))
    assert set(grid) == {idx for idx in box
                         if family.valid(idx) and sum(family.degrees(*idx)) <= max_degree}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_the_index_count_is_the_grid_length(name):
    family = FAMILIES[name]
    for max_degree in range(-2, 7):
        assert family.index_count(max_degree) == len(family.indices(max_degree))


def test_every_composition_id_names_two_sparse_lines():
    # A composition's two lines are read from its id, so an id that names a
    # line its table lacks would end a sweep in a KeyError.
    ids = [(family, entry_id) for family in FAMILIES.values() for entry_id in family.second_order]
    assert len(ids) == 84
    for family, entry_id in ids:
        assert set(composition_lines(entry_id)) <= set(family.sparse), entry_id
        suffix = entry_id.split(".")[2:]
        assert suffix in (["rel"], ["eig"]) if family is jacobi1d.FAMILY else suffix == []


def _compositions_that_do_not_return(family):
    """The ids of the family's compositions whose inner and outer steps do
    not sum to zero, in the index or in the parameters."""
    out = []
    for entry_id, entry in family.second_order.items():
        outer_id, inner_id = composition_lines(entry_id)
        inner, outer = family.sparse[inner_id], family.sparse[outer_id]
        if any(map(add, inner.dn, outer.dn)) or any(map(add, inner.dparams, outer.dparams)):
            out.append(entry_id)
    return out


@pytest.mark.parametrize("name, count", [("interval", 24), ("triangle", 24),
                                         ("tetrahedron", 36)])
def test_every_composition_returns_to_its_operand(name, count):
    # The outer step lands back on the operand, so outer . inner maps a
    # member to a multiple of itself: the lemma that lets a composition be
    # proved from its two sparse lines and its eigenvalue.
    family = FAMILIES[name]
    assert len(family.second_order) == count
    assert _compositions_that_do_not_return(family) == []


@pytest.mark.parametrize("step, value", [("dn", (0, 1)), ("dparams", (0, 0, 0, 2))])
def test_a_mutated_step_is_caught(step, value):
    family = triangle2d.FAMILY
    mutant = replace(family, sparse={**family.sparse,
                                     "M20": replace(family.sparse["M20"], **{step: value})})
    assert sorted(_compositions_that_do_not_return(mutant)) == ["M20.M20p", "M20p.M20"]


def test_a_replaced_record_starts_with_its_own_empty_cache():
    family = triangle2d.FAMILY
    family.member((1, 0), (0, 0, 0, 0))
    copy = replace(family, sparse=dict(family.sparse))
    assert (family, (1, 0), family.params((0, 0, 0, 0))) in jacobi1d._members
    assert not any(record is copy for record, _, _ in jacobi1d._members)
    row = ("2/9", "-1/7", "3/5", "0")
    copy.member((2, 1), row)
    assert (copy, (2, 1), family.params(row)) in jacobi1d._members
    assert (family, (2, 1), family.params(row)) not in jacobi1d._members


def test_no_member_outside_the_domain_is_built(monkeypatch):
    def strict_member(int_axes, degrees):
        assert min(degrees) >= 0, f"a member at degrees {degrees} was built"
        return collapsed_member(int_axes, degrees)

    monkeypatch.setattr(jacobi1d, "collapsed_member", strict_member)
    # A row of its own, so that no member of it is in the cache: at n1 = 0
    # the three-term recurrence names the member at n1 = -1, which is zero.
    row = ("2/7", "3/11", "-5/13", "1/17", "1/19", "-2/23")
    assert simplex3d.verify_three_term((0, 1, 1), row).status == "pass"
    family = simplex3d.FAMILY
    two = family.member((1, 0, 0), row).scale(2)
    assert family.combination((((-1, 0, 0), 5), ((1, 0, 0), 2), ((0, -1, 2), 3)), row) == two


@pytest.mark.parametrize("norm, idx, params", [
    # b + c + d + 1 = -17/10 on the triangle's x axis.
    (triangle2d.triangle_norm_ratio, (1, 1), (0, F(-9, 10), F(-9, 10), F(-9, 10))),
    # beta + gamma + delta + a + b + 2 = -5/2 on the tetrahedron's x axis.
    (simplex3d.FAMILY.norm_ratio, (1, 0, 0), (F(-9, 10),) * 6),
    # The interval's exponent a = -3/2 itself.
    (jacobi1d.norm_ratio, 1, (F(-3, 2), 0)),
])
def test_a_norm_ratio_is_refused_where_the_weight_is_not_integrable(norm, idx, params):
    with pytest.raises(ValueError, match="the weight's exponent .* on axis x must exceed -1"):
        norm(idx, params)
