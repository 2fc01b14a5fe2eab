"""What each `Family` record says about its family agrees with itself.

The record states the index domain twice, as the grid `indices(D)` and as
the predicate `valid`, and chains every composition from two lines of its
sparse table; these tests tie each pair together.
"""

from dataclasses import replace
from itertools import product
from operator import add

import pytest

from simplexpoly import jacobi1d, simplex3d, triangle2d

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


def _compositions_that_do_not_return(family):
    """The ids of the family's compositions whose inner and outer steps do
    not sum to zero, in the index or in the parameters."""
    out = []
    for entry_id, entry in family.second_order.items():
        inner, outer = family.sparse[entry.inner], family.sparse[entry.outer]
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
                                     "M20": replace(family.sparse["M20"], **{step: value})},
                     members={})
    assert sorted(_compositions_that_do_not_return(mutant)) == ["M20.M20p", "M20p.M20"]
