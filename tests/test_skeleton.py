"""Mutation checks on the verification skeleton shared by the families.

One wrong entry in any family's tables (a sparse operator coefficient, a
sparse scale, an index shift, a composition eigenvalue, a
differential-equation coefficient, a corollary term coefficient, parameter
step or left-hand scale, a monic prefactor) must make its relation fail on
every applicable sample of a small slice, so that `summarize` flags it as
an erratum candidate.
"""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from simplexpoly import jacobi1d, simplex3d, sweeps, triangle2d
from simplexpoly.cli import EX_ERRATUM, EX_OK, main
from simplexpoly.operators import summarize
from simplexpoly.ratpoly import ONE, Y

F = Fraction

# family -> (module, sweep kinds for sparse / composition / equation tasks,
# indices, parameter rows, relation ids mutated in each table)
SLICES = {
    "interval": (
        jacobi1d, ("ladder1d", "so1d", None), jacobi1d.indices(3),
        [(F(0), F(0)), (F(1, 3), F(-1, 2))],
        ("L2", "L2p.L2.rel", None),
    ),
    "triangle": (
        triangle2d, ("m2d", "so2d", "pde2d"), triangle2d.indices(2),
        [(F(-1, 2), F(0), F(1, 3), F(1)), (F(1), F(1, 3), F(0), F(-1, 2))],
        ("M20", "M20p.M20", "L2"),
    ),
    "tetrahedron": (
        simplex3d, ("theorem1", "so3d", "pde3d"), simplex3d.indices(2),
        [(F(1, 3), F(-1, 2), F(1), F(0), F(1, 2), F(2))],
        ("N20", "N20p.N20", "T1"),
    ),
}


def _summary(family, table, rel):
    _, kinds, idxs, rows, _ = SLICES[family]
    tasks = [(kinds[table], rel, idx, params) for params in rows for idx in idxs]
    return summarize(sweeps.run_tasks(tasks))


def _mutate_operator(fam, monkeypatch, rel):
    old = fam.sparse[rel]

    def operator(*args):
        descriptor = old.operator(*args)
        return replace(descriptor, c0=descriptor.c0 + ONE)

    monkeypatch.setitem(fam.sparse, rel, replace(old, operator=operator))


def _mutate_scale(fam, monkeypatch, rel):
    old = fam.sparse[rel]
    monkeypatch.setitem(fam.sparse, rel, replace(old, scale=lambda *a: old.scale(*a) + 1))


def _mutate_shift(fam, monkeypatch, rel):
    old = fam.sparse[rel]
    monkeypatch.setitem(fam.sparse, rel, replace(old, dn=(old.dn[0] + 1,) + old.dn[1:]))


def _mutate_eig(fam, monkeypatch, rel):
    old = fam.second_order[rel]
    monkeypatch.setitem(fam.second_order, rel, replace(old, eig=lambda *a: old.eig(*a) + 1))


def _mutate_pde(fam, monkeypatch, rel):
    old = fam.pde[rel]

    def builder(*args):
        coeffs = dict(old(*args))
        coeffs[""] = coeffs[""] + ONE
        return coeffs

    monkeypatch.setitem(fam.pde, rel, builder)


# mutation -> (table it touches: 0 sparse, 1 composition, 2 equation)
MUTATIONS = {
    "operator": (_mutate_operator, 0),
    "scale": (_mutate_scale, 0),
    "shift": (_mutate_shift, 0),
    "eig": (_mutate_eig, 1),
    "pde": (_mutate_pde, 2),
}


@pytest.mark.parametrize("family", sorted(SLICES))
def test_unmutated_slice_is_clean(family):
    for table, rel in enumerate(SLICES[family][4]):
        if rel is None:
            continue
        summary = _summary(family, table, rel)
        assert summary["totals"]["fail"] == 0
        assert summary["totals"]["pass"] > 0


# The interval family has no differential-equation table.
MUTANTS = [
    (family, mutation)
    for family in sorted(SLICES)
    for mutation, (_, table) in sorted(MUTATIONS.items())
    if SLICES[family][4][table] is not None
]


@pytest.mark.parametrize("family, mutation", MUTANTS)
def test_mutant_is_erratum_candidate(family, mutation, monkeypatch):
    module, _, _, _, relations = SLICES[family]
    mutate, table = MUTATIONS[mutation]
    rel = relations[table]
    mutate(module.FAMILY, monkeypatch, rel)
    relation = f"pde.{rel}" if table == 2 else rel
    assert relation in _summary(family, table, rel)["erratum_candidates"]


@pytest.mark.parametrize("family", sorted(SLICES))
def test_failing_report_carries_its_difference(family, monkeypatch):
    module, kinds, idxs, rows, relations = SLICES[family]
    rel = relations[0]
    _mutate_scale(module.FAMILY, monkeypatch, rel)
    reports = sweeps.run_tasks([(kinds[0], rel, idx, params)
                                for params in rows for idx in idxs])
    failed = [r.to_json() for r in reports if r.status == "fail"]
    assert failed
    for r in failed:
        assert r["difference"] not in ("", "0")
    passed = [r.to_json() for r in reports if r.status != "fail"]
    assert all("difference" not in r for r in passed)


# The corollary tables of the a = b = 0 subfamily: sweep kind -> (its
# table, the line mutated in it, that line's report relation).  Every index
# of the slice has all three entries at least 1, where no derivative
# identity is trivially 0 = 0.
COROLLARY_TABLES = {
    "cor_deriv": (simplex3d.DERIVATIVES, "dx-dy", "corollary.deriv.dx-dy"),
    "cor_weight": (simplex3d.WEIGHTED, "dz", "corollary.weighted.dz"),
    "cor_mult": (simplex3d.MULTIPLICATIONS, "y", "corollary.mult.y"),
}
COROLLARY_SLICE = (
    [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)],
    [(F(1, 3), F(-1, 2), F(1), F(0)), (F(-1, 2), F(0), F(1, 3), F(1))],
)


def _corollary_summary(kind):
    rel = COROLLARY_TABLES[kind][1]
    idxs, rows = COROLLARY_SLICE
    return summarize(sweeps.run_tasks([(kind, rel, idx, q) for q in rows for idx in idxs]))


def _first_coefficient_plus_one(line):
    def terms(*args):
        (dn, coeff), *rest = line.terms(*args)
        return ((dn, coeff + 1), *rest)

    return replace(line, terms=terms)


COROLLARY_MUTATIONS = {
    "coefficient": _first_coefficient_plus_one,
    "step": lambda line: replace(line, dparams=(line.dparams[0] + 1,) + line.dparams[1:]),
    "lhs": lambda line: replace(line, lhs=lambda u, *args: line.lhs(u, *args).scale(2)),
}


@pytest.mark.parametrize("kind", sorted(COROLLARY_TABLES))
def test_unmutated_corollary_slice_is_clean(kind):
    summary = _corollary_summary(kind)
    assert summary["totals"]["fail"] == 0
    assert summary["totals"]["pass"] == len(COROLLARY_SLICE[0]) * len(COROLLARY_SLICE[1])


@pytest.mark.parametrize("kind", sorted(COROLLARY_TABLES))
@pytest.mark.parametrize("mutation", sorted(COROLLARY_MUTATIONS))
def test_corollary_mutant_is_erratum_candidate(kind, mutation, monkeypatch):
    table, rel, relation = COROLLARY_TABLES[kind]
    monkeypatch.setitem(table, rel, COROLLARY_MUTATIONS[mutation](table[rel]))
    assert relation in _corollary_summary(kind)["erratum_candidates"]


# The monic solutions keep the prefactor transcribed from the paper, so a
# wrong prefactor must show as a leading coefficient other than 1.  The pde
# slice builds monic solutions up to degree 2, so it holds indices whose
# first-axis degree is 1 and 2, where the prefactor has Pochhammer factors.
MONIC_SLICE = {
    "triangle": (triangle2d, [["1/3", "-1/2", "1", "0"]]),
    "simplex": (simplex3d, [["1/3", "-1/2", "1", "0", "1/2", "2"]]),
}


def _monic_slice_verify(tmp_path):
    config = tmp_path / "pde.json"
    config.write_text(json.dumps({"suites": {"pde": {
        "twod": {"degree": 0, "params": MONIC_SLICE["triangle"][1]},
        "threed": {"degree": 0, "params": MONIC_SLICE["simplex"][1]},
        "monic_degree": 2,
    }}}))
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "pde", "--config", str(config), "--jobs", "1",
                 "--out", str(out)])
    return code, json.loads(out.read_text())


def test_unmutated_monic_slice_is_clean(tmp_path, capsys):
    code, payload = _monic_slice_verify(tmp_path)
    assert code == EX_OK
    assert payload["summary"]["per_relation"]["monic.simplex"]["pass"] == 10
    assert payload["summary"]["per_relation"]["monic.triangle"]["pass"] == 6


@pytest.mark.parametrize("family", sorted(MONIC_SLICE))
def test_doubled_monic_prefactor_is_erratum_candidate(family, tmp_path, monkeypatch, capsys):
    record = MONIC_SLICE[family][0].FAMILY
    equation, prefactor = record.monic
    # The record is frozen, so its monic line is swapped in its __dict__.
    monkeypatch.setitem(vars(record), "monic", (equation, lambda *args: 2 * prefactor(*args)))
    code, payload = _monic_slice_verify(tmp_path)
    assert code == EX_ERRATUM
    assert payload["summary"]["erratum_candidates"] == [f"monic.{family}"]
    failed = [r["index"] for r in payload["reports"] if r["status"] == "fail"]
    first_axis = [idx[0] - idx[1] if family == "triangle" else idx[0] for idx in failed]
    assert max(first_axis) == 2


def test_unsupported_divisor_is_a_failing_sample(tmp_path, monkeypatch, capsys):
    # A table typo that gives N01 the denominator y, which the exact
    # division does not support, fails every N01 sample; the sweep still
    # ends in a report and flags N01.
    old = simplex3d.THEOREM1["N01"]
    monkeypatch.setitem(simplex3d.THEOREM1, "N01", replace(
        old, operator=lambda *args: replace(old.operator(*args), denom=Y)))
    config = tmp_path / "theorem1.json"
    config.write_text(json.dumps({"suites": {"theorem1": {
        "degree": 2, "params": [["1/3", "-1/2", "1", "0", "1/2", "2"]]}}}))
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "theorem1", "--config", str(config), "--jobs", "1",
                 "--out", str(out)])
    assert code == EX_ERRATUM
    payload = json.loads(out.read_text())
    assert payload["summary"]["erratum_candidates"] == ["N01"]
    n01 = [r for r in payload["reports"] if r["relation"] == "N01"]
    assert n01 and all(r["status"] == "fail" for r in n01)
    assert all(r["detail"].startswith("ValueError: unsupported divisor shape") for r in n01)
