"""Byte-for-byte guard on the reports of mutated table lines.

The sparse relations and the outer step of the compositions are checked by
cross-multiplication, and only a failing sample divides and scales to
print its two sides.  `tests/data/mutant_reports.txt` pins what such
samples report: per family, with one sparse scale raised by 1 (its own
samples fail, and the compositions that chain it keep passing with a
`scale product ... != tabulated eigenvalue ...` detail) and with one
composition eigenvalue raised by 1 (its samples fail with that detail), the
JSON of every report at every index of total degree <= 2.  It was written
by the tree that still divided the operator image and scaled the target on
every sample, with

    PYTHONPATH=src python tests/test_mutant_reports.py > tests/data/mutant_reports.txt
"""

import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

from simplexpoly import jacobi1d, simplex3d, sweeps, triangle2d

DUMP = Path(__file__).parent / "data" / "mutant_reports.txt"

# family -> (module, sparse and composition sweep kinds, parameter rows,
# the sparse line and the composition that chains it)
FAMILIES = {
    "interval": (jacobi1d, ("ladder1d", "so1d"), [(F(0), F(0)), (F(1, 3), F(-1, 2))],
                 "L2", "L2p.L2.rel"),
    "triangle": (triangle2d, ("m2d", "so2d"),
                 [(F(-1, 2), F(0), F(1, 3), F(1)), (F(1), F(1, 3), F(0), F(-1, 2))],
                 "M20", "M20p.M20"),
    "tetrahedron": (simplex3d, ("theorem1", "so3d"),
                    [(F(1, 3), F(-1, 2), F(1), F(0), F(1, 2), F(2))], "N20", "N20p.N20"),
}


def _reports(module, kinds, rows, sparse, composition):
    idxs = module.indices(2)
    tasks = [(kind, rel, idx, row) for row in rows for idx in idxs
             for kind, rel in zip(kinds, (sparse, composition))]
    return [json.dumps(r.to_json(), sort_keys=True) for r in sweeps.run_tasks(tasks)]


def _mutated(table, rel, **fields):
    """Run with table[rel] replaced by its copy with `fields` set by
    functions of the old line; restore it after."""

    def run(fn):
        old = table[rel]
        table[rel] = replace(old, **{k: f(old) for k, f in fields.items()})
        try:
            return fn()
        finally:
            table[rel] = old

    return run


def dump_lines():
    lines = []
    for family, (module, kinds, rows, sparse, composition) in FAMILIES.items():
        fam = module.FAMILY
        run = lambda: _reports(module, kinds, rows, sparse, composition)
        for name, mutant in (
            (f"scale {sparse}", _mutated(fam.sparse, sparse, scale=lambda old: (
                lambda *args: old.scale(*args) + 1))),
            (f"eig {composition}", _mutated(fam.second_order, composition, eig=lambda old: (
                lambda *args: old.eig(*args) + 1))),
        ):
            lines.append(f"{family} | {name}")
            lines.extend(mutant(run))
    return lines


def test_mutant_reports_are_byte_identical():
    text = "".join(line + "\n" for line in dump_lines())
    assert text.encode("utf-8") == DUMP.read_bytes()


def test_the_mutants_fail_and_carry_their_detail():
    lines = dump_lines()
    reports = [json.loads(line) for line in lines if line.startswith("{")]
    failed = [r for r in reports if r["status"] == "fail"]
    assert {r["relation"] for r in failed} == {
        rel for _, _, _, sparse, composition in FAMILIES.values() for rel in (sparse, composition)}
    assert all(r["difference"] not in ("", "0") for r in failed)
    assert any(r["status"] == "pass" and r.get("detail", "").startswith("scale product")
               for r in reports)


if __name__ == "__main__":
    print("\n".join(dump_lines()))
