"""Byte-for-byte guard on the canonical text of members and of one remainder.

`tests/data/golden_text.txt` holds the `to_text()` of every member of total
degree <= 3 on one parameter row per family that mixes integer and
non-integer values, then the `NonzeroRemainder` details of the `N10` typo
case of `test_cli.test_verify_flags_operator_typo_as_erratum`.  It was
written by the `Fraction`-coefficient kernel that preceded the
integer-numerator `MPoly`, with

    PYTHONPATH=src python tests/test_golden_text.py > tests/data/golden_text.txt

on that kernel's tree.  It is a reference, not a snapshot: regenerate it
only when the text format itself is meant to change.
"""

from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

from simplexpoly import jacobi1d, simplex3d, sweeps, triangle2d

GOLDEN = Path(__file__).parent / "data" / "golden_text.txt"

ROWS = (
    ("interval", jacobi1d, (F(2), F(-1, 2))),
    ("triangle", triangle2d, (F(1, 2), F(0), F(2), F(-1, 3))),
    ("tetrahedron", simplex3d, (F(1, 3), F(-1, 2), F(1), F(0), F(1, 2), F(2))),
)

# The theorem1 slice of the typo case: N10's c0 gains 1 (n2+n3+1 in place
# of n2+n3), so its exact division by (1-x) leaves a remainder.
TYPO_CONFIG = {"suites": {"theorem1": {
    "degree": 2,
    "params": [["1/3", "-1/2", "1", "0", "1/2", "2"]],
    "relations": ["N10", "N20"],
}}}


def _typo_reports():
    rel = simplex3d.THEOREM1["N10"]

    def typo(*args):
        descriptor = rel.operator(*args)
        return replace(descriptor, c0=descriptor.c0 + 1)

    simplex3d.THEOREM1["N10"] = replace(rel, operator=typo)
    try:
        reports = sweeps.run_suite("theorem1", TYPO_CONFIG, jobs=1)
    finally:
        simplex3d.THEOREM1["N10"] = rel
    return [r for r in reports if r.relation == "N10"]


def _label(values) -> str:
    return ",".join(str(v) for v in values)


def golden_lines():
    lines = []
    for family, module, params in ROWS:
        for idx in module.indices(3):
            member = module.FAMILY.member(idx, params)
            lines.append(f"{family} {_label(idx)} | {_label(params)} | {member.to_text()}")
    for report in _typo_reports():
        lines.append(f"N10 {_label(report.index)} | {_label(report.params)} | {report.detail}")
    return lines


def test_golden_text_is_byte_identical():
    text = "".join(line + "\n" for line in golden_lines())
    assert text.encode("utf-8") == GOLDEN.read_bytes()


if __name__ == "__main__":
    print("\n".join(golden_lines()))
