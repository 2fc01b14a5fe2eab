"""Byte-for-byte guard on the connection expansions.

`tests/data/connection_dump.txt` holds, on two fixed rational rows and at
every index of total degree <= 3, the terms (target index, coefficient and
the powers of 1-x and 1-x-y) of `simplex3d.connect_alpha` at every shipped
xi and of `simplex3d.connect_general` at every shipped target, each list
ended, as the sweep does, by the row's own first parameter or first four.
It was written by the tree whose connection coefficients were still
`Fraction` products throughout, before the integer kernels, with

    PYTHONPATH=src python tests/test_connection_dump.py > tests/data/connection_dump.txt

It is a reference, not a snapshot: regenerate it only when a connection
coefficient is meant to change.
"""

from fractions import Fraction as F
from pathlib import Path

from simplexpoly import simplex3d, sweeps
from simplexpoly.operators import as_tuple
from simplexpoly.special import PoleHit

DUMP = Path(__file__).parent / "data" / "connection_dump.txt"

ROWS = ((F(1, 3), F(-1, 2), F(1), F(0), F(1, 2), F(2)),
        (F(-3, 4), F(2, 5), F(-1, 3), F(5, 2), F(-1, 2), F(3, 7)))


def _label(values) -> str:
    return ",".join(str(v) for v in values)


def _terms(expand) -> str:
    try:
        terms = expand().terms
    except (PoleHit, ZeroDivisionError) as exc:
        return type(exc).__name__
    return " | ".join(f"{_label(t.index)}: {t.coeff} ^{t.pow_1x},{t.pow_1xy}" for t in terms)


def dump_lines():
    section = sweeps.load_config(sweeps.default_config_path())["suites"]["connections"]
    xis = as_tuple(section["alpha"]["xi"], len(section["alpha"]["xi"]))
    targets = [as_tuple(t, 4) for t in section["general"]["targets"]]
    lines = []
    for row in ROWS:
        row = as_tuple(row, 6)
        for idx in simplex3d.indices(3):
            lines.append(f"tetrahedron {_label(idx)} | {_label(row)}")
            for xi in xis + (row[0],):
                lines.append(f" alpha {xi} | "
                             + _terms(lambda: simplex3d.connect_alpha(idx, row, xi)))
            for target in targets + [as_tuple(row[:4], 4)]:
                lines.append(f" general {_label(target)} | "
                             + _terms(lambda: simplex3d.connect_general(idx, row, target)))
    return lines


def test_connection_dump_is_byte_identical():
    text = "".join(line + "\n" for line in dump_lines())
    assert text.encode("utf-8") == DUMP.read_bytes()


if __name__ == "__main__":
    print("\n".join(dump_lines()))
