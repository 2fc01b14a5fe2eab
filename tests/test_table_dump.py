"""Byte-for-byte guard on the value of every transcribed table line.

`tests/data/table_dump.txt` holds, on two fixed rational rows per family and
at every index of total degree <= 3: the `c0`, `cx`, `cy`, `cz` and `denom`
text of each ladder operator and its scale; each composition eigenvalue;
each differential-equation coefficient; the left-hand side of each
corollary on one fixed member and its terms; each monic prefactor; the
three-term coefficients; and the alpha-connection coefficients.  It was
written by the tree whose table lines still took their parameters
positionally, before they read the row's named view, with

    PYTHONPATH=src python tests/test_table_dump.py > tests/data/table_dump.txt

It is a reference, not a snapshot: regenerate it only when a table line is
meant to change.
"""

from fractions import Fraction as F
from pathlib import Path

from simplexpoly import jacobi1d, simplex3d, triangle2d
from simplexpoly.operators import as_tuple
from simplexpoly.special import PoleHit

DUMP = Path(__file__).parent / "data" / "table_dump.txt"

ROWS = {
    "interval": (jacobi1d, ((F(2), F(-1, 2)), (F(-1, 3), F(5, 4)))),
    "triangle": (triangle2d, ((F(1, 2), F(0), F(2), F(-1, 3)),
                              (F(-2, 3), F(3, 5), F(-1, 2), F(7, 4)))),
    "tetrahedron": (simplex3d, ((F(1, 3), F(-1, 2), F(1), F(0), F(1, 2), F(2)),
                                (F(-3, 4), F(2, 5), F(-1, 3), F(5, 2), F(-1, 2), F(3, 7)))),
}

_FIELDS = ("c0", "cx", "cy", "cz", "denom")


def _label(values) -> str:
    return ",".join(str(v) for v in values)


def _value(fn, *args) -> str:
    try:
        return str(fn(*args))
    except (PoleHit, ZeroDivisionError) as exc:
        return type(exc).__name__


def _poly_dict(coeffs) -> str:
    return "; ".join(f"{key or '0'}: {coeffs[key].to_text()}" for key in sorted(coeffs))


def _family_lines(family, module, row):
    fam = module.FAMILY
    p = as_tuple(row, len(row)).derive(fam.view)
    for idx in module.indices(3):
        yield f"{family} {_label(idx)} | {_label(row)}"
        for rid, rel in fam.sparse.items():
            op = rel.operator(*idx, p)
            fields = " | ".join(f"{name} {getattr(op, name).to_text()}" for name in _FIELDS)
            yield f" {rid} | {fields} | scale {rel.scale(*idx, p)}"
        for rid, ent in fam.second_order.items():
            yield f" {rid} | eig {ent.eig(*idx, p)}"
        for rid, builder in fam.pde.items():
            yield f" pde.{rid} | {_poly_dict(builder(*idx, p))}"
        if hasattr(module, "monic_prefactor"):
            yield f" monic_prefactor | {_value(module.monic_prefactor, *idx, p)}"


def _tetrahedron_lines(row):
    """The lines that only the tetrahedron has: the a = b = 0 tables on the
    row's first four entries, at one fixed member for the left-hand sides,
    then the three-term and the alpha-connection coefficients."""
    q = as_tuple(row[:4], 4)
    ab0 = q.derive(simplex3d._ab0)
    p = ab0.derive(simplex3d.FAMILY.view)
    u = simplex3d.FAMILY.member((1, 0, 1), ab0)
    for idx in simplex3d.indices(3):
        yield f"tetrahedron a=b=0 {_label(idx)} | {_label(q)}"
        yield f" classical.T1 | {_poly_dict(simplex3d.classical_t1_coeffs(*idx, p))}"
        for kind, table in (("deriv", simplex3d.DERIVATIVES), ("weighted", simplex3d.WEIGHTED),
                            ("mult", simplex3d.MULTIPLICATIONS)):
            for rid, line in table.items():
                terms = " | ".join(f"{_label(dn)}: {coeff}" for dn, coeff in line.terms(*idx, p))
                yield f" {kind}.{rid} | lhs {line.lhs(u, *idx, p).to_text()} | {terms}"
    for idx in simplex3d.indices(3):
        yield f"tetrahedron {_label(idx)} | {_label(row)}"
        yield f" three-term | {_value(lambda: _label(simplex3d.three_term_x(idx, row)))}"
        terms = " | ".join(f"{_label(t.index)}: {t.coeff}"
                           for t in simplex3d.connect_alpha(idx, row, F(1, 2)).terms)
        yield f" connect.alpha | {terms}"


def dump_lines():
    lines = []
    for family, (module, rows) in ROWS.items():
        for row in rows:
            lines.extend(_family_lines(family, module, row))
    for row in ROWS["tetrahedron"][1]:
        lines.extend(_tetrahedron_lines(row))
    return lines


def test_table_dump_is_byte_identical():
    text = "".join(line + "\n" for line in dump_lines())
    assert text.encode("utf-8") == DUMP.read_bytes()


if __name__ == "__main__":
    print("\n".join(dump_lines()))
