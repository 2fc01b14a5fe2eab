#!/usr/bin/env python3
"""Scan Gram-matrix orthogonality quality over random parameter tuples.

For each draw, on the tetrahedron and then on the triangle, builds the
degree-N Gram matrix and reports the worst normalized off-diagonal entry
and the worst relative deviation of the diagonal from the interval-norm
product formula.  The pool reaches the weight's domain edge (-19/20) and
large exponents (12); a row whose weight is not integrable along some
collapsed axis, which `gram` refuses, is redrawn.  Exits 1 when either
figure exceeds the bound of `simplexpoly gram` (`cli.GRAM_BOUND`), and 64,
before any matrix is built, for an --N outside 0 to `cli.GRAM_MAX_DEGREE`
or a --draws below 1, as `gram` refuses its --N.

Usage:
    python scripts/orthogonality_scan.py [--N 4] [--draws 20] [--seed 7]

--draws counts the rows of each family.
"""

import random
import sys
from fractions import Fraction

import numpy as np

from simplexpoly import cli, quadrature, simplex3d, triangle2d

POOL = tuple(Fraction(v) for v in (
    "-19/20", "-9/10", "-1/2", "-1/4", "0", "1/3", "1/2", "1", "2", "5/2", "5", "7", "10", "12"))

FAMILIES = (("tetrahedron", simplex3d.FAMILY), ("triangle", triangle2d.FAMILY))


def random_params(rng, family) -> tuple:
    """A row of the family drawn from POOL, redrawn until every collapsed
    exponent of its weight exceeds -1."""
    while True:
        params = tuple(rng.choice(POOL) for _ in family.names)
        if min(min(pair) for pair in family.axes(*params)) > -1:
            return params


def main(argv=None) -> int:
    parser = cli._Parser(description=__doc__)
    parser.add_argument("--N", type=int, default=4)
    parser.add_argument("--draws", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if not 0 <= args.N <= cli.GRAM_MAX_DEGREE:
        parser.error(f"--N must be from 0 to {cli.GRAM_MAX_DEGREE}, got {args.N}")
    if args.draws < 1:
        parser.error(f"--draws must be at least 1, got {args.draws}")

    rng = random.Random(args.seed)
    worst_off = worst_diag = 0.0
    for name, family in FAMILIES:
        for _ in range(args.draws):
            params = random_params(rng, family)
            idxs, gram = quadrature.collapsed_gram(family, args.N, params)
            off = quadrature.gram_offdiag_max(idxs, gram)
            expected = quadrature.expected_gram_diagonal(family, idxs, params)
            diag = float(np.abs(np.diag(gram) / expected - 1).max())
            worst_off = max(worst_off, off)
            worst_diag = max(worst_diag, diag)
            label = ",".join(str(v) for v in params)
            print(f"{name:<11} params=({label:<41}) offdiag={off:.3e} diag_rel={diag:.3e}")
    print(f"worst offdiag {worst_off:.3e}   worst diag_rel {worst_diag:.3e}")
    return 0 if max(worst_off, worst_diag) <= cli.GRAM_BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
