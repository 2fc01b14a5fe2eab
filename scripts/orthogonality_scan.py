#!/usr/bin/env python3
"""Scan Gram-matrix orthogonality quality over random parameter tuples.

For each draw, on the tetrahedron and then on the triangle, builds the
degree-N Gram matrix and reports the figure that `simplexpoly gram`
checks, its worst |g_ij / sqrt(h_i h_j) - delta_ij| for the members'
squared norms h.  The pool reaches the weight's domain edge (-19/20) and
large exponents (12); a row whose weight is not integrable along some
collapsed axis, which `gram` refuses, is redrawn.  Exits 1 when the worst
figure exceeds the bound of `gram` (`cli.GRAM_BOUND`), and 64, before any
matrix is built, for an --N outside 0 to `cli.GRAM_MAX_DEGREE` or a
--draws below 1, as `gram` refuses its --N.

Usage:
    python scripts/orthogonality_scan.py [--N 4] [--draws 20] [--seed 7]

--draws counts the rows of each family.
"""

import random
import sys
from fractions import Fraction

from simplexpoly import cli, quadrature, simplex3d, triangle2d

POOL = tuple(Fraction(v) for v in (
    "-19/20", "-9/10", "-1/2", "-1/4", "0", "1/3", "1/2", "1", "2", "5/2", "5", "7", "10", "12"))

FAMILIES = (("tetrahedron", simplex3d.FAMILY), ("triangle", triangle2d.FAMILY))


def random_params(rng, family) -> tuple:
    """A row of the family drawn from POOL, redrawn until its weight is
    integrable (`Family.integrable_axes`)."""
    while True:
        params = tuple(rng.choice(POOL) for _ in family.names)
        try:
            family.integrable_axes(params)
        except ValueError:
            continue
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
    worst = 0.0
    for name, family in FAMILIES:
        for _ in range(args.draws):
            params = random_params(rng, family)
            idxs, gram = quadrature.collapsed_gram(family, args.N, params)
            error = quadrature.gram_error(family, idxs, gram, params)[0]
            worst = max(worst, error)
            label = ",".join(str(v) for v in params)
            print(f"{name:<11} params=({label:<41}) error={error:.3e}")
    print(f"worst error {worst:.3e}")
    return 0 if worst <= cli.GRAM_BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
