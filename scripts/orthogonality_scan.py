#!/usr/bin/env python3
"""Scan Gram-matrix orthogonality quality over random parameter tuples.

For each draw, builds the degree-N Gram matrix on the tetrahedron and
reports the worst normalized off-diagonal entry and the worst relative
deviation of the diagonal from the interval-norm product formula.  Exits 1
when either exceeds the bound of `simplexpoly gram` (`cli.GRAM_BOUND`), and
64, before any matrix is built, for an --N outside 0 to
`cli.GRAM_MAX_DEGREE` or a --draws below 1, as `gram` refuses its --N.

Usage:
    python scripts/orthogonality_scan.py [--N 4] [--draws 20] [--seed 7]
"""

import random
import sys
from fractions import Fraction

import numpy as np

from simplexpoly import cli, quadrature


def random_params(rng) -> tuple:
    pool = [Fraction(-1, 2), Fraction(-1, 4), Fraction(0), Fraction(1, 3),
            Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2)]
    return tuple(rng.choice(pool) for _ in range(6))


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
    for _ in range(args.draws):
        params = random_params(rng)
        idxs, gram = quadrature.gram_matrix(args.N, params)
        off = quadrature.gram_offdiag_max(idxs, gram)
        expected = quadrature.expected_gram_diagonal(idxs, params)
        diag = float(np.abs(np.diag(gram) / expected - 1).max())
        worst_off = max(worst_off, off)
        worst_diag = max(worst_diag, diag)
        label = ",".join(str(v) for v in params)
        print(f"params=({label:<30}) offdiag={off:.3e} diag_rel={diag:.3e}")
    print(f"worst offdiag {worst_off:.3e}   worst diag_rel {worst_diag:.3e}")
    return 0 if max(worst_off, worst_diag) <= cli.GRAM_BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
