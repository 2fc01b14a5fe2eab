"""Orthogonal polynomial families on the interval, triangle and unit
tetrahedron, with exact verification of their ladder-operator calculus.

The package is organized bottom-up:

    ratpoly     exact sparse polynomials in (x, y, z), integer numerators
                over one common denominator; `Rat`, the parameters' rationals
    special     Pochhammer / gamma-ratio / terminating hypergeometric sums
    operators   first-order differential operators, verification reports,
                and the verification skeleton shared by the three families
    jacobi1d    shifted Jacobi polynomials on (0, 1), 12 ladder relations,
                and the `Family` record, whose collapsed products build
                the members of all three families
    triangle2d  four-parameter triangle family, 24 ladder relations
    simplex3d   six-parameter tetrahedron family, 36 ladder relations,
                differential equations, connections, recurrences
    quadrature  Gauss-Jacobi rules and the float Gram matrices; the one
                module that needs numpy, loaded by `gram` and the scan
                script, not by importing the package
    sweeps      verification sweep harness (used by the CLI and tests)
    cli         `simplexpoly` command-line front end
"""

from .ratpoly import MPoly, NonzeroRemainder
from .special import PoleHit, gamma_ratio, hyper3f2_unit, pochhammer
from .operators import DiffOperator, SparseRelation, VerificationReport, summarize
from .jacobi1d import shifted_jacobi, norm_ratio, verify_ladder, verify_second_order_1d
from .triangle2d import (
    triangle_poly,
    triangle_norm_ratio,
    monic_triangle,
    verify_m_relation,
    verify_second_order_m,
    pde_residual,
)
from .simplex3d import (
    ConnectionExpansion,
    simplex_poly,
    simplex_norm,
    monic_simplex,
    verify_theorem1,
    verify_second_order_3d,
    pde_residual_3d,
    verify_reduction_ab0,
    connect_alpha,
    connect_general,
    three_term_x,
    verify_three_term,
)

__version__ = "0.1.0"
