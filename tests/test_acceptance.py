"""Acceptance criteria, one test per criterion.

Each criterion runs the relevant relations at the grids from the shipped
default sweep configuration (the single source also used by the CLI),
asserts exactness / tolerances, and prints one summary line.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time
from fractions import Fraction

import pytest

from simplexpoly import quadrature, simplex3d, sweeps, triangle2d
from simplexpoly.operators import summarize

F = Fraction


@pytest.fixture(scope="module")
def config():
    return sweeps.load_config(sweeps.default_config_path())


def _run(tasks):
    start = time.perf_counter()
    reports = sweeps.run_tasks(tasks)
    elapsed = time.perf_counter() - start
    return reports, summarize(reports), elapsed


def _announce(label, summary, elapsed, limit):
    totals = summary["totals"]
    status = "PASS" if totals["fail"] == 0 and not summary["erratum_candidates"] else "FAIL"
    print(
        f"ACCEPTANCE {label}: {status} "
        f"({totals['pass']} pass, {totals['fail']} fail, "
        f"{totals['not_applicable']} n/a, {elapsed:.1f}s / limit {limit:.0f}s)"
    )


def _assert_clean(summary, elapsed, limit):
    assert summary["totals"]["fail"] == 0
    assert summary["erratum_candidates"] == []
    assert elapsed < limit


def test_criterion_1_univariate_suite(config):
    """12 sparse ladder relations and 24 second-order identities, exact,
    n <= 8 over the full 36-pair parameter grid."""
    section = config["suites"]["ladder1d"]
    assert len(section["params"]) >= 36
    assert section["degree"] >= 8
    tasks = sweeps.tasks_ladder1d(section)
    one = config["suites"]["second-order"]["oned"]
    tasks += [
        ("so1d", key, (n,), params)
        for params in sweeps.parse_grid(one["params"], 2)
        for n in range(int(one["degree"]) + 1)
        for key in sweeps.jacobi1d.SECOND_ORDER_1D
    ]
    reports, summary, elapsed = _run(tasks)
    _announce("1 (univariate ladders)", summary, elapsed, 10)
    assert len(summary["per_relation"]) == 12 + 24
    _assert_clean(summary, elapsed, 10)


def test_criterion_2_bivariate_suite(config):
    """24 sparse M relations, 24 compositions, zero residuals for the
    three equations, and the d = 0 reduction, n <= 6 over >= 12 tuples."""
    section = config["suites"]["m2d"]
    assert len(section["params"]) >= 12
    assert section["degree"] >= 6
    tasks = sweeps.tasks_m2d(section)
    two = config["suites"]["second-order"]["twod"]
    grid2 = sweeps.parse_grid(two["params"], 4)
    tasks += [
        ("so2d", key, idx, params)
        for params in grid2
        for idx in triangle2d.indices(int(two["degree"]))
        for key in sweeps.triangle2d.SECOND_ORDER_2D
    ]
    pde2 = config["suites"]["pde"]["twod"]
    tasks += [
        ("pde2d", which, idx, params)
        for params in sweeps.parse_grid(pde2["params"], 4)
        for idx in triangle2d.indices(int(pde2["degree"]))
        for which in ("L1", "L2", "B1")
    ]
    reports, summary, elapsed = _run(tasks)
    _announce("2 (bivariate suite)", summary, elapsed, 60)
    assert len(summary["per_relation"]) == 24 + 24 + 3 + 1  # + reduction.d0
    _assert_clean(summary, elapsed, 60)


def test_criterion_3_trivariate_suite(config):
    """Core contribution: 36 sparse relations and 36 compositions exact for
    n <= 5 over >= 8 tuples; all four equations have zero residual; the
    a = b = 0 members match the classical construction; no erratum
    candidates."""
    section = config["suites"]["theorem1"]
    assert len(section["params"]) >= 8
    assert section["degree"] >= 5
    tasks = sweeps.tasks_theorem1(section)
    three = config["suites"]["second-order"]["threed"]
    grid3 = sweeps.parse_grid(three["params"], 6)
    tasks += [
        ("so3d", key, idx, params)
        for params in grid3
        for idx in simplex3d.indices(int(three["degree"]))
        for key in sweeps.simplex3d.SECOND_ORDER_3D
    ]
    pde3 = config["suites"]["pde"]["threed"]
    tasks += [
        ("pde3d", which, idx, params)
        for params in sweeps.parse_grid(pde3["params"], 6)
        for idx in simplex3d.indices(int(pde3["degree"]))
        for which in ("T1", "T2", "T3", "T4")
    ]
    reports, summary, elapsed = _run(tasks)
    _announce("3 (trivariate suite)", summary, elapsed, 300)
    assert len(summary["per_relation"]) == 36 + 36 + 4 + 1  # + reduction.ab0
    _assert_clean(summary, elapsed, 300)


def test_criterion_4_orthogonality():
    """Gram matrices for N <= 4 at three parameter tuples: each entry
    g_ij / sqrt(h_i h_j), h the norm products, within 1e-10 of delta_ij;
    desk-scale values 1/6 and 1/10 at zero parameters."""
    start = time.perf_counter()
    tuples = [
        (F(0),) * 6,
        (F(1, 3), F(-1, 2), F(1), F(0), F(1, 2), F(2)),
        (F(1), F(1), F(1), F(1), F(1), F(1)),
    ]
    worst = 0.0
    for params in tuples:
        idxs, gram = quadrature.gram_matrix(4, params)
        worst = max(worst, quadrature.gram_error(simplex3d.FAMILY, idxs, gram, params)[0])
    zeros = (F(0),) * 6
    idxs, gram = quadrature.gram_matrix(1, zeros)
    norm000 = gram[idxs.index((0, 0, 0)), idxs.index((0, 0, 0))]
    norm100 = gram[idxs.index((1, 0, 0)), idxs.index((1, 0, 0))]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10
    print(
        f"ACCEPTANCE 4 (orthogonality): {'PASS' if ok else 'FAIL'} "
        f"(error {worst:.2e}, {elapsed:.1f}s / limit 30s)"
    )
    assert worst <= 1e-10
    assert norm000 == pytest.approx(1 / 6, rel=1e-10)
    assert norm100 == pytest.approx(1 / 10, rel=1e-10)
    assert elapsed < 30


def test_criterion_5_connections(config):
    """Alpha-connection reassembly for n <= 4 across the xi grid and the
    general connection for n <= 3, including identity-target collapse."""
    section = config["suites"]["connections"]
    assert int(section["alpha"]["degree"]) >= 4
    assert int(section["general"]["degree"]) >= 3
    tasks = sweeps.tasks_connections(section)
    reports, summary, elapsed = _run(tasks)
    # identity-target collapse is part of the task list (xi = alpha and
    # target = source appended per parameter tuple); spot-check one here.
    from simplexpoly.simplex3d import connect_alpha

    params = sweeps.parse_grid(section["alpha"]["params"], 6)[0]
    exp = connect_alpha((2, 1, 0), params, params[0])
    collapse_ok = len(exp.terms) == 1 and exp.terms[0].coeff == 1
    _announce("5 (connections)", summary, elapsed, 120)
    assert collapse_ok
    _assert_clean(summary, elapsed, 120)


def test_criterion_6_three_term_and_corollaries(config):
    """Recurrence exact for n <= 5 (including the hand-checked case at the
    origin) and the twelve classical-subfamily identities for n <= 4."""
    from simplexpoly.ratpoly import ONE, X
    from simplexpoly.simplex3d import simplex_poly_raw, three_term_x

    zeros = (F(0),) * 6
    ca, cb, cc = three_term_x((0, 0, 0), zeros)
    hand_ok = (
        (ca, cb, cc) == (F(1, 4), F(1, 4), F(0))
        and X == simplex_poly_raw(1, 0, 0, *zeros).scale(ca) + ONE.scale(cb)
    )
    tasks = sweeps.tasks_three_term(config["suites"]["three-term"])
    tasks += sweeps.tasks_corollaries(config["suites"]["corollaries"])
    reports, summary, elapsed = _run(tasks)
    _announce("6 (three-term + corollaries)", summary, elapsed, 60)
    assert hand_ok
    assert int(config["suites"]["three-term"]["degree"]) >= 5
    assert int(config["suites"]["corollaries"]["degree"]) >= 4
    _assert_clean(summary, elapsed, 60)


def test_criterion_7_monic_solutions(config):
    """Monic solutions solve their equations with exactly zero residual and
    unit leading coefficient for n <= 5."""
    pde = config["suites"]["pde"]
    monic_degree = int(pde.get("monic_degree", 5))
    assert monic_degree >= 5
    tasks = [
        ("monic2d", None, idx, params)
        for params in sweeps.parse_grid(pde["twod"]["params"], 4)
        for idx in triangle2d.indices(monic_degree)
    ]
    tasks += [
        ("monic3d", None, idx, params)
        for params in sweeps.parse_grid(pde["threed"]["params"], 6)
        for idx in simplex3d.indices(monic_degree)
    ]
    reports, summary, elapsed = _run(tasks)
    _announce("7 (monic solutions)", summary, elapsed, 20)
    _assert_clean(summary, elapsed, 20)
