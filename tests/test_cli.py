"""Command-line interface: outputs, exit codes, determinism."""

import json
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bad_configs import BAD_CONFIGS, bad_config_path
from simplexpoly import jacobi1d, quadrature, simplex3d, sweeps, triangle2d
from simplexpoly.operators import as_tuple
from simplexpoly.cli import (CONNECT_MAX_DEGREE, EX_CONFIG, EX_ERRATUM, EX_FAIL, EX_OK, EX_USAGE,
                             GRAM_BOUND, GRAM_MAX_DEGREE, PRINT_MAX_DEGREE, main)


SMALL_CONFIG = {
    "jobs": 1,
    "suites": {
        "ladder1d": {"degree": 3, "params": [["0", "0"], ["1/3", "-1/2"]]},
        "three-term": {"degree": 2, "params": [["0", "0", "0", "0", "0", "0"]]},
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def test_print_poly_simplex(capsys):
    code = main(
        ["print-poly", "--family", "simplex", "--index", "1,0,0",
         "--params", "0,0,0,0,0,0"]
    )
    assert code == EX_OK
    assert capsys.readouterr().out.strip() == "4 * x^1 - 1"


def test_print_poly_rational_params(capsys):
    code = main(
        ["print-poly", "--family", "jacobi", "--index", "1", "--params", "1/3,1/2"]
    )
    assert code == EX_OK
    assert capsys.readouterr().out.strip() == "17/6 * x^1 - 3/2"


def test_print_poly_monic(capsys):
    code = main(
        ["print-poly", "--family", "triangle", "--index", "1,0",
         "--params", "0,0,0,0", "--monic"]
    )
    assert code == EX_OK
    assert capsys.readouterr().out.strip() == "1 * x^1 - 1/3"


def test_verify_passes_and_writes_report(config_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--suite", "ladder1d", "--config", config_path, "--out", str(out)]
    )
    assert code == EX_OK
    payload = json.loads(out.read_text())
    assert payload["summary"]["totals"]["fail"] == 0
    assert payload["summary"]["erratum_candidates"] == []
    statuses = {r["status"] for r in payload["reports"]}
    assert statuses <= {"pass", "not_applicable"}
    assert "suite ladder1d" in capsys.readouterr().out


def test_verify_deterministic_reports(config_path, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["verify", "--suite", "three-term", "--config", config_path, "--out", str(out1)])
    main(["verify", "--suite", "three-term", "--config", config_path, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_flags_operator_typo_as_erratum(tmp_path, monkeypatch, capsys):
    # N10 with c0 = n2+n3+1 instead of n2+n3: the exact division by (1-x)
    # then leaves a remainder on every sample, which must fail the sample
    # rather than end the run.
    rel = simplex3d.THEOREM1["N10"]

    def typo(*args):
        descriptor = rel.operator(*args)
        return replace(descriptor, c0=descriptor.c0 + 1)

    monkeypatch.setitem(simplex3d.THEOREM1, "N10", replace(rel, operator=typo))
    config = tmp_path / "theorem1.json"
    config.write_text(json.dumps({"suites": {"theorem1": {
        "degree": 2,
        "params": [["1/3", "-1/2", "1", "0", "1/2", "2"]],
        "relations": ["N10", "N20"],
    }}}))
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "theorem1", "--config", str(config),
                 "--jobs", "1", "--out", str(out)])
    assert code == EX_ERRATUM
    payload = json.loads(out.read_text())
    assert payload["summary"]["erratum_candidates"] == ["N10"]
    n10 = [r for r in payload["reports"] if r["relation"] == "N10"]
    assert n10 and all(r["status"] == "fail" for r in n10)
    assert all(r["detail"].startswith("NonzeroRemainder: ") for r in n10)


def test_verify_default_config_is_shipped(capsys):
    # smallest suite to keep runtime down
    code = main(["verify", "--suite", "three-term"])
    assert code == EX_OK
    assert "0 fail" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["verify"])  # missing --suite
    assert err.value.code == EX_USAGE


# A rational with a zero denominator in each place the commands read one.
ZERO_DENOMINATOR_ARGV = [
    ["print-poly", "--family", "simplex", "--index", "1,0,0", "--params", "1/0,0,0,0,0,0"],
    ["gram", "--N", "2", "--params", "0,0,0,0,0,1/0"],
    ["connect", "--mode", "alpha", "--index", "1,0,0", "--params", "0,0,0,0,0,0", "--xi", "1/0"],
    ["connect", "--mode", "general", "--index", "1,1,0", "--params", "0,0,0,0,0,0",
     "--target", "0,0,0,1/0"],
]


# What the error line names first, for the inputs that meet a pole or a
# weight that is not integrable.
POLE_NAMES = {
    "gram-weight-not-integrable": "the weight's exponent -17/10 on axis y/(1-x) must exceed -1",
    "connect-target-pole": "alpha connection coefficient of 1,0,0 on 0,0,0: gamma ratio pole",
    "monic-triangle-pole": "monic prefactor at index 1,0: gamma ratio pole",
    "monic-simplex-pole": "monic prefactor at index 1,0,0: gamma ratio pole",
    "connect-coefficient-pole": "the weight's exponent -13/6 on axis x must exceed -1",
    "connect-alpha-pole-1": "the weight's exponent -13/6 on axis x must exceed -1",
    "connect-alpha-pole-2": "the weight's exponent -13/6 on axis x must exceed -1",
    "connect-general-target-pole": "target the weight's exponent -3/2 on axis x must exceed -1",
}


@pytest.mark.parametrize("argv", [
    ["print-poly", "--family", "simplex", "--index", "1,0,0", "--params", "0,0"],
    ["print-poly", "--family", "simplex", "--index=-1,0,0", "--params", "0,0,0,0,0,0"],
    ["print-poly", "--family", "triangle", "--index", "1,2", "--params", "0,0,0,0"],
    ["connect", "--mode", "alpha", "--index=-1,0,0", "--params", "0,0,0,0,0,0", "--xi", "1"],
    ["print-poly", "--family", "jacobi", "--index", "2", "--params=-1,0"],
    ["print-poly", "--family", "jacobi", "--index", "1", "--params=-2,0"],
    ["print-poly", "--family", "simplex", "--index", "1,0,0", "--params=-2,0,0,0,0,0"],
    ["print-poly", "--family", "triangle", "--index", "1,0", "--params=0,0,-1,0", "--monic"],
    ["print-poly", "--family", "simplex", "--index", "1,0,0", "--params=0,0,0,-3/2,0,0",
     "--monic"],
    # A pole of the alpha connection at a target inside the weight domain.
    ["connect", "--mode", "alpha", "--index", "1,0,0", "--params=0,-1/2,-1/2,-1/2,-1/2,-1/2",
     "--xi=-1/2"],
    ["connect", "--mode", "alpha", "--index", "1,0,0", "--params=-2,0,0,0,0,0", "--xi", "1"],
    ["connect", "--mode", "alpha", "--index", "1,0,0", "--params", "0,0,0,0,0,0", "--xi=-3/2"],
    ["connect", "--mode", "general", "--index", "1,1,0", "--params", "0,0,0,0,0,0",
     "--target=-3,0,0,0"],
    ["gram", "--N", "4", "--params", "0,0,0,0,-3/2,0"],
    ["gram", "--family", "triangle", "--N", "4", "--params", "0,1,1,-3/2"],
    ["gram", "--N=-1", "--params", "0,0,0,0,0,0"],
    # Every parameter exceeds -1, the exponent gamma + delta + b + 1 does not.
    ["gram", "--N", "2", "--params=0,0,-9/10,-9/10,0,-9/10"],
    ["print-poly", "--family", "jacobi", "--index", "520", "--params", "0,0"],
    *ZERO_DENOMINATOR_ARGV,
    # Poles inside the weight domain: in a monic prefactor, and in general
    # and alpha connection coefficients at a source or target row whose
    # weight is not integrable along x, which is the refusal named.
    ["print-poly", "--family", "triangle", "--index", "1,0", "--params=-3/4,-3/4,-3/4,-3/4",
     "--monic"],
    ["print-poly", "--family", "simplex", "--index", "1,0,0",
     "--params=-2/3,-2/3,-2/3,-2/3,-2/3,-2/3", "--monic"],
    ["connect", "--mode", "general", "--index", "2,0,0", "--params=-5/6,-5/6,-5/6,-5/6,-5/6,-5/6",
     "--target=-5/6,-5/6,-5/6,-5/6"],
    ["connect", "--mode", "alpha", "--index", "1,0,0", "--params=-5/6,-5/6,-5/6,-5/6,-5/6,-5/6",
     "--xi=-5/6"],
    ["connect", "--mode", "alpha", "--index", "2,0,0", "--params=-5/6,-5/6,-5/6,-5/6,-5/6,-5/6",
     "--xi=-5/6"],
    ["connect", "--mode", "general", "--index", "0,1,0", "--params=-1/2,-1/2,-1/2,-1/2,-1/2,-1/2",
     "--target=-5/6,-5/6,-5/6,-5/6"],
    # A flag that the mode does not read.
    ["connect", "--mode", "alpha", "--index", "1,0,0", "--params", "0,0,0,0,0,0",
     "--xi", "1/2", "--target", "0,0,0,0"],
    ["connect", "--mode", "general", "--index", "1,0,0", "--params", "0,0,0,0,0,0",
     "--target", "0,0,0,0", "--xi", "1/2"],
], ids=["short-params", "negative-index", "k-above-n", "connect-negative-index",
        "jacobi-param-at-pole", "jacobi-param-below-pole", "simplex-param-below-pole", "monic-triangle-param-at-pole",
        "monic-simplex-param-below-pole", "connect-target-pole", "connect-param-below-pole",
        "connect-xi-below-pole", "connect-general-target-below-pole",
        "gram-simplex-param-below-pole", "gram-triangle-param-below-pole", "gram-negative-N",
        "gram-weight-not-integrable",
        "jacobi-index-past-exponent-limit", "print-poly-zero-denominator",
        "gram-zero-denominator", "connect-xi-zero-denominator",
        "connect-target-zero-denominator", "monic-triangle-pole", "monic-simplex-pole",
        "connect-coefficient-pole", "connect-alpha-pole-1", "connect-alpha-pole-2",
        "connect-general-target-pole", "connect-alpha-with-target", "connect-general-with-xi"])
def test_bad_params_exit_usage(argv, request, capsys):
    code = main(argv)
    assert code == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line.startswith("simplexpoly: error: " + POLE_NAMES.get(request.node.callspec.id, ""))


@pytest.mark.parametrize("argv", ZERO_DENOMINATOR_ARGV,
                         ids=["print-poly", "gram", "connect-xi", "connect-target"])
def test_a_zero_denominator_is_one_error_line_naming_it(argv, capsys):
    assert main(argv) == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["simplexpoly: error: '1/0' has a zero denominator"]


@pytest.mark.parametrize("argv, total, bound", [
    (["print-poly", "--family", "simplex", "--index", f"0,0,{PRINT_MAX_DEGREE + 1}",
      "--params", "0,0,0,0,0,0"], PRINT_MAX_DEGREE + 1, PRINT_MAX_DEGREE),
    (["print-poly", "--family", "simplex", "--index", f"{PRINT_MAX_DEGREE},1,0",
      "--params", "0,0,0,0,0,0", "--monic"], PRINT_MAX_DEGREE + 1, PRINT_MAX_DEGREE),
    (["print-poly", "--family", "triangle", "--index", f"{PRINT_MAX_DEGREE + 1},1",
      "--params", "0,0,0,0"], PRINT_MAX_DEGREE + 1, PRINT_MAX_DEGREE),
    (["print-poly", "--family", "jacobi", "--index", "511", "--params", "0,0"],
     511, PRINT_MAX_DEGREE),
    (["connect", "--mode", "general", "--index", f"1,1,{CONNECT_MAX_DEGREE - 1}",
      "--params", "0,0,0,0,0,0", "--target", "0,0,0,0"], CONNECT_MAX_DEGREE + 1,
     CONNECT_MAX_DEGREE),
    (["connect", "--mode", "alpha", "--index", "100,0,0", "--params", "0,0,0,0,0,0",
      "--xi", "1"], 100, CONNECT_MAX_DEGREE),
    # One rule at every degree, past the exponent limit (512) too.
    (["print-poly", "--family", "jacobi", "--index", "600", "--params", "0,0"],
     600, PRINT_MAX_DEGREE),
    (["print-poly", "--family", "triangle", "--index", "520,3", "--params", "0,0,0,0"],
     520, PRINT_MAX_DEGREE),
    (["print-poly", "--family", "simplex", "--index", "0,0,520", "--params", "0,0,0,0,0,0"],
     520, PRINT_MAX_DEGREE),
], ids=["simplex", "simplex-monic", "triangle", "jacobi", "connect-general", "connect-alpha",
        "limit-jacobi", "limit-triangle", "limit-simplex"])
def test_an_index_above_the_commands_bound_exits_usage_before_anything_is_built(
        argv, total, bound, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError(f"built {args}")
    for module, name in ((jacobi1d, "_lifted_factor"), (simplex3d, "_conn1d_coeff"),
                         (simplex3d, "connect_alpha"), (simplex3d, "connect_general")):
        monkeypatch.setattr(module, name, refuse)
    assert main(argv) == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    index = argv[argv.index("--index") + 1]
    assert captured.err.splitlines() == [
        f"simplexpoly: error: index {index} has total degree {total}, above the {bound} "
        "that this command accepts"]


@pytest.mark.parametrize("family, params, cause", [
    ("jacobi", "-2,0", "parameter a = -2 must exceed -1"),
    ("jacobi", "0,-1", "parameter b = -1 must exceed -1"),
    ("triangle", "0,0,-1,0", "parameter c = -1 must exceed -1"),
])
def test_param_refusal_names_the_parameter(family, params, cause, capsys):
    index = {"jacobi": "1", "triangle": "1,0"}[family]
    code = main(["print-poly", "--family", family, "--index", index, f"--params={params}"])
    assert code == EX_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and cause in err[0]


def test_gram_refusal_names_degree(capsys):
    assert main(["gram", "--N=-1", "--params", "0,0,0,0,0,0"]) == EX_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--N" in err


def _refuse_arrays(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"an array was built for {args}")
    monkeypatch.setattr(quadrature, "collapsed_gram", refuse)
    monkeypatch.setattr(quadrature, "_evaluate", refuse)


def _exit_status(argv):
    """main's exit status, also where the parser refuses an option."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# --points is no option: every rule has N + 1 points per axis, which
# integrate the products of two members exactly.
@pytest.mark.parametrize("family", ["simplex", "triangle"])
@pytest.mark.parametrize("argv, message", [
    (["--N", "25"], f"--N must be from 0 to {GRAM_MAX_DEGREE}, got 25"),
    (["--N", "40"], f"--N must be from 0 to {GRAM_MAX_DEGREE}, got 40"),
    (["--N", "4", "--points", "7"], "unrecognized arguments: --points 7"),
    (["--N", "4", "--points", "1001"], "unrecognized arguments: --points 1001"),
    (["--N", "4", "--points", "100000"], "unrecognized arguments: --points 100000"),
    (["--N", "2", "--points", "0"], "unrecognized arguments: --points 0"),
    (["--N", "2", "--points=-3"], "unrecognized arguments: --points=-3"),
], ids=["N-25", "N-40", "points-7", "points-1001", "points-100000", "points-0",
        "points-minus-3"])
def test_gram_past_its_bounds_exits_usage_before_any_array(family, argv, message, monkeypatch,
                                                          capsys):
    _refuse_arrays(monkeypatch)
    params = "0,0,0,0,0,0" if family == "simplex" else "0,0,0,0"
    assert _exit_status(["gram", "--family", family, *argv, "--params", params]) == EX_USAGE
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.endswith(f"simplexpoly: error: {message}\n")


def test_gram_at_its_bounds_is_accepted(monkeypatch, capsys):
    calls = []

    def gram(family, max_degree, params):
        calls.append(max_degree)
        return [(0, 0, 0)], np.full((1, 1), 1 / 6)
    monkeypatch.setattr(quadrature, "collapsed_gram", gram)
    assert main(["gram", "--N", str(GRAM_MAX_DEGREE), "--params", "0,0,0,0,0,0"]) == EX_OK
    assert calls == [GRAM_MAX_DEGREE]


def test_missing_config_exit_code(capsys):
    code = main(["verify", "--suite", "ladder1d", "--config", "/does/not/exist.json"])
    assert code == EX_CONFIG


def test_malformed_config_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["verify", "--suite", "ladder1d", "--config", str(path)])
    assert code == EX_CONFIG


def test_config_missing_suite_section(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"suites": {}}))
    code = main(["verify", "--suite", "ladder1d", "--config", str(path)])
    assert code == EX_CONFIG


@pytest.mark.parametrize("key, value", [("degree", -1), ("params", [])])
def test_config_suite_section_without_tasks(key, value, tmp_path, capsys):
    config = sweeps.load_config(sweeps.default_config_path())
    config["suites"]["three-term"][key] = value
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(config))
    code = main(["verify", "--suite", "three-term", "--config", str(path)])
    assert code == EX_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "suites.three-term" in err[0]


@pytest.mark.parametrize("suite, path, key, value", [
    ("second-order", ("oned",), "params", []),
    ("second-order", ("twod",), "degree", -1),
    ("second-order", ("threed",), "params", []),
    ("pde", ("twod",), "params", []),
    ("pde", ("threed",), "degree", -1),
    ("pde", (), "monic_degree", -1),
    ("connections", ("alpha",), "params", []),
    ("connections", ("general",), "degree", -1),
])
def test_config_subgrid_without_tasks(suite, path, key, value, tmp_path, capsys):
    # The other sub-grids of the section still yield tasks; the empty one
    # would check nothing of its own.
    config = sweeps.load_config(sweeps.default_config_path())
    section = config["suites"][suite]
    for part in path:
        section = section[part]
    section[key] = value
    config_path = tmp_path / "empty.json"
    config_path.write_text(json.dumps(config))
    code = main(["verify", "--suite", suite, "--config", str(config_path)])
    assert code == EX_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    name = ".".join(("suites", suite) + (path or (key,)))
    assert len(err) == 1 and f"{name} " in err[0]


@pytest.mark.parametrize("jobs", ["0", "-2", "abc"])
def test_jobs_not_a_positive_integer_is_a_usage_error(jobs, config_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "three-term", "--config", config_path, f"--jobs={jobs}"])
    assert err.value.code == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--jobs" in captured.err


def test_config_jobs_below_one_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(dict(SMALL_CONFIG, jobs=0)))
    code = main(["verify", "--suite", "three-term", "--config", str(path)])
    assert code == EX_CONFIG
    assert "jobs must be at least 1" in capsys.readouterr().err


# A count in the config is a JSON integer: 5.5, "3" and true are refused,
# not read as 5, 3 or 1, and a degree stays within the cap under the
# packed-key exponent limit.
@pytest.mark.parametrize("suite, path, value", [
    ("ladder1d", ("suites", "ladder1d", "degree"), 5.5),
    ("ladder1d", ("suites", "ladder1d", "degree"), True),
    ("ladder1d", ("suites", "ladder1d", "degree"), "3"),
    ("ladder1d", ("suites", "ladder1d", "degree"), sweeps.MAX_DEGREE + 1),
    ("second-order", ("suites", "second-order", "threed", "degree"), 2.0),
    ("pde", ("suites", "pde", "monic_degree"), 2.5),
    ("pde", ("suites", "pde", "monic_degree"), sweeps.MAX_DEGREE + 1),
    ("three-term", ("jobs",), 2.0),
    ("three-term", ("jobs",), True),
], ids=["degree-float", "degree-bool", "degree-string", "degree-past-cap",
        "subgrid-degree-float", "monic-degree-float", "monic-degree-past-cap",
        "jobs-float", "jobs-bool"])
def test_config_count_not_an_admissible_integer(suite, path, value, tmp_path, capsys):
    config = sweeps.load_config(sweeps.default_config_path())
    section = config
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    config_path = tmp_path / "counts.json"
    config_path.write_text(json.dumps(config))
    code = main(["verify", "--suite", suite, "--config", str(config_path)])
    assert code == EX_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {'.'.join(path)} must be")
    # The value as the config's JSON text: true and "3", not True and '3'.
    assert err[0].endswith(f", got {json.dumps(value)}")


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_is_a_config_error(case, tmp_path, capsys):
    config = sweeps.load_config(sweeps.default_config_path())
    path = bad_config_path(case, config, tmp_path)
    suite, _, where = BAD_CONFIGS[case]
    code = main(["verify", "--suite", suite, "--config", path])
    assert code == EX_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert where is None or where in err[0]


def test_task_builder_type_error_is_not_a_config_error(config_path, monkeypatch):
    # A TypeError inside a task builder is a fault of the program, not of
    # the config: it surfaces as a traceback, not as exit 65.
    def broken(section):
        raise TypeError("a fault in the task builder")

    monkeypatch.setitem(sweeps._TASK_BUILDERS, "three-term", broken)
    with pytest.raises(TypeError, match="a fault in the task builder"):
        main(["verify", "--suite", "three-term", "--config", config_path])


def test_unwritable_out_is_refused_before_any_task_runs(config_path, tmp_path, monkeypatch,
                                                        capsys):
    def run_suite_tasks(*args, **kwargs):
        raise AssertionError("a task ran before --out was checked")

    monkeypatch.setattr(sweeps, "run_suite_tasks", run_suite_tasks)
    out = tmp_path / "missing" / "x.json"
    code = main(["verify", "--suite", "three-term", "--config", config_path, "--out", str(out)])
    assert code == EX_USAGE
    assert capsys.readouterr().err.startswith("simplexpoly: error: ")


# gram builds its matrix and connect its expansion only after --out is
# checked; an existing file keeps its text when a run is refused.
@pytest.mark.parametrize("argv, module, build", [
    (["gram", "--N", "20", "--params", "0,0,0,0,0,0"], quadrature, "collapsed_gram"),
    (["connect", "--mode", "general", "--index", "8,8,8", "--params", "0,0,0,0,0,0",
      "--target", "1,1,1,1"], simplex3d, "connect_general"),
], ids=["gram", "connect"])
def test_unwritable_out_is_refused_before_anything_is_built(argv, module, build, tmp_path,
                                                            monkeypatch, capsys):
    def refuse(*args):
        raise ValueError("refused after --out was checked")

    monkeypatch.setattr(module, build, refuse)
    assert main(argv + ["--out", str(tmp_path / "missing" / "out")]) == EX_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("simplexpoly: error: [Errno")
    out = tmp_path / "kept"
    out.write_text("kept\n")
    assert main(argv + ["--out", str(out)]) == EX_USAGE
    assert capsys.readouterr().err == "simplexpoly: error: refused after --out was checked\n"
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["gram", "--N", "1", "--params", "0,0,0,0,0,0"],
    ["connect", "--mode", "alpha", "--index", "1,0,0", "--params", "0,0,0,0,0,0", "--xi", "1"],
    ["verify", "--suite", "three-term"],
], ids=["gram", "connect", "verify"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_a_usage_error(argv, where, config_path, tmp_path, capsys):
    if argv[0] == "verify":
        argv = argv + ["--config", config_path]
    out = tmp_path / "missing" / "out" if where == "missing-directory" else tmp_path
    code = main(argv + ["--out", str(out)])
    assert code == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("simplexpoly: error: ")


# Refused after --out was checked: an --out made for the run is removed,
# one that existed keeps its bytes.
@pytest.mark.parametrize("argv, message", [
    (["gram", "--N", "4", "--params=500,500,0,0,0,0"], "the members' squared norms underflow"),
    (["gram", "--N", "2", "--params=0,0,-9/10,-9/10,0,-9/10"],
     "the weight's exponent -17/10 on axis y/(1-x)"),
    (["connect", "--mode", "alpha", "--index", "0,0,0", "--params=0,-1/2,-1/2,-1/2,-1/2,-1/2",
      "--xi=-1/2"], "alpha connection coefficient of 0,0,0 on 0,0,0: gamma ratio pole"),
], ids=["gram-underflow", "gram-not-integrable", "connect-pole"])
def test_a_refused_run_leaves_no_out(argv, message, tmp_path, capsys):
    out = tmp_path / "new"
    assert main(argv + ["--out", str(out)]) == EX_USAGE
    assert capsys.readouterr().err.startswith("simplexpoly: error: " + message)
    assert not out.exists()
    out.write_bytes(b"kept\n")
    assert main(argv + ["--out", str(out)]) == EX_USAGE
    assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("mode, target, message", [
    ("alpha", ["--xi=-3"], "target parameter alpha = -3 must exceed -1"),
    ("general", ["--target=-2,0,0,0"], "target parameter alpha = -2 must exceed -1"),
    ("general", ["--target=0,0,0,-1"], "target parameter delta = -1 must exceed -1"),
], ids=["xi", "target-alpha", "target-delta"])
def test_connect_refuses_its_target_before_anything_is_built(mode, target, message, tmp_path,
                                                             monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("an expansion was built before its target was checked")

    monkeypatch.setattr(simplex3d, "connect_" + mode, refuse)
    out = tmp_path / "t.json"
    code = main(["connect", "--mode", mode, "--index", "1,0,0", "--params=0,0,0,0,0,0", *target,
                 "--out", str(out)])
    assert code == EX_USAGE
    assert capsys.readouterr().err == f"simplexpoly: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, relation", [("ladder1d", "L4"), ("so1d", "L1.L1p.rel")])
def test_interval_checks_at_the_degree_cap_fit_the_exponent_limit(kind, relation):
    # Both reach degree + 1, and overflow at degree 511.
    report = sweeps.run_task((kind, relation, (sweeps.MAX_DEGREE,), (0, 0)))
    assert report.status == "pass"


def test_gram_csv_output(capsys, tmp_path):
    code = main(["gram", "--N", "0", "--params", "0,0,0,0,0,0"])
    assert code == EX_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "index;0,0,0"
    assert out[1] == "0,0,0;0.166666666667"
    path = tmp_path / "g.csv"
    code = main(["gram", "--N", "1", "--params", "0,0,0,0,0,0", "--out", str(path)])
    assert code == EX_OK
    rows = path.read_text().splitlines()
    assert len(rows) == 5  # header + four members


@pytest.mark.parametrize("family, params", [("simplex", "0,0,0,0,0,0"),
                                            ("triangle", "1/3,0,-1/2,1")])
def test_gram_csv_prints_every_entry_with_twelve_digits(family, params, tmp_path):
    path = tmp_path / "g.csv"
    code = main(["gram", "--family", family, "--N", "4", "--params=" + params,
                 "--out", str(path)])
    assert code == EX_OK
    record = triangle2d.FAMILY if family == "triangle" else simplex3d.FAMILY
    idxs, gram = quadrature.collapsed_gram(record, 4, record.check(params.split(",")))
    labels = [",".join(str(i) for i in idx) for idx in idxs]
    lines = ["index;" + ";".join(labels)]
    for label, row in zip(labels, gram):
        lines.append(label + ";" + ";".join(format(float(v), ".12g") for v in row))
    assert path.read_text() == "\n".join(lines) + "\n"


def test_gram_reports_missed_bound(capsys, tmp_path, monkeypatch):
    """Axis norm ratios 1e-9 off the paper's put each norm ratio of the
    tetrahedron, a product of three, and so every normalized diagonal entry
    3e-9 off, and the matrix misses its bound at an entry (i, i)."""
    calls, h_ratio = [], jacobi1d.h_ratio

    def mutant(*args):
        calls.append(args)
        return h_ratio(*args) * (1 + Fraction(1, 10**9))
    monkeypatch.setattr(jacobi1d, "h_ratio", mutant)
    path = tmp_path / "g4.csv"
    code = main(["gram", "--N", "4", "--params", "0,0,0,0,0,0", "--out", str(path)])
    assert code == EX_FAIL
    assert len(path.read_text().splitlines()) == 36  # header + 35 members
    [line] = capsys.readouterr().err.splitlines()
    match = re.fullmatch(r"simplexpoly: gram: \|g / sqrt\(h h\) - delta\| = (\S+) at members "
                         r"(\S+) and (\S+) exceeds the bound 1e-10", line)
    assert match and match[2] == match[3]
    assert float(match[1]) == pytest.approx(3e-9, rel=1e-3)
    assert calls
    monkeypatch.undo()
    code = main(["gram", "--N", "12", "--params", "0,0,0,0,0,0", "--out", str(path)])
    assert code == EX_OK
    assert len(path.read_text().splitlines()) == 456  # header + 455 members
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("params", ["500,500,0,0,0,0", "1000,1000,0,0,0,0"])
def test_gram_refuses_norms_that_underflow_double_precision(params, capsys):
    """The weight's mass at 500,500,0,0,0,0 is about 9e-304, and the members'
    squared norms fall below the smallest double; at 1000,1000 the mass
    itself does."""
    assert main(["gram", "--N", "4", f"--params={params}"]) == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(
        "simplexpoly: error: the members' squared norms underflow double precision")


# Rows whose weights span many orders of magnitude along an axis, with a
# collapsed exponent near -1 beside one of 18 or more.
@pytest.mark.parametrize("argv", [
    ["--N", "12", "--params=-9/10,10,-1/2,7,-3/4,5"],
    ["--N", "16", "--params=-9/10,10,-1/2,7,-3/4,5"],
    ["--family", "triangle", "--N", "16", "--params=-19/20,7,5,5"],
], ids=["simplex-N12", "simplex-N16", "triangle-N16"])
def test_gram_holds_its_bound_where_weights_are_tiny(argv, tmp_path, capsys):
    assert main(["gram", *argv, "--out", str(tmp_path / "gram.csv")]) == EX_OK
    assert capsys.readouterr().err == ""


def test_gram_holds_its_bound_at_N_24_with_an_exponent_of_37():
    family = simplex3d.FAMILY
    params = family.check("-19/20,7,12,-19/20,12,5".split(","))
    idxs, gram = quadrature.collapsed_gram(family, 24, params)
    assert quadrature.gram_error(family, idxs, gram, params)[0] <= GRAM_BOUND


def test_connect_alpha_json(capsys):
    code = main(
        ["connect", "--mode", "alpha", "--index", "1,0,0",
         "--params", "0,0,0,0,0,0", "--xi", "1/2"]
    )
    assert code == EX_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["reassembles_exactly"] is True
    assert [t["coeff"] for t in payload["terms"]] == ["8/9", "1/3"]


@pytest.mark.parametrize("argv, cause", [
    pytest.param(
        ["--params=0,-1/2,-1/2,-1/2,-1/2,-1/2", "--xi=-1/2"],
        "alpha connection coefficient of 1,0,0 on 0,0,0: gamma ratio pole at base=2, offset=-2",
        id="argv0-pole at base=2, offset=-2"),
    (["--params=-2,0,0,0,0,0", "--xi", "1"], "parameter alpha = -2 must exceed -1"),
    (["--params=0,0,0,0,0,0", "--xi=-3/2"], "target parameter alpha = -3/2 must exceed -1"),
])
def test_connect_refusal_names_its_cause(argv, cause, capsys):
    code = main(["connect", "--mode", "alpha", "--index", "1,0,0", *argv])
    assert code == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and cause in err[0]


@pytest.mark.parametrize("xi", ["0", "1/2"])
def test_a_source_row_that_is_not_integrable_connects_where_no_pole_is_met(xi, capsys):
    # At --xi=-5/6 the same connection meets a pole and is refused.
    code = main(["connect", "--mode", "alpha", "--index", "1,0,0",
                 "--params=-5/6,-5/6,-5/6,-5/6,-5/6,-5/6", "--xi=" + xi])
    assert code == EX_OK
    assert json.loads(capsys.readouterr().out)["reassembles_exactly"] is True


def test_connect_general_identity(capsys):
    code = main(
        ["connect", "--mode", "general", "--index", "0,1,0",
         "--params", "0,0,0,0,0,0", "--target", "0,0,0,0"]
    )
    assert code == EX_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["reassembles_exactly"] is True
    assert len(payload["terms"]) == 1 and payload["terms"][0]["coeff"] == "1"


def _connect_argv(kind, rel, idx, row):
    """The `connect` command line of a `connections` task: the row is the
    six source parameters, then xi or the four target parameters."""
    mode = kind.split("_")[1]
    return ["connect", "--mode", mode, "--index", ",".join(map(str, idx)),
            "--params=" + ",".join(row.text[:6]),
            ("--xi=" if mode == "alpha" else "--target=") + ",".join(row.text[6:])]


@pytest.mark.parametrize("kind", ["conn_alpha", "conn_general"])
@pytest.mark.parametrize("where", [0, 0.5, -1], ids=["first", "middle", "last"])
def test_connect_reports_what_the_connections_suite_reports(kind, where, monkeypatch, capsys):
    tasks = [t for t in sweeps.plan(None, ["connections"])[1][0][1] if t[0] == kind]
    task = tasks[int(where * len(tasks))]
    made, method = [], simplex3d.ConnectionExpansion.report
    monkeypatch.setattr(simplex3d.ConnectionExpansion, "report",
                        lambda self, *args: made.append(method(self, *args)) or made[-1])
    assert main(_connect_argv(*task)) == EX_OK
    assert json.loads(capsys.readouterr().out)["reassembles_exactly"] is True
    [report] = made
    assert report.status == "pass"
    assert report.to_json() == sweeps.run_task(task).to_json()


def test_a_failing_connect_prints_the_difference_the_suite_reports(monkeypatch, capsys):
    # Each 1-D coefficient that lowers a degree to 0 doubled.
    coeff = simplex3d._conn1d_coeff
    monkeypatch.setattr(simplex3d, "_conn1d_coeff",
                        lambda n, k, *ab: coeff(n, k, *ab) * (2 if k == 0 < n else 1))
    row = "0,0,0,0,0,0", "1/2,0,0,0"
    code = main(["connect", "--mode", "general", "--index", "1,1,0", "--params=" + row[0],
                 "--target=" + row[1]])
    captured = capsys.readouterr()
    assert code == EX_FAIL
    assert json.loads(captured.out)["reassembles_exactly"] is False
    difference = "5/13 * x^1 + 15/13 * y^1 - 5/13"
    assert captured.err.splitlines() == [
        f"simplexpoly: connect: reassembly - member = {difference}"]
    task = ("conn_general", None, (1, 1, 0), as_tuple(",".join(row).split(","), 10))
    assert sweeps.run_task(task).difference == difference


def test_exit_code_constants():
    assert (EX_OK, EX_FAIL, EX_ERRATUM, EX_USAGE, EX_CONFIG) == (0, 1, 2, 64, 65)
