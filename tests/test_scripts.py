"""scripts/run_full_verification.py: reports and exit codes;
scripts/orthogonality_scan.py: the bounds it refuses."""

import importlib.util
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from bad_configs import BAD_CONFIGS, bad_config_path
from simplexpoly import jacobi1d, quadrature, simplex3d, sweeps, triangle2d
from simplexpoly.cli import EX_CONFIG, EX_ERRATUM, EX_FAIL, EX_OK, EX_USAGE, GRAM_MAX_DEGREE

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_full_verification = _load("run_full_verification")
orthogonality_scan = _load("orthogonality_scan")


def _cut(section):
    """The section with every grid cut to degree 0 and its first row."""
    if "params" in section:
        section["degree"] = 0
        section["params"] = section["params"][:1]
    if "monic_degree" in section:
        section["monic_degree"] = 0
    for value in section.values():
        if isinstance(value, dict):
            _cut(value)


@pytest.fixture
def tiny_config(tmp_path):
    config = sweeps.load_config(sweeps.default_config_path())
    for section in config["suites"].values():
        _cut(section)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_tiny_config_writes_one_report_per_suite(tiny_config, tmp_path, capsys):
    out = tmp_path / "reports"
    code = run_full_verification.main(["--config", tiny_config, "--out", str(out),
                                       "--jobs", "1"])
    assert code == EX_OK
    assert sorted(p.name for p in out.iterdir()) == sorted(f"{s}.json" for s in sweeps.SUITES)
    for suite in sweeps.SUITES:
        summary = json.loads((out / f"{suite}.json").read_text())["summary"]
        assert summary["totals"]["fail"] == 0 and summary["totals"]["pass"] > 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("total")


def test_a_mistyped_table_line_is_flagged_erratum_and_exits_2(tiny_config, tmp_path,
                                                              monkeypatch, capsys):
    # N20 with its scale raised by 1 fails its one sample on the tiny
    # config: the relation fails everywhere it applies.
    rel = simplex3d.THEOREM1["N20"]
    monkeypatch.setitem(simplex3d.THEOREM1, "N20",
                        replace(rel, scale=lambda *args: rel.scale(*args) + 1))
    code = run_full_verification.main(["--config", tiny_config, "--out", str(tmp_path / "r"),
                                       "--jobs", "1"])
    assert code == EX_ERRATUM
    flagged = [line for line in capsys.readouterr().out.splitlines()
               if "ERRATUM" in line or "FAILURES" in line]
    assert len(flagged) == 1
    assert flagged[0].startswith("theorem1 ") and flagged[0].endswith("s  ERRATUM: N20")


@pytest.mark.parametrize("jobs", ["0", "-2", "abc"])
def test_jobs_not_a_positive_integer_is_a_usage_error(jobs, tiny_config, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_full_verification.main(["--config", tiny_config, "--out", str(tmp_path),
                                    f"--jobs={jobs}"])
    assert err.value.code == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--jobs" in captured.err


@pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "malformed"])
def test_unreadable_config_is_a_config_error(text, tmp_path, capsys):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    code = run_full_verification.main(["--config", str(path), "--out", str(tmp_path / "r"),
                                       "--jobs", "1"])
    assert code == EX_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


def test_bad_late_section_is_refused_before_any_suite_runs(tiny_config, tmp_path, capsys):
    config = json.loads(Path(tiny_config).read_text())
    config["suites"]["connections"]["alpha"]["params"] = []
    path = tmp_path / "late.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "reports"
    out.mkdir()
    code = run_full_verification.main(["--config", str(path), "--out", str(out),
                                       "--jobs", "1"])
    assert code == EX_CONFIG
    assert list(out.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "connections.alpha" in err[0]


@pytest.mark.parametrize("path, value", [
    (("suites", "three-term", "degree"), 5.5),
    (("suites", "three-term", "degree"), True),
    (("suites", "three-term", "degree"), "3"),
    (("suites", "pde", "monic_degree"), True),
    (("suites", "ladder1d", "degree"), sweeps.MAX_DEGREE + 1),
    (("jobs",), 1.5),
], ids=["degree-float", "degree-bool", "degree-string", "monic-degree-bool", "degree-past-cap",
        "jobs-float"])
def test_config_count_not_an_admissible_integer(path, value, tiny_config, tmp_path, capsys):
    config = json.loads(Path(tiny_config).read_text())
    section = config
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    config_path = tmp_path / "counts.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "reports"
    out.mkdir()
    code = run_full_verification.main(["--config", str(config_path), "--out", str(out),
                                       "--jobs", "1"])
    assert code == EX_CONFIG
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {'.'.join(path)} must be")
    # The value as the config's JSON text: true and "3", not True and '3'.
    assert err[0].endswith(f", got {json.dumps(value)}")


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_is_a_config_error(case, tiny_config, tmp_path, capsys):
    config = json.loads(Path(tiny_config).read_text())
    path = bad_config_path(case, config, tmp_path)
    out = tmp_path / "reports"
    code = run_full_verification.main(["--config", path, "--out", str(out), "--jobs", "1"])
    assert code == EX_CONFIG
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    where = BAD_CONFIGS[case][2]
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert where is None or where in err[0]


@pytest.mark.parametrize("where", ["file", "below-a-file"])
def test_unwritable_out_is_a_usage_error(where, tiny_config, tmp_path, capsys):
    # Refused before any suite runs.
    existing = tmp_path / "taken"
    existing.write_text("")
    out = existing if where == "file" else existing / "reports"
    code = run_full_verification.main(["--config", tiny_config, "--out", str(out),
                                       "--jobs", "1"])
    assert code == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "error: " in err[0]


@pytest.mark.parametrize("argv, flag", [
    (["--N=-1"], "--N"), ([f"--N={GRAM_MAX_DEGREE + 1}"], "--N"), (["--draws=0"], "--draws"),
], ids=["negative-N", "N-above-gram-bound", "no-draws"])
def test_scan_refuses_a_bound_before_any_matrix_is_built(argv, flag, monkeypatch, capsys):
    def collapsed_gram(*args, **kwargs):
        raise AssertionError("a Gram matrix was built")

    monkeypatch.setattr(quadrature, "collapsed_gram", collapsed_gram)
    with pytest.raises(SystemExit) as err:
        orthogonality_scan.main(argv)
    assert err.value.code == EX_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} must be " in captured.err.splitlines()[-1]


def test_scan_covers_both_families_with_rows_that_gram_accepts(capsys):
    assert orthogonality_scan.main(["--N", "2", "--draws", "4", "--seed", "3"]) == EX_OK
    rows = capsys.readouterr().out.splitlines()[:-1]
    assert [row.split()[0] for row in rows] == ["tetrahedron"] * 4 + ["triangle"] * 4


def test_scan_exits_1_where_the_norms_are_off(monkeypatch, capsys):
    """Axis norm ratios 1e-9 off the paper's put every draw's figure above
    the bound, the tetrahedron's, over three axes, at 3e-9."""
    calls, h_ratio = [], jacobi1d.h_ratio

    def mutant(*args):
        calls.append(args)
        return h_ratio(*args) * (1 + Fraction(1, 10**9))
    monkeypatch.setattr(jacobi1d, "h_ratio", mutant)
    assert orthogonality_scan.main(["--N", "2", "--draws", "2"]) == EX_FAIL
    assert calls
    *rows, last = capsys.readouterr().out.splitlines()
    assert len(rows) == 4 and last.startswith("worst error 3.0")


def test_scan_redraws_a_row_whose_weight_is_not_integrable():
    # b + c + d + 1 = -17/10 on x in the first row, 1 in the second.
    first, second = ["0", "-9/10", "-9/10", "-9/10"], ["0", "0", "0", "0"]
    values = iter(Fraction(v) for v in first + second)
    rng = SimpleNamespace(choice=lambda pool: next(values))
    assert orthogonality_scan.random_params(rng, triangle2d.FAMILY) == (0, 0, 0, 0)
