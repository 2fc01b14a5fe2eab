"""The sweep harness: report bytes, pool chunks and the shipped reports."""

import concurrent.futures
import json
import multiprocessing
import os
import pickle
import random
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexpoly import jacobi1d, simplex3d, sweeps, triangle2d
from simplexpoly.cli import EX_OK, main
from simplexpoly.operators import (
    FAIL, NOT_APPLICABLE, PASS, Row, VerificationReport, as_tuple, report_equality, summarize,
)
from simplexpoly.special import PoleHit

CHECKSUMS = Path(__file__).resolve().parent / "data" / "default_sweep_reports.sha256"

# Text that json escapes: quotes, backslashes, newlines and other control
# characters, and non-ASCII letters, symbols and astral-plane characters.
TEXT = st.text(st.one_of(st.sampled_from('"\\\n\r\t\x00\x7f/é€ 😀'), st.characters()),
               max_size=12)
REPORTS = st.builds(
    VerificationReport,
    relation=TEXT,
    index=st.lists(st.integers(-3, 600), min_size=1, max_size=3).map(tuple),
    params=st.lists(st.fractions(), min_size=1, max_size=10).map(tuple),
    status=st.sampled_from([PASS, FAIL, NOT_APPLICABLE]),
    lhs=st.none() | TEXT,
    rhs=st.none() | TEXT,
    detail=st.none() | TEXT,
    suite=st.none() | TEXT,
    difference=st.none() | TEXT,
)


def _json_dump_bytes(path, reports, summary) -> bytes:
    """What the writer must reproduce: json.dump's layout and a newline."""
    payload = {"summary": summary, "reports": [r.to_json() for r in reports]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path.read_bytes()


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


@settings(max_examples=150, deadline=None)
@given(reports=st.lists(REPORTS, max_size=6))
def test_write_report_matches_json_dump(reports, out_dir):
    summary = summarize(reports)
    sweeps.write_report(out_dir / "written.json", reports, summary)
    expected = _json_dump_bytes(out_dir / "reference.json", reports, summary)
    assert (out_dir / "written.json").read_bytes() == expected


def test_write_report_of_no_reports(out_dir):
    summary = summarize([])
    sweeps.write_report(out_dir / "empty.json", [], summary)
    expected = _json_dump_bytes(out_dir / "empty-reference.json", [], summary)
    assert (out_dir / "empty.json").read_bytes() == expected


def _m2d_tasks():
    section = {"degree": 2, "params": [["0", "1/2", "0", "1"], ["1/3", "0", "-1/2", "0"]]}
    return sweeps.tasks_m2d(section)


def test_every_task_carries_a_row():
    tasks = _m2d_tasks() + sweeps.tasks_connections({
        "alpha": {"degree": 1, "params": [["0", "0", "0", "0", "0", "0"]], "xi": ["1"]},
        "general": {"degree": 1, "params": [["0", "0", "0", "0", "0", "0"]],
                    "targets": [["1", "0", "0", "0"]]},
    })
    assert {type(t[3]) for t in tasks} == {Row}
    # A connection row is the source row, then xi or the four target parameters.
    assert {len(t[3]) for t in tasks if t[0] == "conn_alpha"} == {7}
    assert {len(t[3]) for t in tasks if t[0] == "conn_general"} == {10}


def test_rows_that_share_the_reduced_parameters_give_each_d0_task_once():
    tasks = sweeps.tasks_m2d({"degree": 1, "params": [["0", "1/2", "0", "1"],
                                                      ["0", "1/2", "0", "2"]]})
    d0 = [t for t in tasks if t[0] == "d0"]
    assert len(d0) == 3 and len(set(d0)) == 3
    assert {t[3] for t in d0} == {as_tuple(["0", "1/2", "0"], 3)}


@pytest.mark.parametrize("suite", sweeps.SUITES)
def test_each_shipped_task_is_the_key_of_one_report(suite, shipped_sweep):
    # No two tasks of a suite share (kind, relation, index, row), and each
    # report carries its task's (relation, index, row): no report key repeats.
    [(_, tasks)] = sweeps.plan(None, [suite])[1]
    assert len(set(tasks)) == len(tasks)
    keys = Counter(shipped_sweep[suite].keys)
    assert set(keys.values()) == {1}
    assert keys.keys() == {(sweeps._KINDS[kind][0].format(rel), idx, row.text)
                           for kind, rel, idx, row in tasks}


@pytest.mark.parametrize("count", [1, 3, 8, 1000])
def test_chunks_keep_a_rows_tasks_at_one_index_together(count):
    tasks = _m2d_tasks()
    chunks = sweeps._chunks(tasks, count)
    assert 1 <= len(chunks) <= count
    assert Counter(t for chunk in chunks for t in chunk) == Counter(tasks)
    where = {}
    for number, chunk in enumerate(chunks):
        for task in chunk:
            assert where.setdefault((task[3], task[2]), number) == number


def _real_pool(monkeypatch) -> list:
    """Let every task repay a process, so that the short lists of these tests
    run in a real pool, and record the worker count of each pool started."""
    asked, pool = [], concurrent.futures.ProcessPoolExecutor

    def counted(max_workers):
        asked.append(max_workers)
        return pool(max_workers=max_workers)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    monkeypatch.setattr(sweeps, "TASKS_PER_PROCESS", 1)
    return asked


def test_pool_reports_equal_serial_reports(monkeypatch):
    # Two CPUs, so that the pool runs on a one-CPU host too.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    asked = _real_pool(monkeypatch)
    tasks = _m2d_tasks()
    serial = [r.to_json() for r in sweeps.run_tasks(tasks, jobs=1)]
    assert [r.to_json() for r in sweeps.run_tasks(tasks, jobs=2)] == serial
    assert asked == [2]


def test_plain_tuple_rows_give_the_same_reports_in_a_pool(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    asked = _real_pool(monkeypatch)
    tasks = [(kind, rel, idx, tuple(row)) for kind, rel, idx, row in _m2d_tasks()]
    serial = [r.to_json() for r in sweeps.run_tasks(tasks, jobs=1)]
    assert [r.to_json() for r in sweeps.run_tasks(tasks, jobs=2)] == serial
    assert asked == [2]


def test_a_pool_of_three_workers_gives_the_serial_reports(monkeypatch):
    # Three CPUs and --jobs 3: a pool of three workers.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    asked = _real_pool(monkeypatch)
    tasks = _m2d_tasks()
    serial = [r.to_json() for r in sweeps.run_tasks(tasks, jobs=1)]
    assert [r.to_json() for r in sweeps.run_tasks(tasks, jobs=3)] == serial
    assert asked == [3]
    assert not multiprocessing.active_children()


def test_a_fault_in_a_workers_chunk_cancels_the_rest_and_leaves_no_worker_running(
        monkeypatch, tmp_path):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    asked = _real_pool(monkeypatch)
    tasks = sweeps.tasks_m2d({"degree": 3, "params": [["0", "1/2", "0", "1"],
                                                      ["1/3", "0", "-1/2", "0"]]})
    split = sweeps._chunks(tasks, 8)
    # Two workers hold at most five chunks at a time: one each and three queued.
    assert len(split) > 6
    ran = tmp_path / "ran"
    run_task = sweeps.run_task

    def builder_bug(task):
        if task == split[0][1]:
            raise TypeError("a fault in a task builder")
        first = [n for n in range(1, len(split)) if split[n][0] == task]
        if first:  # the workers log the chunks they start and start each slowly
            with open(ran, "a") as fh:
                fh.write(f"{first[0]}\n")
            time.sleep(0.3)
        return run_task(task)
    monkeypatch.setattr(sweeps, "run_task", builder_bug)
    with pytest.raises(TypeError, match="a fault in a task builder"):
        sweeps.run_tasks(tasks, jobs=2)
    assert asked == [2] and not multiprocessing.active_children()
    # The chunks not yet started were cancelled, not run to the end.
    assert str(len(split) - 1) not in (ran.read_text().split() if ran.exists() else [])


def _stand_in_pool(monkeypatch) -> tuple:
    """Replace the pool by one that records its worker count and the chunks
    it is handed, and runs them here when its results are read: the real
    one forks every worker at its first submit.  Returns the list of worker
    counts asked for and the list of the chunk lists handed over."""
    asked, handed = [], []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            handed.append(list(chunks))
            return map(fn, handed[-1])

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return asked, handed


def _recorded_chunks(monkeypatch) -> list:
    """Record the chunks that `_run_chunk` runs: a new list per entry
    appended by the caller, the chunks in the order they ran."""
    seen, run_chunk = [], sweeps._run_chunk

    def recorded(tasks):
        seen[-1].append(tasks)
        return run_chunk(tasks)
    monkeypatch.setattr(sweeps, "_run_chunk", recorded)
    return seen


def test_each_job_count_cuts_four_chunks_per_process(monkeypatch):
    asked, handed = _stand_in_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sweeps, "TASKS_PER_PROCESS", 1)
    seen = _recorded_chunks(monkeypatch)
    tasks = _m2d_tasks()
    reports = []
    for jobs in (1, 2):
        seen.append([])
        reports.append([r.to_json() for r in sweeps.run_tasks(tasks, jobs=jobs)])
    alone, split = sweeps._chunks(tasks, 4), sweeps._chunks(tasks, 8)
    assert len(alone) < len(split)
    # --jobs 1 makes no pool; --jobs 2 is a pool of two workers.
    assert reports[0] == reports[1] and asked == [2]
    # The pool is handed every chunk, in the order the suite builder made them,
    # and runs each once.
    assert handed == [split]
    assert seen[1] == split
    # Alone, this process runs the chunks in the order the suite builder made.
    assert seen[0] == alone and [t for chunk in alone for t in chunk] == tasks


def test_jobs_2_cuts_the_same_chunks_on_a_host_of_2_or_64_cpus(monkeypatch):
    asked, handed = _stand_in_pool(monkeypatch)
    monkeypatch.setattr(sweeps, "TASKS_PER_PROCESS", 1)
    seen = _recorded_chunks(monkeypatch)
    tasks = _m2d_tasks()
    for cpus in (2, 64):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        seen.append([])
        sweeps.run_tasks(tasks, jobs=2)
    split = sweeps._chunks(tasks, 8)
    assert asked == [2, 2] and handed == [split] * 2
    assert seen == [split] * 2


def test_a_list_below_the_per_process_minimum_forks_nothing(monkeypatch):
    asked, _ = _stand_in_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    tasks = _m2d_tasks()
    assert len(tasks) < sweeps.TASKS_PER_PROCESS
    serial = [r.to_json() for r in sweeps.run_tasks(tasks)]
    assert [r.to_json() for r in sweeps.run_tasks(tasks, jobs=2)] == serial
    assert asked == []
    # A list of exactly the minimum runs here too; one task more forks a pool.
    monkeypatch.setattr(sweeps, "TASKS_PER_PROCESS", len(tasks))
    sweeps.run_tasks(tasks, jobs=2)
    assert asked == []
    monkeypatch.setattr(sweeps, "TASKS_PER_PROCESS", len(tasks) - 1)
    sweeps.run_tasks(tasks, jobs=2)
    assert asked == [2]


def test_a_connection_builds_each_source_member_once_per_source_row(monkeypatch):
    source = ["1/5", "2/7", "0", "1", "-1/3", "3"]
    tasks = [t for t in sweeps.tasks_connections({
        "alpha": {"degree": 2, "params": [source], "xi": ["1/2", "2"]},
        "general": {"degree": 0, "params": [source], "targets": []},
    }) if t[0] == "conn_alpha"]
    assert len({t[3] for t in tasks}) == 3  # xi = 1/2, 2 and the row's own alpha
    built = Counter()
    member = jacobi1d.collapsed_member

    def counted(int_axes, degrees):
        built[int_axes, degrees] += 1
        return member(int_axes, degrees)
    monkeypatch.setattr(jacobi1d, "collapsed_member", counted)
    reports = sweeps.run_tasks(tasks)
    assert {r.status for r in reports} == {PASS}
    axes = as_tuple(source, 6).derive(simplex3d.FAMILY.integer_axes)
    at_source = {degrees: n for (int_axes, degrees), n in built.items() if int_axes == axes}
    assert set(at_source) >= set(simplex3d.FAMILY.indices(2))
    assert set(at_source.values()) == {1}


@pytest.mark.parametrize("cpus, jobs, degree, processes", [(2, 10**6, 2, 2), (64, 8, 1, 3)])
def test_the_pool_starts_no_more_workers_than_cpus_or_chunks(cpus, jobs, degree, processes,
                                                             monkeypatch):
    asked, _ = _stand_in_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(sweeps, "TASKS_PER_PROCESS", 1)
    # One row: degree 1 makes 3 (row, index) groups, degree 2 makes 6.
    tasks = [t for t in sweeps.tasks_m2d({"degree": degree, "params": [["0", "1/2", "0", "1"]]})
             if t[0] == "m2d"]
    serial = [r.to_json() for r in sweeps.run_tasks(tasks)]
    assert [r.to_json() for r in sweeps.run_tasks(tasks, jobs=jobs)] == serial
    # The pool forks one worker per process.
    assert asked == [processes]


def test_a_report_is_slotted_and_pickles_to_an_equal_report():
    # The --jobs pool sends its reports back to the parent as pickles.
    report = VerificationReport("N10", (1, 0, 2), (Fraction(1, 2), Fraction(-1, 3)), FAIL,
                                lhs="x", rhs="y", detail="d", suite="theorem1", difference="x - y")
    assert not hasattr(report, "__dict__")
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report and type(copy.params) is Row
    assert copy.to_json() == report.to_json()


def _within_integer_steps(row, of):
    return len(row) == len(of) and all((p - q).denominator == 1 for p, q in zip(row, of))


def test_after_a_two_row_sweep_the_members_are_the_last_rows():
    section = {"degree": 2, "params": [["0"] * 6, ["1/3", "1/2", "0", "1", "-1/2", "2"]]}
    tasks = [t for t in sweeps.tasks_theorem1(section) if t[0] == "theorem1"]
    first, last = tasks[0][3], tasks[-1][3]
    sweeps.run_tasks(tasks)
    rows = {row for record, _, row in jacobi1d._members if record is simplex3d.FAMILY}
    assert rows and all(_within_integer_steps(row, last) for row in rows)
    assert not any(_within_integer_steps(row, first) for row in rows)


def test_an_equal_row_keeps_the_caches_and_another_row_empties_them():
    row = as_tuple(["1/3"] * 6, 6)
    record = replace(simplex3d.FAMILY)
    jacobi1d.enter_row(row)
    for family in (simplex3d.FAMILY, record):
        family.member((1, 1, 0), row)
    triangle2d.FAMILY.member((1, 0), row[:4])
    # A pool worker unpickles each chunk into new rows equal to the last.
    jacobi1d.enter_row(as_tuple(["1/3"] * 6, 6))
    members = jacobi1d._members
    assert (simplex3d.FAMILY, (1, 1, 0), row) in members and (record, (1, 1, 0), row) in members
    jacobi1d.enter_row(as_tuple(["1/2"] * 6, 6))
    assert not members
    assert jacobi1d._lifted_factor.cache_info().currsize == 0


_PEAK_RSS = """
import resource, sys
from simplexpoly.cli import main
code = main(["verify", "--suite", "theorem1", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


# Starts the command of its arguments.  On Linux a process's ru_maxrss
# keeps the peak of the process that started it across exec, and the test
# process's peak is above a sweep's, so a small interpreter starts each run.
_LAUNCH = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


def test_peak_memory_stays_flat_when_the_rows_quadruple(tmp_path):
    # Each run in a fresh interpreter, which prints its own peak RSS.  With
    # members kept across rows, 12 rows took 1.75 times the peak of 3.
    pool = ["0", "1", "2", "-1/2", "1/3", "1/2", "1/4", "3/2"]
    rng = random.Random(24)
    rows = [[rng.choice(pool) for _ in range(6)] for _ in range(12)]
    src = str(Path(sweeps.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    peaks = []
    for count in (3, 12):
        config = tmp_path / f"rows{count}.json"
        config.write_text(json.dumps({"suites": {"theorem1": {"degree": 4,
                                                             "params": rows[:count]}}}))
        run = subprocess.run([sys.executable, "-c", _LAUNCH, sys.executable, "-c", _PEAK_RSS,
                              str(config), str(tmp_path / f"rows{count}.out.json")],
                             env=env, capture_output=True, text=True, check=True)
        code, peak = run.stdout.split()[-2:]
        assert code == str(EX_OK)
        peaks.append(int(peak))
    assert peaks[1] <= 1.25 * peaks[0], peaks


def _shipped_checksums():
    pairs = (line.split() for line in CHECKSUMS.read_text().splitlines())
    return {name: digest for digest, name in pairs}


@pytest.mark.parametrize("suite", sweeps.SUITES)
def test_shipped_report_matches_its_checksum(suite, shipped_sweep):
    assert shipped_sweep[suite].sha256 == _shipped_checksums()[f"reports/{suite}.json"]


# The shipped sweep's totals over its eight suites.
SHIPPED_TOTALS = {"pass": 68_073, "fail": 0, "not_applicable": 3_877}


def test_the_shipped_sweep_reads_its_totals(shipped_sweep):
    totals = Counter()
    for run in shipped_sweep.values():
        totals.update(run.summary["totals"])
    assert dict(totals) == SHIPPED_TOTALS, "\n".join(
        f"{suite}: {run.summary['totals']}" for suite, run in shipped_sweep.items())


def test_report_prints_its_row_text():
    report = VerificationReport("r", (1,), (Fraction(1, 3), Fraction(-2)), PASS)
    assert report.to_json()["params"] == ["1/3", "-2"]
    assert report.sort_key()[3] == ("1/3", "-2")


def _shipped_section(config, path):
    section = config["suites"]
    for key in path:
        section = section[key]
    return section


@pytest.mark.parametrize("path", [
    ("pde", "twod"), ("pde", "threed"), ("corollaries",), ("connections", "alpha"),
    ("connections", "general"), ("three-term",),
])
def test_a_section_without_relation_ids_refuses_a_selection(path):
    config = sweeps.load_config(sweeps.default_config_path())
    _shipped_section(config, path)["relations"] = ["T1"]
    where = re.escape("suites." + ".".join(path) + " ")
    with pytest.raises(sweeps.ConfigError, match=where):
        sweeps.suite_tasks(path[0], config)


@pytest.mark.parametrize("path, kind, relation", [
    (("ladder1d",), "ladder1d", "L1"), (("second-order", "oned"), "so1d", "L1p.L1.rel"),
])
def test_a_selecting_section_keeps_its_selection(path, kind, relation):
    config = sweeps.load_config(sweeps.default_config_path())
    _shipped_section(config, path)["relations"] = [relation]
    tasks = sweeps.suite_tasks(path[0], config)
    assert {rel for k, rel, *_ in tasks if k == kind} == {relation}


def test_a_section_past_the_task_bound_is_refused_before_any_grid_is_built(monkeypatch):
    def grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(sweeps, "_grid", grid)
    config = sweeps.load_config(sweeps.default_config_path())
    # theorem1 at degree 100: 176,851 indices, 36 relations and the
    # reduction on each of the shipped rows.
    config["suites"]["theorem1"]["degree"] = 100
    count = len(config["suites"]["theorem1"]["params"]) * 176_851 * 37
    assert count > sweeps.MAX_TASKS
    with pytest.raises(sweeps.ConfigError, match=f"suites.theorem1 asks for {count} tasks"):
        sweeps.suite_tasks("theorem1", config)
    for degree, message in ((5.5, "degree must be an integer"), (-1, "yields no tasks")):
        config["suites"]["theorem1"]["degree"] = degree
        with pytest.raises(sweeps.ConfigError, match=message):
            sweeps.suite_tasks("theorem1", config)


# The function each task kind calls to check its task, by module and name.
VERIFIERS = {
    "ladder1d": (jacobi1d, "verify_ladder"),
    "so1d": (jacobi1d, "verify_second_order_1d"),
    "m2d": (triangle2d, "verify_m_relation"),
    "so2d": (triangle2d, "verify_second_order_m"),
    "d0": (triangle2d, "verify_d0_reduction"),
    "pde2d": (triangle2d, "pde_residual"),
    "monic2d": (triangle2d, "monic_triangle"),
    "theorem1": (simplex3d, "verify_theorem1"),
    "so3d": (simplex3d, "verify_second_order_3d"),
    "ab0": (simplex3d, "verify_reduction_ab0"),
    "pde3d": (simplex3d, "pde_residual_3d"),
    "monic3d": (simplex3d, "monic_simplex"),
    "three_term": (simplex3d, "verify_three_term"),
    "conn_alpha": (simplex3d, "connect_alpha"),
    "conn_general": (simplex3d, "connect_general"),
    "cor_deriv": (simplex3d, "verify_corollary_derivatives"),
    "cor_weight": (simplex3d, "verify_corollary_weighted"),
    "cor_mult": (simplex3d, "verify_corollary_multiplication"),
}


@pytest.fixture(scope="module")
def one_task_per_kind():
    """The first task of each kind on the shipped config whose index is not
    all zeros."""
    config = sweeps.load_config(sweeps.default_config_path())
    tasks = {}
    for suite in sweeps.SUITES:
        for task in sweeps.suite_tasks(suite, config):
            if any(task[2]):
                tasks.setdefault(task[0], task)
    return tasks


@pytest.mark.parametrize("kind", sorted(sweeps._KINDS))
def test_a_task_that_raises_keeps_its_relation_id(kind, one_task_per_kind, monkeypatch):
    # A task that finishes is labelled by its verifier, one that raises by
    # sweeps._KINDS; two spellings of one id would split the relation in
    # the summary and flag the half that raised as an erratum candidate.
    # A division that cannot finish fails the sample; a pole makes it n/a.
    task = one_task_per_kind[kind]
    finished = sweeps.run_task(task)
    assert finished.ok

    for exc, status in ((ValueError("verifier broken on purpose"), FAIL),
                        (PoleHit("pole on purpose"), NOT_APPLICABLE)):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(*VERIFIERS[kind], broken)
        raised = sweeps.run_task(task)
        assert (raised.status, raised.detail) == (status, f"{type(exc).__name__}: {exc}")
        assert ((raised.relation, raised.index, raised.params)
                == (finished.relation, finished.index, finished.params))


@pytest.mark.parametrize("kind", sorted(sweeps._KINDS))
def test_every_task_kind_gets_its_verdict_from_the_judge(kind, one_task_per_kind, monkeypatch):
    # The judge is wrapped in every module that binds it, as the benchmark's
    # tracer wraps it, so a verdict reached by another path shows here.
    judged = []

    def counted(*args, **kwargs):
        judged.append(report_equality(*args, **kwargs))
        return judged[-1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "simplexpoly" \
                and getattr(module, "report_equality", None) is report_equality:
            monkeypatch.setattr(module, "report_equality", counted)
    report = sweeps.run_task(one_task_per_kind[kind])
    assert report.detail is None
    assert any(r is report for r in judged)


# One row per kind where a coefficient of the identity has a pole, and the
# start of what the pole says: (kind, index, row, cause).  An alpha
# connection row ends in its xi.
POLE_TASKS = [
    ("monic2d", (1, 0), ("-3/4",) * 4, "monic prefactor at index 1,0: "),
    ("monic3d", (1, 0, 0), ("-2/3",) * 6, "monic prefactor at index 1,0,0: "),
    ("conn_alpha", (1, 0, 0), ("0",) * 6 + ("-3",),
     "alpha connection coefficient of 1,0,0 on 0,0,0: "),
    ("conn_alpha", (0, 0, 0), ("0",) + ("-1/2",) * 5 + ("-1/2",),
     "alpha connection coefficient of 0,0,0 on 0,0,0: "),
    ("d0", (2, 2), ("0", "-1", "-1"), "Jacobi recurrence pole: "),
    ("ab0", (0, 0, 2), ("0", "0", "-1", "-1"), "Jacobi recurrence pole: "),
]


@pytest.mark.parametrize("kind, idx, row, cause", POLE_TASKS,
                         ids=[f"{t[0]}-{','.join(map(str, t[1]))}" for t in POLE_TASKS])
def test_a_pole_of_the_identity_makes_the_task_not_applicable(kind, idx, row, cause):
    row = as_tuple(row, len(row))
    report = sweeps.run_task((kind, None, idx, row))
    assert report.status == NOT_APPLICABLE
    assert report.detail.startswith("PoleHit: " + cause)
    assert report.params == row


@pytest.mark.parametrize("suite, line", [
    ("pde", "monic.triangle: 5 pass, 0 fail, 1 n/a"),
    ("connections", "connect.alpha: 6 pass, 0 fail, 2 n/a"),
], ids=["pde", "connections"])
def test_a_pole_row_inside_the_weight_domain_passes_verify(suite, line, tmp_path, capsys):
    # Every parameter exceeds -1, yet a monic prefactor and two alpha
    # connection coefficients have a pole: those samples are n/a, and the
    # suite exits 0.
    path = tmp_path / "poles.json"
    path.write_text(json.dumps({"suites": {
        "pde": {"twod": {"degree": 1, "params": [["-3/4"] * 4]},
                "threed": {"degree": 1, "params": [["0"] * 6]}, "monic_degree": 2},
        "connections": {
            "alpha": {"degree": 1, "params": [["0"] + ["-1/2"] * 5], "xi": ["-1/2"]},
            "general": {"degree": 1, "params": [["0"] * 6], "targets": [["0"] * 4]}},
    }}))
    out = tmp_path / "out.json"
    assert main(["verify", "--suite", suite, "--config", str(path), "--jobs", "1",
                 "--out", str(out)]) == EX_OK
    assert line in capsys.readouterr().out.splitlines()
    # An n/a connection report carries its xi, as a finished one does.
    poles = [r["params"] for r in json.loads(out.read_text())["reports"]
             if r["relation"] == "connect.alpha" and r["status"] == NOT_APPLICABLE]
    assert len(poles) == (2 if suite == "connections" else 0)
    assert all(len(params) == 7 and params[6] == "-1/2" for params in poles)
