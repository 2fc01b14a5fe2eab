"""Verification sweeps: task generation, execution, and report merging.

A sweep expands a suite section of the JSON config into picklable tasks
(kind, relation, index, row), each distinct row of a grid once, runs them
on one process per `TASKS_PER_PROCESS` tasks, up to the job count, cuts
them in the builders' order into four chunks per process, runs the chunks
in this process and, for more than one process, in forked workers beside
it, and merges the reports, sorted by their key, which is their task's.

Each task first scopes the construction caches to the row its members are
built at (`jacobi1d.enter_row`), and `write_report` writes one report at a
time, so a sweep's memory follows one row and its reports, not the grid.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from json.encoder import encode_basestring_ascii
from typing import List, Optional, Sequence, Tuple

from . import jacobi1d, simplex3d, triangle2d
from .operators import (
    FAIL, NOT_APPLICABLE, Row, VerificationReport, as_tuple, report_equality, summarize,
)
from .ratpoly import EXPONENT_LIMIT, ZERO, NonzeroRemainder, Rat, as_rat
from .special import PoleHit

# The largest degree a config may ask for.  Every exponent of a packed
# `ratpoly` key lies below EXPONENT_LIMIT (512), and a check at degree D
# builds exponents past D: the ladder operators of the triangle and the
# tetrahedron multiply a member by a coefficient of degree 2 before their
# exact division, which reaches D + 2; the interval ladder, the
# compositions, the three-term recurrence, the general connection and the
# weighted-derivative and multiplication corollaries reach D + 1 (measured
# over every task kind of the shipped suites; the interval family at 511
# overflows).  A headroom of 8 covers these with room for a table line of
# higher degree, so no accepted degree ends a sweep in an OverflowError.
MAX_DEGREE = EXPONENT_LIMIT - 8

# The most tasks a suite section may ask for, refused before any is built.
# A task takes about 0.5 kB through plan, run and write_report (theorem1
# sections of 62,160, 155,400 and 271,950 tasks peaked at 66, 94 and 138
# MB), so this is about 500 MB, three times ROADMAP item 1's largest grid.
MAX_TASKS = 1_000_000

# The fewest tasks that repay one more process: `run_tasks` starts one
# process per this many tasks or part of them.  A forked worker starts with
# cold construction caches, so a short list spends more CPU in it than it
# saves.  Wall time on one row of the shipped grids, 2-core host, --jobs 2,
# in one process and with a worker: m2d (700 tasks) 58.6 and 60.9 ms,
# theorem1 (2,072 tasks) 213 and 131 ms, second-order (2,904) 379 and 193 ms.
TASKS_PER_PROCESS = 1000


class ConfigError(ValueError):
    """A config key missing or not read, or a config section, list or
    value of the wrong shape or type."""


def config_int(value, key: str, low: int = None, high: int = None) -> int:
    """The config value of `key`, refused (ConfigError) unless it is a JSON
    integer within [low, high]: 5.5, "5" and true are not read as 5 or 1."""
    if type(value) is not int:
        raise ConfigError(f"{key} must be an integer, got {json.dumps(value)}")
    if low is not None and value < low:
        raise ConfigError(f"{key} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{key} must be at most {high}, got {value}")
    return value


def config_entry(value, key: str) -> Rat:
    """The config value of `key` as a Rat, refused (ConfigError) unless
    it is a JSON integer or a string that reads as a rational with a
    nonzero denominator: 0.5, true, null, "abc" and "1/0" are not."""
    if type(value) in (int, str):
        try:
            return as_rat(value)
        except ValueError:
            pass
    raise ConfigError(f'{key} must be an integer or a "num/den" string, '
                      f"got {json.dumps(value)}")


def config_row(values, key: str, count: int = None) -> Row:
    """The config list `values` of `key` as a Row, of `count` entries when
    given; ConfigError, naming the entry, unless each is read by
    `config_entry`."""
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list, got {json.dumps(values)}")
    if count is not None and len(values) != count:
        raise ConfigError(f"{key} must hold {count} entries, got {json.dumps(values)}")
    return as_tuple([config_entry(v, f"{key}[{i}]") for i, v in enumerate(values)],
                    len(values))


def parse_grid(rows, arity: int, key: str = "params") -> List[Row]:
    """The config rows of `key`, each a Row of `arity` parameters."""
    if not isinstance(rows, list):
        raise ConfigError(f"{key} must be a list of rows, got {json.dumps(rows)}")
    return [config_row(row, f"{key}[{i}]", arity) for i, row in enumerate(rows)]


def _filter(relations, selection, key: str):
    if selection == "all":
        return list(relations)
    if not (isinstance(selection, list) and selection
            and all(isinstance(r, str) for r in selection)):
        raise ConfigError(f'{key} must be "all" or a non-empty list of ids, '
                          f'got {json.dumps(selection)}')
    unknown = set(selection) - set(relations)
    if unknown:
        raise ConfigError(f"{key}: unknown relation ids: {json.dumps(sorted(unknown))}")
    return [r for r in relations if r in selection]


def _section(value, path: str, required, optional=()) -> dict:
    """`value`, the config section at the dotted `path` ("" for the whole
    config), refused (ConfigError, naming the full path) unless it is a
    JSON object that holds every key of `required` and no key outside
    `required` and `optional`: a misspelt key would otherwise be ignored."""
    where = f"config section {path}" if path else "the config"
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    for key in required:
        if key not in value:
            raise ConfigError(f"config is missing {path}.{key}")
    unread = sorted(set(value).difference(required, optional))
    if unread:
        raise ConfigError(f"{where} takes no key {json.dumps(unread[0])}; it reads "
                          + ", ".join(sorted({*required, *optional})))
    return value


@dataclass(frozen=True)
class SweepSection:
    """Parsed form of one suite section: degree bound, parameter grid,
    and the relation ids it checks."""

    degree: int
    params: Tuple[Row, ...]
    relations: List[str]

    @staticmethod
    def parse(section, path: str, arity: int, relations=(), extra=()) -> "SweepSection":
        """The section at the dotted `path`.  `relations` holds the ids it
        may select with a relations key; a section without ids checks its
        whole grid and refuses the key rather than ignore it.  `extra`
        names the further keys the caller reads from the section."""
        _section(section, path, ("degree", "params", *extra), ("relations",) if relations else ())
        return SweepSection(
            degree=config_int(section["degree"], path + ".degree", high=MAX_DEGREE),
            params=tuple(parse_grid(section["params"], arity, path + ".params")),
            relations=_filter(relations, section.get("relations", "all"), path + ".relations"),
        )


# ---------------------------------------------------------------------------
# Task executors.  Every task is (kind, relation-or-None, index, row) with
# hashable exact contents, so the list pickles cleanly.
# ---------------------------------------------------------------------------

def _run_monic(family, relation, idx, params, poly, residual) -> VerificationReport:
    """The monic solution `poly` of the family record `family` has unit
    coefficient at x^d_0 y^d_1 z^d_2, d being the member's per-axis
    degrees, and solves the record's monic equation, `residual(which, idx,
    params, poly)` being the cleared residual."""
    if poly.coeff(*(*family.degrees(*idx), 0, 0)[:3]) != 1:
        return VerificationReport(
            relation, idx, params, FAIL, lhs=poly.to_text(), rhs="unit leading coefficient",
        )
    return report_equality(relation, idx, params,
                           residual(family.monic[0], idx, params, poly), ZERO)


def _source(*row) -> Row:
    """The six source parameters of a connection row, one Row per row."""
    return as_tuple(row[:6], 6)


def _run_connection(relation, idx, row, expansion) -> VerificationReport:
    lhs, rhs = expansion.reassemble(), simplex3d.FAMILY.member(idx, row.derive(_source))
    return report_equality(relation, idx, row, lhs, rhs)


def _check(module, name, index=lambda idx: idx):
    """Executor that runs module.name(relation, index(idx), row)."""
    return lambda rid, rel, idx, row: getattr(module, name)(rel, index(idx), row)


# One line per task kind: the relation id of its reports, where "{}" stands
# for the task's relation, and its executor, called with that id and the
# task's fields.  A task that raises is reported under the id and row its
# verifier writes (tests/test_sweeps.py checks each kind); a connection row
# is the source row, then xi or the four target parameters.  Each
# executor names its verifier on the module at call time, so wrappers
# installed later (a test's monkeypatch, a profiler) are used.
_KINDS = {
    "ladder1d": ("{}", _check(jacobi1d, "verify_ladder", lambda idx: idx[0])),
    "so1d": ("{}", _check(jacobi1d, "verify_second_order_1d", lambda idx: idx[0])),
    "m2d": ("{}", _check(triangle2d, "verify_m_relation")),
    "so2d": ("{}", _check(triangle2d, "verify_second_order_m")),
    "d0": ("reduction.d0", lambda rid, rel, idx, row: triangle2d.verify_d0_reduction(idx, row)),
    "pde2d": ("pde.{}", lambda rid, rel, idx, row: report_equality(
        rid, idx, row, triangle2d.pde_residual(rel, idx, row), ZERO)),
    "monic2d": ("monic.triangle", lambda rid, rel, idx, row: _run_monic(
        triangle2d.FAMILY, rid, idx, row, triangle2d.monic_triangle(idx, row),
        triangle2d.pde_residual)),
    "theorem1": ("{}", _check(simplex3d, "verify_theorem1")),
    "so3d": ("{}", _check(simplex3d, "verify_second_order_3d")),
    "ab0": ("reduction.ab0", lambda rid, rel, idx, row: simplex3d.verify_reduction_ab0(idx, row)),
    "pde3d": ("pde.{}", lambda rid, rel, idx, row: report_equality(
        rid, idx, row, simplex3d.pde_residual_3d(rel, idx, row), ZERO)),
    "monic3d": ("monic.simplex", lambda rid, rel, idx, row: _run_monic(
        simplex3d.FAMILY, rid, idx, row, simplex3d.monic_simplex(idx, row),
        simplex3d.pde_residual_3d)),
    "three_term": ("three-term.x", lambda rid, rel, idx, row:
                   simplex3d.verify_three_term(idx, row)),
    "conn_alpha": ("connect.alpha", lambda rid, rel, idx, row: _run_connection(
        rid, idx, row, simplex3d.connect_alpha(idx, row.derive(_source), row[6]))),
    "conn_general": ("connect.general", lambda rid, rel, idx, row: _run_connection(
        rid, idx, row, simplex3d.connect_general(idx, row.derive(_source), row[6:]))),
    "cor_deriv": ("corollary.deriv.{}", _check(simplex3d, "verify_corollary_derivatives")),
    "cor_weight": ("corollary.weighted.{}", _check(simplex3d, "verify_corollary_weighted")),
    "cor_mult": ("corollary.mult.{}", _check(simplex3d, "verify_corollary_multiplication")),
}

Task = Tuple[str, Optional[str], tuple, Row]


def run_task(task: Task) -> VerificationReport:
    """Run one task, the construction caches scoped to the row its members are
    built at: its row's first six entries, a connection's source row.  This is
    the one place where a raised check becomes a verdict, the cause in the
    report's detail.  A pole (PoleHit) makes the sample not_applicable: a
    coefficient of the identity is undefined at that row.  An exact division
    with a remainder, by a divisor it cannot divide by (ValueError, as a
    mistyped table denominator gives) or by zero fails the sample."""
    kind, rel, idx, row = task
    jacobi1d.enter_row(row[:6])
    relation, execute = _KINDS[kind]
    relation = relation.format(rel)
    try:
        return execute(relation, rel, idx, row)
    except (NonzeroRemainder, PoleHit, ValueError, ZeroDivisionError) as exc:
        status = NOT_APPLICABLE if isinstance(exc, PoleHit) else FAIL
        return VerificationReport(relation, idx, row, status,
                                  detail=f"{type(exc).__name__}: {exc}")


def _run_chunk(tasks: List[Task]) -> List[VerificationReport]:
    return [run_task(t) for t in tasks]


def _chunks(tasks: List[Task], count: int) -> List[List[Task]]:
    """The tasks, in the order the suite builders made them, cut into
    about `count` chunks of similar size, never inside a run of one (row,
    index), so the tasks of a run share their member in one worker."""
    size = -(-len(tasks) // count)
    chunks, chunk = [], []
    for _, group in groupby(tasks, key=lambda t: (t[3], t[2])):
        if len(chunk) >= size:
            chunks.append(chunk)
            chunk = []
        chunk.extend(group)
    return chunks + [chunk]


def run_tasks(tasks: List[Task], jobs: int = 1) -> List[VerificationReport]:
    """Execute tasks on at most `jobs` processes, this one included, cut
    into four `_chunks` per process, and sort the reports.  A process runs
    per TASKS_PER_PROCESS tasks or part of them, and no more than the host
    has CPUs or the tasks have chunks, so a short list forks nothing.  Of N
    processes, this one runs every Nth chunk from the first, after handing
    the others to a pool of N - 1 forked workers: the pool forks every
    worker at once.  If this process's share raises, the pool's pending
    chunks are cancelled and its workers joined before the error
    propagates."""
    processes = min(jobs, os.cpu_count() or 1, -(-len(tasks) // TASKS_PER_PROCESS) or 1)
    split = _chunks(tasks, processes * 4)
    workers = min(processes, len(split))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers - 1) as pool:
            theirs = pool.map(_run_chunk, [c for i, c in enumerate(split) if i % workers])
            try:
                parts = [*map(_run_chunk, split[::workers]), *theirs]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    else:
        parts = map(_run_chunk, split)
    return sorted((r for part in parts for r in part), key=lambda r: r.sort_key())


# ---------------------------------------------------------------------------
# Suite task builders.
# ---------------------------------------------------------------------------

def _grid(rows, family, degree, cells) -> List[Task]:
    """The tasks of a grid: one per distinct row, index of the record's
    `indices(degree)` and cell (kind, relation), in that order."""
    indices = family.indices(degree)
    return [(kind, rel, idx, params)
            for params in dict.fromkeys(rows) for idx in indices for kind, rel in cells]


def _size(grids) -> int:
    """The number of tasks of the grids, counted without building them."""
    return sum(len(set(rows)) * family.index_count(degree) * len(cells)
               for rows, family, degree, cells in grids)


def _cells(kind, relations=(None,)):
    return [(kind, rel) for rel in relations]


def _nonempty(grids, path: str) -> list:
    """`grids`, refused when the config grid at `path` yields no task: a
    grid that checks nothing would pass vacuously."""
    if not _size(grids):
        raise ConfigError(f"config section {path} yields no tasks")
    return grids


def _tasks(path: str, grids) -> List[Task]:
    """The tasks of the section at `path`, its grids in order, refused when
    they number 0 or more than MAX_TASKS, counted before any is built."""
    count = _size(_nonempty(grids, path))
    if count > MAX_TASKS:
        raise ConfigError(f"config section {path} asks for {count} tasks, "
                          f"more than the {MAX_TASKS} a section may hold")
    return [task for grid in grids for task in _grid(*grid)]


def tasks_ladder1d(section) -> List[Task]:
    sec = SweepSection.parse(section, "suites.ladder1d", 2, jacobi1d.SPARSE_1D)
    return _tasks("suites.ladder1d", [
        (sec.params, jacobi1d.FAMILY, sec.degree, _cells("ladder1d", sec.relations))])


def tasks_m2d(section) -> List[Task]:
    sec = SweepSection.parse(section, "suites.m2d", 4, triangle2d.SPARSE_2D)
    return _tasks("suites.m2d", [
        (sec.params, triangle2d.FAMILY, sec.degree, _cells("m2d", sec.relations)),
        ([as_tuple(p[:3], 3) for p in sec.params], triangle2d.FAMILY, sec.degree, _cells("d0"))])


def tasks_theorem1(section) -> List[Task]:
    sec = SweepSection.parse(section, "suites.theorem1", 6, simplex3d.THEOREM1)
    return _tasks("suites.theorem1", [
        (sec.params, simplex3d.FAMILY, sec.degree, _cells("theorem1", sec.relations)),
        ([as_tuple(p[:4], 4) for p in sec.params], simplex3d.FAMILY, sec.degree, _cells("ab0"))])


def tasks_second_order(section) -> List[Task]:
    _section(section, "suites.second-order", ("oned", "twod", "threed"))
    grids = []
    for key, family, kind in (("oned", jacobi1d.FAMILY, "so1d"),
                              ("twod", triangle2d.FAMILY, "so2d"),
                              ("threed", simplex3d.FAMILY, "so3d")):
        path = "suites.second-order." + key
        sec = SweepSection.parse(section[key], path, len(family.names), family.second_order)
        grids += _nonempty([(sec.params, family, sec.degree, _cells(kind, sec.relations))], path)
    return _tasks("suites.second-order", grids)


def tasks_pde(section) -> List[Task]:
    _section(section, "suites.pde", ("twod", "threed"), ("monic_degree",))
    two = SweepSection.parse(section["twod"], "suites.pde.twod", 4)
    three = SweepSection.parse(section["threed"], "suites.pde.threed", 6)
    monic_degree = config_int(section.get("monic_degree", 5), "suites.pde.monic_degree",
                              high=MAX_DEGREE)
    triangle, tetrahedron = triangle2d.FAMILY, simplex3d.FAMILY
    return _tasks("suites.pde", [
        *_nonempty([(two.params, triangle, two.degree, _cells("pde2d", triangle.pde))],
                   "suites.pde.twod"),
        *_nonempty([(three.params, tetrahedron, three.degree, _cells("pde3d", tetrahedron.pde))],
                   "suites.pde.threed"),
        *_nonempty([(two.params, triangle, monic_degree, _cells("monic2d")),
                    (three.params, tetrahedron, monic_degree, _cells("monic3d"))],
                   "suites.pde.monic_degree"),
    ])


def tasks_corollaries(section) -> List[Task]:
    sec = SweepSection.parse(section, "suites.corollaries", 4)
    cells = (
        _cells("cor_deriv", simplex3d.DERIVATIVES)
        + _cells("cor_weight", simplex3d.WEIGHTED)
        + _cells("cor_mult", simplex3d.MULTIPLICATIONS)
    )
    return _tasks("suites.corollaries", [(sec.params, simplex3d.FAMILY, sec.degree, cells)])


def tasks_connections(section) -> List[Task]:
    _section(section, "suites.connections", ("alpha", "general"))
    path = "suites.connections."
    alpha = SweepSection.parse(section["alpha"], path + "alpha", 6, extra=("xi",))
    xis = [(xi,) for xi in config_row(section["alpha"]["xi"], path + "alpha.xi")]
    general = SweepSection.parse(section["general"], path + "general", 6, extra=("targets",))
    targets = parse_grid(section["general"]["targets"], 4, path + "general.targets")
    # Each source row also connects to its own leading parameters.
    return _tasks("suites.connections", [
        *_nonempty([([as_tuple(p + t, 7) for p in alpha.params for t in xis + [p[:1]]],
                     simplex3d.FAMILY, alpha.degree, _cells("conn_alpha"))], path + "alpha"),
        *_nonempty([([as_tuple(p + t, 10) for p in general.params for t in targets + [p[:4]]],
                     simplex3d.FAMILY, general.degree, _cells("conn_general"))], path + "general"),
    ])


def tasks_three_term(section) -> List[Task]:
    sec = SweepSection.parse(section, "suites.three-term", 6)
    return _tasks("suites.three-term",
                  [(sec.params, simplex3d.FAMILY, sec.degree, _cells("three_term"))])


_TASK_BUILDERS = {
    "ladder1d": tasks_ladder1d,
    "m2d": tasks_m2d,
    "theorem1": tasks_theorem1,
    "second-order": tasks_second_order,
    "pde": tasks_pde,
    "corollaries": tasks_corollaries,
    "connections": tasks_connections,
    "three-term": tasks_three_term,
}

#: The suite names, in the order the full verification runs them.
SUITES = tuple(_TASK_BUILDERS)


def suite_tasks(name: str, config: dict) -> List[Task]:
    """The tasks of one named suite from a parsed config.  A bad section
    raises ValueError here, before any task runs; an unknown suite name
    raises KeyError."""
    if name not in _TASK_BUILDERS:
        raise KeyError(f"unknown suite {name!r}; expected one of {SUITES}")
    section = _section(config.get("suites", {}), "suites", (name,), SUITES)[name]
    return _TASK_BUILDERS[name](section)


def run_suite_tasks(name: str, tasks: List[Task], jobs: int = 1) -> List[VerificationReport]:
    """Run the tasks of the named suite; returns its sorted reports."""
    reports = run_tasks(tasks, jobs=jobs)
    for r in reports:
        r.suite = name
    return reports


def run_suite(name: str, config: dict, jobs: int = 1) -> List[VerificationReport]:
    """Run one named suite from a parsed config; returns sorted reports."""
    return run_suite_tasks(name, suite_tasks(name, config), jobs=jobs)


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def default_config_path() -> str:
    """The shipped default sweep configuration (mirrors the test suite)."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "default_sweep.json")


#: What reading a config and building its tasks may raise: OSError for a
#: file that cannot be read (a directory included), and ValueError for JSON
#: that does not parse or a value that is refused, ConfigError included: a
#: missing or unread key, a section, list or row of the wrong shape, or a
#: float or true where a number belongs.
CONFIG_ERRORS = (OSError, ValueError)


def plan(path: Optional[str], suites: Sequence[str]) -> Tuple[int, List[Tuple[str, List[Task]]]]:
    """The config's worker count and [(suite, tasks)] for the named suites
    of the config at `path`, the shipped one when None.  Every suite's
    tasks are built before any task runs, so a bad section anywhere raises
    one of CONFIG_ERRORS here and costs no work."""
    config = _section(load_config(path or default_config_path()), "", (), ("jobs", "suites"))
    jobs = config_int(config.get("jobs", 1), "jobs", low=1)
    return jobs, [(suite, suite_tasks(suite, config)) for suite in suites]


def _report_json(r: VerificationReport) -> str:
    """`r.to_json()` as json.dump(indent=1, sort_keys=True) lays it out in
    the report list: its items in key order, each a string or a list of
    ints or of strings, a list one entry per line."""
    payload = r.to_json()
    fields = []
    for key in sorted(payload):
        value = payload[key]
        if type(value) is str:
            fields.append(f'"{key}": {encode_basestring_ascii(value)}')
        elif value:
            entries = map(encode_basestring_ascii if type(value[0]) is str else str, value)
            fields.append(f'"{key}": [\n    ' + ",\n    ".join(entries) + "\n   ]")
        else:
            fields.append(f'"{key}": []')
    return "  {\n   " + ",\n   ".join(fields) + "\n  }"


def write_report(path: str, reports, summary) -> None:
    """The reports and their summary, byte for byte what
    json.dump({"reports": [r.to_json() ...], "summary": summary}, fh,
    indent=1, sort_keys=True) writes, and a newline.  The summary, a few
    dozen relations at most, is written by `json` itself, one level deeper.
    The reports are laid out from their `to_json()` directly, in about half
    the time json's pure-Python encoder (the one `indent` selects) takes,
    and written one at a time, so the text of the whole list is never held."""
    summary = json.dumps(summary, indent=1, sort_keys=True).replace("\n", "\n ")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n "reports": ')
        opening = "[\n"
        for r in reports:
            fh.write(opening + _report_json(r))
            opening = ",\n"
        fh.write("[]" if opening == "[\n" else "\n ]")
        fh.write(',\n "summary": ' + summary + "\n}\n")


__all__ = [
    "CONFIG_ERRORS",
    "ConfigError",
    "SUITES",
    "config_int",
    "load_config",
    "default_config_path",
    "plan",
    "run_suite",
    "run_suite_tasks",
    "run_tasks",
    "suite_tasks",
    "summarize",
    "write_report",
]
