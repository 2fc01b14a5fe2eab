"""Every program name that the benchmark's tracer and workloads bind resolves.

`perfbench/tracer.py` wraps program functions and methods by name, and only
prints a `tracer: ... not found` line when one is missing;
`perfbench/workloads.py` looks program functions up when its ops run.  A
refactor that drops or renames one of these names would pass every other
test and quietly blind the benchmark.  The two files are parsed here, never
imported or changed.
"""

import ast
import os

import pytest

import simplexpoly
from simplexpoly import cli, operators, quadrature, ratpoly, simplex3d, special, sweeps

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# Local names under which the two files hold program objects.
ROOTS = {
    "simplexpoly": simplexpoly,
    "cli": cli,
    "operators": operators,
    "quadrature": quadrature,
    "ratpoly": ratpoly,
    "special": special,
    "sweeps": sweeps,
    "mpoly": ratpoly.MPoly,
    "expansion": simplex3d.ConnectionExpansion,
}


def _tree(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _constants(tree):
    """Module-level names assigned a literal, with their values."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                out[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return out


class _Bindings(ast.NodeVisitor):
    """(owner expression, attribute name) pairs a file binds: attribute
    chains, names imported from the package, and the literal names given
    to getattr, Tracer._replace and Tracer._wrap_functions, directly or
    through a loop over literals."""

    def __init__(self, constants):
        self.constants = constants
        self.loops = {}
        self.found = []

    def _names(self, node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, ast.Tuple):
            return [n for elt in node.elts for n in self._names(elt)]
        if isinstance(node, ast.Name):
            value = self.loops.get(node.id, self.constants.get(node.id))
            if isinstance(value, (tuple, list)) and all(isinstance(v, str) for v in value):
                return list(value)
        return []

    def visit_For(self, node):
        names = self._names(node.iter) if isinstance(node.target, ast.Name) else []
        if names:
            saved = self.loops.get(node.target.id)
            self.loops[node.target.id] = names
            self.generic_visit(node)
            self.loops[node.target.id] = saved
        else:
            self.generic_visit(node)

    def visit_Attribute(self, node):
        self.found.append((node.value, node.attr))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module and node.module.split(".")[0] == "simplexpoly":
            owner = ast.parse(node.module, mode="eval").body
            self.found += [(owner, alias.name) for alias in node.names]

    def visit_Call(self, node):
        func = ast.unparse(node.func)
        if func in ("getattr", "self._replace") and len(node.args) >= 2:
            self.found += [(node.args[0], n) for n in self._names(node.args[1])]
        elif func == "self._wrap_functions" and len(node.args) >= 3:
            self.found += [(node.args[1], n) for n in self._names(node.args[2])]
        self.generic_visit(node)


def _resolve(node):
    """The program object an owner expression stands for, or None when it
    is not a program object (or is itself a missing binding)."""
    if isinstance(node, ast.Name):
        return ROOTS.get(node.id)
    if isinstance(node, ast.Subscript) and ast.unparse(node.value) in ("prog", "self.prog") \
            and isinstance(node.slice, ast.Constant):
        return getattr(simplexpoly, node.slice.value, None)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value)
        return None if owner is None else getattr(owner, node.attr, None)
    return None


def _bindings(name):
    tree = _tree(name)
    visitor = _Bindings(_constants(tree))
    visitor.visit(tree)
    return [(ast.unparse(owner), attr, _resolve(owner)) for owner, attr in visitor.found]


@pytest.mark.parametrize("name", ["tracer.py", "workloads.py"])
def test_every_bound_name_resolves(name):
    missing = sorted(
        {f"{owner}.{attr}" for owner, attr, obj in _bindings(name)
         if obj is not None and not hasattr(obj, attr)}
    )
    assert missing == []


def test_scan_sees_the_traced_entry_points():
    # Guards the scan itself: these bindings must be among those it checks.
    tracer = {(owner, attr) for owner, attr, obj in _bindings("tracer.py") if obj is not None}
    for attr in ("gauss_jacobi_01", "tetra_rule", "triangle_rule", "gram_matrix",
                 "gram_matrix_triangle"):
        assert ("quadrature", attr) in tracer
    for attr in ("run_task", "run_tasks", "write_report", "_run_chunk"):
        assert ("sweeps", attr) in tracer
    assert ("mpoly", "eval_float") in tracer
    assert ("expansion", "reassemble") in tracer
    workloads = {(owner, attr) for owner, attr, obj in _bindings("workloads.py")
                 if obj is not None}
    assert {("sweeps", "run_task"), ("sweeps", "write_report"),
            ("quadrature", "gram_matrix")} <= workloads


def test_traced_family_and_special_names_resolve():
    constants = _constants(_tree("tracer.py"))
    for family, parts in constants["FAMILIES"].items():
        module = getattr(simplexpoly, family)
        for part in ("build", "verify"):
            assert parts[part]
            for fname in parts[part]:
                assert callable(getattr(module, fname, None)), f"{family}.{fname}"
    for fname in constants["SPECIAL"]:
        assert callable(getattr(special, fname, None)), f"special.{fname}"


def test_workload_task_builders_resolve():
    suites = _constants(_tree("workloads.py"))["SUITES"]
    assert list(suites) == list(sweeps.SUITES)
    for suite in suites:
        assert callable(getattr(sweeps, "tasks_" + suite.replace("-", "_"), None)), suite
