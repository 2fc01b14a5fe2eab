"""The two invariants the README states for the paper's identities, read
from the package's source, which is parsed and not imported.

Every verdict comes from one judge: a `VerificationReport` is built only in
`operators.report_equality`, and in `sweeps.run_task`, which turns a raised
check into a verdict.  Every operator application goes through one kernel,
`MPoly.apply_derivatives`: no module differentiates with `MPoly.diff`.
"""

import ast
from pathlib import Path

import simplexpoly

SOURCES = sorted(Path(simplexpoly.__file__).parent.rglob("*.py"))

REPORT_BUILDERS = {"operators.report_equality", "sweeps.run_task"}


class _Calls(ast.NodeVisitor):
    """(enclosing definition, line, callee name, whether it is a method)
    of each call in a module; the definition is module.outer.inner, and a
    call outside every definition has the module alone."""

    def __init__(self, module):
        self.scope = [module]
        self.found = []

    def _define(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name):
            self.found.append((".".join(self.scope), node.lineno, func.id, False))
        elif isinstance(func, ast.Attribute):
            self.found.append((".".join(self.scope), node.lineno, func.attr, True))
        self.generic_visit(node)


def _calls():
    for path in SOURCES:
        calls = _Calls(path.stem)
        calls.visit(ast.parse(path.read_text(), str(path)))
        yield from calls.found


def test_only_the_judge_and_run_task_build_a_report():
    builders = {(scope, line) for scope, line, name, _ in _calls()
                if name == "VerificationReport"}
    assert {scope for scope, _ in builders} == REPORT_BUILDERS, sorted(builders)


def test_no_module_differentiates_around_the_kernel():
    assert [(scope, line) for scope, line, name, method in _calls()
            if method and name == "diff"] == []
