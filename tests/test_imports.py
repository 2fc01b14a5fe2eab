"""What the package imports: the standard library, numpy (its one declared
dependency in pyproject.toml) and itself.  sympy, scipy and the test tools
serve the tests only, as oracles."""

import ast
import sys
from pathlib import Path

import simplexpoly

ALLOWED = sys.stdlib_module_names | {"numpy", "simplexpoly"}


def _imported(path: Path):
    """(line, top-level module) of each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library_numpy_and_itself():
    files = sorted(Path(simplexpoly.__file__).parent.rglob("*.py"))
    assert files
    outside = [f"{path.name}:{line} imports {name}" for path in files
               for line, name in _imported(path) if name not in ALLOWED]
    assert outside == []
