"""What the package imports: the standard library, numpy (its one declared
dependency in pyproject.toml) and itself.  sympy, scipy and the test tools
serve the tests only, as oracles.  numpy and the process pool load only
where they run: the exact path loads neither."""

import ast
import json
import os
import subprocess
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


# Run in a fresh interpreter, since the test process has numpy loaded: the
# README's print-poly example, an alpha connection and a serial suite, then
# a `gram`.  Prints the exit codes, the heavy modules loaded before the
# `gram` and whether numpy is loaded after it.
_COLD_START = """
import contextlib, io, json, sys
import simplexpoly, simplexpoly.cli, simplexpoly.sweeps
from simplexpoly.cli import main
HEAVY = ("numpy", "concurrent.futures.process")
exact = [
    ["print-poly", "--family", "simplex", "--index", "1,0,0", "--params", "0,0,0,0,0,0"],
    ["connect", "--mode", "alpha", "--index", "1,0,0", "--params", "0,0,0,0,0,0", "--xi", "1/2"],
    ["verify", "--suite", "three-term", "--jobs", "1"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in exact]
    loaded = [name for name in HEAVY if name in sys.modules]
    gram = main(["gram", "--N", "2", "--params", "0,0,0,0,0,0", "--out", sys.argv[1]])
print(json.dumps({"codes": codes, "loaded": loaded, "gram": gram,
                  "numpy_after_gram": "numpy" in sys.modules}))
"""


def test_the_exact_path_loads_neither_numpy_nor_the_process_pool(tmp_path):
    src = str(Path(simplexpoly.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path / "gram.csv")],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["loaded"] == []
    assert result["gram"] == 0 and result["numpy_after_gram"]
