"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from simplexpoly.cli import EX_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str) -> str:
    """The first fenced block under the README section `heading`."""
    section = README.split("\n## " + heading + "\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def _commands(prefix: str):
    """The `simplexpoly` lines of the "Command line" block that run
    `prefix`, each with the expected output its `# -> ` line gives, if any."""
    lines = _block("Command line").splitlines() + [""]
    return [(shlex.split(line)[1:], lines[i + 1].partition("# -> ")[2] or None)
            for i, line in enumerate(lines) if line.startswith("simplexpoly " + prefix)]


def test_the_library_quick_tour_runs():
    exec(compile(_block("Library quick tour"), "README.md", "exec"), {})


def test_the_print_poly_example_prints_what_the_readme_says(capsys):
    [(argv, expected)] = _commands("print-poly")
    assert expected == "4 * x^1 - 1"
    assert main(argv) == EX_OK
    assert capsys.readouterr().out == expected + "\n"


def test_the_connect_examples_exit_0(capsys):
    examples = _commands("connect")
    assert len(examples) == 2
    for argv, _ in examples:
        assert main(argv) == EX_OK, argv
    assert capsys.readouterr().err == ""
