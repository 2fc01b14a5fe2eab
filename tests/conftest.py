"""The shipped default sweep, run once per session for every test that judges it."""

import contextlib
import hashlib
import io
import json
import time
from typing import NamedTuple

import pytest

from simplexpoly import sweeps
from simplexpoly.cli import main


class ShippedRun(NamedTuple):
    """What the tests read of one suite's report: the file's sha256, its
    summary, each report's key (relation, index, params) in file order, and
    the seconds `verify` took."""

    sha256: str
    summary: dict
    keys: list
    seconds: float


@pytest.fixture(scope="session")
def shipped_sweep(tmp_path_factory) -> dict:
    """{suite: ShippedRun} for each suite of `sweeps.SUITES`, each run by
    `verify --suite S --jobs 1 --out S.json` on the shipped config, with
    stdout discarded."""
    reports = tmp_path_factory.mktemp("shipped")
    rows, runs = {}, {}
    for suite in sweeps.SUITES:
        out = reports / f"{suite}.json"
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            main(["verify", "--suite", suite, "--jobs", "1", "--out", str(out)])
        seconds = time.perf_counter() - start
        text = out.read_bytes()
        payload = json.loads(text)
        # A row's text is held once, however many reports share it.
        keys = [(r["relation"], tuple(r["index"]),
                 rows.setdefault(params := tuple(r["params"]), params))
                for r in payload["reports"]]
        runs[suite] = ShippedRun(hashlib.sha256(text).hexdigest(), payload["summary"], keys,
                                 seconds)
    return runs
