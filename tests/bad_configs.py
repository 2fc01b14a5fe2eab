"""Configs that both front ends, `simplexpoly verify` and
scripts/run_full_verification.py, refuse with exit 65 and one
`config error:` line, never a traceback.

Each case is (suite, break_config): `break_config(config)` breaks a copy of
a valid config and returns it, for `verify --suite <suite>`.  None stands
for a directory given as --config.
"""

import copy
import json


def _set(path, value):
    """A case that sets the entry at `path` (keys and list positions)."""

    def break_config(config):
        section = config
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        return config

    return break_config


BAD_CONFIGS = {
    "params-not-a-list": ("three-term", _set(("suites", "three-term", "params"), 5)),
    "params-row-not-a-list": ("ladder1d", _set(("suites", "ladder1d", "params", 0), 5)),
    "section-a-list": ("three-term", _set(("suites", "three-term"), [])),
    "relations-not-a-list": ("ladder1d", _set(("suites", "ladder1d", "relations"), 5)),
    "top-level-a-list": ("three-term", lambda config: [config]),
    "directory": ("three-term", None),
    "params-entry-true": ("ladder1d", _set(("suites", "ladder1d", "params", 0, 0), True)),
    "xi-true": ("connections", _set(("suites", "connections", "alpha", "xi", 0), True)),
    # Sections that check every relation of their grid refuse a selection
    # rather than ignore it.
    "relations-in-pde": ("pde", _set(("suites", "pde", "twod", "relations"), ["T1"])),
    "relations-in-corollaries": ("corollaries", _set(("suites", "corollaries", "relations"),
                                                     ["corollary.deriv.x"])),
    "relations-in-connections": ("connections", _set(
        ("suites", "connections", "general", "relations"), "all")),
    "relations-in-three-term": ("three-term", _set(("suites", "three-term", "relations"),
                                                   ["three-term.x"])),
}


def bad_config_path(case, config, tmp_path) -> str:
    """The --config path of `case`, built on a copy of `config`."""
    break_config = BAD_CONFIGS[case][1]
    if break_config is None:
        return str(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(break_config(copy.deepcopy(config))))
    return str(path)
