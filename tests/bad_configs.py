"""Configs that both front ends, `simplexpoly verify` and
scripts/run_full_verification.py, refuse with exit 65 and one
`config error:` line, never a traceback.

Each case is (suite, break_config, where): `break_config(config)` breaks a
copy of a valid config and returns it, for `verify --suite <suite>`, and
`where` is text the error line must hold, the full path of the offending
entry where there is one.  None stands for a directory given as --config.
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


def _drop(path):
    """A case that deletes the entry at `path`."""

    def break_config(config):
        section = config
        for key in path[:-1]:
            section = section[key]
        del section[path[-1]]
        return config

    return break_config


BAD_CONFIGS = {
    "params-not-a-list": ("three-term", _set(("suites", "three-term", "params"), 5),
                          "suites.three-term.params"),
    "params-row-not-a-list": ("ladder1d", _set(("suites", "ladder1d", "params", 0), 5),
                              "suites.ladder1d.params"),
    "section-a-list": ("three-term", _set(("suites", "three-term"), []), "suites.three-term"),
    "subsection-a-list": ("pde", _set(("suites", "pde", "twod"), []), "suites.pde.twod"),
    "degree-missing": ("ladder1d", _drop(("suites", "ladder1d", "degree")),
                       "suites.ladder1d.degree"),
    "xi-missing": ("connections", _drop(("suites", "connections", "alpha", "xi")),
                   "suites.connections.alpha.xi"),
    "relations-not-a-list": ("ladder1d", _set(("suites", "ladder1d", "relations"), 5),
                             "suites.ladder1d.relations"),
    "top-level-a-list": ("three-term", lambda config: [config], "the config"),
    "directory": ("three-term", None, None),
    # A parameter entry is a JSON integer or a "num/den" string; the error
    # names the entry's position and shows its JSON text.
    **{f"params-entry-{name}": ("ladder1d", _set(("suites", "ladder1d", "params", 0, 0), value),
                                "suites.ladder1d.params[0][0] must be an integer or a "
                                f'"num/den" string, got {text}')
       for name, value, text in (("true", True, "true"), ("null", None, "null"),
                                 ("float", 0.5, "0.5"), ("not-a-number", "abc", '"abc"'),
                                 ("zero-denominator", "1/0", '"1/0"'))},
    "params-row-too-short": ("ladder1d", _set(("suites", "ladder1d", "params", 0), ["1"]),
                             'suites.ladder1d.params[0] must hold 2 entries, got ["1"]'),
    "xi-true": ("connections", _set(("suites", "connections", "alpha", "xi", 0), True),
                'suites.connections.alpha.xi[0] must be an integer or a "num/den" string, '
                "got true"),
    "xi-zero-denominator": ("connections", _set(("suites", "connections", "alpha", "xi", 1),
                                                "-3/0"),
                            'suites.connections.alpha.xi[1] must be an integer or a "num/den" '
                            'string, got "-3/0"'),
    "targets-zero-denominator": ("connections", _set(
        ("suites", "connections", "general", "targets", 0, 2), "2/0"),
        'suites.connections.general.targets[0][2] must be an integer or a "num/den" string, '
        'got "2/0"'),
    # Sections that check every relation of their grid refuse a selection
    # rather than ignore it.
    "relations-in-pde": ("pde", _set(("suites", "pde", "twod", "relations"), ["T1"]),
                         "suites.pde.twod"),
    "relations-in-corollaries": ("corollaries", _set(("suites", "corollaries", "relations"),
                                                     ["corollary.deriv.x"]),
                                 "suites.corollaries"),
    "relations-in-connections": ("connections", _set(
        ("suites", "connections", "general", "relations"), "all"),
        "suites.connections.general"),
    "relations-in-three-term": ("three-term", _set(("suites", "three-term", "relations"),
                                                   ["three-term.x"]), "suites.three-term"),
    # A selection is "all" or a non-empty list of ids: an empty or false
    # one would otherwise select every relation.  The error shows the value
    # as the config's JSON text: null, not None.
    **{f"relations-{name}": ("ladder1d", _set(("suites", "ladder1d", "relations"), value),
                             'suites.ladder1d.relations must be "all" or a non-empty list '
                             f"of ids, got {text}")
       for name, value, text in (("empty-list", [], "[]"), ("zero", 0, "0"),
                                 ("false", False, "false"), ("null", None, "null"),
                                 ("empty-string", "", '""'), ("empty-object", {}, "{}"))},
    "relations-unknown-id": ("ladder1d", _set(("suites", "ladder1d", "relations"), ["L7"]),
                             'suites.ladder1d.relations: unknown relation ids: ["L7"]'),
    # A key that nothing reads is refused: misspelt, it would be ignored.
    "relation-misspelt": ("ladder1d", _set(("suites", "ladder1d", "relation"), ["L1"]),
                          'config section suites.ladder1d takes no key "relation"'),
    "unread-key-in-subsection": ("second-order", _set(
        ("suites", "second-order", "oned", "monic_degree"), 2), "suites.second-order.oned"),
    "unread-key-in-section": ("pde", _set(("suites", "pde", "degree"), 2), "suites.pde"),
    "suite-name-misspelt": ("three-term", _set(("suites", "three_term"), {}), "suites"),
    "top-level-key-misspelt": ("ladder1d", _set(("jbos",), 2),
                               'the config takes no key "jbos"; it reads jobs, suites'),
    # More tasks than a section may hold: 176,851 indices of degree 100
    # times 37 cells on one row, counted before any is built.
    "too-many-tasks": ("theorem1", _set(("suites", "theorem1"),
                                        {"degree": 100, "params": [[0, 0, 0, 0, 0, 0]]}),
                       "config section suites.theorem1 asks for 6543487 tasks, "
                       "more than the 1000000"),
}


def bad_config_path(case, config, tmp_path) -> str:
    """The --config path of `case`, built on a copy of `config`."""
    break_config = BAD_CONFIGS[case][1]
    if break_config is None:
        return str(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(break_config(copy.deepcopy(config))))
    return str(path)
