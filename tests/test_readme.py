"""The README's library example runs as printed, the top level of the
package exports exactly the names that example imports, plus __version__,
and the README's size table gives the ranges the parser enforces."""

import argparse
import ast
import contextlib
import io
import re
from pathlib import Path

import floercas
from floercas import cli, floer, linalg

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(library_example(), {})
    report = ast.literal_eval(out.getvalue())
    # the whole alpha spectrum of F_3, dim 10, is among the candidates
    assert report["remainder"] == {"coeffs": [{"re": "1", "im": "0"}]}
    assert sum(root["mult"] for root in report["roots"]) == 10


def test_top_level_names():
    imported = re.search(r"^from floercas import (.+)$", library_example(), re.M).group(1)
    assert sorted(floercas.__all__) == sorted(name.strip() for name in imported.split(","))
    # each name is the object of the module that defines it
    home = {"invariant_ring": floer, "default_candidates": floer, "factor_over_candidates": linalg}
    for name in floercas.__all__:
        assert getattr(floercas, name) is getattr(home[name], name)
    assert not hasattr(floercas, "relations")
    assert floercas.__version__ == "0.1.0"


def size_limit_rows() -> list:
    """(option cell, range cell) of each row of the README's size table."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| option | range | measured cost |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split(" | ") for line in table.strip().splitlines()[1:]]
    return [(row[0].lstrip("| "), row[1]) for row in rows]


def bounded_actions(parser, path=()) -> dict:
    """(command words, option string) -> cli._Bounded action, for every
    bounded option of the parser and its subcommands."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(bounded_actions(sub, path + (name,)))
        elif isinstance(action, cli._Bounded):
            for option in action.option_strings:
                found[path, option] = action
    return found


def test_size_limits_table_matches_the_parser():
    ranges = {}  # (command words, option string) -> (lo, hi) of its row
    for options, span in size_limit_rows():
        lo, hi = map(int, re.fullmatch(r"(?:size )?(\d+)\.\.(\d+)", span).groups())
        # an entry without command words is an option of the entry before it,
        # or of the top level when it comes first
        path = ()
        for entry in re.findall(r"`([^`]+)`", options):
            *words, option = entry.split()
            path = tuple(words) or path
            ranges[path, option] = lo, hi
    # the eval size is checked by the command once it has read its input
    assert ranges.pop((("donaldson", "eval"), "--class")) == (0, cli.MAX_EVAL_BITS)
    actions = bounded_actions(cli.build_parser())
    assert set(ranges) <= set(actions)
    # every bounded option with an upper end has the range of its row, or
    # of the top-level row of a global flag that subcommands accept too
    for (path, option), action in actions.items():
        if action.hi is not None:
            want = ranges.get((path, option)) or ranges.get(((), option))
            assert want == (action.lo, action.hi), (path, option)
