"""The README's library example runs as printed, the top level of the
package exports exactly the names that example imports, plus __version__,
the README's size table gives the ranges the parser enforces, and CI runs
each bounded option at its upper end."""

import argparse
import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import floercas
from floercas import cli, floer, linalg

README = Path(__file__).resolve().parents[1] / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tests.yml"


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


def bound_step_commands() -> list:
    """The arguments after `floercas` of each floercas command line of the CI
    step "The slowest forms at their bounds", without shell redirections."""
    step = WORKFLOW.read_text(encoding="utf-8").split(
        "- name: The slowest forms at their bounds\n", 1)[1]
    script = re.match(r" *run: \|\n((?: {10}.*\n|\n)*)", step).group(1)
    commands = []
    for line in script.splitlines():
        words = shlex.split(line, comments=True)
        if "floercas" in words:
            args = words[words.index("floercas") + 1:]
            commands.append([arg for arg in args if not arg.startswith(">")])
    return commands


def test_ci_runs_each_bounded_option_at_its_upper_end():
    parser = cli.build_parser()
    at_bound = []  # (command words, namespace) of each command line of the step
    for args in bound_step_commands():
        ns = parser.parse_args(args)
        at_bound.append(((ns.command, ns.don_command) if ns.command == "donaldson"
                         else (ns.command,), ns))
    assert at_bound
    global_flags = {option for action in parser._actions for option in action.option_strings}
    for (path, option), action in bounded_actions(parser).items():
        if action.hi is None:
            continue
        paths = {words for words, ns in at_bound if getattr(ns, action.dest, None) == action.hi}
        # a global flag is accepted by every subcommand, so it is at its
        # bound once on any of them; any other option on its own command
        assert paths if option in global_flags else path in paths, (path, option)
