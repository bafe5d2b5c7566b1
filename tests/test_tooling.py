"""Source rules that no behavioural test can see."""

import argparse
import ast
from pathlib import Path

import knotdist
from knotdist import cli
from test_cli_golden import cases

PACKAGE = Path(knotdist.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so an invariant checked by one
    # would silently stop being checked; the package raises instead
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources, f"no sources found under {PACKAGE}"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_every_cli_option_has_a_golden_case():
    # the golden digests pin the CLI's bytes only for the options they run
    golden = {arg for argv in cases() for arg in argv}
    subcommands = next(
        a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)
    )
    missing = [
        (name, option)
        for name, parser in subcommands.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help") and option not in golden
    ]
    assert subcommands.choices
    assert missing == []
