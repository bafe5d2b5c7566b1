"""Source rules that no behavioural test can see."""

import argparse
import ast
import collections
import json
from pathlib import Path

import knotdist
from knotdist import LatticePoint, cli, random_polygon, report, serialize_vertices
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


def test_heatmap_output_builds_nothing_per_row(monkeypatch, capsys, tmp_path):
    # heatmap rows are rendered from the num/den arrays; a Fraction, decimal
    # or point built per row would cost more than the sweep itself
    path = tmp_path / "random400.knot"
    path.write_text(serialize_vertices(random_polygon(400, 0)), encoding="utf-8")
    calls = collections.Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(report, "format_decimal", counted("format_decimal", report.format_decimal))
    monkeypatch.setattr(LatticePoint, "as_true", counted("as_true", LatticePoint.as_true))
    assert cli.main(["compute", "--with-heatmap", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["heatmap"]) == 400
    # delta and gromov1, and the two points of each witness
    assert calls == {"format_decimal": 2, "as_true": 2 * len(doc["witnesses"])}
    calls.clear()
    assert cli.main(["heatmap", str(path), "--csv", "-"]) == 0
    assert capsys.readouterr().out.count("\n") == 401
    assert calls == {}
