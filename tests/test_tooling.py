"""Source rules that no behavioural test can see."""

import ast
from pathlib import Path

import knotdist

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
