"""Golden digests of the CLI: stdout, stderr and exit code of every command.

Each case runs ``main(argv)`` in a temporary directory holding a few fixed
knot files and hashes (argv, exit code, stdout, stderr, written file)
with sha256.  The digests in cli_golden.json pin the CLI's bytes, so a
refactoring that is meant to change no output can show that it did not.
A deliberate change of output records them again:

    PYTHONPATH=src python tests/test_cli_golden.py

argparse words its usage errors differently in other Python versions,
so the digests hold for the Python minor version they were recorded on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from knotdist import (
    lattice_isometries,
    random_polygon,
    rectangle,
    serialize_moves,
    serialize_vertices,
    torus_knot,
    transform,
)
from knotdist.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
RECORDED_ON = (3, 11)

GOOD = ("square.knot", "rect23.knot", "trefoil.knot", "random.knot", "far.knot", "moves.knot")
LONG = ("torus388.knot", "rect1x99.knot", "random600.knot")
BAD = ("syntax.knot", "embedded.knot", "open.knot", "range.knot", "empty.knot",
       "nomoves.knot", "missing.knot")


def write_files(root: Path) -> None:
    trefoil = torus_knot(2, 3, 2)
    files = {
        "square.knot": serialize_vertices(rectangle(1, 1)),
        "rect23.knot": serialize_vertices(rectangle(2, 3)),
        "trefoil.knot": serialize_vertices(trefoil),
        "random.knot": serialize_vertices(random_polygon(12, 5)),
        "far.knot": serialize_vertices(
            transform(trefoil, lattice_isometries()[13], (2**30, -(2**30), 2**30 + 1))
        ),
        "moves.knot": serialize_moves(rectangle(1, 2)),
        # band counts (194, 100, 300) that do not divide into whole sweep blocks
        "torus388.knot": serialize_vertices(torus_knot(2, 3, 8)),
        "rect1x99.knot": serialize_vertices(rectangle(1, 99)),
        "random600.knot": serialize_vertices(random_polygon(600, 0)),
        "huge.knot": serialize_vertices(transform(rectangle(1, 1), translate=(3 * 2**60, 0, 0))),
        # gromov1 witnesses at half-integers that a float cannot hold
        "far60.knot": serialize_vertices(
            transform(rectangle(1, 1), translate=(2**60, -(2**60) - 1, 0))
        ),
        "syntax.knot": "latticeknot v1\n0 0\n",
        "embedded.knot": "latticeknot v1\n0 0 0\n1 0 0\n0 0 0\n0 1 0\n",
        "open.knot": "latticeknot v1\n0 0 0\n2 0 0\n2 1 0\n0 1 0\n0 0 1\n",
        "range.knot": "latticeknot v1\n%d 0 0\n%d 0 0\n%d 1 0\n%d 1 0\n" % ((2**63, 2**63 - 1) * 2),
        "empty.knot": "",
        "nomoves.knot": "latticeknot v1\nmoves: XXy\n",
    }
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")


def cases() -> list[list[str]]:
    out: list[list[str]] = []
    for f in GOOD + BAD:
        out += [["validate", f], ["compute", f], ["certify", f], ["gromov1", f],
                ["heatmap", f, "--csv", "-"], ["scale", f, "--factor", "2"]]
    for f in GOOD:
        out += [
            ["compute", "--pretty", f],
            ["compute", "--with-heatmap", f],
            ["gromov1", "--pretty", f],
            ["scale", f, "--factor", "3", "--form", "moves"],
            ["scale", f, "--factor", "1", "--form", "vertices"],
        ]
    for f in LONG:
        out += [["compute", "--with-heatmap", f], ["heatmap", f, "--csv", "-"]]
    for f in ("square.knot", "far.knot", "random600.knot"):
        out.append(["compute", "--with-heatmap", "--pretty", f])
    out += [
        ["scale", "square.knot", "--factor", "2", "-o", "out.knot"],
        ["scale", "square.knot", "--factor", "2", "--output", "out.knot", "--form", "moves"],
        ["scale", "square.knot", "--factor", "0"],
        ["scale", "square.knot", "--factor", "-3"],
        ["scale", "square.knot", "--factor", "x"],
        ["scale", "square.knot"],
        ["scale", "square.knot", "--factor", "2", "--form", "xml"],
        ["scale", "huge.knot", "--factor", "2"],
        ["compute", "huge.knot"],
        ["gromov1", "far60.knot"],
        ["gromov1", "--pretty", "far60.knot"],
        ["heatmap", "rect23.knot", "--csv", "out.csv"],
        ["heatmap", "rect23.knot"],
        ["generate", "--kind", "rectangle"],
        ["generate", "--kind", "rectangle", "--m", "2", "--n", "3"],
        ["generate", "--kind", "rectangle", "--m", "0", "--n", "3"],
        ["generate", "--kind", "rectangle", "--m", "2", "--form", "moves"],
        ["generate", "--kind", "torus"],
        ["generate", "--kind", "torus", "--p", "3", "--q", "2", "--scale", "2"],
        ["generate", "--kind", "torus", "--p", "2", "--q", "4"],
        ["generate", "--kind", "torus", "--p", "1", "--q", "3"],
        ["generate", "--kind", "torus", "--scale", "1"],
        ["generate", "--kind", "random"],
        ["generate", "--kind", "random", "--length", "12", "--seed", "5", "--form", "moves"],
        ["generate", "--kind", "random", "--length", "7"],
        ["generate", "--kind", "random", "--seed", "3", "-o", "out.knot"],
        ["generate", "--kind", "mystery"],
        ["generate"],
        ["generate", "--kind", "rectangle", "--m", "x"],
        ["enumerate", "--max-edges", "8"],
        ["enumerate", "--max-edges", "12"],
        ["enumerate", "--max-edges", "5"],
        ["enumerate", "--max-edges", "3"],
        ["enumerate"],
        [],
        ["frobnicate"],
        ["compute"],
        ["compute", "--threads", "2", "square.knot"],
        ["compute", "--no-prune", "square.knot"],
        ["gromov1", "--no-prune", "square.knot"],
        ["certify", "--no-prune", "square.knot"],
        ["validate", "square.knot", "extra"],
        ["certify", "--pretty", "square.knot"],
    ]
    return out


def digest(argv: list[str]) -> str:
    """sha256 of one CLI run; call with the temporary directory as cwd."""
    Path("out.knot").unlink(missing_ok=True)
    Path("out.csv").unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    written = [p.read_text(encoding="utf-8") for p in (Path("out.knot"), Path("out.csv"))
               if p.exists()]
    record = json.dumps([argv, code, stdout.getvalue(), stderr.getvalue(), written])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def run_all(root: Path) -> dict[str, str]:
    write_files(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        return {" ".join(argv): digest(argv) for argv in cases()}
    finally:
        os.chdir(cwd)


@pytest.mark.skipif(sys.version_info[:2] != RECORDED_ON,
                    reason="argparse messages differ between Python versions")
def test_cli_output_matches_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_all(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [argv for argv in got if got[argv] != expected[argv]]
    assert not changed, changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {GOLDEN}")
