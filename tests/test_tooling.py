"""Source rules that no behavioural test can see."""

import argparse
import ast
import collections
import importlib.util
import json
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import knotdist
import knotdist.engine
from knotdist import (
    LatticePoint, cli, generators, knotfile, random_polygon, report, serialize_vertices, torus_knot,
)
from test_cli_golden import cases

PACKAGE = Path(knotdist.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# Lines in src/knotdist/*.py.  The package should shrink while its features
# stay: a change that grows it raises this number and says why, and a change
# that shrinks it lowers it.
SOURCE_LINES = 2179


def test_source_line_ratchet():
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= SOURCE_LINES, f"src/knotdist has {lines} lines, over {SOURCE_LINES}"


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


def test_no_unchecked_strided_views_in_the_package():
    # as_strided checks no bounds, so a wrong shape or stride reads outside
    # its buffer without an error; sliding_window_view gives such views checked
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "as_strided")
            or (isinstance(node, ast.Attribute) and node.attr == "as_strided")
            or (isinstance(node, ast.alias) and node.name == "as_strided")
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
    # and no output iterates the heatmap's rows
    monkeypatch.setattr(knotdist.engine, "HeatmapRow",
                        counted("HeatmapRow", knotdist.engine.HeatmapRow))
    for pretty in ([], ["--pretty"]):
        calls.clear()
        assert cli.main(["compute", "--with-heatmap", *pretty, str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["heatmap"]) == 400
        # delta and gromov1, and the two points of each witness
        assert calls == collections.Counter(format_decimal=2, as_true=2 * len(doc["witnesses"]))
    calls.clear()
    assert cli.main(["heatmap", str(path), "--csv", "-"]) == 0
    assert capsys.readouterr().out.count("\n") == 401
    assert calls == {}


def test_numpy_fromstring_contract():
    # knotfile.parse_vertices trusts np.fromstring's int64 text reading on
    # these two rules; a numpy that broke one would misread coordinates
    # without an error, so it must fail here instead
    extremes = {np.iinfo(np.int64).min, np.iinfo(np.int64).max}
    out_of_range = [2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1, 10**20 - 1, 10**40]
    out_of_range += [-v for v in out_of_range]
    got = np.fromstring(" ".join(map(str, out_of_range)), np.int64, sep=" ")
    assert len(got) == len(out_of_range)
    assert set(got.tolist()) <= extremes  # saturated, never wrapped
    for text in ["1 \x1c 2", "1\x1f2", "1\x852", "1\xa02", "1\u20282", "1\u30002",
                 "\u0661 2", "1 \ud800 2", "1 2 x"]:
        # unmatched data raises, or warns as parse_vertices turns into an error
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises((ValueError, DeprecationWarning)):
                np.fromstring(text, np.int64, sep=" ")


def load_perfbench(monkeypatch, name):
    """perfbench/<name>.py as a module, imported without writing bytecode there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_benchmark_files_take_the_c_path(monkeypatch):
    # a benchmark file read line by line would time the slow reader, which
    # only rare text (Unicode, int64 extremes, errors) should reach
    corpus = load_perfbench(monkeypatch, "corpus")

    def refuse(text):
        raise AssertionError("a benchmark file was read line by line")

    monkeypatch.setattr(knotfile, "_significant_lines", refuse)
    for name, workload in corpus.WORKLOADS.items():
        rng = random.Random(f"perfbench:{name}:1")  # perfbench/run.py's draw at seed 1
        for base in workload.full:
            vertices = corpus.generate(base, generators)
            sym = corpus.Symmetry.draw(rng, len(vertices), base.far)
            got = knotfile.parse_vertices(corpus.knot_text(vertices, sym))
            assert got.shape == (len(vertices), 3), base.name


def test_benchmark_bases_match_their_answers(monkeypatch):
    # run.py checks each operation against the answer stored for its base
    # knot, so a generator that drifted would show only as failed operations
    corpus = load_perfbench(monkeypatch, "corpus")
    answers = corpus.load_answers()["knots"]
    for workload in corpus.WORKLOADS.values():
        for base in workload.full:
            vertices = corpus.generate(base, generators)
            assert corpus.fingerprint(vertices) == answers[base.name]["sha256"], base.name


def test_benchmark_band_counts(monkeypatch, band_log):
    # the bands the branch and bound evaluates over each workload's full
    # bases, at most as many as when these limits were set; a change to
    # _refine that loosens its pruning raises them
    corpus = load_perfbench(monkeypatch, "corpus")
    limits = {"compact_compute": 407, "hairpin_certify": 215, "heatmap_report": 187}
    for name, workload in corpus.WORKLOADS.items():
        band_log.clear()
        for base in workload.full:
            vertices = corpus.generate(base, generators)
            knotdist.vertex_distortion(knotdist.LatticeKnot.from_true(vertices))
        assert len(band_log) <= limits[name], name


def test_benchmark_files_validate_on_the_int64_key(monkeypatch, key_dtypes):
    # validate keys a vertex by Python ints only when the input's box is
    # past int64; a radix that did so for a benchmark file would time the
    # object path instead
    corpus = load_perfbench(monkeypatch, "corpus")
    for name, workload in corpus.WORKLOADS.items():
        rng = random.Random(f"perfbench:{name}:1")  # perfbench/run.py's draw at seed 1
        for base in workload.full:
            vertices = corpus.generate(base, generators)
            sym = corpus.Symmetry.draw(rng, len(vertices), base.far)
            key_dtypes.clear()
            assert knotdist.validate(knotfile.parse_vertices(corpus.knot_text(vertices, sym)))
            assert key_dtypes == [np.dtype(np.int64)], base.name


def test_heatmap_benchmark_runs_the_int16_kernel(monkeypatch):
    # heatmap_report times the row sweep, which runs in int16 only while
    # 3n < 2^15; a larger base would time the int32 kernel instead
    corpus = load_perfbench(monkeypatch, "corpus")
    workload = corpus.WORKLOADS["heatmap_report"]
    for base in workload.full + workload.smoke:
        knot = knotdist.LatticeKnot.from_true(corpus.generate(base, generators))
        assert 3 * knot.n < 2**15, base.name
        assert knotdist.engine._Sweep(knot).coords.dtype == np.int16, base.name


def test_heatmap_benchmark_runs_the_float32_key(monkeypatch):
    # the row sweep keys its rows in float32 only while n^2 < 2^22, that is
    # n <= 2,046; a larger base would time the float64 key instead
    corpus = load_perfbench(monkeypatch, "corpus")
    workload = corpus.WORKLOADS["heatmap_report"]
    # the dtype of each array np.full makes: the row sweep's row_key alone
    dtypes, full = [], np.full
    monkeypatch.setattr(np, "full", lambda *args, **kwargs: dtypes.append(
        np.dtype(kwargs.get("dtype"))) or full(*args, **kwargs))
    for base in workload.full + workload.smoke:
        knot = knotdist.LatticeKnot.from_true(corpus.generate(base, generators))
        assert knot.n**2 < 2**22, base.name
        dtypes.clear()
        knotdist.heatmap(knot)
        assert dtypes == [np.dtype(np.float32)], base.name


def test_benchmark_entry_points_exist(monkeypatch):
    # the benchmark drives the CLI and wraps library functions by name, so
    # removing any of them would break it without failing another test
    corpus = load_perfbench(monkeypatch, "corpus")
    spans = load_perfbench(monkeypatch, "spans")
    for workload in corpus.WORKLOADS.values():
        cli._PARSER.parse_args([*workload.argv, "knot.knot"])
    for layer, names in spans.TARGETS.items():
        module = getattr(knotdist, layer)
        assert all(callable(getattr(module, name, None)) for name in names), layer

    # knotdist.<attr> chains, and those on names imported from knotdist
    for script in ("make_answers.py", "run.py"):
        tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
        bound = {"knotdist": knotdist}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "knotdist":
                bound.update((a.asname or a.name, getattr(knotdist, a.name)) for a in node.names)
        read = 0
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in bound:
                target = bound[node.id]
                for attr in reversed(chain):
                    assert hasattr(target, attr), (script, node.id, chain)
                    target = getattr(target, attr)
                read += 1
        assert read, script

    knot = torus_knot(2, 3, 3)
    for name in spans.SWEEP_FACTOR:
        result = getattr(knotdist.engine, name)(knot)
        assert spans._counts(name, (knot,), result)["bands"] > 0, name
