"""CLI surface: subcommands, exit codes, determinism."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotdist import (
    cli, engine, generators, load_knot, parse_knot, random_polygon, rectangle, serialize_vertices,
    torus_knot, transform,
)
from knotdist.cli import main
from knotdist.report import build_report
from test_generators import WALK_DEAD_END


@pytest.fixture()
def square_file(tmp_path: Path) -> Path:
    path = tmp_path / "square.knot"
    path.write_text(serialize_vertices(rectangle(1, 1)), encoding="utf-8")
    return path


@pytest.fixture()
def rect14_file(tmp_path: Path) -> Path:
    path = tmp_path / "rect1x4.knot"
    path.write_text(serialize_vertices(rectangle(1, 4)), encoding="utf-8")
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys, square_file):
        code, out, _ = run(capsys, ["validate", str(square_file)])
        assert code == 0
        assert out.strip() == "ok"

    def test_violations_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.knot"
        bad.write_text("latticeknot v1\n0 0 0\n1 0 0\n0 0 0\n0 1 0\n", encoding="utf-8")
        code, _, err = run(capsys, ["validate", str(bad)])
        assert code == 1
        assert "not_embedded" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["validate", str(tmp_path / "nope.knot")])
        assert code == 1
        assert err


class TestCompute:
    def test_square_report(self, capsys, square_file):
        code, out, _ = run(capsys, ["compute", str(square_file)])
        assert code == 0
        doc = json.loads(out)
        assert doc["n_edges"] == 4
        assert doc["delta"] == {"num": 1, "den": 1, "decimal": "1.000000"}
        assert doc["gromov1"]["num"] == 2
        assert doc["certificate"]["verdict"] == "unknot_certified"
        assert "heatmap" not in doc

    def test_no_prune_option_rejected(self, capsys, square_file):
        for command in ("compute", "gromov1", "certify"):
            code, out, err = run(capsys, [command, "--no-prune", str(square_file)])
            assert code == 1, command
            assert out == ""
            assert err.startswith("usage error:")

    def test_heatmap_report_is_the_report_plus_its_heatmap(
        self, capsys, square_file, rect14_file, tmp_path
    ):
        # the heatmap only adds a field: the rows at delta are exactly
        # the vertices of the witness pairs
        paths = [square_file, rect14_file]
        for name, knot in (("t23", torus_knot(2, 3, 2)), ("t388", torus_knot(2, 3, 8)),
                           ("r1x99", rectangle(1, 99)), ("rand600", random_polygon(600, 0))):
            paths.append(tmp_path / f"{name}.knot")
            paths[-1].write_text(serialize_vertices(knot), encoding="utf-8")
        for path in paths:
            _, plain, _ = run(capsys, ["compute", str(path)])
            _, full, _ = run(capsys, ["compute", "--with-heatmap", str(path)])
            assert plain.endswith("}\n")
            head, tail = plain[:-2] + ',"heatmap":', "}\n"
            assert full.startswith(head) and full.endswith(tail), path
            rows = json.loads(full[len(head) : -len(tail)])
            doc = json.loads(plain)
            assert len(rows) == doc["n_edges"], path
            delta = doc["delta"]
            at_delta = {tuple(r["vertex"]) for r in rows
                        if r["num"] * delta["den"] == delta["num"] * r["den"]}
            assert at_delta == {tuple(v) for pair in doc["witnesses"] for v in pair}, path

    def test_pretty_is_equivalent(self, capsys, square_file):
        _, compact, _ = run(capsys, ["compute", str(square_file)])
        _, pretty, _ = run(capsys, ["compute", "--pretty", str(square_file)])
        assert json.loads(compact) == json.loads(pretty)

    def test_with_heatmap(self, capsys, rect14_file):
        _, out, _ = run(capsys, ["compute", "--with-heatmap", str(rect14_file)])
        doc = json.loads(out)
        assert len(doc["heatmap"]) == 10
        best = max(r["num"] / r["den"] for r in doc["heatmap"])
        assert best == doc["delta"]["num"] / doc["delta"]["den"]

    def test_witnesses_sorted(self, capsys, tmp_path):
        path = tmp_path / "sq22.knot"
        path.write_text(serialize_vertices(rectangle(2, 2)), encoding="utf-8")
        _, out, _ = run(capsys, ["compute", str(path)])
        doc = json.loads(out)
        assert doc["witnesses"] == sorted(doc["witnesses"])
        assert [[0, 1, 0], [2, 1, 0]] in doc["witnesses"]


class TestGromov1:
    def test_square(self, capsys, square_file):
        code, out, _ = run(capsys, ["gromov1", str(square_file)])
        assert code == 0
        doc = json.loads(out)
        assert doc["gromov1"] == {"num": 2, "den": 1, "decimal": "2.000000"}
        assert [[0, 0.5, 0], [1, 0.5, 0]] in doc["witnesses"]


class TestCertify:
    def test_square_certified(self, capsys, square_file):
        code, out, _ = run(capsys, ["certify", str(square_file)])
        assert code == 0
        assert out.startswith("unknot_certified")

    def test_rect14_inconclusive(self, capsys, rect14_file):
        code, out, _ = run(capsys, ["certify", str(rect14_file)])
        assert code == 0
        assert out.startswith("inconclusive")


class TestScaleGenerate:
    def test_scale_roundtrip(self, capsys, square_file, tmp_path):
        out_path = tmp_path / "sq2.knot"
        code, _, _ = run(
            capsys, ["scale", str(square_file), "--factor", "2", "-o", str(out_path)]
        )
        assert code == 0
        _, out, _ = run(capsys, ["compute", str(out_path)])
        assert json.loads(out)["n_edges"] == 8

    def test_scale_bad_factor(self, capsys, square_file):
        code, _, err = run(capsys, ["scale", str(square_file), "--factor", "0"])
        assert code == 1
        assert err

    def test_generate_rectangle_stdout(self, capsys):
        code, out, _ = run(capsys, ["generate", "--kind", "rectangle", "--m", "1", "--n", "1"])
        assert code == 0
        assert out == serialize_vertices(rectangle(1, 1))

    def test_generate_rectangle_sides(self, capsys):
        code, out, _ = run(capsys, ["generate", "--kind", "rectangle", "--m", "2", "--n", "3"])
        assert code == 0
        assert out == serialize_vertices(rectangle(2, 3))

    def test_generate_torus_flags(self, capsys):
        code, out, _ = run(
            capsys, ["generate", "--kind", "torus", "--p", "3", "--q", "2", "--scale", "2"]
        )
        assert code == 0
        assert out == serialize_vertices(torus_knot(3, 2, 2))
        assert out != serialize_vertices(torus_knot(2, 3, 2))
        assert out != serialize_vertices(torus_knot(3, 2, 3))

    def test_generate_random_deterministic(self, capsys):
        argv = ["generate", "--kind", "random", "--length", "12", "--seed", "9"]
        first = run(capsys, argv)
        assert first == run(capsys, argv)
        assert first == (0, serialize_vertices(random_polygon(12, 9)), "")

    def test_generate_unknown_kind(self, capsys):
        code, out, err = run(capsys, ["generate", "--kind", "mystery"])
        assert (code, out) == (1, "")
        assert err.startswith("usage error:")

    def test_generate_random_moves_form(self, capsys, tmp_path):
        out_path = tmp_path / "rand.knot"
        code, _, _ = run(
            capsys,
            ["generate", "--kind", "random", "--length", "12", "--seed", "5",
             "-o", str(out_path), "--form", "moves"],
        )
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("latticeknot v1\nmoves: ")
        _, out, _ = run(capsys, ["compute", str(out_path)])
        assert json.loads(out)["n_edges"] == 12

    def test_generate_bad_params(self, capsys):
        code, _, err = run(capsys, ["generate", "--kind", "torus", "--p", "2", "--q", "4"])
        assert code == 1
        assert "coprime" in err


class TestSizeCap:
    """Requests past cli.MAX_EDGES are refused before anything is built.

    The cap is lowered to 100 here, so no test ever asks for a large knot,
    and the function that would build the knot is replaced by one that fails.
    """

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_EDGES", 100)

    @staticmethod
    def refuse(*args):
        raise AssertionError("a refused request built a knot")

    def assert_refused(self, capsys, monkeypatch, maker, argv):
        monkeypatch.setattr(cli, maker, self.refuse)
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "usage error: request too large: it would build more than 100 lattice points\n"

    def test_rectangle(self, capsys, monkeypatch):
        argv = ["generate", "--kind", "rectangle", "--m", "30", "--n"]
        code, out, _ = run(capsys, argv + ["20"])
        assert (code, out) == (0, serialize_vertices(rectangle(30, 20)))
        self.assert_refused(capsys, monkeypatch, "rectangle", argv + ["21"])

    def test_random_length(self, capsys, monkeypatch):
        argv = ["generate", "--kind", "random", "--length"]
        assert run(capsys, argv + ["100"])[0] == 0
        self.assert_refused(capsys, monkeypatch, "random_polygon", argv + ["102"])

    def test_torus_scale(self, capsys, monkeypatch):
        # invalid parameters keep their own message
        code, _, err = run(capsys, ["generate", "--kind", "torus", "--p", "-5", "--scale", "9"])
        assert code == 1 and err.startswith("error: torus knot parameters")
        # counted by the curve points it samples, far more than its edges
        self.assert_refused(capsys, monkeypatch, "torus_knot", ["generate", "--kind", "torus"])

    def test_scale_factor(self, capsys, monkeypatch, square_file):
        argv = ["scale", str(square_file), "--factor"]
        assert run(capsys, argv + ["25"])[0] == 0
        self.assert_refused(capsys, monkeypatch, "scale", argv + ["26"])


class TestEnumerateCap:
    """enumerate --max-edges past cli.MAX_ENUMERATE_EDGES is refused before
    anything is enumerated; the cap is lowered to 6 here."""

    def test_refused_above_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ENUMERATE_EDGES", 6)
        assert run(capsys, ["enumerate", "--max-edges", "6"])[0] == 0
        monkeypatch.setattr(cli, "exhaustive_small", TestSizeCap.refuse)
        code, out, err = run(capsys, ["enumerate", "--max-edges", "7"])
        assert (code, out) == (1, "")
        assert err == "usage error: --max-edges is limited to 6\n"


def test_knot_past_the_int32_kernel_exits_one(capsys, monkeypatch, rect14_file):
    # the bound is lowered, so no test builds a knot of 7 * 10^8 edges
    monkeypatch.setattr(engine, "MAX_SWEEP_EDGES", 9)
    for argv in (["compute", str(rect14_file)], ["compute", "--with-heatmap", str(rect14_file)],
                 ["certify", str(rect14_file)], ["heatmap", str(rect14_file), "--csv", "-"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "error: knot has 10 edges; the int32 band kernel takes at most 9\n"
    monkeypatch.setattr(engine, "MAX_SWEEP_EDGES", 10)
    assert run(capsys, ["compute", str(rect14_file)])[0] == 0


def test_heatmap_past_the_float64_key_exits_one(capsys, monkeypatch, tmp_path):
    # the shortest knot past the heatmap's cap, which keeps its float64
    # keys exact, is refused before any band is evaluated; the commands
    # that run only the branch and bound still take it
    cap = engine.MAX_HEATMAP_EDGES
    path = tmp_path / "long.knot"
    path.write_text(serialize_vertices(rectangle(1, cap // 2)), encoding="utf-8")

    def refuse(*args):
        raise AssertionError("a band was evaluated")

    with monkeypatch.context() as m:
        m.setattr(engine, "_taxicab", refuse)
        for argv in (["compute", "--with-heatmap", str(path)],
                     ["heatmap", str(path), "--csv", "-"]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (1, "")
            assert err == f"error: knot has {cap + 2} edges; the heatmap takes at most {cap}\n"
    for argv in (["compute", str(path)], ["certify", str(path)]):
        assert run(capsys, argv)[0] == 0


def test_unreachable_random_length_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(generators, "_WALK_NODE_BUDGET", 10)
    code, out, err = run(capsys, ["generate", "--kind", "random", "--length", "12"])
    assert (code, out) == (1, "")
    assert err == "error: polygon length must be at most 11, got 12\n"


def test_generator_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(generators, "_repair_touches", lambda walk: None)
    code, out, err = run(capsys, ["generate", "--kind", "torus", "--scale", "2"])
    assert (code, out) == (2, "")
    assert err == ("internal error: could not realise torus knot (2, 3) on the lattice; "
                   "tried scales [2, 3, 4, 5]\n")
    length, seed = WALK_DEAD_END
    monkeypatch.setattr(generators, "_WALK_NODE_BUDGET", length - 1)
    code, out, err = run(capsys, ["generate", "--kind", "random", "--length", str(length),
                                  "--seed", str(seed)])
    assert (code, out) == (2, "")
    assert err == (f"internal error: no closed self-avoiding polygon of length {length} "
                   f"found for seed {seed}\n")


class TestHeatmapCommand:
    def test_csv_matches_report(self, capsys, rect14_file, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, ["heatmap", str(rect14_file), "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "index,x,y,z,value_num,value_den,value_decimal"
        assert len(lines) == 11
        values = [tuple(map(int, row.split(",")[4:6])) for row in lines[1:]]
        _, out, _ = run(capsys, ["compute", str(rect14_file)])
        doc = json.loads(out)
        best = max(values, key=lambda nd: nd[0] / nd[1])
        assert best[0] * doc["delta"]["den"] == doc["delta"]["num"] * best[1]

    def test_runs_the_row_sweep_alone(self, capsys, monkeypatch, rect14_file):
        _, want, _ = run(capsys, ["heatmap", str(rect14_file), "--csv", "-"])

        def refuse(*args):
            raise AssertionError("the heatmap command ran the branch and bound")

        monkeypatch.setattr(engine._Sweep, "_refine", refuse)
        code, out, _ = run(capsys, ["heatmap", str(rect14_file), "--csv", "-"])
        assert code == 0 and out == want


class TestEnumerate:
    def test_jsonl_output(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "--max-edges", "6"])
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert len(docs) == 4
        assert {d["n_edges"] for d in docs} == {4, 6}
        deltas = {(d["delta"]["num"], d["delta"]["den"]) for d in docs}
        assert (1, 1) in deltas


class TestErrors:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 1
        assert err

    def test_syntax_error_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "syntax.knot"
        bad.write_text("latticeknot v1\n0 0\n", encoding="utf-8")
        code, _, err = run(capsys, ["compute", str(bad)])
        assert code == 1
        assert "line" in err

    def test_threads_option_rejected(self, capsys, square_file):
        code, out, err = run(capsys, ["compute", "--threads", "2", str(square_file)])
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")

    def test_overflow_exit_two(self, capsys, tmp_path):
        # these validate and compute like their translates at the origin,
        # but cannot be scaled by 2 within 64-bit coordinates
        for knot, far in ((rectangle(1, 1), 3 * 2**60), (rectangle(3, 5), 2**61)):
            path = tmp_path / "huge.knot"
            path.write_text(
                serialize_vertices(transform(knot, translate=(far, 0, 0))), encoding="utf-8"
            )
            assert run(capsys, ["validate", str(path)])[0] == 0
            code, out, _ = run(capsys, ["compute", str(path)])
            assert code == 0
            assert json.loads(out)["gromov1"] == build_report(knot)["gromov1"]
            assert run(capsys, ["certify", str(path)])[0] == 0
            code, _, err = run(capsys, ["scale", str(path), "--factor", "2"])
            assert code == 2
            assert "64-bit" in err

    @pytest.mark.parametrize("corner", [-(2**63), 2**62, 2**63, 2**64])
    def test_out_of_range_exit_one(self, capsys, tmp_path, corner):
        path = tmp_path / "far.knot"
        path.write_text(
            "latticeknot v1\n%d 0 0\n%d 0 0\n%d 1 0\n%d 1 0\n"
            % (corner, corner - 1, corner - 1, corner),
            encoding="utf-8",
        )
        code, out, err = run(capsys, ["validate", str(path)])
        assert (code, out) == (1, "")
        assert "violation [out_of_range]: vertex 0 exceeds the coordinate range" in err
        for command in ("compute", "certify"):
            code, out, err = run(capsys, [command, str(path)])
            assert (code, out) == (1, "")
            assert "exceeds the coordinate range" in err

    @pytest.mark.parametrize("rest, message", [("bad line", "line 3: expected"),
                                               ("1 0 0", "Exceeds the limit")])
    def test_digit_limit_exit_one(self, capsys, tmp_path, rest, message):
        # a token past int()'s 4,300 digits is an error, not a traceback
        path = tmp_path / "long.knot"
        path.write_text(f"latticeknot v1\n{'9' * 5000} 0 0\n{rest}\n", encoding="utf-8")
        code, out, err = run(capsys, ["compute", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1


def test_main_builds_no_parser_per_call(capsys, monkeypatch, square_file):
    def rebuild():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    assert run(capsys, ["validate", str(square_file)]) == (0, "ok\n", "")
    assert run(capsys, ["certify", str(square_file)])[0] == 0


# small integers only: a huge --m, --length or --factor allocates without limit
ARG_PIECES = ["--kind", "rectangle", "torus", "random", "mystery", "--m", "--n", "--p", "--q",
              "--scale", "--length", "--seed", "--max-edges", "--factor", "--form", "moves",
              "vertices", "x", "", "-"]


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["generate", "enumerate", "scale"]),
    args=st.lists(st.one_of(st.sampled_from(ARG_PIECES), st.integers(-2, 7).map(str)),
                  max_size=8),
)
def test_any_arguments_exit_zero_one_or_two(tmp_path_factory, command, args):
    path = tmp_path_factory.getbasetemp() / "square-args.knot"
    path.write_text(serialize_vertices(rectangle(1, 1)), encoding="utf-8")
    argv = [command] + ([str(path)] if command == "scale" else []) + args
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv


FILE_PIECES = ["0", "1", "\u0661", "-", "+", " ", "\t", "\x1f", "\xa0", "\n", "\r", "\r\n",
               "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029", "#", "latticeknot v1\n",
               "moves: ", "XYxy", "1 0 0\n", "0 1 0\n", "1 1 0\n", str(2**63)]


@settings(max_examples=100, deadline=None)
@given(text=st.lists(st.sampled_from(FILE_PIECES), max_size=30).map("".join))
def test_any_file_text_exits_zero_one_or_two(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed.knot"
    path.write_text(text, encoding="utf-8")
    for command in (["validate"], ["certify"], ["compute"], ["gromov1"],
                    ["heatmap", "--csv", "-"], ["scale", "--factor", "2"]):
        argv = command[:1] + [str(path)] + command[1:]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), (argv, text)


def outcome(run):
    """What run() returns, or the type and message of what it raises."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


# the soups as raw bytes: line ends that universal newlines would turn into
# "\n", separators splitlines ends lines at, and a byte that is not UTF-8
BYTE_PIECES = [piece.encode() for piece in FILE_PIECES] + [
    b"\r\n", b"\r", "\x1c".encode(), "\x85".encode(), b"\xff"]


@settings(max_examples=200, deadline=None)
@given(data=st.lists(st.sampled_from(BYTE_PIECES), max_size=30).map(b"".join))
@example(data=b"latticeknot v1\r\n0 0 0\r1 0 0\r\n1 1 0\n0 1 0\r")
@example(data="latticeknot v1 # c\r\x85 0 0 0\r\n1 0 0\n1 1 0\x1c0 1 0\r#".encode())
@example(data=b"latticeknot v1\n0 0 0\n1 0 0\n1 1 0\n0 1 \xff\n")
def test_bytes_and_text_readers_agree(tmp_path_factory, data):
    # load_knot reads bytes; the text read decodes and turns "\r\n" and
    # "\r" into "\n"; validate reads bytes as load_knot does
    path = tmp_path_factory.getbasetemp() / "raw.knot"
    path.write_bytes(data)
    loaded = outcome(lambda: load_knot(path))
    assert loaded == outcome(lambda: parse_knot(path.read_text(encoding="utf-8"))), data
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        valid = main(["validate", str(path)]) == 0
    assert valid == (not isinstance(loaded, tuple)), data


def cli_outcome(argv):
    """main(argv)'s exit code (a help request's SystemExit too), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(sorted(cli._PARSER.commands)),
    args=st.lists(st.one_of(st.sampled_from(ARG_PIECES + ["square"]),
                            st.integers(-2, 7).map(str)), max_size=6),
)
@example(command=None, args=[])
@example(command=None, args=["-h"])
@example(command="compute", args=["-h"])
@example(command="frobnicate", args=["square"])
def test_one_parse_pass_matches_the_whole_parser(tmp_path_factory, command, args):
    # main hands a command's arguments to its own parser; with no commands
    # to look up, it parses everything through _PARSER as before
    path = tmp_path_factory.getbasetemp() / "square-dispatch.knot"
    path.write_text(serialize_vertices(rectangle(1, 1)), encoding="utf-8")
    argv = ([] if command is None else [command]) + [
        str(path) if arg == "square" else arg for arg in args]
    direct = cli_outcome(argv)
    commands = cli._PARSER.commands
    try:
        cli._PARSER.commands = {}
        assert direct == cli_outcome(argv), argv
    finally:
        cli._PARSER.commands = commands
