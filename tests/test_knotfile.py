"""Knot file parsing, serialization, round trips, diagnostics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knotdist.knotfile
from knotdist import (
    InvalidKnotError,
    KnotFileError,
    knot_from_moves,
    load_knot,
    move_string,
    parse_knot,
    parse_vertices,
    random_polygon,
    rectangle,
    save_knot,
    serialize,
    serialize_moves,
    serialize_vertices,
    transform,
    validate,
    vertex_distortion,
)
from knotdist.knotfile import _vertex_body
from conftest import (
    REFERENCE_VERTEX_FILE_RE,
    reference_parse_knot,
    reference_parse_vertices,
    reference_validate,
)

SQUARE_FILE = """latticeknot v1
# the smallest lattice knot
0 0 0
1 0 0
1 1 0
0 1 0
"""


def square_file(gap=" ", end="\n"):
    """SQUARE_FILE's vertices, with gap between tokens and end after lines."""
    rows = ["latticeknot v1", "0 0 0", "1 0 0", "1 1 0", "0 1 0"]
    return end.join([rows[0]] + [row.replace(" ", gap) for row in rows[1:]]) + end


class TestParse:
    def test_vertex_form(self):
        knot = parse_knot(SQUARE_FILE)
        assert knot == rectangle(1, 1)

    def test_move_form(self):
        assert parse_knot("latticeknot v1\nmoves: XYxy\n") == rectangle(1, 1)

    def test_comments_and_blank_lines(self):
        text = "# leading comment\nlatticeknot v1\n\n0 0 0\n1 0 0 # inline\n1 1 0\n0 1 0\n"
        assert parse_knot(text) == rectangle(1, 1)

    def test_missing_header(self):
        with pytest.raises(KnotFileError):
            parse_knot("0 0 0\n1 0 0\n1 1 0\n0 1 0\n")

    def test_syntax_error_cites_line(self):
        with pytest.raises(KnotFileError) as err:
            parse_knot("latticeknot v1\n0 0 0\n1 0 zero\n")
        assert err.value.line == 3

    def test_open_moves_rejected(self):
        with pytest.raises(KnotFileError) as err:
            parse_knot("latticeknot v1\nmoves: XYX\n")
        assert "does not close" in str(err.value)

    def test_odd_move_strings_never_close(self):
        for moves in ("X", "XXx", "XYZ", "XYxyX"):
            with pytest.raises(KnotFileError):
                parse_knot(f"latticeknot v1\nmoves: {moves}\n")

    def test_bad_move_alphabet(self):
        with pytest.raises(KnotFileError):
            parse_knot("latticeknot v1\nmoves: XYQy\n")

    def test_invalid_polygon_reports_violations(self):
        text = "latticeknot v1\n0 0 0\n1 0 0\n0 0 0\n0 1 0\n"
        with pytest.raises(InvalidKnotError) as err:
            parse_knot(text)
        assert "not_embedded" in err.value.result.codes()

    def test_first_vertex_must_not_be_repeated_at_end(self):
        text = "latticeknot v1\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n0 0 0\n"
        with pytest.raises(InvalidKnotError) as err:
            parse_knot(text)
        assert "not_embedded" in err.value.result.codes()

    def test_empty_file(self):
        with pytest.raises(KnotFileError):
            parse_knot("\n# nothing here\n")


class TestRoundTrip:
    def test_vertex_form_round_trip(self, small_corpus, trefoil):
        for knot in small_corpus + [trefoil]:
            assert parse_knot(serialize_vertices(knot)) == knot

    def test_move_form_round_trip_from_origin(self, small_corpus):
        for knot in small_corpus:
            if knot.vertices[0] != (0, 0, 0):
                continue
            assert parse_knot(serialize_moves(knot)) == knot

    def test_move_form_anchors_to_origin(self):
        moved = transform(rectangle(2, 3), translate=(5, -1, 7))
        again = parse_knot(serialize_moves(moved))
        assert again == rectangle(2, 3)
        assert move_string(again) == move_string(moved)

    def test_move_string_alphabet(self, trefoil):
        assert set(move_string(trefoil)) <= set("XxYyZz")
        assert len(move_string(trefoil)) == trefoil.n

    def test_knot_from_moves(self):
        assert knot_from_moves("XYxy") == rectangle(1, 1)
        with pytest.raises(KnotFileError, match="does not close") as raised:
            knot_from_moves("XYx")
        assert raised.value.line is None

    def test_save_and_load(self, tmp_path, trefoil):
        far = transform(trefoil, translate=(2**40, -3, 0))
        for knot, form in ((far, "vertices"), (rectangle(2, 3), "moves")):
            save_knot(knot, tmp_path / "k.knot", form)
            assert load_knot(tmp_path / "k.knot") == knot

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="unknown knot file form 'xml'"):
            serialize(rectangle(1, 1), "xml")

    def test_single_space_serialization(self):
        lines = serialize_vertices(rectangle(1, 1)).splitlines()
        assert lines[1] == "0 0 0"
        assert lines[2] == "1 0 0"


# every line boundary of str.splitlines, and whitespace that ends no line
LINE_ENDS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
             "\x85", "\u2028", "\u2029"]
GAPS = [" ", "\t", "\x1f", "\xa0"]
PIECES = (["0", "1", "7", "\u0661", "+", "-", "#", "latticeknot v1", "moves:", "X", "y", "Z"]
          + GAPS + LINE_ENDS)
soup = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)
gap = st.lists(st.sampled_from(GAPS), min_size=1, max_size=2).map("".join)
pad = st.lists(st.sampled_from(GAPS), max_size=2).map("".join)
line_end = st.sampled_from(LINE_ENDS)
# translations that cross the int64 and the doubled-coordinate limits
offsets = st.sampled_from([0, 2**30, 2**62 - 8, -(2**62), 2**63 - 3, -(2**63), 2**64])
offsets |= st.integers(-(2**65), 2**65)


@st.composite
def integer_token(draw, c):
    digits = "0" * draw(st.integers(0, 2)) + str(abs(c))
    if draw(st.booleans()):
        digits = digits.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663"
                                                "\u0664\u0665\u0666\u0667\u0668\u0669"))
    sign = "-" if c < 0 else draw(st.sampled_from(["", "+"]))
    return sign + digits


@st.composite
def vertex_files(draw):
    """Vertex-form files with every separator, and sometimes one flaw."""
    length, seed = draw(st.sampled_from([4, 6, 8, 12])), draw(st.integers(0, 3))
    vertices = random_polygon(length, seed).true_vertices()
    offset = draw(offsets)
    vertices = [(x + offset, y, z) for x, y, z in vertices]
    flaw = draw(st.sampled_from(["none", "none", "drop", "repeat", "junk"]))
    lines = [draw(gap).join([draw(integer_token(c)) for c in v]) for v in vertices]
    at = draw(st.integers(0, len(lines) - 1))
    if flaw == "drop":
        del lines[at]
    elif flaw == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), lines[at])
    elif flaw == "junk":
        lines[at] = draw(soup)
    text = draw(st.sampled_from(["", "# comment", "\n"])) + draw(line_end)
    text += draw(pad) + "latticeknot v1" + draw(pad) + draw(st.sampled_from(["", "# v1"]))
    for line in lines:
        text += draw(line_end) + draw(st.sampled_from(["", "\n", "\t"]))
        text += draw(pad) + line + draw(pad) + draw(st.sampled_from(["", "#", "# 1 2 3"]))
    return text + draw(st.sampled_from(["", "\n", "\r\n \n"]))


# characters on both sides of every byte-class boundary of _vertex_body
GUARD_SEPARATORS = [" ", "\t", "\x1f", "\n", "\r", "\x0b", "\x1c"]
GUARD_PIECES = ["0", "7", "+", "-", *GUARD_SEPARATORS, "\x85", "\u3000", "\xa0", "\u0661",
                "x", ".", "latticeknot v1", "\n1 2 3"]


@st.composite
def guard_texts(draw):
    """Texts at the edges of the vertex-file grammar: an optional header,
    then vertex lines and single pieces, each after some separators."""
    separators = st.lists(st.sampled_from(GUARD_SEPARATORS), max_size=2).map("".join)
    content = st.sampled_from(GUARD_PIECES + ["1 2 3", "-7\t+0 00"] * 10)
    text = "".join(map("".join, draw(st.lists(st.tuples(separators, content), max_size=8))))
    if draw(st.integers(0, 3)):
        text = draw(st.sampled_from(["", " ", "\n\t", "\xa0"])) + "latticeknot v1" + text
    return text


def outcome(parse, text):
    """A parser's vertices as tuples of ints, or its exception."""
    try:
        vertices = parse(text)
    except Exception as exc:  # compared type and message against the reference
        return type(exc), str(exc), getattr(exc, "line", None)
    return [tuple(int(c) for c in v) for v in vertices]


class TestAgainstReferenceParser:
    """parse_vertices and validate against the line-by-line reference, and
    the vertex-file guard against the whole-text regex."""

    def check(self, text):
        got = outcome(parse_vertices, text)
        assert got == outcome(reference_parse_vertices, text), repr(text)
        if isinstance(got, list):
            want = reference_validate(got)
            assert validate(parse_vertices(text)) == want, repr(text)
            if want.ok:
                knot = parse_knot(text)
                assert knot == reference_parse_knot(text)
                assert knot.coords.tolist() == [list(v) for v in knot.vertices]

    @settings(max_examples=300, deadline=None)
    @given(text=soup)
    def test_token_soup(self, text):
        self.check("latticeknot v1\n" + text)
        self.check(text)

    @settings(max_examples=150, deadline=None)
    @given(text=vertex_files())
    def test_vertex_files(self, text):
        self.check(text)

    def test_reference_cases(self):
        for text in [
            SQUARE_FILE,
            SQUARE_FILE.replace("\n", "\r\n"),
            SQUARE_FILE.replace(" ", "\x1f"),
            "latticeknot v1\n0 0 0\n1 0 0 \x1c 1 1 0\n0 1 0\n",  # \x1c ends a line
            "latticeknot v1\n0 0 0\n1 0 0\n1 1 0\n0 1 0 5\n",
            "latticeknot v1 # v1\n\u0661 0 0\n2 0 0\n2 1 0\n1 1 0\n",
            "latticeknot v1\n%d 0 0\n1 0 0\n" % 2**64,
            # tokens at and past the int64 extremes, which fromstring saturates
            *("latticeknot v1\n%d %d 0\n1 0 0\n" % (v, -v)
              for v in (2**63 - 1, 2**63, 2**63 + 1, 10**20 - 1)),
            "latticeknot v1\n-99999999999999999999 0 0\n1 0 0\n",
            "latticeknot v1\n+0 -0 000\n+1 -0 0\n001 +1 -0\n-0000 1 0\n",
            "latticeknot v1\n-0009 0 0\n-8 0 0\n-08 007 0\n-0009 +7 0\n",
            # a Unicode digit and separators that fromstring refuses
            "latticeknot v1\n\u0660 0 0\n1 0 0\n1 1 0\n0 1 0\n",
            square_file("\xa0"),
            square_file("\u3000"),
            square_file(end="\x1c"),
            "latticeknot v1\nmoves: XYxy\n",
            "latticeknot v1\nmoves: XY xy\n",
            "latticeknot v1\n\n",
            "latticeknot v1\n\r#\n0",  # the cut comment must not join \r and \n
            "latticeknot v10\n0 0 0\n",
            "",
        ]:
            self.check(text)

    COMMENTED = "# c\r\n latticeknot v1 #\r\n\r\n0\t0 0 # a{}1 0 0\n1 1 0{}0 1 0\n"

    def line_reader_calls(self, monkeypatch):
        """The texts handed to the line reader from here on."""
        read, real = [], knotdist.knotfile._significant_lines

        def significant_lines(text):
            read.append(text)
            return real(text)

        monkeypatch.setattr(knotdist.knotfile, "_significant_lines", significant_lines)
        return read

    def test_valid_files_skip_the_line_loop(self, monkeypatch):
        # ASCII vertex files are read by fromstring alone and must agree
        # with the reference without reaching the line reader
        read = self.line_reader_calls(monkeypatch)
        six_digits = transform(random_polygon(200, 1), translate=(123456, -654321, 999999))
        far = transform(random_polygon(12, 5), translate=(2**30, -(2**30), 2**30 + 1))
        for text in [
            self.COMMENTED.format("\n", "\r\n"),
            "# six digits\n" + serialize_vertices(six_digits).replace("\n", " # v\r\n"),
            serialize_vertices(far),
            square_file("\t"),
            square_file(end="\n\n \n"),
            "latticeknot v1\n%d %d 0\n" % (2**63 - 2, -(2**63 - 2)),
            "latticeknot v1\n%d 0 0\n" % -(2**63 - 1),
        ]:
            assert outcome(parse_vertices, text) == outcome(reference_parse_vertices, text)
            assert read == [], repr(text)
        assert parse_knot(self.COMMENTED.format("\n", "\r\n")) == rectangle(1, 1)
        parse_knot("latticeknot v1\nmoves: XYxy\n")
        assert read == ["latticeknot v1\nmoves: XYxy\n"]

    def test_ascii_files_skip_the_token_loop(self, monkeypatch):
        # only the texts fromstring refuses or may misread reach the line
        # reader, whose loop converts the tokens one by one with int()
        read = self.line_reader_calls(monkeypatch)
        knot = transform(random_polygon(200, 1), translate=(123456, -654321, 999999))
        text = "# six digits\n" + serialize_vertices(knot).replace("\n", " # v\r\n")
        assert parse_knot(text) == knot
        assert read == []
        for text in [
            "latticeknot v1\n\u0661 0 0\n2 0 0\n2 1 0\n1 1 0\n",
            square_file("\xa0"),
            square_file("\u3000"),
            square_file("\x1f"),
            square_file(end="\x1c"),
            square_file(end="\x85"),
            square_file(end="\u2028"),
            self.COMMENTED.format("\x85", "\u2028"),
            "latticeknot v1\n%d %d 0\n" % (2**63 - 1, -(2**63 - 1)),
            "latticeknot v1\n%d 0 0\n" % -(2**63),
            "latticeknot v1\n%d %d 0\n" % (2**63, -(2**64 + 1)),
            "latticeknot v1\nmoves: XYxy\n",
            "latticeknot v1\n0 0 0\n1 0 zero\n",
        ]:
            read.clear()
            assert outcome(parse_vertices, text) == outcome(reference_parse_vertices, text)
            assert read == [text], repr(text)

    @settings(max_examples=500, deadline=None)
    @given(text=guard_texts())
    def test_guard_agrees_with_the_whole_text_regex(self, text):
        # on every text whose stripped form is ASCII; every other text now
        # goes to the line reader
        accepted = REFERENCE_VERTEX_FILE_RE.fullmatch(text) is not None
        found = _vertex_body(text)
        if text.lstrip().isascii():
            assert (found is not None) == accepted, repr(text)
        if found is not None:
            body = text.lstrip()[len("latticeknot v1"):]
            assert found == (body, len(body.split()))

    @pytest.mark.parametrize("tokens", [256, 259, 515])
    def test_token_counts_that_wrap_a_byte(self, tokens):
        # a line of 256 tokens counts 0 in uint8, of 259 or 515 counts 3
        text = "latticeknot v1\n" + " ".join(["1"] * tokens) + "\n0 0 0\n"
        assert _vertex_body(text) is None
        got = outcome(parse_vertices, text)
        assert got == outcome(reference_parse_vertices, text)
        assert got[0] is KnotFileError and got[2] == 2

    @pytest.mark.parametrize("line", ["1-2 3 4", "+-1 0 0", "- 1 0 0", "0 0 3-"])
    def test_misplaced_signs(self, line):
        for text, no in ((f"latticeknot v1\n{line}\n0 0 0\n", 2),
                         (f"latticeknot v1\n0 0 0\n{line}", 3)):
            assert _vertex_body(text) is None, repr(text)
            got = outcome(parse_vertices, text)
            assert got == outcome(reference_parse_vertices, text)
            assert got[0] is KnotFileError and got[2] == no

    def test_glued_header(self):
        for text in ["latticeknot v10\n0 0 0\n", "latticeknot v1 0\n0 0 0\n",
                     "latticeknot v1-\n0 0 0\n", "latticeknot v1 1 2 3\n"]:
            assert _vertex_body(text) is None, repr(text)
            got = outcome(parse_vertices, text)
            assert got == outcome(reference_parse_vertices, text)
            assert got[0] is KnotFileError and got[2] == 1

    def test_unit_separator_gap_reaches_the_line_reader(self, monkeypatch):
        # \x1f is whitespace inside a line to str.split, so the guard
        # passes it, but fromstring refuses it
        read = self.line_reader_calls(monkeypatch)
        text = square_file("\x1f")
        assert _vertex_body(text) is not None
        assert outcome(parse_vertices, text) == outcome(reference_parse_vertices, text)
        assert read == [text]

    def test_whitespace_before_the_header(self, monkeypatch):
        read = self.line_reader_calls(monkeypatch)
        for lead in [" ", "\xa0", "\u3000\n\t"]:
            text = lead + square_file()
            assert _vertex_body(text) == (square_file()[len("latticeknot v1"):], 12)
            assert outcome(parse_vertices, text) == outcome(reference_parse_vertices, text)
        assert read == []

    @pytest.mark.parametrize("short", [1, 3])
    def test_a_short_read_goes_to_the_line_reader(self, monkeypatch, short):
        # numpy releases that only deprecate unmatched data warn and return
        # the values read so far; fewer values than the byte-class check
        # counted tokens must not be trusted, even when they fill whole rows
        read = self.line_reader_calls(monkeypatch)
        real = np.fromstring

        def fromstring(*args, **kwargs):
            return real(*args, **kwargs)[:-short]

        monkeypatch.setattr(knotdist.knotfile.np, "fromstring", fromstring)
        for text in [SQUARE_FILE, serialize_vertices(random_polygon(200, 1))]:
            read.clear()
            assert outcome(parse_vertices, text) == outcome(reference_parse_vertices, text)
            assert read == [text]

    def test_digit_limit_comes_after_syntax(self):
        # int() refuses tokens of more than 4,300 digits; the line reader
        # converts only after every line has passed, so a later syntax
        # error is still the one reported
        big = "9" * 5000
        with pytest.raises(KnotFileError) as caught:
            parse_vertices(f"latticeknot v1\n{big} 0 0\nbad line\n")
        assert caught.value.line == 3
        with pytest.raises(ValueError, match="4300") as caught:
            parse_vertices(f"latticeknot v1\n{big} 0 0\n1 0 0\n")
        assert type(caught.value) is ValueError

    def test_overflowing_tokens_stay_exact(self):
        for big in (2**63, 2**63 + 1, 2**64 + 1, 10**20 - 1):
            got = parse_vertices(f"latticeknot v1\n{big} -{big} 0\n")
            assert got.dtype == object
            assert got.tolist() == [[big, -big, 0]]
        # fromstring reads this token as +(2**63 - 1)
        got = parse_vertices("latticeknot v1\n-99999999999999999999 0 1\n")
        assert got.dtype == object
        assert got.tolist() == [[-99999999999999999999, 0, 1]]
        for edge in (2**63 - 1, -(2**63 - 1), -(2**63)):
            got = parse_vertices(f"latticeknot v1\n{edge} 0 1\n")
            assert got.dtype == np.int64
            assert got.tolist() == [[edge, 0, 1]]
        square = "".join(f"{x - 10**20} {y} 0\n" for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(InvalidKnotError) as caught:
            parse_knot("latticeknot v1\n" + square)
        assert caught.value.result.codes() == {"out_of_range"}


def peak_memory(parse, text):
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_peak_memory_within_reference():
    text = serialize_vertices(rectangle(1, 4999))
    assert peak_memory(parse_knot, text) <= peak_memory(reference_parse_knot, text)


def test_parse_vertices_peak_memory_scales_with_the_text():
    # 10,000 lines of six-digit coordinates; the guard's byte-class arrays
    # must stay one byte per character, so a per-line count as wide as
    # intp (about 13x) fails here
    knot = transform(rectangle(1, 4999), translate=(123456, -654321, 999999))
    text = serialize_vertices(knot)
    assert peak_memory(parse_vertices, text) < 8 * len(text)


def test_vertex_distortion_peak_memory_is_the_kernel_buffers():
    # the sweep writes the shifted rows straight into its (3, 2n) int16
    # coordinates, and the branch and bound adds one buffer as large and an
    # (n,) one, about 26n bytes; an int64 copy of the rows costs 24n more
    knot = rectangle(1, 4999)
    assert knot.n == 10_000
    assert peak_memory(vertex_distortion, knot) < 32 * knot.n
