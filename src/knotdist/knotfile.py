"""The `latticeknot v1` file format.

Two bodies are accepted under the common header line: one vertex per
line as three signed integers in true coordinates (the first vertex is
not repeated at the end), or a single move line over the alphabet
X x Y y Z z (uppercase steps +1, lowercase -1) starting at the origin.
`#` starts a comment anywhere, and lines end where str.splitlines ends
them.  parse_vertices reads the vertex list only, as an (n, 3) integer
array; parse_knot also validates it.  Error messages cite line numbers.

A file is read as bytes (load_knot), and parse_vertices takes text or
UTF-8 bytes.  A vertex file is read one of two ways.  When the file past
any leading whitespace is ASCII and the classes of its bytes show the
header and three tokens on every non-blank line, numpy's text-mode
fromstring converts the tokens in C, straight from the bytes; that read
is kept only when fromstring read every token of the body and no value
is an int64 extreme, where it saturates tokens outside int64.  Every other
file (non-ASCII text, separators that fromstring refuses, tokens at or
past the int64 extremes, the move form, a syntax error) is read line by
line, which names the first bad line and converts with int() only once
every line has passed.  Bytes are decoded only where text is needed:
to cut comments, to strip non-ASCII whitespace before the header of a
non-ASCII file, and for the line reader.  Lines end where str.splitlines
ends them, so a file parses the same whether its bytes are given or its
text read with universal newlines, which turn "\r\n" and "\r" into "\n".
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import AnyStr, Optional, Union

import numpy as np

from .lattice import UNIT_STEPS, LatticeKnot, _coordinate_array

HEADER = "latticeknot v1"
_HEADER_BYTES = HEADER.encode()

_INT64 = np.iinfo(np.int64)
# the move letters, one per unit step in the order of UNIT_STEPS
MOVE_LETTERS = "XxYyZz"
_MOVE_STEPS = dict(zip(MOVE_LETTERS, UNIT_STEPS))
_MOVE_OF_STEP = {v: k for k, v in _MOVE_STEPS.items()}
# the line boundaries of str.splitlines; \r\n is two of them here, which
# only adds a blank line
_EOL = "\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_COMMENT_RE = re.compile(f"#[^{_EOL}]*+")
# whitespace inside a line; on a single stripped line this is \s
_GAP = rf"[^\S{_EOL}]"
_INT = r"[+-]?\d++"
_VERTEX = rf"{_INT}{_GAP}++{_INT}{_GAP}++{_INT}"
_VERTEX_RE = re.compile(_VERTEX)
# the class of each byte of a vertex file: 1 digit, 2 sign, 4 gap (the
# ASCII characters of _GAP), 5 line end (those of _EOL), 0 anything else,
# every byte of a non-ASCII character included
_BYTE_CLASS = bytes(
    1 if c in "0123456789" else 2 if c in "+-" else 4 if re.fullmatch(_GAP, c)
    else 5 if re.fullmatch(f"[{_EOL}]", c) else 0
    for c in map(chr, range(128))
) + bytes(128)


class KnotFileError(ValueError):
    """Syntax or closure error in a knot file; carries the line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line))
    return out


def _vertex_body(code: AnyStr) -> Optional[tuple[AnyStr, int]]:
    """The text or bytes after the header and the number of tokens in them
    when code is a vertex file, else None.

    Past any leading whitespace, such a file is ASCII: the header, nothing
    but gaps after it on its line, and one or more lines of three
    [+-]?[0-9]+ tokens between gaps, with whitespace-only lines anywhere.
    """
    code = code.lstrip()
    raw = code.encode() if isinstance(code, str) else code
    if not raw.startswith(_HEADER_BYTES):
        return None
    # one translate maps the bytes after the header to their classes, which
    # are freed before the body is copied
    tokens = _vertex_tokens(raw[len(_HEADER_BYTES):].translate(_BYTE_CLASS))
    return (code[len(HEADER):], tokens) if tokens else None


def _vertex_tokens(cls: bytes) -> int:
    """The number of tokens in a vertex file's body, given the classes of
    its bytes, or 0 when they form no such body.

    One bool buffer holds the signs, then the line ends, then the token
    starts, which numpy counts on each line.
    """
    # refuse a byte of class 0 (every byte of a non-ASCII character is
    # one), anything but gaps after the header on its line, a final sign
    if b"\0" in cls or cls.lstrip(b"\4")[:1] != b"\5" or cls.endswith(b"\2"):
        return 0
    c = np.frombuffer(cls, np.int8)
    # c[0] is a gap or a line end, so every sign has a byte on each side
    mask = np.equal(c, 2)
    signs = np.flatnonzero(mask)
    if (c[signs - 1] < 3).any() or (c[signs + 1] != 1).any():
        return 0
    ends = np.flatnonzero(np.equal(c, 5, out=mask))
    # with every sign between a gap and a digit, a token starts exactly
    # where the class falls by 2 or more from the byte before, which c[0]
    # cannot; the falls are written over the line-end mask
    fall = mask.view(np.int8)
    fall[0] = 0
    np.subtract(c[:-1], c[1:], out=fall[1:])
    start = np.greater(fall, 1, out=mask)
    # token starts per line, in uint8 to keep the array small; a count can
    # wrap at 256, but the starts total 3 per line that counts 3 only when
    # every line holds none or exactly three
    counts = np.add.reduceat(start.view(np.uint8), ends, dtype=np.uint8)
    total = np.count_nonzero(start)
    return total if total == 3 * np.count_nonzero(counts == 3) else 0


def parse_vertices(text: Union[str, bytes]) -> np.ndarray:
    """Parse either file form into its true vertices, unvalidated.

    text is the file's text, or its bytes in UTF-8, which are decoded
    only where text is needed (see the module docstring).  Returns an
    (n, 3) integer array: int64, or, from the line reader, Python ints in
    an object array when a coordinate does not fit in 64 bits.  Raises
    KnotFileError on syntax problems or a move string that does not
    close; whether the vertices form a lattice knot is left to
    :func:`validate`.
    """
    if isinstance(text, bytes) and (b"#" in text or not text.isascii()):
        text = text.decode("utf-8")
    # cutting comments can join "\r#\n" into one line end, so the line
    # numbers of errors come from the original text
    code = _COMMENT_RE.sub("", text) if isinstance(text, str) and "#" in text else text
    found = _vertex_body(code)
    if found is not None:
        body, tokens = found
        try:
            flat = np.fromstring(body, np.int64, sep=" ")
        except (ValueError, DeprecationWarning):
            flat = None
        # numpy releases that only deprecate unmatched data warn and return a
        # short read, which the token count refuses; fromstring saturates a
        # token outside int64 to an int64 extreme, not always of its own
        # sign, so a read with an extreme is not trusted either
        if (flat is not None and len(flat) == tokens
                and flat.min() != _INT64.min and flat.max() != _INT64.max):
            return flat.reshape(-1, 3)
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = _significant_lines(text)
    if not lines:
        raise KnotFileError("empty file; expected header " + repr(HEADER))
    head_no, head = lines[0]
    if head != HEADER:
        raise KnotFileError(f"expected header {HEADER!r}, found {head!r}", head_no)
    body = lines[1:]
    if not body:
        raise KnotFileError("no vertices or move line after the header", head_no)
    if body[0][1].startswith("moves:"):
        if len(body) > 1:
            raise KnotFileError("content after the move line", body[1][0])
        return _move_vertices(body[0][1][len("moves:"):].strip(), line=body[0][0])
    for no, line in body:
        if not _VERTEX_RE.fullmatch(line):
            raise KnotFileError(
                f"expected three signed integers separated by spaces, found {line!r}", no
            )
    # converted only once every line has passed, so that a syntax error is
    # reported before int() refuses a token past its digit limit
    return _coordinate_array([[int(t) for t in line.split()] for _, line in body])


def parse_knot(text: Union[str, bytes]) -> LatticeKnot:
    """Parse either file form, as text or UTF-8 bytes, and return a validated knot.

    Raises KnotFileError on syntax problems or a move string that does
    not close, InvalidKnotError when the described polygon violates the
    knot invariants, UnicodeDecodeError on bytes that are not UTF-8.
    """
    return LatticeKnot.from_true(parse_vertices(text))


def _move_vertices(moves: str, line: Optional[int] = None) -> np.ndarray:
    if not moves:
        raise KnotFileError("empty move string", line)
    bad = [c for c in moves if c not in _MOVE_STEPS]
    if bad:
        raise KnotFileError(
            f"move characters must be among {MOVE_LETTERS}, found {bad[0]!r}", line
        )
    steps = np.array([_MOVE_STEPS[c] for c in moves], dtype=np.int64)
    final = tuple(steps.sum(axis=0).tolist())
    if final != (0, 0, 0):
        raise KnotFileError(
            f"move string does not close: ends at {final}, not the origin", line
        )
    vertices = np.zeros_like(steps)
    np.cumsum(steps[:-1], axis=0, out=vertices[1:])
    return vertices


def knot_from_moves(moves: str) -> LatticeKnot:
    """Build a knot from a move string anchored at the origin."""
    return LatticeKnot.from_true(_move_vertices(moves))


def move_string(knot: LatticeKnot) -> str:
    """Move encoding of the knot's edge sequence (translation is lost)."""
    c = knot.coords
    steps = ((np.roll(c, -1, axis=0) - c) // 2).tolist()
    return "".join([_MOVE_OF_STEP[tuple(step)] for step in steps])


def serialize_vertices(knot: LatticeKnot) -> str:
    lines = [HEADER]
    lines += ["%d %d %d" % v for v in knot.true_vertices()]
    return "\n".join(lines) + "\n"


def serialize_moves(knot: LatticeKnot) -> str:
    """Move-form serialization; a knot not anchored at the origin parses
    back as its origin translate."""
    return f"{HEADER}\nmoves: {move_string(knot)}\n"


def load_knot(path: Union[str, Path]) -> LatticeKnot:
    """The validated knot in a file, read as bytes (see parse_vertices)."""
    return parse_knot(Path(path).read_bytes())


def save_knot(knot: LatticeKnot, path: Union[str, Path], form: str = "vertices") -> None:
    Path(path).write_text(serialize(knot, form), encoding="utf-8")


def serialize(knot: LatticeKnot, form: str = "vertices") -> str:
    if form == "vertices":
        return serialize_vertices(knot)
    if form == "moves":
        return serialize_moves(knot)
    raise ValueError(f"unknown knot file form {form!r}")
