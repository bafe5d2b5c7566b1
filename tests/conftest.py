"""Shared fixtures and the from-scratch reference oracle.

The reference implementations here recompute everything from raw true
coordinates with plain loops and Fractions; they share no code with the
banded engine they are used to check.  The one exception is
reference_vertex_report, the exhaustive vertex report read off the
engine's heatmap rows, which the tests check against reference_row_maxima.
The midpoint pair oracle is not a reference: it states a lemma through
the package's offset_table and metric functions.
"""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from knotdist import (
    DistortionReport,
    KnotFileError,
    LatticeKnot,
    LatticePoint,
    ValidationResult,
    Violation,
    distortion_ratio,
    heatmap,
    lattice_isometries,
    random_polygon,
    rectangle,
    taxicab_distance,
    torus_knot,
)
from knotdist.engine import _Sweep
from knotdist.lattice import COORD_LIMIT, UNIT_STEPS


def reference_vertex_distortion(true_vertices):
    """Independent O(n^2) maximum of arc/taxicab over vertex pairs."""
    n = len(true_vertices)
    best = Fraction(1)
    witnesses = set()
    for i in range(n):
        for j in range(i + 1, n):
            arc = min(j - i, n - (j - i))
            d1 = sum(abs(a - b) for a, b in zip(true_vertices[i], true_vertices[j]))
            r = Fraction(arc, d1)
            if r > best:
                best = r
                witnesses = set()
            if r == best:
                witnesses.add(
                    tuple(sorted((tuple(true_vertices[i]), tuple(true_vertices[j]))))
                )
    return best, witnesses


def reference_euclidean_bound(true_vertices):
    """Independent max of squared arc/Euclidean over vertex pairs."""
    n = len(true_vertices)
    best = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            arc = min(j - i, n - (j - i))
            d2 = sum((a - b) ** 2 for a, b in zip(true_vertices[i], true_vertices[j]))
            best = max(best, Fraction(arc * arc, d2))
    return best


def reference_euclidean_descending(knot):
    """The same maximum, band by band from the antipodal one down.

    Doubled squared distances are at least 4, so band d gives at most d^2,
    and the loop stops once d^2 falls to the running maximum: O(n) per
    band, for sizes where the pairwise loop above is too slow.
    """
    c = knot.coords
    best = Fraction(0)
    for d in range(knot.n // 2, 0, -1):
        if best >= d * d:
            break
        # row i of the rolled array is vertex i - d
        diff = c - np.roll(c, d, axis=0)
        best = max(best, Fraction(4 * d * d, int((diff * diff).sum(axis=1).min())))
    return best

_REFERENCE_HEADER = "latticeknot v1"
_REFERENCE_STEPS = {
    "X": (1, 0, 0), "x": (-1, 0, 0),
    "Y": (0, 1, 0), "y": (0, -1, 0),
    "Z": (0, 0, 1), "z": (0, 0, -1),
}
_REFERENCE_VERTEX_RE = re.compile(r"^([+-]?\d+)\s+([+-]?\d+)\s+([+-]?\d+)$")


def reference_parse_vertices(text):
    """Line-by-line parse of a knot file into a list of true vertex tuples.

    The parser as it was before parse_vertices read whole arrays: every
    line split off, comments cut, each vertex line matched and converted
    on its own.  It must accept, reject and report exactly as
    parse_vertices does.
    """
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((no, line))
    if not lines:
        raise KnotFileError("empty file; expected header " + repr(_REFERENCE_HEADER))
    head_no, head = lines[0]
    if head != _REFERENCE_HEADER:
        raise KnotFileError(
            f"expected header {_REFERENCE_HEADER!r}, found {head!r}", head_no
        )
    body = lines[1:]
    if not body:
        raise KnotFileError("no vertices or move line after the header", head_no)
    if body[0][1].startswith("moves:"):
        if len(body) > 1:
            raise KnotFileError("content after the move line", body[1][0])
        moves, line = body[0][1][len("moves:"):].strip(), body[0][0]
        if not moves:
            raise KnotFileError("empty move string", line)
        bad = [c for c in moves if c not in _REFERENCE_STEPS]
        if bad:
            raise KnotFileError(
                f"move characters must be among XxYyZz, found {bad[0]!r}", line
            )
        pos = (0, 0, 0)
        vertices = []
        for c in moves:
            vertices.append(pos)
            pos = tuple(p + s for p, s in zip(pos, _REFERENCE_STEPS[c]))
        if pos != (0, 0, 0):
            raise KnotFileError(
                f"move string does not close: ends at {pos}, not the origin", line
            )
        return vertices
    vertices = []
    for no, line in body:
        m = _REFERENCE_VERTEX_RE.match(line)
        if not m:
            raise KnotFileError(
                f"expected three signed integers separated by spaces, found {line!r}", no
            )
        vertices.append(tuple(int(g) for g in m.groups()))
    return vertices


# the whole-text match knotfile once used as its guard, which
# knotfile._vertex_body must equal on ASCII texts: the header, then one or
# more lines of three signed integers, blank lines anywhere; the gap is
# whitespace other than a line boundary of str.splitlines
_REFERENCE_EOL = "\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_REFERENCE_GAP = rf"[^\S{_REFERENCE_EOL}]"
_REFERENCE_INT = r"[+-]?\d++"
_REFERENCE_VERTEX = (_REFERENCE_GAP + "++").join([_REFERENCE_INT] * 3)
REFERENCE_VERTEX_FILE_RE = re.compile(
    rf"\s*+{re.escape(_REFERENCE_HEADER)}"
    rf"(?:{_REFERENCE_GAP}*+[{_REFERENCE_EOL}]\s*+{_REFERENCE_VERTEX})++\s*+"
)


# the exact interval bound the engine's branch and bound once used, which
# also assumed the parity rule m(d) = 2d (mod 4): the largest band bound
# 2d / lb(d) over the integers a < d < b, as (num, den, argmax d), with
# lb(d) = max(ma - 2(d - a), mb - 2(b - d), 2 if d is odd else 4); the
# engine's bound over the reals is at least it
def reference_interval_bound(a, ma, b, mb):
    big_a, big_b = ma + 2 * a, mb - 2 * b
    cross = (big_a - big_b) // 4
    num, den, arg = 0, 1, a
    for d in (a + 1, a + 2, cross - 1, cross, cross + 1, 1 - big_b // 2, 2 - big_b // 2,
              b - 2, b - 1):
        if a < d < b:
            lb = max(big_a - 2 * d, big_b + 2 * d)
            if lb < 2:  # the cones have the parity of 2d, so the floor is larger
                lb = 2 if d & 1 else 4
            if 2 * d * den > num * lb:
                num, den, arg = 2 * d, lb, d
    return num, den, arg


def reference_validate(vertices):
    """Per-vertex check of the knot invariants, violations in the same
    order as validate's."""
    vs = [tuple(int(c) for c in v) for v in vertices]
    n = len(vs)
    violations = []
    if n < 4:
        violations.append(
            Violation("too_short", (n,), f"{n} vertices; a lattice knot needs at least 4")
        )
    if n % 2:
        violations.append(
            Violation("odd_length", (n,), f"{n} edges; closed lattice polygons have even length")
        )
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        if sum(abs(a[k] - b[k]) for k in range(3)) != 1:
            violations.append(
                Violation(
                    "not_closed",
                    (i, (i + 1) % n),
                    f"vertices {i} and {(i + 1) % n} are not joined by a unit lattice step",
                )
            )
    seen = {}
    for i, v in enumerate(vs):
        if v in seen:
            violations.append(
                Violation(
                    "not_embedded", (seen[v], i), f"vertex {i} repeats vertex {seen[v]} at {v}"
                )
            )
        else:
            seen[v] = i
    for i, v in enumerate(vs):
        if any(abs(2 * c) > COORD_LIMIT for c in v):
            violations.append(
                Violation("out_of_range", (i,), f"vertex {i} exceeds the coordinate range")
            )
    return ValidationResult(not violations, tuple(violations))


def reference_parse_knot(text):
    """parse_knot from the reference parser and validator."""
    vertices = reference_parse_vertices(text)
    result = reference_validate(vertices)
    assert result.ok, result
    return LatticeKnot(tuple(LatticePoint.vertex(*v) for v in vertices))


def reference_offset_table(knot):
    """Point -> doubled arc offset, vertices first, then midpoints, built
    one vertex at a time."""
    vs = [LatticePoint(*v) for v in knot.coords.tolist()]
    table = {v: 2 * i for i, v in enumerate(vs)}
    for i, a in enumerate(vs):
        b = vs[(i + 1) % len(vs)]
        table[LatticePoint(*((a[k] + b[k]) // 2 for k in range(3)))] = 2 * i + 1
    return table


# The midpoint pair lemma, point by point: only antipodal, non-generic
# midpoint pairs on opposed edges can beat the vertex maximum.


def midpoint_points(knot):
    """The edge midpoints as points, in cyclic order."""
    return [LatticePoint(*m) for m in knot.coords_at(2 * np.arange(knot.n) + 1).tolist()]


def edge_ends(knot, p):
    """The points that stand in for p: p itself for a vertex, and for a
    midpoint the two ends of its edge, in cyclic order."""
    off = knot.offset_table[p]
    if off % 2 == 0:
        return (p,)
    return knot.vertices[off // 2], knot.vertices[(off // 2 + 1) % knot.n]


def classify_pair(knot, p, q):
    """(generic, antipodal, opposed) for two distinct midpoints p and q.

    The pair is generic when moving one point to either end of its edge
    changes its taxicab distance to the other unequally.  Opposed edges
    are parallel and run in opposite directions.  A non-generic pair is
    asserted to lie on parallel edges, to share their half-integer
    coordinate and to have all four end distances equal to its own plus 1/2.
    """
    ends = edge_ends(knot, p) + edge_ends(knot, q)
    assert len(ends) == 4 and p != q, "classify_pair takes two distinct midpoints"
    a, b, c, d = ends
    to_ends = [taxicab_distance(*pair) for pair in ((p, c), (p, d), (a, q), (b, q))]
    generic = to_ends[0] != to_ends[1] or to_ends[2] != to_ends[3]
    antipodal = abs(knot.offset_table[p] - knot.offset_table[q]) == knot.n
    step_p = [y - x for x, y in zip(a, b)]
    step_q = [y - x for x, y in zip(c, d)]
    if not generic:
        axis = next(k for k in range(3) if step_p[k])
        assert step_q[axis], "non-generic midpoints lie on parallel edges"
        assert p[axis] == q[axis], "non-generic midpoints share the half-integer coordinate"
        assert to_ends == [taxicab_distance(p, q) + Fraction(1, 2)] * 4
    return generic, antipodal, step_p == [-s for s in step_q]


def dominating_vertex_pair(knot, p, q):
    """The pair of greatest ratio among the edge_ends of p and of q, when
    that ratio reaches the ratio of (p, q); else None, which the lemma
    allows only for antipodal non-generic midpoint pairs."""
    pairs = [(a, b) for a in edge_ends(knot, p) for b in edge_ends(knot, q)]
    ratio, a, b = max(((distortion_ratio(knot, a, b), a, b) for a, b in pairs), key=lambda t: t[0])
    return (a, b) if ratio >= distortion_ratio(knot, p, q) else None


def reference_row_maxima(knot):
    """Brute-force heatmap: each vertex's maximum arc/taxicab ratio.

    All pairs at once, the taxicab distances summed one axis at a time
    into one (n, n) array; each row's float argmax is then checked
    exactly, by cross-multiplication against every other pair of the row.
    """
    n = knot.n
    # shifted by the minimum, a knot's true coordinates lie in [0, n/2]
    # and its taxicab distances in [0, 3n/2]: int32 for n < 2^30
    tax = np.zeros((n, n), dtype=np.int32)
    diff = np.empty((n, n), dtype=np.int32)
    for column in ((knot.coords - knot.coords.min(axis=0)) // 2).T:
        np.subtract(column[:, None], column[None, :], out=diff)
        tax += np.abs(diff, out=diff)
    np.fill_diagonal(tax, 1)  # arc 0: the diagonal never wins
    out = []
    for i, t in enumerate(tax):
        a = np.abs(np.arange(n) - i)
        a = np.minimum(a, n - a)
        j = int(np.argmax(a / t))
        assert not (a * t[j] > a[j] * t).any()
        out.append(Fraction(int(a[j]), int(t[j])))
    return out


def reference_heatmap_rows(knot):
    """Heatmap row values from the per-band int64 sweep.

    The heatmap as the engine computed it before it evaluated blocks of
    bands: one band at a time, from the antipodal band down, each row's
    nearer band-d distance compared with its running maximum by exact
    cross-multiplication.
    """
    n = knot.n
    rows = (knot.coords - knot.coords.min(axis=0)).T
    coords = np.concatenate([rows, rows], axis=1)
    row_num = np.zeros(n, dtype=np.int64)
    row_den = np.ones(n, dtype=np.int64)
    for d in range(n // 2, 0, -1):
        dist = np.abs(coords[:, :n] - coords[:, n - d : 2 * n - d]).sum(axis=0)
        cand = np.minimum(dist, np.concatenate([dist, dist])[d : d + n])
        better = 2 * d * row_den > row_num * cand
        row_num[better] = 2 * d
        row_den[better] = cand[better]
    return [Fraction(p, q) for p, q in zip(row_num.tolist(), row_den.tolist())]


def _reference_heatmap_columns(heat):
    """Per row: index, true vertex, num, den and the six-place decimal.

    The decimals are report.format_decimal done on the arrays, round half
    to even: rows are in lowest terms with num <= n, so num * 10^6 stays
    inside int64.
    """
    scaled, rem = np.divmod(heat.num * 10**6, heat.den)
    scaled += (2 * rem > heat.den) | ((2 * rem == heat.den) & (scaled % 2 == 1))
    whole, frac = np.divmod(scaled, 10**6)
    decimals = [f"{w}.{f:06d}" for w, f in zip(whole.tolist(), frac.tolist())]
    vertices = (heat.knot.coords // 2).tolist()
    return zip(range(len(heat)), vertices, heat.num.tolist(), heat.den.tolist(), decimals)


def reference_heatmap_json(heat, pretty=False):
    """{"heatmap": rows} as render_json wrote it before the row template:
    one dict per row, encoded by json.dumps."""
    rows = [
        {"index": i, "vertex": v, "num": p, "den": q, "decimal": s}
        for i, v, p, q, s in _reference_heatmap_columns(heat)
    ]
    if pretty:
        return json.dumps({"heatmap": rows}, indent=2) + "\n"
    return json.dumps({"heatmap": rows}, separators=(",", ":")) + "\n"


def reference_heatmap_csv(heat):
    """The heatmap CSV as written before the row template: one f-string per row."""
    rows = (
        f"{i},{x},{y},{z},{p},{q},{s}\n"
        for i, (x, y, z), p, q, s in _reference_heatmap_columns(heat)
    )
    return "index,x,y,z,value_num,value_den,value_decimal\n" + "".join(rows)


def reference_vertex_report(knot):
    """The exhaustive vertex report, read off the heatmap rows.

    Each row is its vertex's maximum over every partner, so delta is the
    largest row, and a pair reaches delta exactly when both its rows
    equal delta.  Each such row is matched against all n partners by
    exact cross-multiplication, in one array pass.  pairs_examined counts
    every pair, and the index pairs are kept for the curve-wide extension.
    """
    n, coords = knot.n, knot.coords
    heat = heatmap(knot)
    delta = max(r.value for r in heat)
    idx = np.arange(n)
    index_pairs = set()
    for i in np.nonzero(heat.num * delta.denominator == heat.den * delta.numerator)[0].tolist():
        arc = np.abs(idx - i)
        arc = np.minimum(arc, n - arc)
        tax = np.abs(coords - coords[i]).sum(axis=1)
        # doubled units: arc 2 * arc over the doubled taxicab distance
        hit = (arc > 0) & (2 * arc * delta.denominator == tax * delta.numerator)
        index_pairs.update((min(i, j), max(i, j)) for j in np.nonzero(hit)[0].tolist())
    verts = knot.vertices
    witnesses = frozenset(tuple(sorted((verts[i], verts[j]))) for i, j in index_pairs)
    return DistortionReport(delta, witnesses, n * (n - 1) // 2, frozenset(index_pairs))


def reference_sample_torus(p: int, q: int, s: int) -> list[tuple[int, int, int]]:
    """Round a dense sampling of the (p, q) torus curve to lattice points.

    The generators' scalar loop as it was before it evaluated the curve in
    numpy chunks, kept verbatim: math's sin and cos, one sample at a time.
    """
    big_r, small_r = 2.0, 1.0
    curve_len = 2 * math.pi * math.hypot(p * big_r, q * small_r) * s
    samples = max(int(curve_len) * 64, 256)
    pts: list[tuple[int, int, int]] = []
    for k in range(samples):
        t = 2 * math.pi * k / samples
        w = (big_r + small_r * math.cos(q * t)) * s
        point = (
            round(w * math.cos(p * t)),
            round(w * math.sin(p * t)),
            round(small_r * s * math.sin(q * t)),
        )
        if not pts or point != pts[-1]:
            pts.append(point)
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    return pts


# the 48 lattice isometries as relabelings of the six moves UNIT_STEPS lists
RELABELINGS = tuple(
    tuple(UNIT_STEPS.index(iso.apply(step)) for step in UNIT_STEPS) for iso in lattice_isometries()
)


def reference_canonical_moves(moves: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least move sequence over all 48 relabelings,
    cycle rotations and both orientations of a closed walk.

    The generators' brute force as it was before it relabeled by one
    normal form: every isometry applied to the six unit steps, then every
    rotation of the walk and of its reversal.
    """
    opposite = (1, 0, 3, 2, 5, 4)
    n = len(moves)
    reverse = tuple(opposite[m] for m in reversed(moves))
    best = None
    for table in RELABELINGS:
        for seq in (moves, reverse):
            relabeled = tuple(table[m] for m in seq)
            for r in range(n):
                cand = relabeled[r:] + relabeled[:r]
                if best is None or cand < best:
                    best = cand
    return best


def witness_true_pairs(report):
    """Engine witnesses as sorted pairs of true coordinate tuples."""
    out = set()
    for a, b in report.witnesses:
        ta = tuple(c // 2 for c in a)
        tb = tuple(c // 2 for c in b)
        out.add(tuple(sorted((ta, tb))))
    return out


@pytest.fixture
def band_log(monkeypatch) -> list[tuple[int, int]]:
    """The bands (d, m(d)) the branch and bound evaluates from here on, in
    order: each run's own record, added as the run ends."""
    bands = []
    refine = _Sweep._refine

    def logged(sweep, *args, **kwargs):
        refine(sweep, *args, **kwargs)
        bands.extend(sweep.bands)

    monkeypatch.setattr(_Sweep, "_refine", logged)
    return bands


@pytest.fixture
def key_dtypes(monkeypatch) -> list[np.dtype]:
    """The dtype of every key validate sorts from here on, one per call."""
    dtypes = []
    argsort = np.argsort

    def recorded(a, *args, **kwargs):
        if kwargs.get("kind") == "stable":
            dtypes.append(a.dtype)
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recorded)
    return dtypes


@pytest.fixture(scope="session")
def unit_square() -> LatticeKnot:
    return rectangle(1, 1)


@pytest.fixture(scope="session")
def skew_hexagon() -> LatticeKnot:
    # the nonplanar six-edge polygon around a cube corner
    return LatticeKnot.from_true(
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1), (0, 0, 1)]
    )


@pytest.fixture(scope="session")
def trefoil() -> LatticeKnot:
    return torus_knot(2, 3, 2)


@pytest.fixture(scope="session")
def small_corpus() -> list[LatticeKnot]:
    """A quick mixed corpus for unit-level property checks."""
    knots = [rectangle(m, n) for m in range(1, 4) for n in range(1, 4)]
    knots += [random_polygon(length, seed) for length, seed in
              [(4, 1), (8, 2), (12, 3), (16, 4), (20, 5), (24, 6)]]
    knots.append(
        LatticeKnot.from_true(
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1), (0, 0, 1)]
        )
    )
    return knots
