"""Exact data model for lattice knots.

A lattice knot is a closed, embedded polygon whose edges are unit
axis-parallel segments of the cubic lattice.  Every coordinate in this
package is stored *doubled* (true coordinate times 2) so that edge
midpoints are ordinary integers and the whole pipeline stays in exact
integer arithmetic.  A vertex therefore has three even components and a
midpoint has exactly one odd component.

Points of a knot are located by their arc offset, in doubled arc units
(half-edges): vertex i sits at offset 2i and the midpoint of edge i, from
vertex i to vertex i + 1, at 2i + 1, so the whole cycle is 2n units long.
LatticeKnot.coords_at is the one place that turns offsets into points.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

# Doubled coordinates must stay inside signed 64-bit range; arithmetic on
# Python ints never wraps, so exceeding this is reported, never silent.
COORD_LIMIT = 2**63 - 1
# Largest true coordinate whose doubled value is in range; within it the
# difference of two coordinates fits in int64 too.
_TRUE_LIMIT = COORD_LIMIT // 2

# The six unit steps of the lattice in true coordinates: +x, -x, +y, -y, +z, -z.
UNIT_STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


class LatticePoint(NamedTuple):
    """A point of the cubic lattice in doubled coordinates."""

    x: int
    y: int
    z: int

    @classmethod
    def vertex(cls, x: int, y: int, z: int = 0) -> "LatticePoint":
        """Build a lattice vertex from true integer coordinates."""
        return cls(2 * x, 2 * y, 2 * z)

    def as_true(self) -> tuple:
        """True coordinates: ints where integral, exact Fraction halves
        otherwise."""
        return tuple(c // 2 if c % 2 == 0 else Fraction(c, 2) for c in self)

    def __repr__(self) -> str:
        return "LatticePoint(%s)" % ", ".join(map(_true_text, self))


def _true_text(c: int) -> str:
    """Exact decimal text of the true coordinate whose doubled value is c:
    an integer, or one with the fraction .5."""
    if c % 2 == 0:
        return str(c // 2)
    return f"{'-' if c < 0 else ''}{abs(c) // 2}.5"


class Violation(NamedTuple):
    code: str
    where: tuple
    message: str


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


class InvalidKnotError(ValueError):
    """Raised when a vertex sequence fails the lattice knot invariants."""

    def __init__(self, result: ValidationResult):
        self.result = result
        lines = "; ".join(v.message for v in result.violations)
        super().__init__(f"invalid lattice knot: {lines}")


TrueVertex = tuple[int, int, int]
TrueVertices = Union[Sequence[TrueVertex], np.ndarray]


def _coordinate_array(values) -> np.ndarray:
    """values as an (n, 3) int64 array, or as Python ints in an object array
    when one lies outside int64; an int64 array is returned as it is.
    Raises ValueError on any other shape and on non-integers.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "bi":
        # one by one: numpy reads Python ints past int64 as uint64, float64 or object
        try:
            ints = [operator.index(c) for c in np.array(values, dtype=object).flat]
        except TypeError:
            raise ValueError(f"coordinates must be integers, got {a.dtype}") from None
        try:
            a = np.array(ints, dtype=np.int64).reshape(a.shape)
        except OverflowError:
            a = np.array(ints, dtype=object).reshape(a.shape)
    if a.size == 0:
        a = a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"expected points of three coordinates, got shape {a.shape}")
    return a if a.dtype == object else a.astype(np.int64, copy=False)


def _axis_extremes(a: np.ndarray) -> tuple[np.ndarray, list, list]:
    """One contiguous row per axis of the (n, 3) array a, with each axis's
    least and greatest value as Python ints; reductions over the strided
    columns of a cost more than the copy."""
    rows = np.ascontiguousarray(a.T)
    return rows, rows.min(axis=1).tolist(), rows.max(axis=1).tolist()


def validate(vertices: TrueVertices) -> ValidationResult:
    """Check true integer coordinates against the knot invariants.

    vertices is a sequence of (x, y, z) or an (n, 3) integer array.
    Returns a ValidationResult whose violations name the failed invariant
    and the offending index or pair, grouped by invariant and in index
    order.  Violations are data: only non-integer or misshapen input raises.

    Closure and embedding are read off one key per vertex,
    ((x - lo_x) R_y + (y - lo_y)) R_z + (z - lo_z), with lo_k the least
    coordinate and s_k the span of axis k and R_k = s_k + 2.  Equal keys are
    equal vertices.  As |dy| <= R_y - 2 and |dz| <= R_z - 2, a step moves the
    key by 1, R_z or R_y R_z exactly when it is a unit step; with a radix of
    s_k + 1, (0, 0, 1) -> (0, 1, 0) would move it by 1.  The key is int64
    while (s_x + 2) R_y R_z < 2^63: a closed polygon of n edges spans at most
    n/2 per axis, so only an input that is not closed, or a knot of about
    4.19 million edges or more, needs the Python-int key.
    """
    a = _coordinate_array(vertices)
    n = len(a)
    violations: list[Violation] = []
    if n < 4:
        violations.append(
            Violation("too_short", (n,), f"{n} vertices; a lattice knot needs at least 4")
        )
    if n % 2:
        violations.append(
            Violation("odd_length", (n,), f"{n} edges; closed lattice polygons have even length")
        )
    if not n:
        return ValidationResult(False, tuple(violations))
    rows, lo, hi = _axis_extremes(a)
    ry, rz = hi[1] - lo[1] + 2, hi[2] - lo[2] + 2
    key_type = np.int64 if (hi[0] - lo[0] + 2) * ry * rz <= COORD_LIMIT else object
    # x - lo lies in [0, s_x], so each partial sum of an int64 key lies in [0, 2^63)
    x, y, z = rows.astype(object) if key_type is object else rows
    key = (((x - lo[0]) * ry + (y - lo[1])) * rz + (z - lo[2])).astype(key_type, copy=False)
    step = np.abs(np.diff(key, append=key[:1]))
    for i in np.flatnonzero((step != 1) & (step != rz) & (step != ry * rz)).tolist():
        j = (i + 1) % n
        message = f"vertices {i} and {j} are not joined by a unit lattice step"
        violations.append(Violation("not_closed", (i, j), message))
    # a stable sort puts each vertex's first occurrence at the head of its run of equal keys
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    repeat = np.flatnonzero(ranked[1:] == ranked[:-1]) + 1
    first = order[np.searchsorted(ranked, ranked[repeat])]
    for i, f in sorted(zip(order[repeat].tolist(), first.tolist())):
        message = f"vertex {i} repeats vertex {f} at {tuple(a[i].tolist())}"
        violations.append(Violation("not_embedded", (f, i), message))
    if min(lo) < -_TRUE_LIMIT or max(hi) > _TRUE_LIMIT:
        # by comparison, not abs(): np.abs(-2**63) is negative in int64
        for i in np.flatnonzero(((a < -_TRUE_LIMIT) | (a > _TRUE_LIMIT)).any(axis=1)).tolist():
            violations.append(
                Violation("out_of_range", (i,), f"vertex {i} exceeds the coordinate range")
            )
    return ValidationResult(not violations, tuple(violations))


def _points(a: np.ndarray) -> tuple[LatticePoint, ...]:
    """The rows of an (m, 3) int64 array as points."""
    # LatticePoint._make per row, without a Python-level call per row
    return tuple(map(tuple.__new__, itertools.repeat(LatticePoint), zip(*a.T.tolist())))


@dataclass(frozen=True, eq=False)
class LatticeKnot:
    """Ordered cyclic vertex sequence of a lattice knot, doubled coordinates.

    Its only state is `coords`, the read-only (n, 3) int64 array of the
    doubled vertices in cyclic order, edge i running from row i to row
    (i + 1) % n.  The points derived from it, `vertices` and
    `offset_table`, are built and cached on first use.  Instances are
    immutable and hashable, and equal when their arrays are.  Every
    instance is a valid lattice knot: LatticeKnot(x), for a sequence of
    LatticePoints or an (n, 3) array of doubled coordinates, is
    from_true(x // 2), validated once and copied, and raises OverflowError
    outside int64 and ValueError on non-integers and on an odd coordinate.
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = np.asarray(_coordinate_array(self.coords), dtype=np.int64)
        if (coords & 1).any():
            raise ValueError("doubled vertex coordinates must be even")
        object.__setattr__(self, "coords", LatticeKnot.from_true(coords // 2).coords)

    @classmethod
    def from_true(cls, vertices: Union[Iterable[TrueVertex], np.ndarray]) -> "LatticeKnot":
        """Validate true integer coordinates and build the knot from them.

        vertices is an iterable of (x, y, z) or an (n, 3) integer array.
        Raises InvalidKnotError, listing every violation, when they do not
        form a lattice knot; a valid knot's doubled coordinates fit in int64.
        """
        if not isinstance(vertices, np.ndarray):
            vertices = list(vertices)
        # validate passes an int64 array through, so its range check is the only one
        a = _coordinate_array(vertices)
        result = validate(a)
        if not result:
            raise InvalidKnotError(result)
        # a valid knot's coordinates are int64 within _TRUE_LIMIT: doubling
        # them makes the one copy, which no caller holds
        return _valid_knot(a * 2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeKnot):
            return NotImplemented
        return np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        return hash(self.coords.tobytes())

    @property
    def n(self) -> int:
        """Number of edges (equals number of vertices)."""
        return len(self.coords)

    def coords_at(self, offsets: np.ndarray) -> np.ndarray:
        """Doubled coordinates of the points at doubled arc offsets in [0, 2n).

        Offset o is (c[i] + c[i + o % 2]) // 2 with i = o // 2, here c[i]
        plus half the edge step, which cannot leave int64.
        """
        c = self.coords
        i = offsets // 2
        return c[i] + (c[(offsets + 1) // 2 % len(c)] - c[i]) // 2

    @cached_property
    def vertices(self) -> tuple[LatticePoint, ...]:
        """The vertices as points, built from `coords` on first use."""
        return _points(self.coords)

    @cached_property
    def offset_table(self) -> dict[LatticePoint, int]:
        """Point -> doubled arc offset, over vertices and then midpoints."""
        offsets = np.concatenate([np.arange(0, 2 * self.n, 2), np.arange(1, 2 * self.n, 2)])
        return dict(zip(_points(self.coords_at(offsets)), offsets.tolist()))

    def true_vertices(self) -> list[TrueVertex]:
        return list(map(tuple, (self.coords // 2).tolist()))

    def __repr__(self) -> str:
        return f"LatticeKnot(n={self.n}, start={LatticePoint(*self.coords[0].tolist())!r})"


def _valid_knot(coords: np.ndarray) -> LatticeKnot:
    """The knot of coords, a fresh (n, 3) int64 array of a valid knot's
    doubled coordinates, neither checked nor copied."""
    coords.flags.writeable = False
    knot = object.__new__(LatticeKnot)
    object.__setattr__(knot, "coords", coords)
    return knot


def scale(knot: LatticeKnot, m: int) -> LatticeKnot:
    """Multiply all coordinates by m, inserting the intermediate vertices.

    The result is again a valid lattice knot with m times as many edges.
    m = 0 is rejected; coordinates leaving the 64-bit range raise
    OverflowError rather than wrapping.
    """
    if m < 1:
        raise ValueError(f"scale factor must be a positive integer, got {m}")
    if m == 1:
        return knot
    c = knot.coords
    if max(-int(c.min()), int(c.max())) * m > COORD_LIMIT:
        raise OverflowError(
            f"scaling by {m} pushes coordinates past the 64-bit limit"
        )
    # vertex t of the run from a to b is a(m - t) + bt: both terms and the
    # sum lie within m times the largest coordinate, so none can wrap
    t = np.arange(m)[:, None]
    ends = np.roll(c, -1, axis=0)
    return _valid_knot((c[:, None] * (m - t) + ends[:, None] * t).reshape(-1, 3))


class Isometry(NamedTuple):
    """Signed permutation of the axes: coordinate k of the image is
    signs[k] * p[perm[k]]."""

    perm: tuple[int, int, int]
    signs: tuple[int, int, int]

    def apply(self, p: LatticePoint) -> LatticePoint:
        return LatticePoint(*(self.signs[k] * p[self.perm[k]] for k in range(3)))


def lattice_isometries() -> tuple[Isometry, ...]:
    """All 48 signed axis permutations of the cubic lattice."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            out.append(Isometry(perm, signs))
    return tuple(out)


def transform(
    knot: LatticeKnot,
    iso: Optional[Isometry] = None,
    translate: TrueVertex = (0, 0, 0),
) -> LatticeKnot:
    """Apply a lattice isometry and an integer translation to a knot.

    Raises OverflowError when a coordinate of the result or the doubled
    translation leaves the 64-bit range, and ValueError when the
    translation is not integral or iso is not a signed axis permutation.
    """
    perm, signs = iso if iso is not None else ((0, 1, 2), (1, 1, 1))
    if sorted(perm) != [0, 1, 2] or not {*signs} <= {1, -1}:
        raise ValueError(f"not a lattice isometry: {perm}, {signs}")
    shift = [2 * t for t in _coordinate_array([translate])[0].tolist()]
    rows, lo, hi = _axis_extremes(knot.coords)
    out = np.empty_like(knot.coords)
    # column k of the image, t + row p or t - row p, is written once
    for k, (p, sign, t) in enumerate(zip(perm, signs, shift)):
        if max(abs(t), abs(t + sign * lo[p]), abs(t + sign * hi[p])) > COORD_LIMIT:
            raise OverflowError("the transformed knot leaves the 64-bit coordinate range")
        if sign == 1:
            np.add(rows[p], t, out=out[:, k])
        else:
            np.subtract(t, rows[p], out=out[:, k])
    return _valid_knot(out)
