"""Exact metrics on lattice knots: taxicab distance, arc length, and the
distortion ratios built from them.

Every quantity is an exact rational.  The Euclidean comparator is only
ever handled through its square, which keeps all comparisons decidable
in integer arithmetic.  Arc offsets follow the convention of the
lattice module docstring.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .lattice import LatticeKnot, LatticePoint

class NotOnKnotError(ValueError):
    """A queried point is neither a vertex nor a midpoint of the knot."""


class ArcPosition(NamedTuple):
    """A point of the knot together with its doubled arc offset in [0, 2n)."""

    point: LatticePoint
    offset: int


def taxicab_doubled(a: LatticePoint, b: LatticePoint) -> int:
    return abs(a.x - b.x) + abs(a.y - b.y) + abs(a.z - b.z)


def euclidean_sq_doubled(a: LatticePoint, b: LatticePoint) -> int:
    return (a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2


def taxicab_distance(a: LatticePoint, b: LatticePoint) -> Fraction:
    """Taxicab (L1) distance in true units."""
    return Fraction(taxicab_doubled(a, b), 2)


def arc_position(knot: LatticeKnot, p: LatticePoint) -> ArcPosition:
    """Locate a vertex or midpoint on the knot."""
    off = knot.offset_table.get(p)
    if off is None:
        raise NotOnKnotError(f"{p!r} is not a vertex or midpoint of this knot")
    return ArcPosition(p, off)


def arc_distance_doubled(knot: LatticeKnot, a: LatticePoint, b: LatticePoint) -> int:
    diff = abs(arc_position(knot, a).offset - arc_position(knot, b).offset)
    return min(diff, 2 * knot.n - diff)


def arc_distance(knot: LatticeKnot, a: LatticePoint, b: LatticePoint) -> Fraction:
    """Shortest path length along the knot, in true units."""
    return Fraction(arc_distance_doubled(knot, a, b), 2)


def distortion_ratio(knot: LatticeKnot, a: LatticePoint, b: LatticePoint) -> Fraction:
    """Arc length over taxicab distance, with value 1 on the diagonal."""
    arc = arc_distance_doubled(knot, a, b)
    if a == b:
        return Fraction(1)
    # doubled units cancel in the quotient
    return Fraction(arc, taxicab_doubled(a, b))


def euclidean_ratio_squared(knot: LatticeKnot, a: LatticePoint, b: LatticePoint) -> Fraction:
    """Square of arc length over Euclidean distance between distinct points.

    Squaring keeps the value rational; callers compare such squares by
    cross-multiplication.  The diagonal is rejected (the unsquared ratio
    is 1 there by convention, handled by callers).
    """
    arc = arc_distance_doubled(knot, a, b)
    if a == b:
        raise ValueError("euclidean ratio is only defined for distinct points")
    # arc_true^2 = (arc_doubled/2)^2 and d_true^2 = e2_doubled/4, so the
    # factors of 4 cancel exactly.
    return Fraction(arc**2, euclidean_sq_doubled(a, b))
