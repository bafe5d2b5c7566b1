"""Midpoint pair structure and the unknot certificate.

Distortion maxima over vertices and midpoints can exceed the vertex
maximum only for a very constrained kind of pair: two edge midpoints
that are antipodal on the knot and whose edges are parallel, traversed
in opposite directions, sharing their half-integer coordinate.  This
module classifies midpoint pairs, searches for vertex pairs dominating
a given pair's ratio, and turns a distortion value into an unknot
certificate via the nontriviality threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .engine import DistortionReport
from .lattice import Axis, Edge, LatticeKnot, LatticePoint
from .metrics import (
    NotOnKnotError,
    arc_distance_doubled,
    arc_position,
    distortion_ratio,
    taxicab_doubled,
)

# Decimal enclosure of 5*sqrt(3)*pi/9 - 1 = 2.0229989403903630843...,
# the vertex distortion floor for knotted conformations.  Both ends are
# exact rationals; the tests re-derive the enclosure from a 50-digit pi.
THRESHOLD_LOW = Fraction(20229989403, 10**10)
THRESHOLD_HIGH = Fraction(20229989404, 10**10)

UNKNOT_CERTIFIED = "unknot_certified"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MidpointPairClass:
    """Structural classification of a pair of edge midpoints.

    Non-generic pairs always lie on parallel edges and share their
    half-integer coordinate; edges_opposed records whether the cyclic
    orientation traverses the two parallel edges in opposite directions
    (None when the edges are not parallel).
    """

    p: LatticePoint
    q: LatticePoint
    generic: bool
    antipodal: bool
    parallel_edges: bool
    shared_fractional_axis: Optional[Axis]
    edges_opposed: Optional[bool]


@dataclass(frozen=True)
class Certificate:
    """Outcome of comparing a distortion value against the threshold.

    verdict is unknot_certified exactly when delta is provably below the
    threshold; near_threshold flags the (never yet observed) case of a
    value inside the stored enclosure, where no sound decision exists.
    """

    delta: Fraction
    threshold_exceeded: bool
    verdict: str
    near_threshold: bool = False


def _midpoint_edge(knot: LatticeKnot, m: LatticePoint) -> Optional[Edge]:
    """The edge whose midpoint m is, None for a vertex or a point off the knot."""
    off = knot.offset_table.get(m)
    return knot.edges[off // 2] if off is not None and off % 2 else None


def neighbors(knot: LatticeKnot, m: LatticePoint) -> tuple[LatticePoint, LatticePoint]:
    """The two endpoints of a midpoint's edge, in knot cyclic order."""
    edge = _midpoint_edge(knot, m)
    if edge is None:
        raise NotOnKnotError(f"{m!r} is not a midpoint of this knot")
    return edge.start, edge.end


def classify_pair(knot: LatticeKnot, p: LatticePoint, q: LatticePoint) -> MidpointPairClass:
    """Classify a pair of distinct midpoints by genericity and antipodality.

    A pair is generic when replacing one point by the two endpoints of
    its edge changes the taxicab distance asymmetrically on at least one
    side.  For non-generic pairs the structural consequences (parallel
    edges, shared half-integer coordinate, all four neighbor distances
    equal to the pair distance plus one half) are verified, not assumed.
    """
    if p == q:
        raise ValueError("midpoint pair classification needs two distinct points")
    ep = _midpoint_edge(knot, p)
    eq = _midpoint_edge(knot, q)
    if ep is None or eq is None:
        raise NotOnKnotError("both points must be midpoints of the knot")

    d_pq = taxicab_doubled(p, q)
    to_q_ends = (taxicab_doubled(p, eq.start), taxicab_doubled(p, eq.end))
    to_p_ends = (taxicab_doubled(ep.start, q), taxicab_doubled(ep.end, q))
    generic = to_q_ends[0] != to_q_ends[1] or to_p_ends[0] != to_p_ends[1]

    antipodal = arc_distance_doubled(knot, p, q) == knot.n
    parallel = ep.axis == eq.axis

    shared: Optional[Axis] = None
    opposed: Optional[bool] = None
    if parallel:
        dir_p = tuple(ep.end[k] - ep.start[k] for k in range(3))
        dir_q = tuple(eq.end[k] - eq.start[k] for k in range(3))
        opposed = dir_p == tuple(-c for c in dir_q)
    if not generic:
        # structural consequences of non-genericity, checked exactly
        if not parallel:
            raise AssertionError("non-generic midpoints must lie on parallel edges")
        if p[ep.axis] != q[ep.axis]:
            raise AssertionError("non-generic midpoints must share the fractional coordinate")
        if any(d != d_pq + 1 for d in to_q_ends + to_p_ends):
            raise AssertionError(
                "all neighbor distances of a non-generic pair must equal the pair distance plus 1/2"
            )
        shared = ep.axis
    return MidpointPairClass(p, q, generic, antipodal, parallel, shared, opposed)


def dominating_vertex_pair(
    knot: LatticeKnot, p: LatticePoint, q: LatticePoint
) -> Optional[tuple[LatticePoint, LatticePoint]]:
    """Search the neighbor replacements of (p, q) for a vertex pair whose
    ratio is at least the pair's own ratio.

    Vertices stand in for themselves; a midpoint is replaced by either
    endpoint of its edge.  All (at most four) combinations are tried and
    the best one returned, so failure of the search is meaningful: it
    happens only for antipodal non-generic midpoint pairs.
    """
    if p == q:
        raise ValueError("dominating pair search needs two distinct points")
    base = distortion_ratio(knot, p, q)

    def candidates(pt: LatticePoint) -> tuple[LatticePoint, ...]:
        if pt.is_vertex:
            arc_position(knot, pt)  # membership check
            return (pt,)
        return neighbors(knot, pt)

    best: Optional[tuple[LatticePoint, LatticePoint]] = None
    best_ratio = Fraction(0)
    for a in candidates(p):
        for b in candidates(q):
            r = distortion_ratio(knot, a, b)  # equals 1 when a == b
            if r > best_ratio:
                best_ratio = r
                best = (a, b)
    if best is not None and best_ratio >= base:
        return best
    return None


def certify_unknot(report: DistortionReport) -> Certificate:
    """Decide whether a vertex distortion value certifies unknottedness.

    The comparison against the irrational threshold is made sound by the
    rational enclosure: certify only below its lower end, refuse only at
    or above its upper end, and report a near-threshold inconclusive in
    between.
    """
    delta = report.delta
    if delta <= THRESHOLD_LOW:
        return Certificate(delta, False, UNKNOT_CERTIFIED)
    if delta >= THRESHOLD_HIGH:
        return Certificate(delta, True, INCONCLUSIVE)
    return Certificate(delta, False, INCONCLUSIVE, near_threshold=True)
