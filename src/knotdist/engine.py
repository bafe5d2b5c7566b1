"""Vertex distortion engine.

The driver enumerates vertex pairs in bands of constant arc distance,
outer loop running from the antipodal band d = floor(n/2) down to 1 and
pairing index i with i - d (mod n).  Within a band the arc length is
fixed, so the band's best ratio is d over the band's minimum taxicab
distance, and the whole band can be evaluated with three vectorised
integer operations.  Early termination cuts the outer loop as soon as
no remaining band can reach the running maximum: distinct vertices are
at taxicab distance >= 1, so a band at arc distance d contributes at
most d.  The cut fires only for d strictly below the maximum, which
keeps the witness set identical to the unpruned run.

The curve-wide maximum over vertices and midpoints extends a finished
vertex sweep: by the midpoint pair structure only antipodal midpoint
pairs can beat the vertex maximum, so it needs one pass over those n/2
pairs and a check of the neighbours of each vertex witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .lattice import LatticeKnot, LatticePoint
from .metrics import taxicab_doubled

WitnessPair = tuple[LatticePoint, LatticePoint]


@dataclass(frozen=True)
class DistortionReport:
    """Exact distortion maximum with its complete witness set.

    delta is the maximum ratio, witnesses the deduplicated unordered
    point pairs achieving it (each pair tuple in coordinate order),
    pairs_examined the number of distinct index pairs evaluated, and
    pruned whether early termination skipped any band.  For the
    curve-wide maximum, pairs_examined is the vertex pairs examined plus
    the n/2 antipodal midpoint pairs, and pruned is the vertex sweep's.
    """

    delta: Fraction
    witnesses: frozenset[WitnessPair]
    pairs_examined: int
    pruned: bool


class HeatmapRow(NamedTuple):
    index: int
    vertex: LatticePoint
    value: Fraction


def _ordered_pair(a: LatticePoint, b: LatticePoint) -> WitnessPair:
    return (a, b) if a <= b else (b, a)


class _Sweep:
    """One banded scan over the vertex pairs of a knot.

    The coordinates are shifted by their minimum, so on a closed
    unit-step polygon every value lies in [0, n] (doubled units) and
    taxicab sums, squared Euclidean sums and the cross-multiplied
    heatmap comparisons stay below 3 n^2, far inside int64.  Each of the
    three coordinate rows is stored twice, so the band partner
    i - d (mod n) of index i is the plain slice [n - d, 2n - d).
    """

    def __init__(self, knot: LatticeKnot, want_heatmap: bool = False):
        self.knot = knot
        n = self.n = knot.n
        v = knot.coords
        lo = v.min(axis=0)
        # Python ints: an unvalidated knot may span more than int64
        if max(int(h) - int(l) for h, l in zip(v.max(axis=0), lo)) > n:
            raise ValueError(
                "knot coordinates span more than its length; not a closed unit-step polygon"
            )
        rows = (v - lo).T
        self.coords = np.concatenate([rows, rows], axis=1)
        self.diff = np.empty((3, n), dtype=np.int64)
        # doubled like the coordinates, so the heatmap can read dist[i + d]
        self.dist2 = np.empty(2 * n, dtype=np.int64)
        self.want_heatmap = want_heatmap
        if want_heatmap:
            self.row_num = np.zeros(n, dtype=np.int64)
            self.row_den = np.ones(n, dtype=np.int64)
            self.cand = np.empty(n, dtype=np.int64)
            self.lhs = np.empty(n, dtype=np.int64)
            self.rhs = np.empty(n, dtype=np.int64)
            self.better = np.empty(n, dtype=bool)

    def _band(self, d: int, square: bool = False) -> np.ndarray:
        """Per-index taxicab (or squared Euclidean) distance to index i - d.

        The result lives in a buffer that the next band overwrites.
        """
        n = self.n
        diff = self.diff
        np.subtract(self.coords[:, :n], self.coords[:, n - d : 2 * n - d], out=diff)
        if square:
            np.multiply(diff, diff, out=diff)
        else:
            np.abs(diff, out=diff)
        return diff.sum(axis=0, out=self.dist2[:n])

    def _update_heatmap(self, d: int, dist: np.ndarray) -> None:
        # row j meets band d as index j (partner j - d, distance dist[j])
        # and as partner of j + d (distance dist[j + d]); the nearer one
        # gives the row's larger band-d ratio
        n = self.n
        self.dist2[n:] = dist
        np.minimum(dist, self.dist2[d : d + n], out=self.cand)
        np.multiply(self.row_den, 2 * d, out=self.lhs)
        np.multiply(self.row_num, self.cand, out=self.rhs)
        np.greater(self.lhs, self.rhs, out=self.better)
        np.copyto(self.row_num, 2 * d, where=self.better)
        np.copyto(self.row_den, self.cand, where=self.better)

    # -- drivers ------------------------------------------------------------

    def run(self, prune: bool) -> tuple[Fraction, frozenset[WitnessPair], int, bool]:
        n = self.n
        # the running maximum num/den, compared by cross-multiplication
        num, den = 1, 1
        index_pairs: set[tuple[int, int]] = set()
        bands = pairs = 0
        for d in range(n // 2, 0, -1):
            if prune and num > d * den:
                break
            bands += 1
            # the antipodal band meets each of its pairs from both ends
            pairs += n // 2 if 2 * d == n else n
            dist = self._band(d)
            if self.want_heatmap:
                self._update_heatmap(d, dist)
            dmin = int(dist.min())
            lhs, rhs = 2 * d * den, num * dmin
            if lhs < rhs:
                continue
            if lhs > rhs:
                num, den = 2 * d, dmin
                index_pairs.clear()
            for i in np.nonzero(dist == dmin)[0].tolist():
                j = (i - d) % n
                index_pairs.add((min(i, j), max(i, j)))
        witnesses = frozenset(
            _ordered_pair(self.knot.vertices[i], self.knot.vertices[j])
            for i, j in index_pairs
        )
        return Fraction(num, den), witnesses, pairs, bands < n // 2

    def run_euclidean(self) -> Fraction:
        num, den = 0, 1
        for d in range(self.n // 2, 0, -1):
            # doubled squared distances are >= 4, so band d gives at most d^2
            if num >= d * d * den:
                break
            e2 = int(self._band(d, square=True).min())
            if 4 * d * d * den > num * e2:
                num, den = 4 * d * d, e2
        return Fraction(num, den)

    def heatmap_rows(self) -> tuple[HeatmapRow, ...]:
        return tuple(
            HeatmapRow(i, v, Fraction(num, den))
            for i, (v, num, den) in enumerate(
                zip(self.knot.vertices, self.row_num.tolist(), self.row_den.tolist())
            )
        )


def vertex_distortion(knot: LatticeKnot, *, prune: bool = True) -> DistortionReport:
    """Maximum of arc/taxicab over all vertex pairs, with all witnesses.

    With prune=True the outer band loop stops once no remaining band can
    match the running maximum; the result (value and witness set) is
    identical to the unpruned run.
    """
    delta, wit, pairs, cut = _Sweep(knot).run(prune)
    return DistortionReport(delta, wit, pairs, prune and cut)


def vertex_distortion_with_heatmap(
    knot: LatticeKnot,
) -> tuple[DistortionReport, tuple[HeatmapRow, ...]]:
    """Unpruned sweep that also collects the per-vertex row maxima."""
    sweep = _Sweep(knot, want_heatmap=True)
    delta, wit, pairs, _ = sweep.run(prune=False)
    return DistortionReport(delta, wit, pairs, False), sweep.heatmap_rows()


def heatmap(knot: LatticeKnot) -> tuple[HeatmapRow, ...]:
    """For each vertex, the maximum ratio against every other vertex."""
    return vertex_distortion_with_heatmap(knot)[1]


def gromov1_distortion(knot: LatticeKnot, *, prune: bool = True) -> DistortionReport:
    """Distortion maximum over the whole curve in the taxicab metric.

    This is the vertex distortion of the doubled knot, whose vertices are
    exactly the vertices and midpoints of the original, and it is computed
    from the vertex sweep alone, with witnesses among those points.  Write
    A and D for the doubled arc and taxicab distances of two points and M
    for the maximum.  M > 1: for a vertex p and its antipode p', either
    D(p, p') < A = n, or both halves of the knot between them are
    taxicab-monotone and the midpoints of the first edge of one half and
    of the last edge of the other, again antipodal, are nearer than n.

    Domination: replacing a midpoint by an endpoint of its edge moves A by
    +1 and -1 (both -1 when A = n) and D by -1 and +1, or by +1 and +1 when
    the other point shares its half-integer coordinate.  So at a ratio
    A/D > 1 a vertex-midpoint pair, or a midpoint pair not sharing that
    coordinate, is beaten by such a replacement.  Two midpoints m_a, m_b
    that share it lie on parallel edges.  Moving both to their start
    vertices, or both to their end vertices, keeps A and D when the edges
    run the same way.  When they run opposite ways and A < n (so A <= n - 2,
    both offsets being odd), moving both one way in space gains 2 in arc at
    equal D.  Only antipodal midpoints on opposed edges escape: the
    exceptional pairs of midpoint_analysis.  Hence M is the larger of the
    vertex distortion and the best of the n/2 antipodal midpoint pairs.
    Ties: every witness at M is an antipodal midpoint pair, a vertex
    witness (v_i, v_j), or a midpoint pair tying with one, which lies in
    {v_i, m_(i-1), m_i} x {v_j, m_(j-1), m_j}; all those pairs are checked.

    pairs_examined counts the vertex pairs the sweep examined plus the n/2
    antipodal midpoint pairs; pruned is the vertex sweep's.
    """
    return _gromov1_from_vertex_report(knot, vertex_distortion(knot, prune=prune))


def _gromov1_from_vertex_report(knot: LatticeKnot, rep: DistortionReport) -> DistortionReport:
    """gromov1_distortion, given the complete vertex sweep of the knot."""
    verts = knot.vertices
    n, half = knot.n, knot.n // 2
    v = knot.coords - knot.coords.min(axis=0)
    mid = (v + np.roll(v, -1, axis=0)) // 2
    tax = np.abs(mid[:half] - mid[half:]).sum(axis=1)
    tmin = int(tax.min())
    antipodal = Fraction(n, tmin)
    delta = max(rep.delta, antipodal)

    def point(off: int) -> LatticePoint:
        i, odd = divmod(off % (2 * n), 2)
        if not odd:
            return verts[i]
        return LatticePoint(*((a + b) // 2 for a, b in zip(verts[i], verts[(i + 1) % n])))

    witnesses: set[WitnessPair] = set()
    if antipodal == delta:
        for i in np.nonzero(tax == tmin)[0].tolist():
            witnesses.add(_ordered_pair(point(2 * i + 1), point(2 * i + 1 + n)))
    if rep.delta == delta:
        offset = {p: 2 * i for i, p in enumerate(verts)}
        for a, b in rep.witnesses:
            oa, ob = offset[a], offset[b]
            for p_off in (oa - 1, oa, oa + 1):
                for q_off in (ob - 1, ob, ob + 1):
                    arc = (p_off - q_off) % (2 * n)
                    p, q = point(p_off), point(q_off)
                    if arc and Fraction(min(arc, 2 * n - arc), taxicab_doubled(p, q)) == delta:
                        witnesses.add(_ordered_pair(p, q))
    return DistortionReport(delta, frozenset(witnesses), rep.pairs_examined + half, rep.pruned)


def brute_force_vm_distortion(
    knot: LatticeKnot, *, vertices_only: bool = False
) -> DistortionReport:
    """Oracle: exhaustive ratio maximum over vertices and midpoints.

    Plain O(m^2) double loop with cross-multiplied integer comparisons,
    no bands, no pruning, no vectorisation; kept deliberately independent
    of the banded engine so the two can check each other.
    """
    pts: list[tuple[int, LatticePoint]] = sorted(
        (off, p)
        for p, off in knot.offset_table.items()
        if not (vertices_only and off % 2)
    )
    m = len(pts)
    circumference = 2 * knot.n
    best_num, best_den = 1, 1
    hits: list[tuple[LatticePoint, LatticePoint]] = []
    for i in range(m):
        off_a, a = pts[i]
        for j in range(i + 1, m):
            off_b, b = pts[j]
            arc = min(off_b - off_a, circumference - (off_b - off_a))
            d1 = taxicab_doubled(a, b)
            lhs = arc * best_den
            rhs = best_num * d1
            if lhs > rhs:
                best_num, best_den = arc, d1
                hits = [(a, b)]
            elif lhs == rhs:
                hits.append((a, b))
    return DistortionReport(
        Fraction(best_num, best_den),
        frozenset(_ordered_pair(a, b) for a, b in hits),
        m * (m - 1) // 2,
        False,
    )


def euclidean_vertex_lower_bound(knot: LatticeKnot) -> Fraction:
    """Maximum squared arc/Euclidean ratio over distinct vertex pairs.

    A lower bound for the squared Gromov distortion of the curve; always
    at least the squared vertex distortion since Euclidean distance never
    exceeds taxicab distance.
    """
    return _Sweep(knot).run_euclidean()
