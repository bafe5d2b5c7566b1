"""Vertex distortion engine.

Vertex pairs are grouped in bands of constant arc distance: band d pairs
index i with i - d (mod n), for d = 1 .. h = floor(n/2).  Within a band
the arc length is fixed, so the band's best ratio is 2d over the band
minimum m(d) of the taxicab distances (doubled units).  One kernel,
_taxicab, evaluates bands with four vectorised integer operations into
buffers its caller made; the coordinates are stored twice, so the
partners of a band are one contiguous slice of them, and read flat, one
slice of the flat (3, 2n) array holds all three rows' partners: one
band is one subtract and one abs over a flat span of 5n values, and two
adds of its row views.

A report refines over the bands instead of evaluating them all: each
step moves one end of a pair by one edge, which changes its taxicab
distance by exactly 2, so m is 2-Lipschitz in d, and m(d) >= 2, as
distinct vertices are at least one unit apart.  Between two evaluated
bands a < b, every band d thus has m(d) >= lb(d) = max(m(a) - 2(d - a),
m(b) - 2(b - d), 2), and its ratio is at most 2d / lb(d).  The run
evaluates the antipodal band h first, with band 0 as a virtual left end
(m(0) = 0), and keeps the open intervals between evaluated bands in a
heap ordered by a bound on their bands, the maximum of 2x / lb(x) over
real x in [a + 1, b - 1], found in closed form.  An interval whose bound
is strictly below the running maximum is dropped, when it would be
pushed or, as the maximum grows, when it is popped; any other gets the
band at the ceiling of the bound's argmax evaluated and is split there
(Piyavskii-Shubert branch and bound).  A band costs one kernel call on
its slice, one reduction and the heap step, and the run keeps the
evaluated bands (d, m(d)) in order, and the indices at the least value
of each band that reaches or ties the running maximum, so the witnesses
need no second kernel call.  A band that reaches the final
maximum has a bound at least that maximum, so it is never dropped: the
strict test keeps the witness set identical to that of a sweep over
every band.  Taken highest bound first, every evaluated band other than
h has d >= its bound >= the maximum, so at most h - ceil(delta) + 1
bands are evaluated; on compact knots, where the maximum is small, a
few dozen.  The Euclidean bound runs the same branch and bound on the
floors of its band minima (see euclidean_vertex_lower_bound).

Only the heatmap's row sweep visits every band, and it computes only
the per-row maxima.  It alone makes window views of the coordinates,
once per sweep, and takes min(h, max(1, BLOCK_ELEMENTS // n))
contiguous bands per kernel call, in any order, so that on knots of a
few thousand edges the per-call overhead of numpy, not the arithmetic,
stops setting its time; one selection pass per block keeps each row's
best ratio by a float key, float32 when n^2 < 2^22, else float64 (see
_Sweep._sweep_rows).
A LatticeKnot is valid by construction, so shifted coordinates lie in
[0, n] and taxicab sums are at most 3n: the kernel runs in int16 when
3n < 2^15, else int32, picked once per knot.  3n >= 2^31 is refused.

The curve-wide maximum over vertices and midpoints extends a finished
vertex sweep: by the midpoint pair lemma (see gromov1_distortion) only
antipodal midpoint pairs can beat the vertex maximum, so it needs one
pass over those n/2 pairs and a check of the neighbours of each vertex
witness.  Its points
are arc offsets in the convention of the lattice module docstring.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lattice import LatticeKnot, LatticePoint
from .metrics import taxicab_doubled

WitnessPair = tuple[LatticePoint, LatticePoint]

# Most edges the band kernel takes: its taxicab sums reach 3n, in int16
# when 3n < 2^15, else int32; one kernel.
MAX_SWEEP_EDGES = (2**31 - 1) // 3
# Distances one row-sweep kernel call evaluates: a block of
# min(h, max(1, BLOCK_ELEMENTS // n)) contiguous bands, h = n // 2.
BLOCK_ELEMENTS = 2**15
# Most edges the row sweep takes, a bound on its O(n^2) time; it keeps
# n^2 < 2^51, where its float64 keys stay exact (see _Sweep._sweep_rows).
MAX_HEATMAP_EDGES = 2**15


@dataclass(frozen=True)
class DistortionReport:
    """Exact distortion maximum with its complete witness set.

    delta is the maximum ratio, witnesses the deduplicated unordered
    point pairs achieving it (each pair tuple in coordinate order), and
    pairs_examined the number of distinct index pairs evaluated; the
    branch and bound skipped some band exactly when a vertex report's
    pairs_examined is below n(n - 1)/2.  For the curve-wide maximum,
    pairs_examined is the vertex pairs examined plus the n/2 antipodal
    midpoint pairs.  A vertex report also keeps the witnesses as vertex
    index pairs, which take no part in equality.
    """

    delta: Fraction
    witnesses: frozenset[WitnessPair]
    pairs_examined: int
    _index_pairs: frozenset[tuple[int, int]] = field(
        default=frozenset(), compare=False, repr=False
    )


class HeatmapRow(NamedTuple):
    index: int
    vertex: LatticePoint
    value: Fraction


@dataclass(frozen=True, eq=False)
class Heatmap:
    """Per-vertex row maxima of a knot: row i is num[i] / den[i], in lowest terms.

    num and den are read-only int64 arrays, the values to compare; len and
    iteration give one HeatmapRow per vertex, built when read.
    """

    knot: LatticeKnot
    num: np.ndarray
    den: np.ndarray

    def __post_init__(self) -> None:
        self.num.flags.writeable = self.den.flags.writeable = False

    def __len__(self) -> int:
        return len(self.num)

    def __iter__(self) -> Iterator[HeatmapRow]:
        rows = zip(self.knot.vertices, self.num.tolist(), self.den.tolist())
        return (HeatmapRow(i, v, Fraction(p, q)) for i, (v, p, q) in enumerate(rows))


def _ordered_pair(a: LatticePoint, b: LatticePoint) -> WitnessPair:
    return (a, b) if a <= b else (b, a)


def _point_pairs(p: np.ndarray, q: np.ndarray) -> set[WitnessPair]:
    """The point pairs at doubled coordinates p[k], q[k]."""
    return {_ordered_pair(LatticePoint(*a), LatticePoint(*b))
            for a, b in zip(p.tolist(), q.tolist())}


def _interval_bound(a: int, ma: int, b: int, mb: int) -> tuple[int, int, int]:
    """Bound on the band ratios over a < d < b, as (num, den, split band).

    ma and mb are the floors of the band minima at a and b (doubled
    units).  Write A = ma + 2a and B = mb - 2b <= 0, so every band between
    has a minimum of at least lb(x) = max(A - 2x, B + 2x, 2) at x = d.
    Over real x, 2x / lb(x) rises while the falling cone or the floor is
    the largest term, and does not rise once the rising cone is, since
    B <= 0: from t = max((A - B) / 4, 1 - B / 2) on.  So over
    [a + 1, b - 1] it peaks at t clamped there, the bound is 2t / lb(t),
    and the split band is ceil(t), which is at least t >= the bound, as
    lb >= 2.  num = 4t keeps the arithmetic in integers.
    """
    big_a, big_b = ma + 2 * a, mb - 2 * b
    t4 = min(max(big_a - big_b, 4 - 2 * big_b, 4 * a + 4), 4 * b - 4)
    return t4, max(2 * big_a - t4, 2 * big_b + t4, 4), (t4 + 3) // 4


def _taxicab(base: np.ndarray, partners: np.ndarray, diff: np.ndarray, rows,
             dist: np.ndarray) -> np.ndarray:
    """The band kernel: the taxicab distances of base to partners, into dist.

    The drivers build every operand before the call: base and partners
    from _Sweep's doubled coordinates, diff and dist as buffers made once
    per run, and rows, the three coordinate rows of diff, as views of it
    (any sequence of three).  diff is left holding the absolute coordinate
    differences.  Every value is at most 3n, in the coordinates' dtype.
    """
    np.subtract(base, partners, out=diff)
    np.abs(diff, out=diff)
    x, y, z = rows
    np.add(x, y, out=dist)
    return np.add(dist, z, out=dist)


class _Sweep:
    """The shifted coordinates of a knot, which the band kernel reads.

    It holds only the coordinates; its drivers, _refine and _sweep_rows,
    each set up the buffers and views they use.  The shift is by the
    minimum; a LatticeKnot, a closed unit-step polygon by construction,
    spans at most n per axis (doubled units), so every value lies in
    [0, n] and taxicab sums are at most 3n; the kernel holds them in int16
    when 3n < 2^15, else int32.  A Python int mixed with such an array
    keeps the array's dtype and would wrap silently, so each such
    expression notes its bound.  Squared Euclidean sums reach 3 n^2 and
    are taken in int64.  Each of the three coordinate rows is stored
    twice, so the band partners i - d (mod n) of the indices i are the
    contiguous slice [n - d, 2n - d) of the doubled rows, and those of
    all three rows lie in one slice of the array read flat (see _refine).
    """

    def __init__(self, knot: LatticeKnot):
        self.knot = knot
        n = self.n = knot.n
        if n > MAX_SWEEP_EDGES:
            raise ValueError(
                f"knot has {n} edges; the int32 band kernel takes at most {MAX_SWEEP_EDGES}"
            )
        dtype = np.int16 if 3 * n < 2**15 else np.int32
        # C order, so the kernel reads each coordinate row contiguously
        coords = self.coords = np.empty((3, 2 * n), dtype=dtype)
        rows = coords[:, :n]
        # the rows are copied into the kernel's dtype, which keeps each value
        # modulo 2^16 or 2^32, and shifted there: a knot spans at most n per
        # axis, so a row less its first value lies in [-n, n], and less its
        # least value in [0, n]; both differences are exact after the wrap
        np.copyto(rows, knot.coords.T, casting="unsafe")
        rows -= rows[:, :1].copy()
        rows -= rows.min(axis=1, keepdims=True)
        coords[:, n:] = rows

    # -- drivers ------------------------------------------------------------

    def _refine(self, squared: bool = False) -> None:
        """Evaluate every band whose bound reaches the running maximum.

        A band is one kernel call over one flat span and one reduction to
        its value m(d).  Read flat, the doubled (3, 2n) coordinates hold
        each row's indices at [2nr, 2nr + n) and its band-d partners n - d
        further on, so base flat[:5n] against flat[n - d : 6n - d] takes
        every row's differences in one subtract and one abs, into a flat
        5n span of a (3, 2n) buffer made once per run, whose row views
        [:, :n] the kernel adds into an (n,) buffer.  The 2n entries
        between the rows are unused: they too are differences of
        coordinates in [0, n], so they lie in [-n, n] and cannot wrap.

        The run keeps the evaluated bands in order as self.bands, pairs
        (d, m(d)), the maximum of 2d / m(d) as self.num / self.den, and as
        self.witnesses each band (d, i) that reaches it, i the indices at
        its least value (squared or not): a band that reaches or ties the
        running maximum is kept, and a new maximum drops those kept before.  The heap
        holds open intervals (a, b) of unevaluated bands, highest bound
        first; band 0 is a virtual end with value 0.  An interval is pushed
        only if its bound reaches the maximum, and evaluated only if it
        still does when popped: the maximum only grows, so an interval
        dropped at the push would have been skipped at the pop.

        squared runs the loop for euclidean_vertex_lower_bound: the band
        value is isqrt(e2), e2 the band's least squared Euclidean distance,
        the maximum is of 4d^2 / e2, and bounds are compared with it squared.
        """
        n, flat = self.n, self.coords.reshape(-1)
        base = flat[: 5 * n]
        buffer = np.empty((3, 2 * n), dtype=flat.dtype)
        diff, grid = buffer.reshape(-1)[: 5 * n], buffer[:, :n]
        rows = tuple(grid)
        dist = np.empty(n, dtype=flat.dtype)
        bound, least, push, pop = _interval_bound, np.minimum.reduce, heapq.heappush, heapq.heappop
        bands: list[tuple[int, int]] = []
        witnesses: list[tuple[int, np.ndarray]] = []
        num, den = 1, 1
        queue: list[tuple[float, int, int, int, int, int, int, int]] = []
        # the antipodal band first, in the interval (0, h) with nothing after it
        a, ma, d = 0, 0, n // 2
        b, mb = d, 0
        while d:
            _taxicab(base, flat[n - d : 6 * n - d], diff, rows, dist)
            if squared:
                values = np.square(grid, dtype=np.int64).sum(axis=0)
                r_den = int(values.min())
                m, r_num = math.isqrt(r_den), 4 * d * d
            else:
                # at most 3n: int() is exact, and so is the comparison with dist
                values, m = dist, int(least(dist))
                r_num, r_den = 2 * d, m
            bands.append((d, m))
            gain = r_num * den - num * r_den
            if gain >= 0:
                if gain:
                    num, den, witnesses = r_num, r_den, []
                witnesses.append((d, np.flatnonzero(values == r_den)))
            for lo, m_lo, hi, m_hi in ((a, ma, d, m), (d, m, b, mb)):
                if hi - lo > 1:
                    t_num, t_den, split = bound(lo, m_lo, hi, m_hi)
                    key = -t_num / t_den
                    if squared:
                        t_num, t_den = t_num * t_num, t_den * t_den
                    if t_num * den >= num * t_den:
                        push(queue, (key, lo, m_lo, hi, m_hi, t_num, t_den, split))
            # the float key only decides the order, and orders distinct
            # bounds exactly for n^3 < 2^51 (n < 2^17): a bound is at most
            # n/2 with a denominator below 2n, so two differ by more than
            # 1/(4n^2), while one rounding moves each by at most 2^-54 n;
            # the skip test is exact
            d = 0
            while queue:
                _, a, ma, b, mb, t_num, t_den, split = pop(queue)
                if t_num * den >= num * t_den:
                    d = split
                    break
        self.bands, self.num, self.den, self.witnesses = bands, num, den, witnesses

    def _sweep_rows(self) -> Heatmap:
        """Evaluate every band into the per-row maxima only.

        A block of contiguous bands is taken per kernel call; the running
        maximum and its witnesses are left to _refine.  Row j meets band d
        as index j (partner j - d, distance dist_d[j]) and as the partner
        of j + d (distance dist_d[j + d]); the nearer one, c, gives the
        row's larger band-d ratio 2d / c.  A row keeps its least key
        c * fl(1 / 2d) and that c.  On a unit-step knot c <= 2d <= n, so
        distinct inverse ratios c / 2d in (0, 1] differ by at least 1/n^2,
        while two roundings move a key by at most 2u (1 + u/2): u = 2^-24 in
        float32, taken when n^2 < 2^22, else 2^-53 in float64, while
        n^2 < 2^51, which MAX_HEATMAP_EDGES keeps.  So a larger ratio has a
        smaller key, and equal keys mean equal ratios (equal ratios may get
        keys an ulp apart; a row keeps either).  One pass per block marks
        the bands at each row's least key and keeps the largest c among
        them, in the kernel's dtype.  At the end 2d = rint(c / key) in
        float64, off by at most n 2^-22 < 1/2.

        The sweep makes its two window views before the loop.  The first,
        windows[:, k] = coords[:, k : k + n], hands the kernel the partners
        of bands d0 .. d1 - 1 as windows[:, n - d0 : n - d1 : -1].  Every
        pass reads contiguous operands.  The kernel writes each block into
        the contiguous (width, n) dist.  A copy, wide, doubles each row as
        _Sweep doubles the coordinates, as far as a block reads it: its
        first d1 - 1 distances repeat after it.  The second view,
        forward[b, k] = wide[b, b + k], hands each block its partners'
        distances as forward[:w, d0 : d0 + n].  The key
        is c cast to the key's dtype, then scaled in place by fl(1 / 2d): c
        <= 3n is exact in float32 and float64, so this rounds c * fl(1 / 2d)
        once, bit for bit as a mixed int-by-float multiply would.
        """
        if self.n > MAX_HEATMAP_EDGES:
            raise ValueError(f"knot has {self.n} edges; the heatmap takes at most "
                             f"{MAX_HEATMAP_EDGES}")
        n, h, coords = self.n, self.n // 2, self.coords
        dtype = coords.dtype
        width = min(h, max(1, BLOCK_ELEMENTS // n))
        base = coords[:, None, :n]
        windows = sliding_window_view(coords, n, axis=1)
        diff = np.empty((3, width, n), dtype=dtype)
        dist = np.empty((width, n), dtype=dtype)
        wide = np.empty((width, 2 * n), dtype=dtype)
        # every (2n + 1)-th window of the flat wide: width rows, as width <= h + 1
        forward = sliding_window_view(wide.reshape(-1), n + h)[:: 2 * n + 1]
        key_buffer = np.empty((width, n), dtype=np.float32 if n * n < 2**22 else np.float64)
        hit_buffer = np.empty((width, n), dtype=bool)
        # fl(1 / 2d) at index d - 1, one rounding in the key's dtype
        inverse_twice_d = 0.5 / np.arange(1, h + 1, dtype=key_buffer.dtype)[:, None]
        row_key = np.full(n, np.inf, dtype=key_buffer.dtype)
        row_den = np.ones(n, dtype=dtype)
        for d0 in range(1, h + 1, width):
            d1 = min(h + 1, d0 + width)
            w = d1 - d0
            block_diff = diff[:, :w]
            block = _taxicab(base, windows[:, n - d0 : n - d1 : -1], block_diff, block_diff,
                             dist[:w])
            wide[:w, :n] = block
            wide[:w, n : n + d1 - 1] = block[:, : d1 - 1]
            cand = np.minimum(block, forward[:w, d0 : d0 + n], out=block)
            key = key_buffer[:w]
            np.copyto(key, cand)
            key *= inverse_twice_d[d0 - 1 : d1 - 1]
            least = key.min(axis=0)
            # an argmin over axis 0 would copy the block transposed and cost
            # more; in place and in the kernel's dtype, as hit * cand <= 3n
            hit = np.equal(key, least, out=hit_buffer[:w])
            den = np.multiply(hit, cand, out=cand).max(axis=0)
            better = least < row_key
            np.copyto(row_key, least, where=better)
            np.copyto(row_den, den, where=better)
        row_num = np.rint(row_den / row_key.astype(np.float64)).astype(np.int64)
        g = np.gcd(row_num, row_den)
        return Heatmap(self.knot, row_num // g, row_den // g)

    def report(self) -> DistortionReport:
        """The maximum and its witnesses, once _refine has run.

        The witnesses are the index pairs (i, i - d) of the bands _refine
        kept at the maximum: those are the pairs a sweep over every band
        would find.  No distance is taken again.  Each evaluated band
        examines n pairs, and the antipodal band h, always evaluated, n/2,
        as it meets each of its pairs from both ends.
        """
        n, num, den = self.n, self.num, self.den
        index_pairs: set[tuple[int, int]] = set()
        for d, i in self.witnesses:
            j = (i - d) % n
            index_pairs.update(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
        i, j = np.array(list(index_pairs), dtype=np.intp).reshape(-1, 2).T
        witnesses = frozenset(_point_pairs(self.knot.coords[i], self.knot.coords[j]))
        pairs = n * len(self.bands) - n // 2
        return DistortionReport(Fraction(num, den), witnesses, pairs, frozenset(index_pairs))


def vertex_distortion(knot: LatticeKnot) -> DistortionReport:
    """Maximum of arc/taxicab over all vertex pairs, with all witnesses.

    A band is skipped only when its Lipschitz bound is strictly below the
    running maximum (see the module docstring), so the value and the
    witness set are those of a sweep over every band.
    """
    sweep = _Sweep(knot)
    sweep._refine()
    return sweep.report()


def vertex_distortion_with_heatmap(knot: LatticeKnot) -> tuple[DistortionReport, Heatmap]:
    """vertex_distortion(knot), equal in every field, and heatmap(knot) from one _Sweep;
    the row sweep runs first, so a knot past MAX_HEATMAP_EDGES is refused before any band."""
    sweep = _Sweep(knot)
    heat = sweep._sweep_rows()
    sweep._refine()
    return sweep.report(), heat


def heatmap(knot: LatticeKnot) -> Heatmap:
    """For each vertex, the maximum ratio against every other vertex."""
    return _Sweep(knot)._sweep_rows()


def gromov1_distortion(knot: LatticeKnot) -> DistortionReport:
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
    equal D.  Only antipodal midpoints on opposed edges escape, as
    tests/test_midpoints.py checks pair by pair.  Hence M is the larger of
    the vertex distortion and the best of the n/2 antipodal midpoint pairs.
    Ties: every witness at M is an antipodal midpoint pair, a vertex
    witness (v_i, v_j), or a midpoint pair tying with one, which lies in
    {v_i, m_(i-1), m_i} x {v_j, m_(j-1), m_j}; all those pairs are checked.

    pairs_examined counts the vertex pairs the sweep examined plus the n/2
    antipodal midpoint pairs.
    """
    return _gromov1_from_vertex_report(knot, vertex_distortion(knot))


def _gromov1_delta(knot: LatticeKnot, vertex_delta: Fraction) -> tuple[Fraction, np.ndarray]:
    """The curve-wide maximum, given the vertex maximum of the knot.

    It is the larger of vertex_delta and the best antipodal midpoint pair
    (see gromov1_distortion).  Also returns the doubled taxicab distance
    of each antipodal midpoint pair (m_i, m_(i+h)), i < h = n/2.
    """
    c = knot.coords
    half = knot.n // 2
    # coordinate differences are exact: a closed knot spans at most n
    # m_i = coords_at(2i + 1) specialised to antipodal pairs, read off one
    # difference array: twice m_i - m_(i+h) is (v_i - v_(i+h)) + (v_(i+1) - v_(i+1+h))
    d = c[:half] - c[half:]
    tax = np.abs(d + np.concatenate([d[1:], -d[:1]])).sum(axis=1) // 2
    return max(vertex_delta, Fraction(knot.n, int(tax.min()))), tax


def _gromov1_from_vertex_report(knot: LatticeKnot, rep: DistortionReport) -> DistortionReport:
    """gromov1_distortion, given the vertex sweep of the knot.

    Points are arc offsets, located by knot.coords_at and built as points
    only for the witnesses.
    """
    n, half = knot.n, knot.n // 2
    delta, tax = _gromov1_delta(knot, rep.delta)

    # the antipodal midpoint pairs at the maximum: doubled arc n over tax
    mid = 2 * np.nonzero(n * delta.denominator == tax * delta.numerator)[0] + 1
    witnesses = _point_pairs(knot.coords_at(mid), knot.coords_at(mid + n))
    if rep.delta == delta:
        # each vertex witness (i, j) against {v_i, m_(i-1), m_i} x {v_j, m_(j-1), m_j}
        ij = 2 * np.array(list(rep._index_pairs), dtype=np.int64).reshape(-1, 2)
        near = np.array([-1, 0, 1])
        p_off, q_off = np.broadcast_arrays(
            (ij[:, 0, None] + near)[:, :, None] % (2 * n),
            (ij[:, 1, None] + near)[:, None, :] % (2 * n),
        )
        p_off, q_off = p_off.ravel(), q_off.ravel()
        arc = (p_off - q_off) % (2 * n)
        arc = np.minimum(arc, 2 * n - arc)
        tax = np.abs(knot.coords_at(p_off) - knot.coords_at(q_off)).sum(axis=1)
        hit = (arc > 0) & (arc * delta.denominator == tax * delta.numerator)
        witnesses |= _point_pairs(knot.coords_at(p_off[hit]), knot.coords_at(q_off[hit]))
    return DistortionReport(delta, frozenset(witnesses), rep.pairs_examined + half)


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
    )


def euclidean_vertex_lower_bound(knot: LatticeKnot) -> Fraction:
    """Maximum squared arc/Euclidean ratio over distinct vertex pairs.

    A lower bound for the squared Gromov distortion of the curve; always
    at least the squared vertex distortion since Euclidean distance never
    exceeds taxicab distance.  vertex_distortion's branch and bound finds
    it on band values isqrt(e2), e2 a band's least squared distance: an
    edge step moves a distance by at most 2 (doubled units), so sqrt(e2)
    and its floor, 2 being an integer, change by at most 2 per band, and
    distinct vertices are 2 apart, so isqrt(e2) >= 2.  Its bound on
    2d / isqrt(e2) >= 2d / sqrt(e2) is compared squared with 4d^2 / e2.
    """
    sweep = _Sweep(knot)
    sweep._refine(squared=True)
    return Fraction(sweep.num, sweep.den)
