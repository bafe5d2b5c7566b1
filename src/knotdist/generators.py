"""Conformation generators for the test and validation corpus.

Rectangles are exact; torus knots are built by densely sampling the
standard parametric curve, rounding onto the lattice and repairing any
touch points.  The curve is evaluated in numpy, in fixed chunks of
samples, and rounds to exactly the points of a scalar loop over math's
sin and cos: samples that numpy's trig error could round otherwise are
redone by that loop's expression.  One depth-first search for closed
self-avoiding walks, _closed_walks, yields the seeded random polygons and,
kept to prefixes of _normal_form, the small polygons enumerated up to the
48 lattice isometries, translation, cycle rotation and orientation
reversal; every polygon but a torus knot is built from its move string.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterator, Optional

import numpy as np

from .knotfile import MOVE_LETTERS, knot_from_moves
from .lattice import UNIT_STEPS, LatticeKnot

# moves 0..5 are +x,-x,+y,-y,+z,-z, written MOVE_LETTERS[0..5] in a move string
_STEPS = UNIT_STEPS

DEFAULT_TORUS_SCALE = 3
# radii of the torus the (p, q) curve winds around, before scaling
_BIG_R, _SMALL_R = 2.0, 1.0
# curve samples _sample_torus evaluates per numpy call, which bounds its
# working arrays to about 100 kB whatever the sample count; 2**14 ran no
# faster and left the process 1.6 MB larger
_TORUS_CHUNK = 2**12
# np.sin and np.cos may run SIMD kernels a few ulps away from math.sin and
# math.cos; allow e = 2**8 ulps of 1 = 2**-44 between them.  A coordinate is
# w or s times a trig value, w = (2 + cos qt) s and |w| <= 3s, so the two
# differ by at most s e + 3s e from the trig values, and by at most s 2**-49
# from the float roundings those move: under s * 2**-41.  Farther than that
# from a half-integer, both round to the same integer.
_HALF_MARGIN = 2.0**-41
# sampling scales torus_knot tries, from the requested one upwards
_TORUS_SCALES_TRIED = 4
# touch points _repair_touches detours before giving up on a walk
_REPAIR_PASSES = 16
# seeded searches random_polygon runs, and the nodes each may visit
_POLYGON_ATTEMPTS = 8
_WALK_NODE_BUDGET = 500_000


class GeneratorError(RuntimeError):
    """A generator exhausted its retry budget without a valid knot."""


def rectangle(m: int, n: int) -> LatticeKnot:
    """Axis-aligned m-by-n rectangle in the z = 0 plane, corner at the
    origin: m rows tall (y), n columns wide (x), 2(m + n) edges."""
    if m < 1 or n < 1:
        raise ValueError(f"rectangle sides must be >= 1, got {m}x{n}")
    return knot_from_moves("X" * n + "Y" * m + "x" * n + "y" * m)


# -- torus knots ----------------------------------------------------------


def _torus_point(p: int, q: int, s: int, samples: int, k: int) -> tuple[int, int, int]:
    """Sample k of `samples` on the (p, q) torus curve at scale s, rounded
    with math's sin and cos: the expression _sample_torus reproduces."""
    t = 2 * math.pi * k / samples
    w = (_BIG_R + _SMALL_R * math.cos(q * t)) * s
    return (
        round(w * math.cos(p * t)),
        round(w * math.sin(p * t)),
        round(_SMALL_R * s * math.sin(q * t)),
    )


def _sample_torus(p: int, q: int, s: int) -> list[tuple[int, int, int]]:
    """Round a dense sampling of the (p, q) torus curve to lattice points,
    dropping consecutive repeats and a closing repeat of the first point.

    The points are _torus_point's for k = 0 .. samples - 1, evaluated in
    numpy _TORUS_CHUNK samples at a time with the same float64 operations
    in the same order; only sin and cos may differ from math's.  A sample
    with a coordinate within s * _HALF_MARGIN of a half-integer, where that
    difference could change the rounding, is redone by _torus_point.
    """
    curve_len = 2 * math.pi * math.hypot(p * _BIG_R, q * _SMALL_R) * s
    samples = max(int(curve_len) * 64, 256)
    # |v - rint(v)| > near only for v within s * _HALF_MARGIN of a half-integer
    near = 0.5 - s * _HALF_MARGIN
    kept = []
    last = None
    for start in range(0, samples, _TORUS_CHUNK):
        k = np.arange(start, min(start + _TORUS_CHUNK, samples), dtype=np.float64)
        t = 2 * math.pi * k / samples
        qt = q * t
        w = (_BIG_R + _SMALL_R * np.cos(qt)) * s
        xyz = np.stack((w * np.cos(p * t), w * np.sin(p * t), _SMALL_R * s * np.sin(qt)), axis=1)
        rounded = np.rint(xyz)
        redo = np.flatnonzero((np.abs(xyz - rounded) > near).any(axis=1))
        pts = rounded.astype(np.int64)
        for k in redo.tolist():
            pts[k] = _torus_point(p, q, s, samples, start + k)
        fresh = np.empty(len(pts), dtype=bool)
        fresh[0] = last is None or bool((pts[0] != last).any())
        fresh[1:] = (pts[1:] != pts[:-1]).any(axis=1)
        kept.append(pts[fresh])
        last = pts[-1]
    pts = list(zip(*np.concatenate(kept).T.tolist()))
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    return pts


def _connect(pts: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Join consecutive rounded points by unit steps, axis by axis."""
    walk = [pts[0]]
    for target in pts[1:] + [pts[0]]:
        cur = walk[-1]
        for axis in range(3):
            step = 1 if target[axis] > cur[axis] else -1
            while cur[axis] != target[axis]:
                nxt = list(cur)
                nxt[axis] += step
                cur = tuple(nxt)
                walk.append(cur)
    walk.pop()  # closing vertex duplicates the start
    return walk


def _drop_backtracks(walk: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Collapse a -> b -> a stutters anywhere on the cycle, seam included."""
    spike = True
    while spike and len(walk) >= 3:
        spike = False
        m = len(walk)
        for i in range(m):
            if walk[(i - 1) % m] == walk[(i + 1) % m]:
                kill = {i, (i + 1) % m}
                walk = [v for j, v in enumerate(walk) if j not in kill]
                spike = True
                break
    return walk


def _repair_touches(walk: list[tuple[int, int, int]]) -> Optional[list[tuple[int, int, int]]]:
    """Detour repeated vertices by pushing the later visit one unit aside.

    A touch point v with neighbors a, b is replaced by the three fresh
    vertices a+u, v+u, b+u for a unit direction u perpendicular to both
    incident steps; unit lattice squares have no lattice points in their
    interior, so the detour never crosses the rest of the walk.
    """
    for _ in range(_REPAIR_PASSES):
        seen: dict[tuple[int, int, int], int] = {}
        dup_at = -1
        for i, v in enumerate(walk):
            if v in seen:
                dup_at = i
                break
            seen[v] = i
        if dup_at < 0:
            return walk
        n = len(walk)
        v = walk[dup_at]
        a = walk[(dup_at - 1) % n]
        b = walk[(dup_at + 1) % n]
        occupied = set(walk)
        done = False
        for u in _STEPS:
            if any(u[k] and (a[k] != v[k] or b[k] != v[k]) for k in range(3)):
                continue  # u must be perpendicular to both steps
            detour = [tuple(pt[k] + u[k] for k in range(3)) for pt in (a, v, b)]
            if any(d in occupied for d in detour):
                continue
            # ...a, v, b... becomes ...a, a+u, v+u, b+u, b...
            walk = walk[:dup_at] + detour + walk[dup_at + 1 :]
            done = True
            break
        if not done:
            return None
    return None


def torus_sample_bound(p: int, q: int, scale: int) -> int:
    """Upper bound on the curve points torus_knot(p, q, scale) samples.

    Integer arithmetic only, so a caller can refuse a request before
    anything is allocated: each scale s tried takes
    64 * int(2 pi hypot(2p, q) s) points, and 2 pi hypot(2p, q) < 7 (2p + q).
    """
    return 64 * 7 * (2 * p + q) * (scale + _TORUS_SCALES_TRIED - 1)


def torus_knot(p: int, q: int, scale: int = DEFAULT_TORUS_SCALE) -> LatticeKnot:
    """Lattice conformation of the (p, q) torus knot.

    Built by sample-round-repair at the given sampling scale; if the
    rounded path cannot be made self-avoiding the scale is bumped, trying
    _TORUS_SCALES_TRIED scales in all.  The knot type is as faithful as
    the sampling: it is not verified independently.
    """
    if math.gcd(p, q) != 1:
        raise ValueError(f"torus knot parameters must be coprime, got ({p}, {q})")
    if min(p, q) < 2:
        raise ValueError(f"torus knot parameters must both be >= 2, got ({p}, {q})")
    if scale < 2:
        raise ValueError(f"sampling scale must be >= 2, got {scale}")
    tried = []
    for s in range(scale, scale + _TORUS_SCALES_TRIED):
        tried.append(s)
        walk = _drop_backtracks(_connect(_sample_torus(p, q, s)))
        repaired = _repair_touches(walk)
        if repaired is not None:
            return LatticeKnot.from_true(repaired)
    raise GeneratorError(
        f"could not realise torus knot ({p}, {q}) on the lattice; tried scales {tried}"
    )


# -- closed walks -----------------------------------------------------------


def _closed_walks(
    length: int, moves_at: Callable[[list[int]], list[int]], budget: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Every closed self-avoiding walk of `length` moves from the origin,
    as a tuple of moves, depth first; `length` is even.

    At the start and after each move, the search tries the moves of the
    list moves_at(moves), last first.  It pushes a vertex only if it is
    new and the origin is within taxicab reach of the moves left, and
    stops before its (budget + 1)-th push.
    """
    origin = (0, 0, 0)
    path = [origin]
    visited = {origin}
    moves: list[int] = []
    frames = [moves_at(moves)]
    nodes = 0
    while frames:
        frame = frames[-1]
        if not frame:
            frames.pop()
            if moves:
                moves.pop()
                visited.discard(path.pop())
            continue
        move = frame.pop()
        x, y, z = path[-1]
        dx, dy, dz = _STEPS[move]
        nxt = (x + dx, y + dy, z + dz)
        # the moves left after this one
        left = length - len(path)
        if nxt == origin:
            if not left:
                yield (*moves, move)
            continue
        if nxt in visited or abs(nxt[0]) + abs(nxt[1]) + abs(nxt[2]) > left:
            continue
        if nodes == budget:  # never while budget is None
            return
        nodes += 1
        path.append(nxt)
        visited.add(nxt)
        moves.append(move)
        frames.append(moves_at(moves))


# -- random polygons -------------------------------------------------------


def random_polygon(length: int, seed: int) -> LatticeKnot:
    """Seeded closed self-avoiding polygon with exactly `length` edges.

    The first walk _closed_walks yields when it tries the six moves in a
    fresh random order at each vertex, within _WALK_NODE_BUDGET pushes; a
    length that budget cannot reach is rejected.  The PRNG is Python's
    Mersenne Twister seeded with a string derived from (seed, attempt), so
    identical arguments yield identical polygons everywhere.
    """
    if length < 4 or length % 2:
        raise ValueError(f"polygon length must be even and >= 4, got {length}")
    # a walk pushes length - 1 vertices, and each search stops past the budget
    if length - 1 > _WALK_NODE_BUDGET:
        raise ValueError(f"polygon length must be at most {_WALK_NODE_BUDGET + 1}, got {length}")
    for attempt in range(_POLYGON_ATTEMPTS):
        rng = random.Random(f"knotdist.random_polygon:{seed}:{attempt}")
        walks = _closed_walks(length, lambda _: rng.sample(range(6), 6), _WALK_NODE_BUDGET)
        moves = next(walks, None)
        if moves is not None:
            return knot_from_moves("".join(map(MOVE_LETTERS.__getitem__, moves)))
    raise GeneratorError(
        f"no closed self-avoiding polygon of length {length} found for seed {seed}"
    )


# -- exhaustive enumeration --------------------------------------------------


def _normal_form(moves: tuple[int, ...]) -> tuple[int, ...]:
    """The least of a move sequence's 48 relabelings by lattice isometries:
    its first move becomes +x, its first move off that axis +y and its
    first move on the third axis +z.  Lexicographic order forces each
    choice at the first position it touches."""
    # move m and its opposite m ^ 1 share an axis
    table = [-1] * 6
    seen = 0
    for m in moves:
        if table[m] < 0:
            table[m], table[m ^ 1] = seen, seen + 1
            seen += 2
    return tuple(table[m] for m in moves)


def _cycle_forms(moves: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Normal forms of a closed walk's n cycle rotations and its reversal's n."""
    reverse = tuple(m ^ 1 for m in reversed(moves))
    for seq in (moves, reverse):
        for r in range(len(seq)):
            yield _normal_form(seq[r:] + seq[:r])


def canonical_moves(moves: tuple[int, ...]) -> tuple[int, ...]:
    """Least of a closed walk's 2n cycle forms: a translation-free
    canonical form up to the 48 lattice isometries, cycle rotation and
    orientation, in 2n passes over the n moves."""
    return min(_cycle_forms(moves))


def _normal_moves(moves: list[int]) -> list[int]:
    """The moves that keep a normal-form prefix in normal form, last
    first: those on the axes seen, then the next axis's + move."""
    axes = max(moves, default=-1) // 2 + 1
    return list(range(min(2 * axes, 5), -1, -1))


def exhaustive_small(n_max: int) -> Iterator[LatticeKnot]:
    """All polygons with at most n_max edges, one per isometry class.

    Deterministic order: by edge count, then by canonical move string.
    _closed_walks yields the walks in normal form in lexicographic order,
    and every cycle form of a polygon is one of them, so each walk no
    greater than all its cycle forms is yielded as found.  12 edges take
    about half a second, 14 about ten.
    """
    if n_max < 4:
        raise ValueError(f"n_max must be >= 4, got {n_max}")
    for n in range(4, n_max + 1, 2):
        for moves in _closed_walks(n, _normal_moves):
            if all(moves <= form for form in _cycle_forms(moves)):
                yield knot_from_moves("".join(map(MOVE_LETTERS.__getitem__, moves)))
