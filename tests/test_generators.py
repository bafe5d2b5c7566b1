"""Generators: exact rectangles, torus conformations, seeded polygons,
exhaustive enumeration."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import knotdist.lattice
from hypothesis import strategies as st

from knotdist import (
    THRESHOLD_LOW,
    GeneratorError,
    exhaustive_small,
    move_string,
    random_polygon,
    rectangle,
    scale,
    torus_knot,
    validate,
    vertex_distortion,
)
from knotdist import generators
from knotdist.generators import (
    _TORUS_SCALES_TRIED,
    _closed_walks,
    _drop_backtracks,
    _normal_form,
    _normal_moves,
    _repair_touches,
    _sample_torus,
    canonical_moves,
    torus_sample_bound,
)
from conftest import RELABELINGS, reference_canonical_moves, reference_sample_torus
from test_tooling import load_perfbench

# a random polygon (length, seed) whose every search attempt backs out of a
# dead end at least once
WALK_DEAD_END = (4000, 9)
TORUS_GRID = [(p, q, s) for p in range(2, 8) for q in range(2, 8) if math.gcd(p, q) == 1
              for s in range(2, 25)]
# the random polygons whose move strings, followed by those of
# exhaustive_small(10) in order, GENERATED_DIGEST pins
PINNED_POLYGONS = ([(length, seed) for length in range(4, 121, 2) for seed in range(4)]
                   + [(length, seed) for length in (600, 1000, 2000) for seed in (0, 1)])
GENERATED_DIGEST = "db039005b1f61db71faf09419f282fa96937cdf5a205d01120ccd45da0165ad1"


def four_run_rectangle(m, n):
    """The rectangle's vertices as its four sides, from the origin."""
    vs = [(i, 0, 0) for i in range(n)]
    vs += [(n, j, 0) for j in range(m)]
    vs += [(n - i, m, 0) for i in range(n)]
    vs += [(0, m - j, 0) for j in range(m)]
    return vs


class TestRectangle:
    def test_unit_square(self):
        knot = rectangle(1, 1)
        assert knot.n == 4
        assert vertex_distortion(knot).delta == 1

    def test_1x2_value(self):
        assert vertex_distortion(rectangle(1, 2)).delta == 3

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_1xn_closed_form_even(self, n):
        assert vertex_distortion(rectangle(1, n)).delta == n + 1

    def test_edge_count_and_validity(self):
        for m in range(1, 5):
            for n in range(1, 5):
                knot = rectangle(m, n)
                assert knot.n == 2 * (m + n)
                assert validate(knot.true_vertices()).ok

    def test_transpose_symmetry(self):
        for m in range(1, 5):
            for n in range(1, 5):
                assert (
                    vertex_distortion(rectangle(m, n)).delta
                    == vertex_distortion(rectangle(n, m)).delta
                )

    def test_bad_sides_rejected(self):
        with pytest.raises(ValueError):
            rectangle(0, 3)

    def test_vertices_are_the_four_sides(self):
        sides = [(m, n) for m in range(1, 13) for n in range(1, 13)] + [(1, 4999)]
        for m, n in sides:
            assert rectangle(m, n).true_vertices() == four_run_rectangle(m, n), (m, n)


class TestTorusKnot:
    def test_validates(self, trefoil):
        assert validate(trefoil.true_vertices()).ok

    def test_deterministic(self):
        assert torus_knot(2, 3, 2) == torus_knot(2, 3, 2)

    def test_knotted_distortion_floor(self, trefoil):
        assert vertex_distortion(trefoil).delta >= THRESHOLD_LOW

    def test_cinquefoil_distortion_floor(self):
        knot = torus_knot(2, 5, 2)
        assert validate(knot.true_vertices()).ok
        assert vertex_distortion(knot).delta >= THRESHOLD_LOW

    def test_each_walk_validated_once(self, monkeypatch):
        calls = []
        real = knotdist.lattice.validate

        def counting(vertices):
            calls.append(len(vertices))
            return real(vertices)

        monkeypatch.setattr(knotdist.lattice, "validate", counting)
        knot = torus_knot(2, 3, 2)
        assert calls == [knot.n]

    def test_sample_bound(self):
        for p, q in ((2, 3), (3, 2), (2, 5), (3, 4), (5, 7)):
            for s in (2, 3, 8):
                bound = torus_sample_bound(p, q, s)
                for tried in range(s, s + _TORUS_SCALES_TRIED):
                    assert 64 * int(2 * math.pi * math.hypot(2 * p, q) * tried) <= bound
                    assert len(_sample_torus(p, q, tried)) <= bound

    def test_repaired_walks_validate(self):
        # torus_knot passes these walks to from_true with no handler for
        # a refusal
        repaired = 0
        for case in TORUS_GRID:
            if case[2] > 6:
                continue
            walk = _repair_touches(_drop_backtracks(generators._connect(_sample_torus(*case))))
            if walk is not None:
                assert validate(walk).ok, case
                repaired += 1
        assert repaired > 100

    def test_retries_the_next_scale(self):
        # the walk rounded at scale 2 keeps a touch point no detour clears
        walk = _drop_backtracks(generators._connect(_sample_torus(2, 11, 2)))
        assert _repair_touches(walk) is None
        knot = torus_knot(2, 11, 2)
        assert knot == torus_knot(2, 11, 3)
        assert knot.n == 328

    def test_gives_up_after_the_scales_tried(self, monkeypatch):
        monkeypatch.setattr(generators, "_repair_touches", lambda walk: None)
        with pytest.raises(GeneratorError, match=r"\(2, 3\).*tried scales \[2, 3, 4, 5\]$"):
            torus_knot(2, 3, 2)

    def test_doubling_stability(self, trefoil):
        assert (
            vertex_distortion(scale(trefoil, 2)).delta
            == vertex_distortion(scale(trefoil, 4)).delta
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            torus_knot(2, 4, 3)  # not coprime
        with pytest.raises(ValueError):
            torus_knot(1, 3, 3)  # unknotted parameters
        with pytest.raises(ValueError):
            torus_knot(2, 3, 1)  # scale too small


@pytest.fixture
def redone(monkeypatch):
    """The samples _sample_torus redoes with the scalar expression."""
    calls = []
    real = generators._torus_point
    monkeypatch.setattr(generators, "_torus_point", lambda *a: calls.append(a) or real(*a))
    return calls


class TestSampleTorus:
    """_sample_torus evaluates the curve in numpy; its points must be the
    scalar loop's, or every torus knot, golden digest and stored benchmark
    answer would change."""

    def test_equals_the_scalar_loop(self, monkeypatch, redone):
        # the grid and every torus base of the benchmark's corpora
        corpus = load_perfbench(monkeypatch, "corpus")
        cases = {base.args for workload in corpus.WORKLOADS.values()
                 for base in workload.full + workload.smoke if base.kind == "torus"}
        for case in sorted(cases.union(TORUS_GRID)):
            assert _sample_torus(*case) == reference_sample_torus(*case), case
        # samples whose coordinate sits at a half-integer, such as
        # s sin(pi / 6) for odd s, occur on the grid and take the fallback
        assert redone

    def test_margin_absorbs_trig_error(self, monkeypatch, redone):
        # numpy's sin and cos moved 8 ulps, alternately up and down, as a
        # less exact SIMD kernel might; math's stay as they are
        def shaken(f):
            def moved(x):
                y = f(x)
                away = np.where(np.arange(y.size).reshape(y.shape) % 2, np.inf, -np.inf)
                for _ in range(8):
                    y = np.nextafter(y, away)
                return y
            return moved

        monkeypatch.setattr(np, "sin", shaken(np.sin))
        monkeypatch.setattr(np, "cos", shaken(np.cos))
        small = [case for case in TORUS_GRID if case[2] <= 4]
        for case in small:
            assert _sample_torus(*case) == reference_sample_torus(*case), case
        assert redone
        # without the margin the same error changes a knot's points
        monkeypatch.setattr(generators, "_HALF_MARGIN", 0.0)
        assert _sample_torus(2, 5, 3) != reference_sample_torus(2, 5, 3)

    def test_memory_stays_bounded(self):
        # about cli.MAX_EDGES samples; evaluated as whole arrays they take
        # over 100 MB, in chunks a few MB, most of it the returned points
        assert 64 * int(2 * math.pi * math.hypot(4, 3) * 500) > 10**6
        tracemalloc.start()
        try:
            pts = _sample_torus(2, 3, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pts) > 20_000
        assert peak < 8 * 2**20


class TestRepairHelpers:
    def test_backtrack_removal(self):
        walk = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 0, 0),
                (1, 1, 0), (0, 1, 0)]
        assert _drop_backtracks(walk) == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]

    def test_seam_backtrack_removal(self):
        walk = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1)]
        got = _drop_backtracks(walk)
        # same cycle up to rotation of the starting vertex
        assert set(got) == {(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)}
        assert validate(got).ok

    def test_touch_point_detour(self):
        # figure-eight walk touching itself at the origin
        walk = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                (0, 0, 0), (-1, 0, 0), (-1, -1, 0), (0, -1, 0)]
        assert not validate(walk).ok
        repaired = _repair_touches(list(walk))
        assert repaired is not None
        assert validate(repaired).ok
        assert len(repaired) == len(walk) + 2


class TestRandomPolygon:
    def test_length_four_is_unit_square(self):
        for seed in range(5):
            knot = random_polygon(4, seed)
            assert canonical_moves_of(knot) == canonical_moves_of(rectangle(1, 1))

    def test_every_output_validates(self):
        for seed in range(10):
            knot = random_polygon(18, seed)
            assert validate(knot.true_vertices()).ok
            assert knot.n == 18

    def test_deterministic(self):
        assert random_polygon(30, 7) == random_polygon(30, 7)

    def test_seeds_vary(self):
        outcomes = {random_polygon(16, seed) for seed in range(8)}
        assert len(outcomes) > 1

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            random_polygon(7, 0)
        with pytest.raises(ValueError):
            random_polygon(2, 0)

    def test_unreachable_length_rejected(self, monkeypatch):
        # a walk of length L pushes L - 1 vertices, so L = 12 needs 11
        monkeypatch.setattr(knotdist.generators, "_WALK_NODE_BUDGET", 10)
        with pytest.raises(ValueError, match="at most 11"):
            random_polygon(12, 0)

    def test_search_budget_exhausted(self, monkeypatch):
        # a budget of length - 1 nodes leaves no room to back out of a dead
        # end, and seed 9 meets one in each attempt at this length
        length, seed = WALK_DEAD_END
        monkeypatch.setattr(generators, "_WALK_NODE_BUDGET", length - 1)
        with pytest.raises(GeneratorError, match=f"length {length} found for seed {seed}$"):
            random_polygon(length, seed)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9), length=st.sampled_from([4, 6, 10, 22, 40]))
    def test_even_length_contract(self, seed, length):
        knot = random_polygon(length, seed)
        assert knot.n == length
        assert knot.n % 2 == 0


def canonical_moves_of(knot):
    from knotdist.generators import _STEPS

    moves = []
    for a, b in zip(knot.coords, np.roll(knot.coords, -1, axis=0)):
        moves.append(_STEPS.index(tuple(((b - a) // 2).tolist())))
    return canonical_moves(tuple(moves))


@pytest.fixture(scope="module")
def census():
    """exhaustive_small(12) in order, each polygon with its vertex report."""
    return [(knot, vertex_distortion(knot)) for knot in exhaustive_small(12)]


class TestNormalForm:
    def test_canonical_form_equals_brute_force(self):
        # every closed walk of up to 8 edges, most of them not in normal
        # form, against the least of all 48 relabelings of every rotation
        # and of every rotation of the reversal
        count = 0
        for n in (4, 6, 8):
            for walk in _closed_walks(n, lambda _: list(range(6))):
                assert canonical_moves(walk) == reference_canonical_moves(walk), walk
                count += 1
        assert count == 3600

    def test_normal_form_is_least_relabeling(self):
        for walk in _closed_walks(8, lambda _: list(range(6))):
            relabelings = [tuple(table[m] for m in walk) for table in RELABELINGS]
            assert _normal_form(walk) == min(relabelings)

    def test_search_streams_normal_forms_in_order(self):
        # the census yields the walks that are least among their cycle
        # forms as the search finds them: sound because the search yields
        # each walk in normal form once, in lexicographic order
        for n in range(4, 11, 2):
            walks = list(_closed_walks(n, _normal_moves))
            assert all(a < b for a, b in zip(walks, walks[1:]))
            assert all(_normal_form(walk) == walk for walk in walks)


class TestExhaustiveSmall:
    def test_single_class_at_four(self):
        classes = [k for k in exhaustive_small(4)]
        assert len(classes) == 1
        assert canonical_moves_of(classes[0]) == canonical_moves_of(rectangle(1, 1))

    def test_class_counts(self, census):
        by_n = {}
        for knot, _ in census:
            by_n[knot.n] = by_n.get(knot.n, 0) + 1
        assert by_n == {4: 1, 6: 3, 8: 11, 10: 73, 12: 755}
        assert len(census) == 843

    def test_enumeration_has_no_search_budget(self, monkeypatch):
        # the budget bounds random_polygon alone: at 14 edges the
        # enumeration pushes 759,773 vertices, past the default 500,000
        monkeypatch.setattr(generators, "_WALK_NODE_BUDGET", 10)
        counts = {}
        for knot in exhaustive_small(8):
            counts[knot.n] = counts.get(knot.n, 0) + 1
        assert counts == {4: 1, 6: 3, 8: 11}
        with pytest.raises(ValueError, match="at most 11"):
            random_polygon(12, 0)

    def test_all_outputs_validate_and_dedupe(self):
        seen = set()
        for knot in exhaustive_small(8):
            assert validate(knot.true_vertices()).ok
            key = canonical_moves_of(knot)
            assert key not in seen
            seen.add(key)

    def test_distortion_one_census(self, census, unit_square, skew_hexagon):
        ones = [knot for knot, rep in census if rep.delta == 1]
        assert [move_string(k) for k in ones] == ["XYxy", "XYZxyz"]
        assert canonical_moves_of(ones[0]) == canonical_moves_of(unit_square)
        assert canonical_moves_of(ones[1]) == canonical_moves_of(skew_hexagon)

    def test_certificate_soundness_on_small_polygons(self, census):
        # every polygon this small is an unknot (the smallest knotted one
        # has 24 edges), so no verdict here can be a false claim; check the
        # decision is exactly the threshold comparison
        from knotdist import certify_unknot

        certified = 0
        for _, rep in census:
            cert = certify_unknot(rep)
            assert cert.verdict in ("unknot_certified", "inconclusive")
            assert (cert.verdict == "unknot_certified") == (cert.delta <= THRESHOLD_LOW)
            assert not cert.near_threshold
            certified += cert.verdict == "unknot_certified"
        assert certified == 46


def test_generated_move_strings_are_pinned():
    # every conformation the census and the benchmark corpora use comes
    # from these searches; a change to either must change no output
    digest = hashlib.sha256()
    for length, seed in PINNED_POLYGONS:
        digest.update(move_string(random_polygon(length, seed)).encode() + b"\n")
    for knot in exhaustive_small(10):
        digest.update(move_string(knot).encode() + b"\n")
    assert digest.hexdigest() == GENERATED_DIGEST
