"""Metric functions: exact values, metric axioms, comparator inequalities."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotdist import (
    LatticePoint,
    NotOnKnotError,
    arc_distance,
    arc_position,
    distortion_ratio,
    euclidean_ratio_squared,
    rectangle,
    taxicab_distance,
)

coord = st.integers(-50, 50)
points = st.builds(LatticePoint.vertex, coord, coord, coord)


class TestTaxicab:
    def test_example(self):
        a = LatticePoint.vertex(0, 0, 0)
        b = LatticePoint.vertex(1, 2, 3)
        assert taxicab_distance(a, b) == 6

    def test_zero_on_diagonal(self):
        p = LatticePoint.vertex(3, -1, 2)
        assert taxicab_distance(p, p) == 0

    def test_vertex_to_adjacent_midpoint(self, unit_square):
        v = unit_square.vertices[0]
        m = LatticePoint(1, 0, 0)  # the midpoint of the first edge
        assert taxicab_distance(v, m) == Fraction(1, 2)

    @given(points, points, points)
    @settings(max_examples=100)
    def test_metric_axioms(self, a, b, c):
        assert taxicab_distance(a, b) == taxicab_distance(b, a)
        assert taxicab_distance(a, b) >= 0
        assert (taxicab_distance(a, b) == 0) == (a == b)
        assert taxicab_distance(a, c) <= taxicab_distance(a, b) + taxicab_distance(b, c)


class TestArcDistance:
    def test_unit_square_diagonal(self, unit_square):
        a = LatticePoint.vertex(0, 0, 0)
        b = LatticePoint.vertex(1, 1, 0)
        assert arc_distance(unit_square, a, b) == 2

    def test_self_distance_zero(self, unit_square):
        for p in unit_square.vertices:
            assert arc_distance(unit_square, p, p) == 0

    def test_antipodal_midpoints(self, unit_square):
        a = LatticePoint(1, 0, 0)   # (0.5, 0, 0)
        b = LatticePoint(1, 2, 0)   # (0.5, 1, 0)
        assert arc_distance(unit_square, a, b) == 2 == Fraction(unit_square.n, 2)

    def test_rejects_points_off_the_knot(self, unit_square):
        with pytest.raises(NotOnKnotError):
            arc_distance(unit_square, LatticePoint.vertex(5, 5, 5), unit_square.vertices[0])

    def test_symmetry_and_triangle(self, small_corpus):
        for knot in small_corpus[:6]:
            pts = list(knot.offset_table)[:8]
            for a, b in itertools.combinations(pts, 2):
                assert arc_distance(knot, a, b) == arc_distance(knot, b, a)
            for a, b, c in itertools.combinations(pts, 3):
                assert arc_distance(knot, a, c) <= (
                    arc_distance(knot, a, b) + arc_distance(knot, b, c)
                )

    def test_arc_at_least_taxicab(self, small_corpus):
        for knot in small_corpus:
            pts = list(knot.offset_table)
            for a, b in itertools.combinations(pts[:12], 2):
                assert arc_distance(knot, a, b) >= taxicab_distance(a, b)

    def test_antipode_of_vertex_is_vertex(self, small_corpus):
        for knot in small_corpus:
            offsets = {pos.offset: pos.point for pos in
                       (arc_position(knot, p) for p in knot.offset_table)}
            for off, point in offsets.items():
                antipode = offsets[(off + knot.n) % (2 * knot.n)]
                if not any(c % 2 for c in point):
                    assert not any(c % 2 for c in antipode)


class TestDistortionRatio:
    def test_unit_square_vertex_pair(self, unit_square):
        assert distortion_ratio(
            unit_square, LatticePoint.vertex(0, 0, 0), LatticePoint.vertex(1, 1, 0)
        ) == 1

    def test_unit_square_antipodal_midpoints(self, unit_square):
        assert distortion_ratio(
            unit_square, LatticePoint(1, 0, 0), LatticePoint(1, 2, 0)
        ) == 2

    def test_diagonal_is_one(self, small_corpus):
        for knot in small_corpus[:4]:
            for p in list(knot.offset_table)[:6]:
                assert distortion_ratio(knot, p, p) == 1


class TestEuclideanComparator:
    def test_unit_square_diagonal(self, unit_square):
        assert euclidean_ratio_squared(
            unit_square, LatticePoint.vertex(0, 0, 0), LatticePoint.vertex(1, 1, 0)
        ) == 2

    def test_collinear_pair_on_1x2(self):
        # antipodal end-edge midpoints (0, 0.5, 0) and (2, 0.5, 0):
        # arc 3, Euclidean distance 2, squared ratio 9/4
        knot = rectangle(1, 2)
        assert euclidean_ratio_squared(
            knot, LatticePoint(0, 1, 0), LatticePoint(4, 1, 0)
        ) == Fraction(9, 4)
        assert arc_distance(knot, LatticePoint(0, 1, 0), LatticePoint(4, 1, 0)) == 3

    def test_diagonal_rejected(self, unit_square):
        v = unit_square.vertices[0]
        with pytest.raises(ValueError):
            euclidean_ratio_squared(unit_square, v, v)

    def test_comparator_sandwich(self, small_corpus):
        # euclidean <= taxicab <= sqrt(3) euclidean, squared to stay rational
        for knot in small_corpus:
            pts = list(knot.offset_table)[:14]
            for a, b in itertools.combinations(pts, 2):
                rho1 = distortion_ratio(knot, a, b)
                rho2_sq = euclidean_ratio_squared(knot, a, b)
                assert rho2_sq >= rho1 * rho1
                assert 3 * rho1 * rho1 >= rho2_sq
