"""The midpoint pair lemma, through the conftest oracle, and certificates."""

import itertools
from fractions import Fraction

import mpmath

from knotdist import (
    THRESHOLD_HIGH,
    THRESHOLD_LOW,
    DistortionReport,
    LatticePoint,
    arc_distance,
    certify_unknot,
    distortion_ratio,
    gromov1_distortion,
    rectangle,
    taxicab_distance,
    vertex_distortion,
)
from conftest import classify_pair, dominating_vertex_pair, edge_ends, midpoint_points

SQ_MID_BOTTOM = LatticePoint(1, 0, 0)   # (0.5, 0, 0)
SQ_MID_RIGHT = LatticePoint(2, 1, 0)    # (1, 0.5, 0)
SQ_MID_TOP = LatticePoint(1, 2, 0)      # (0.5, 1, 0)
SQ_MID_LEFT = LatticePoint(0, 1, 0)     # (0, 0.5, 0)


class TestNeighbors:
    def test_unit_square_bottom_edge(self, unit_square):
        assert edge_ends(unit_square, SQ_MID_BOTTOM) == (
            LatticePoint.vertex(0, 0, 0),
            LatticePoint.vertex(1, 0, 0),
        )

    def test_neighbor_distances(self, small_corpus):
        for knot in small_corpus:
            for m in midpoint_points(knot)[:6]:
                for nb in edge_ends(knot, m):
                    assert taxicab_distance(m, nb) == Fraction(1, 2)
                    assert arc_distance(knot, m, nb) == Fraction(1, 2)

    def test_neighbors_follow_edges(self, small_corpus):
        for knot in small_corpus:
            for i, m in enumerate(midpoint_points(knot)):
                assert edge_ends(knot, m) == (
                    knot.vertices[i],
                    knot.vertices[(i + 1) % knot.n],
                )


class TestClassifyPair:
    def test_opposite_vertical_midpoints_non_generic(self, unit_square):
        generic, antipodal, opposed = classify_pair(unit_square, SQ_MID_LEFT, SQ_MID_RIGHT)
        assert not generic
        assert antipodal
        assert opposed
        # this is the configuration whose distortion beats the vertex maximum
        assert distortion_ratio(unit_square, SQ_MID_LEFT, SQ_MID_RIGHT) == 2 > 1

    def test_perpendicular_midpoints_generic(self, unit_square):
        generic, _, opposed = classify_pair(unit_square, SQ_MID_BOTTOM, SQ_MID_RIGHT)
        assert generic
        assert not opposed

    def test_non_generic_neighbor_distance_equalities(self, small_corpus):
        # checked inside classify_pair too; here through edge_ends alone
        for knot in small_corpus:
            for p, q in itertools.combinations(midpoint_points(knot), 2):
                generic, _, _ = classify_pair(knot, p, q)
                if generic:
                    continue
                d = taxicab_distance(p, q)
                for nb in edge_ends(knot, q):
                    assert taxicab_distance(p, nb) == d + Fraction(1, 2)
                for nb in edge_ends(knot, p):
                    assert taxicab_distance(nb, q) == d + Fraction(1, 2)


class TestDominatingVertexPair:
    def test_vertex_midpoint_always_dominated(self, small_corpus):
        for knot in small_corpus:
            v = knot.vertices[0]
            for m in midpoint_points(knot):
                got = dominating_vertex_pair(knot, m, v)
                assert got is not None
                a, b = got
                assert distortion_ratio(knot, a, b) >= distortion_ratio(knot, m, v)

    def test_unit_square_exceptional_pair_has_none(self, unit_square):
        assert dominating_vertex_pair(unit_square, SQ_MID_LEFT, SQ_MID_RIGHT) is None
        assert dominating_vertex_pair(unit_square, SQ_MID_BOTTOM, SQ_MID_TOP) is None

    def test_absence_only_for_antipodal_non_generic_midpoints(self, small_corpus):
        for knot in small_corpus:
            for (p, op), (q, oq) in itertools.combinations(knot.offset_table.items(), 2):
                if dominating_vertex_pair(knot, p, q) is None:
                    assert op % 2 and oq % 2
                    generic, antipodal, _ = classify_pair(knot, p, q)
                    assert antipodal and not generic

    def test_pairs_beating_delta_are_exceptional(self, small_corpus):
        for knot in small_corpus:
            delta = vertex_distortion(knot).delta
            for (p, op), (q, oq) in itertools.combinations(knot.offset_table.items(), 2):
                if distortion_ratio(knot, p, q) > delta:
                    assert op % 2 and oq % 2
                    generic, antipodal, opposed = classify_pair(knot, p, q)
                    assert antipodal
                    assert not generic
                    assert opposed
                    assert dominating_vertex_pair(knot, p, q) is None

    def test_gromov1_excess_witnesses_are_exceptional(self, small_corpus, trefoil):
        for knot in small_corpus + [trefoil]:
            g1 = gromov1_distortion(knot)
            if g1.delta == vertex_distortion(knot).delta:
                continue
            assert g1.witnesses
            for p, q in g1.witnesses:
                assert knot.offset_table[p] % 2 and knot.offset_table[q] % 2
                generic, antipodal, opposed = classify_pair(knot, p, q)
                assert antipodal and not generic and opposed


class TestCertificate:
    def test_delta_one_certified(self, unit_square):
        cert = certify_unknot(vertex_distortion(unit_square))
        assert cert.verdict == "unknot_certified"
        assert not cert.threshold_exceeded

    def test_delta_two_certified_boundary(self):
        # 2 < 2.0229... so the 2x2 square still certifies
        cert = certify_unknot(vertex_distortion(rectangle(2, 2)))
        assert cert.delta == 2
        assert cert.verdict == "unknot_certified"

    def test_delta_five_inconclusive(self):
        cert = certify_unknot(vertex_distortion(rectangle(1, 4)))
        assert cert.delta == 5
        assert cert.verdict == "inconclusive"
        assert cert.threshold_exceeded

    def test_near_threshold_band(self):
        inside = (THRESHOLD_LOW + THRESHOLD_HIGH) / 2
        cert = certify_unknot(DistortionReport(inside, frozenset(), 0))
        assert cert.verdict == "inconclusive"
        assert cert.near_threshold

    def test_enclosure_brackets_true_constant(self):
        mpmath.mp.dps = 50
        value = 5 * mpmath.pi / (3 * mpmath.sqrt(3)) - 1
        low = mpmath.mpf(THRESHOLD_LOW.numerator) / THRESHOLD_LOW.denominator
        high = mpmath.mpf(THRESHOLD_HIGH.numerator) / THRESHOLD_HIGH.denominator
        assert low < value < high
        assert THRESHOLD_HIGH - THRESHOLD_LOW == Fraction(1, 10**10)

    def test_knotted_conformations_exceed_threshold(self, trefoil):
        assert vertex_distortion(trefoil).delta >= THRESHOLD_LOW
