"""Engine results against the independent reference oracle, pruning
exactness, doubling behavior, heatmap consistency."""

import dataclasses
import decimal
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knotdist.engine
import knotdist.lattice
from knotdist import (
    DistortionReport,
    InvalidKnotError,
    LatticeKnot,
    LatticePoint,
    brute_force_vm_distortion,
    certify_unknot,
    euclidean_vertex_lower_bound,
    exhaustive_small,
    gromov1_distortion,
    heatmap,
    lattice_isometries,
    parse_knot,
    random_polygon,
    rectangle,
    scale,
    serialize,
    torus_knot,
    transform,
    validate,
    vertex_distortion,
    vertex_distortion_with_heatmap,
)
from knotdist.lattice import _valid_knot
from knotdist.report import (
    build_gromov1_report, build_report, format_decimal, heatmap_csv, heatmap_docs, render_json,
)
from conftest import (
    reference_euclidean_bound,
    reference_euclidean_descending,
    reference_heatmap_csv,
    reference_heatmap_json,
    reference_heatmap_rows,
    reference_interval_bound,
    reference_row_maxima,
    reference_vertex_distortion,
    reference_vertex_report,
    witness_true_pairs,
)
from test_tooling import load_perfbench


def reference_gromov1(knot):
    """The curve-wide report extended from the exhaustive vertex report."""
    return knotdist.engine._gromov1_from_vertex_report(knot, reference_vertex_report(knot))


def all_pairs(knot):
    """Vertex pairs of the knot; a vertex report below it skipped a band."""
    return knot.n * (knot.n - 1) // 2


class TestVertexDistortion:
    def test_unit_square(self, unit_square):
        rep = vertex_distortion(unit_square)
        assert rep.delta == 1
        # 4 adjacent pairs plus the 2 diagonals of the antipodal band
        assert rep.pairs_examined == 6

    def test_two_by_two_square(self):
        rep = vertex_distortion(rectangle(2, 2))
        assert rep.delta == 2
        assert witness_true_pairs(rep) == {
            (((1, 0, 0), (1, 2, 0))),
            (((0, 1, 0), (2, 1, 0))),
        }

    def test_1x4_rectangle(self):
        rep = vertex_distortion(rectangle(1, 4))
        assert rep.delta == 5
        assert ((2, 0, 0), (2, 1, 0)) in witness_true_pairs(rep)

    def test_against_reference_oracle(self, small_corpus):
        for knot in small_corpus:
            want_delta, want_wit = reference_vertex_distortion(knot.true_vertices())
            for rep in (reference_vertex_report(knot), vertex_distortion(knot)):
                assert rep.delta == want_delta
                assert witness_true_pairs(rep) == want_wit

    def test_witnesses_evaluate_to_delta(self, small_corpus):
        from knotdist import distortion_ratio

        for knot in small_corpus:
            rep = vertex_distortion(knot)
            assert rep.witnesses
            assert rep.delta >= 1
            for a, b in rep.witnesses:
                assert distortion_ratio(knot, a, b) == rep.delta

    def test_pruned_equals_unpruned(self, small_corpus, trefoil):
        knots = small_corpus + [trefoil]
        knots += [random_polygon(length, seed) for length in range(4, 401, 4) for seed in range(3)]
        knots += [rectangle(a, b) for a in range(1, 12) for b in range(a, 12)]
        knots += [torus_knot(2, 3, s) for s in range(2, 6)]
        knots += [torus_knot(2, 5, 3), torus_knot(3, 4, 3)]
        knots += [transform(k, translate=(2**40, 2**40, 2**40)) for k in knots]
        for knot in knots:
            fast = vertex_distortion(knot)
            slow = reference_vertex_report(knot)
            assert fast.delta == slow.delta, knot
            assert fast.witnesses == slow.witnesses, knot
            assert fast.pairs_examined <= slow.pairs_examined

    def test_index_pairs_match_witnesses(self, small_corpus):
        for knot in small_corpus:
            for rep in (vertex_distortion(knot), reference_vertex_report(knot)):
                verts = knot.vertices
                assert {tuple(sorted((verts[i], verts[j]))) for i, j in rep._index_pairs} == set(
                    rep.witnesses
                )
                # the index pairs take no part in equality, hashing or repr
                plain = DistortionReport(rep.delta, rep.witnesses, rep.pairs_examined)
                assert rep == plain and hash(rep) == hash(plain) and repr(rep) == repr(plain)

    def test_isometry_invariance(self, small_corpus):
        from knotdist import lattice_isometries

        isos = lattice_isometries()
        for i, knot in enumerate(small_corpus):
            moved = transform(knot, isos[(11 * i) % 48], translate=(3, -2, i))
            assert vertex_distortion(moved).delta == vertex_distortion(knot).delta

    def test_distortion_one_only_on_tiny_unknots(self, small_corpus, trefoil):
        # the smallest knotted lattice polygon has 24 edges, so any
        # distortion-1 output here must come from an unknot
        for knot in small_corpus + [trefoil]:
            if vertex_distortion(knot).delta == 1:
                assert knot.n < 24

    def test_python_fallback_matches_numpy(self, small_corpus):
        # huge coordinates: every result must equal the one at the origin
        far = 2**40

        def back(p):
            return LatticePoint(*(c - 2 * far for c in p))

        def back_pairs(witnesses):
            return frozenset(tuple(back(p) for p in pair) for pair in witnesses)

        for knot in small_corpus[:4]:
            moved = transform(knot, translate=(far, far, far))
            got = vertex_distortion(moved)
            want = vertex_distortion(knot)
            assert got.delta == want.delta
            assert back_pairs(got.witnesses) == want.witnesses
            assert euclidean_vertex_lower_bound(moved) == euclidean_vertex_lower_bound(knot)
            rows = [(r.index, back(r.vertex), r.value) for r in heatmap(moved)]
            assert rows == [tuple(r) for r in heatmap(knot)]
            g_got, g_want = gromov1_distortion(moved), gromov1_distortion(knot)
            assert g_got.delta == g_want.delta
            assert back_pairs(g_got.witnesses) == g_want.witnesses

    def test_unvalidated_spread_rejected(self):
        # the band kernel relies on coordinates spanning at most n, which
        # the constructor ensures; the last knot's x span, 2^64 - 2, wraps
        # to -2 if taken in int64
        for pts, codes in (([(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 6, 0)], {"not_closed"}),
                           ([(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, -2**62, 0)], {"not_closed"}),
                           ([(-2**63, 0, 0), (2**63 - 2, 0, 0), (2**63 - 2, 2, 0), (-2**63, 2, 0)],
                            {"not_closed", "out_of_range"})):
            with pytest.raises(InvalidKnotError) as refused:
                LatticeKnot(tuple(LatticePoint(*p) for p in pts))
            assert refused.value.result.codes() == codes


def bands_evaluated(knot, rep):
    # every band has n distinct pairs but the antipodal one, always evaluated
    return (rep.pairs_examined - knot.n // 2) // knot.n + 1


def benchmark_bases():
    """The full bases of the benchmark's three workloads, as generator calls.

    compact_compute, hairpin_certify, then heatmap_report, each in its
    corpus order; the compact far base is torus_knot(2, 3, 8) moved by
    2^30 per axis.
    """
    compact = ([torus_knot(2, 3, s) for s in range(8, 25, 2)]
               + [torus_knot(p, q, s) for p, q in ((2, 5), (3, 4), (3, 5)) for s in (6, 10)]
               + [torus_knot(2, 7, 6)] + [rectangle(a, a) for a in (100, 200, 250, 300, 350, 400)]
               + [rectangle(150, 450), rectangle(120, 180)]
               + [transform(torus_knot(2, 3, 8), translate=(2**30,) * 3)])
    hairpin = ([rectangle(1, k) for k in (999, 1999, 2999, 3999, 4999)]
               + [random_polygon(n, 0) for n in range(600, 2001, 200)]
               + [random_polygon(1000, 1), random_polygon(2000, 1)])
    heat = ([rectangle(a, a) for a in (150, 250, 350, 500)]
            + [torus_knot(p, q, s) for p, q, s in ((2, 3, 12), (2, 3, 20), (2, 3, 24),
                                                   (3, 4, 10), (3, 5, 10), (2, 5, 10))]
            + [rectangle(1, k) for k in (299, 499, 999)]
            + [random_polygon(1000, 0), random_polygon(2000, 0)])
    return compact + hairpin + heat


@st.composite
def evaluated_interval(draw):
    """Two bands a < b with minima obeying the Lipschitz and parity rules."""
    a = draw(st.integers(0, 40))
    b = a + draw(st.integers(2, 60))
    # band 0 is virtual, with minimum 0; band d has a minimum in [2, 2d], = 2d mod 4
    ma = 2 * a - 4 * draw(st.integers(0, max(a - 1, 0) // 2)) if a else 0
    choices = [m for m in range(2, 2 * b + 1, 2)
               if (m - 2 * b) % 4 == 0 and abs(m - ma) <= 2 * (b - a)]
    return a, ma, b, draw(st.sampled_from(choices))


@st.composite
def lipschitz_interval(draw):
    """Two bands a < b with any minima in [2, 2d] obeying the Lipschitz rule."""
    a = draw(st.integers(0, 40))
    b = a + draw(st.integers(2, 60))
    ma = draw(st.integers(2, 2 * a)) if a else 0
    mb = draw(st.integers(max(2, ma - 2 * (b - a)), min(2 * b, ma + 2 * (b - a))))
    return a, ma, b, mb


def lower_bound(a, ma, b, mb, x):
    return max(ma - 2 * (x - a), mb - 2 * (b - x), 2)


def band_maximum(a, ma, b, mb):
    """The largest 2d / lower_bound over the bands a < d < b."""
    return max(Fraction(2 * d, lower_bound(a, ma, b, mb, d)) for d in range(a + 1, b))


def refinement_knots(small_corpus):
    return (
        small_corpus + list(exhaustive_small(10))
        + [rectangle(a, b) for a in range(1, 9) for b in range(a, 30, 3)]
        + [random_polygon(length, seed) for length in range(4, 301, 8) for seed in range(2)]
        + [torus_knot(2, 3, s) for s in range(2, 9)] + [torus_knot(3, 4, 4)]
    )


class TestRefinement:
    @settings(max_examples=500)
    @given(st.one_of(evaluated_interval(), lipschitz_interval()))
    def test_interval_bound_equals_quarter_step_brute_force(self, interval):
        # the real maximum sits at a multiple of 1/4, so quarter steps find it
        a, ma, b, mb = interval
        num, den, d = knotdist.engine._interval_bound(a, ma, b, mb)
        quarters = (Fraction(k, 4) for k in range(4 * a + 4, 4 * b - 3))
        assert Fraction(num, den) == max(2 * x / lower_bound(a, ma, b, mb, x) for x in quarters)
        assert d == math.ceil(Fraction(num, 4))
        # the float key's exactness assumes a denominator below 2n, n >= 2b
        assert den < 4 * b

    @settings(max_examples=500)
    @given(evaluated_interval())
    def test_interval_bound_dominates_the_exact_parity_bound(self, interval):
        a, ma, b, mb = interval
        num, den, d = knotdist.engine._interval_bound(a, ma, b, mb)
        ref_num, ref_den, _ = reference_interval_bound(a, ma, b, mb)
        assert Fraction(num, den) >= Fraction(ref_num, ref_den)
        assert a < d < b and d >= Fraction(num, den)

    @settings(max_examples=500)
    @given(lipschitz_interval())
    def test_interval_bound_without_parity(self, interval):
        a, ma, b, mb = interval
        num, den, d = knotdist.engine._interval_bound(a, ma, b, mb)
        assert Fraction(num, den) >= band_maximum(a, ma, b, mb)
        assert a < d < b and d >= Fraction(num, den)

    def test_same_bands_as_the_exact_parity_bound(self, monkeypatch, small_corpus, band_log):
        # the bound over the reals is looser than the exact one on some
        # intervals, but evaluates the same bands in the same order
        corpus = load_perfbench(monkeypatch, "corpus")
        bases = dict.fromkeys(base for w in corpus.WORKLOADS.values() for base in w.full)
        knots = refinement_knots(small_corpus) + [
            LatticeKnot.from_true(corpus.generate(base, knotdist.generators)) for base in bases
        ]

        def run(knot, bound):
            monkeypatch.setattr(knotdist.engine, "_interval_bound", bound)
            band_log.clear()
            rep = vertex_distortion(knot)
            return rep, rep._index_pairs, band_log.copy()

        interval_bound = knotdist.engine._interval_bound
        for knot in knots:
            assert run(knot, interval_bound) == run(knot, reference_interval_bound), knot

    def test_hairpin_two_bands(self):
        # the antipodal band and band 4999, as the descending cut did
        knot = rectangle(1, 4999)
        rep = vertex_distortion(knot)
        assert rep.delta == 4999
        assert rep.pairs_examined == 15_000
        assert rep.pairs_examined < all_pairs(knot)

    def test_square_few_bands(self):
        knot = rectangle(2500, 2500)
        rep = vertex_distortion(knot)
        assert rep.delta == 2
        assert bands_evaluated(knot, rep) <= 30

    def test_torus_few_bands(self):
        knot = torus_knot(2, 3, 40)
        assert knot.n // 2 == 968
        assert bands_evaluated(knot, vertex_distortion(knot)) <= 60

    def test_never_more_bands_than_descending_cut(self, small_corpus):
        # a descending loop that stops below delta evaluates at least
        # the bands h, h - 1, ..., ceil(delta)
        for knot in refinement_knots(small_corpus):
            rep = vertex_distortion(knot)
            assert bands_evaluated(knot, rep) <= knot.n // 2 - math.ceil(rep.delta) + 1, knot
            skipped = bands_evaluated(knot, rep) < knot.n // 2
            assert (rep.pairs_examined < all_pairs(knot)) == skipped, knot


    def test_benchmark_band_record(self, band_log):
        # one digest over each benchmark base's evaluated bands (d, m(d)) in
        # order, pairs_examined and sorted index pairs: a rewrite of the
        # branch and bound must evaluate the same bands in the same order
        record = []
        for knot in benchmark_bases():
            band_log.clear()
            rep = vertex_distortion(knot)
            record.append((band_log.copy(), rep.pairs_examined, sorted(rep._index_pairs)))
        assert len(record) == 55
        assert hashlib.sha256(repr(record).encode()).hexdigest() == (
            "d37f8bcd8f1d6dfaae2f50bf8287731c95b02bd1df91cf1203a0160f14c9b546")

    def test_one_kernel_call_per_evaluated_band(self, monkeypatch, band_log):
        # the witnesses are taken as the bands are evaluated, so the report
        # path calls the kernel once per recorded band and no more
        calls = []
        kernel = knotdist.engine._taxicab
        monkeypatch.setattr(knotdist.engine, "_taxicab",
                            lambda *args: calls.append(1) or kernel(*args))
        # the acceptance corpus, then the benchmark bases
        knots = [rectangle(m, n) for m in range(1, 7) for n in range(1, 7)]
        knots += [random_polygon(4 + 2 * (i % 19), i) for i in range(50)]
        knots += [torus_knot(2, 3, 2)] + benchmark_bases()
        runs = (vertex_distortion, lambda k: certify_unknot(vertex_distortion(k)), build_report)
        for knot in knots:
            for run in runs:
                calls.clear()
                band_log.clear()
                run(knot)
                assert len(calls) == len(band_log) > 0, (knot, run)


class TestBruteForceOracle:
    def test_unit_square_vm_maximum(self, unit_square):
        rep = brute_force_vm_distortion(unit_square)
        assert rep.delta == 2
        assert rep.pairs_examined == 28

    def test_vertices_only_matches_engine(self, small_corpus):
        for knot in small_corpus:
            assert (
                brute_force_vm_distortion(knot, vertices_only=True).delta
                == vertex_distortion(knot).delta
            )

    def test_matches_doubled_vertex_distortion(self, small_corpus):
        for knot in small_corpus:
            assert (
                brute_force_vm_distortion(knot).delta
                == vertex_distortion(scale(knot, 2)).delta
            )


def doubled_vm_distortion(knot, sweep=vertex_distortion):
    """Oracle: vertex distortion of the doubled knot, witnesses mapped back.

    sweep(knot) gives the vertex report.  The doubled knot's vertices are
    exactly the original's vertices and edge midpoints.  The knot is first
    moved so vertex 0 is at the origin, so doubling stays within 64 bits
    however far out the knot sits.
    """
    base = knot.vertices[0]
    at_origin = transform(knot, translate=tuple(-c // 2 for c in base))
    rep = sweep(scale(at_origin, 2))

    def back(p):
        return LatticePoint(*(c // 2 + o for c, o in zip(p, base)))

    return rep.delta, frozenset(
        tuple(sorted((back(a), back(b)))) for a, b in rep.witnesses
    )


class TestGromov1:
    def test_unit_square_value_and_witnesses(self, unit_square):
        rep = gromov1_distortion(unit_square)
        assert rep.delta == 2
        assert rep.witnesses == frozenset(
            {
                (LatticePoint(1, 0, 0), LatticePoint(1, 2, 0)),
                (LatticePoint(0, 1, 0), LatticePoint(2, 1, 0)),
            }
        )

    def test_dominates_vertex_distortion(self, small_corpus):
        for knot in small_corpus:
            assert gromov1_distortion(knot).delta >= vertex_distortion(knot).delta

    def test_equals_brute_force_with_witnesses(self, small_corpus):
        knots = small_corpus + list(exhaustive_small(10))
        knots += [rectangle(a, b) for a in range(1, 5) for b in range(1, 7)]
        knots += [random_polygon(length, seed) for length in range(4, 81, 4) for seed in range(3)]
        knots += [torus_knot(2, 3, 2), torus_knot(2, 3, 3)]
        for knot in knots:
            bf = brute_force_vm_distortion(knot)
            for g1 in (gromov1_distortion(knot), reference_gromov1(knot)):
                assert g1.delta == bf.delta, (knot, g1)
                assert g1.witnesses == bf.witnesses, (knot, g1)

    def test_equals_doubled_knot_on_large_knots(self):
        knots = [torus_knot(2, 3, 8), rectangle(40, 40)]
        knots += [random_polygon(600, seed) for seed in range(3)]
        knots += [transform(k, translate=(2**40, 2**40, 2**40)) for k in knots]
        for knot in knots:
            for g1, sweep in ((gromov1_distortion(knot), vertex_distortion),
                              (reference_gromov1(knot), reference_vertex_report)):
                assert (g1.delta, g1.witnesses) == doubled_vm_distortion(knot, sweep), knot

    def test_whole_curve_at_eighth_edge_parameters(self, small_corpus, trefoil):
        # gromov1 is the maximum over the whole curve, not only over vertices
        # and midpoints: the points at edge parameters k/8 are the vertices of
        # the knot scaled by 8, which keeps every arc/taxicab ratio
        for knot in small_corpus + [trefoil]:
            assert max(reference_row_maxima(scale(knot, 8))) == gromov1_distortion(knot).delta

    def test_never_scales(self, monkeypatch, trefoil):
        def refuse(*args, **kwargs):
            raise AssertionError("gromov1_distortion must not build the doubled knot")

        for module in (knotdist.lattice, knotdist.engine):
            monkeypatch.setattr(module, "scale", refuse, raising=False)
        assert gromov1_distortion(trefoil).delta == doubled_vm_distortion(trefoil)[0]

    def test_pairs_examined_definition(self, unit_square):
        # 6 vertex pairs plus the 2 antipodal midpoint pairs, which alone
        # reach the maximum 2
        for rep in (gromov1_distortion(unit_square), reference_gromov1(unit_square)):
            assert rep.pairs_examined == 8
        vert = vertex_distortion(unit_square)
        assert vert.delta == 1
        assert vert.pairs_examined == all_pairs(unit_square)
        # the pruned sweep of the 1x4 rectangle stops early
        rect = rectangle(1, 4)
        vert = vertex_distortion(rect)
        rep = gromov1_distortion(rect)
        assert vert.pairs_examined < all_pairs(rect)
        assert rep.pairs_examined == vert.pairs_examined + rect.n // 2

    def test_scale_stability(self, small_corpus, trefoil):
        for knot in small_corpus + [trefoil]:
            assert (
                vertex_distortion(scale(knot, 2)).delta
                == vertex_distortion(scale(knot, 4)).delta
            )

    def test_one_step_drop(self, small_corpus, trefoil):
        for knot in small_corpus + [trefoil]:
            assert vertex_distortion(knot).delta >= gromov1_distortion(knot).delta - 1


# sha256 of render_json(build_report(knot, **flags)) as produced by the
# earlier implementation, which swept the doubled knot for gromov1
REPORT_SHA256 = {
    ("unit_square", "default"): "2e373a6f685a44a4",
    ("unit_square", "heatmap"): "a66776159f2357ed",
    ("square", "default"): "2d24b3e851933ab3",
    ("square", "heatmap"): "f6adc29f40d3820b",
    ("trefoil", "default"): "f7d633db5a03d95c",
    ("trefoil", "heatmap"): "c90c7b2cb5b17883",
}


class TestBuildReport:
    def test_one_sweep_and_unchanged_json(self, monkeypatch, unit_square, trefoil):
        sweeps = []
        real = knotdist.engine._Sweep

        def counting(*args, **kwargs):
            sweeps.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(knotdist.engine, "_Sweep", counting)
        knots = {"unit_square": unit_square, "square": rectangle(2, 2), "trefoil": trefoil}
        flags = {"default": {}, "heatmap": {"with_heatmap": True}}
        for name, knot in knots.items():
            for flag, kwargs in flags.items():
                sweeps.clear()
                text = render_json(build_report(knot, **kwargs))
                assert len(sweeps) == 1, (name, flag)
                digest = hashlib.sha256(text.encode()).hexdigest()[:16]
                assert digest == REPORT_SHA256[name, flag], text
        assert build_report(unit_square)["gromov1"]["num"] == 2

    def test_gromov1_without_the_witness_pass(self, monkeypatch, small_corpus, trefoil):
        # the report prints only the curve-wide delta, so it skips the witnesses
        knots = small_corpus + [trefoil, torus_knot(2, 3, 3), rectangle(1, 9)]
        want = [gromov1_distortion(k).delta for k in knots]

        def refuse(*args):
            raise AssertionError("build_report ran the curve-wide witness pass")

        monkeypatch.setattr(knotdist.engine, "_gromov1_from_vertex_report", refuse)
        for knot, delta in zip(knots, want):
            for flags in ({}, {"with_heatmap": True}):
                g1 = build_report(knot, **flags)["gromov1"]
                assert Fraction(g1["num"], g1["den"]) == delta, (knot, flags)

    def test_render_json_refuses_values_other_than_halves(self):
        # json.dumps hands render_json only the values it cannot write itself
        for value in (Fraction(1, 3), Fraction(3), object()):
            with pytest.raises(TypeError, match="not JSON serializable"):
                render_json({"delta": value})

    def test_far_gromov1_witnesses_are_exact(self):
        # a float rounds half-integers past 2**52; the JSON must not
        for shift in (0, 2**52, 2**60, -(2**60), 2**62 - 8):
            knot = transform(rectangle(1, 1), translate=(shift, -shift - 1, 3 - shift))
            want = [[[Fraction(c, 2) for c in p] for p in pair]
                    for pair in sorted(gromov1_distortion(knot).witnesses)]
            halves = {c for pair in want for p in pair for c in p if c.denominator == 2}
            assert min(halves) < 0 < max(halves)
            doc = build_gromov1_report(knot)
            for pretty in (False, True):
                got = json.loads(render_json(doc, pretty), parse_float=decimal.Decimal)
                assert got["witnesses"] == want, (shift, pretty)

    def test_heatmap_rendering_matches_per_row_formatting(self):
        # rows with exact halves at the seventh decimal place round to even
        knot = rectangle(3, 37)
        n = knot.n
        rng = np.random.default_rng(5)
        num = rng.integers(1, 10**4, n)
        den = rng.integers(1, 10**4, n)
        num[:6], den[:6] = [1, 3, 129, 1, 7, 5], [128, 128, 128, 640, 640, 2]
        g = np.gcd(num, den)
        heat = knotdist.engine.Heatmap(knot, num // g, den // g)
        docs = heatmap_docs(heat)
        csv_rows = heatmap_csv(heat).splitlines()
        assert csv_rows[0] == "index,x,y,z,value_num,value_den,value_decimal"
        assert len(docs) == len(csv_rows) - 1 == n
        for r, doc, line in zip(heat, docs, csv_rows[1:]):
            want = format_decimal(r.value)
            assert doc == {"index": r.index, "vertex": list(r.vertex.as_true()),
                           "num": r.value.numerator, "den": r.value.denominator,
                           "decimal": want}
            x, y, z = r.vertex.as_true()
            assert line == f"{r.index},{x},{y},{z},{r.value.numerator},{r.value.denominator},{want}"
        assert [d["decimal"] for d in docs[:6]] == [
            "0.007812", "0.023438", "1.007812", "0.001562", "0.010938", "2.500000"]

    def test_heatmap_writers_match_the_per_row_reference(self, small_corpus):
        # the row template writes the bytes that one dict per row through
        # json.dumps, and one f-string per CSV row, wrote
        knots = list(small_corpus)
        for shift in (-5, 2**30, -(2**30), 2**61, -(2**61)):
            knots += [transform(k, lattice_isometries()[shift % 48], (shift, 3 - shift, -shift))
                      for k in small_corpus[::3]]
        true = np.concatenate([k.coords // 2 for k in knots])
        assert true.min() < -(2**61) < 2**61 < true.max()
        # rows whose exact halves at the seventh decimal place round to even
        base = rectangle(3, 37)
        num = np.random.default_rng(5).integers(1, 10**4, base.n)
        den = np.random.default_rng(6).integers(1, 10**4, base.n)
        num[:6], den[:6] = [1, 3, 129, 1, 7, 5], [128, 128, 128, 640, 640, 2]
        g = np.gcd(num, den)
        heats = [knotdist.engine.Heatmap(base, num // g, den // g)]
        for knot in knots:
            doc = build_report(knot, with_heatmap=True)
            heat = doc["heatmap"]
            assert isinstance(heat, knotdist.engine.Heatmap) and heat == heatmap(knot)
            heats.append(heat)
            listed = {**doc, "heatmap": heatmap_docs(heat)}
            for pretty in (False, True):
                assert render_json(doc, pretty) == render_json(listed, pretty), (knot, pretty)
            # the report without its heatmap, then the heatmap field
            head = render_json(build_report(knot))[:-2]
            assert render_json(doc) == head + "," + reference_heatmap_json(heat)[1:], knot
        for heat in heats:
            for pretty in (False, True):
                want = reference_heatmap_json(heat, pretty)
                assert render_json({"heatmap": heat}, pretty) == want, (heat.knot, pretty)
            assert heatmap_docs(heat) == json.loads(want)["heatmap"]
            assert heatmap_csv(heat) == reference_heatmap_csv(heat), heat.knot

    def test_heatmap_rendering_peaks_below_the_per_row_dicts(self):
        # the template's argument tuple is the largest thing either writer
        # holds; one dict per row took more
        doc = build_report(rectangle(2500, 2500), with_heatmap=True)
        assert len(doc["heatmap"]) == 10_000

        def peak(write):
            tracemalloc.start()
            try:
                text = write()
                return tracemalloc.get_traced_memory()[1], text
            finally:
                tracemalloc.stop()

        for pretty in (False, True):
            got, text = peak(lambda: render_json(doc, pretty))
            want, ref = peak(lambda: reference_heatmap_json(doc["heatmap"], pretty))
            assert text.endswith(ref[1:]) and len(text) > 700_000
            assert got <= want, (pretty, got, want)


class TestSweepLayout:
    def test_one_scan_of_the_extremes_per_operation(self, monkeypatch, trefoil):
        # validate and transform read each axis's extremes through one
        # helper, once; the sweep shifts its rows in the kernel's dtype and
        # scans no int64 copy, so a second scan or a scan by the sweep fails
        calls = []
        axis_extremes = knotdist.lattice._axis_extremes

        def counted(a):
            calls.append(len(a))
            return axis_extremes(a)

        monkeypatch.setattr(knotdist.lattice, "_axis_extremes", counted)
        assert not hasattr(knotdist.engine, "_axis_extremes")
        text = serialize(trefoil, "vertices")
        runs = {
            "parse_knot": lambda: parse_knot(text),
            "validate": lambda: validate(trefoil.true_vertices()),
            "transform": lambda: transform(trefoil, translate=(1, 0, 0)),
            "vertex_distortion": lambda: vertex_distortion(trefoil),
            "heatmap": lambda: heatmap(trefoil),
            "build_report": lambda: build_report(trefoil, with_heatmap=True),
        }
        for name, run in runs.items():
            calls.clear()
            run()
            scans = [] if name in ("vertex_distortion", "heatmap", "build_report") else [trefoil.n]
            assert calls == scans, name

    def test_int32_bound(self, monkeypatch):
        # 3n < 2^31 keeps the int32 taxicab sums exact
        limit = knotdist.engine.MAX_SWEEP_EDGES
        assert 3 * limit < 2**31 <= 3 * (limit + 1)
        knot = rectangle(3, 3)
        monkeypatch.setattr(knotdist.engine, "MAX_SWEEP_EDGES", knot.n - 1)
        for run in (vertex_distortion, heatmap, gromov1_distortion, euclidean_vertex_lower_bound,
                    vertex_distortion_with_heatmap):
            with pytest.raises(ValueError, match="int32 band kernel takes at most 11"):
                run(knot)
        monkeypatch.setattr(knotdist.engine, "MAX_SWEEP_EDGES", knot.n)
        assert vertex_distortion(knot).delta == Fraction(5, 3)

    def test_float64_key_bound(self, monkeypatch, band_log):
        # the row sweep's float64 keys order distinct ratios exactly while
        # n^2 < 2^51, which the cap on its quadratic time keeps
        limit = knotdist.engine.MAX_HEATMAP_EDGES
        assert limit == 2**15 and limit**2 < 2**51
        knot = rectangle(3, 3)
        monkeypatch.setattr(knotdist.engine, "MAX_HEATMAP_EDGES", knot.n - 1)
        for run in (heatmap, vertex_distortion_with_heatmap,
                    lambda k: build_report(k, with_heatmap=True)):
            with pytest.raises(ValueError, match="knot has 12 edges; the heatmap takes at most 11"):
                run(knot)
        # refused before the branch and bound evaluates any band
        assert band_log == []
        assert vertex_distortion(knot).delta == Fraction(5, 3)
        monkeypatch.setattr(knotdist.engine, "MAX_HEATMAP_EDGES", knot.n)
        assert [row.value for row in heatmap(knot)] == reference_row_maxima(knot)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_lengths_that_cannot_close_are_refused(self, n):
        # unit-step paths too short or of odd length to close: no knot, so
        # no engine entry point ever sees such a length
        path = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0), (0, 2, 2)][:n]
        with pytest.raises(InvalidKnotError) as refused:
            LatticeKnot(np.array(path, dtype=np.int64).reshape(-1, 3))
        assert refused.value.result.codes() & {"too_short", "odd_length"}

    def test_drivers_set_up_their_own_state(self, monkeypatch, trefoil):
        # _Sweep holds the coordinates; the branch and bound's record and
        # maximum live only after _refine, the row sweep's buffers and views
        # in _sweep_rows
        sweeps = []
        real = knotdist.engine._Sweep

        def recording(*args, **kwargs):
            sweeps.append(real(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(knotdist.engine, "_Sweep", recording)
        heatmap(trefoil)
        assert set(vars(sweeps[-1])) == {"knot", "n", "coords"}
        vertex_distortion_with_heatmap(trefoil)
        rows = {"row_num", "row_den", "row_key", "cand", "cand_buffer", "key", "key_buffer",
                "hit", "hit_buffer", "inverse_twice_d", "wide", "forward", "windows", "diff",
                "dist", "base"}
        assert not rows & set(vars(sweeps[-1]))
        assert len(sweeps) == 2

    def test_pruned_run_allocates_one_band(self, monkeypatch):
        # every kernel call of the report path fills the same flat 5n span
        # of differences and (n,) buffer, made once per run, through three
        # (n,) row views of the span; the witnesses are taken in the loop,
        # so there is no second pass
        knot = rectangle(20, 20)
        n = knot.n
        buffers = []
        kernel = knotdist.engine._taxicab

        def spy(base, partners, diff, rows, dist):
            assert [row.shape for row in rows] == [(n,)] * 3
            assert all(np.shares_memory(row, diff) for row in rows)
            buffers.append((diff.shape, dist.shape, diff.ctypes.data, dist.ctypes.data))
            return kernel(base, partners, diff, rows, dist)

        monkeypatch.setattr(knotdist.engine, "_taxicab", spy)
        for run in (vertex_distortion, euclidean_vertex_lower_bound):
            buffers.clear()
            run(knot)
            assert len(buffers) > 1 and len(set(buffers)) == 1, run
            assert buffers[0][:2] == ((5 * n,), (n,)), run

    def test_rows_are_contiguous(self, small_corpus, trefoil):
        # the band kernel slices each coordinate row, so rows must not be
        # strided; the rows are narrowed to the kernel's dtype before they
        # are shifted, so knots far out, up to the coordinate limit, across
        # the int16 and int32 wraps (doubled 2^15 and 2^31) and on both
        # sides of the int16 bound check that the shift is exact
        knots = small_corpus + [trefoil]
        knots += [transform(k, translate=(t, -t, t)) for k in knots
                  for t in (2**61, -(2**61), 2**14 - 4)]
        knots += [transform(k, translate=(2**62 - 8,) * 3) for k in small_corpus
                  if k.coords.max() <= 14]
        wide = rectangle(2731, 2731)
        knots += [rectangle(2730, 2731), wide]
        knots += [transform(wide, translate=(t, -t, t)) for t in (2**61, 2**30 - 4)]
        for knot in knots:
            coords = knotdist.engine._Sweep(knot).coords
            assert coords.flags.c_contiguous
            shifted = (knot.coords - knot.coords.min(axis=0)).T
            assert (coords == np.concatenate([shifted, shifted], axis=1)).all()

    # the kernel runs in int16 while 3n < 2^15, that is n <= 10,922
    @pytest.mark.parametrize("sides, dtype", [((2730, 2731), np.int16),
                                              ((2731, 2731), np.int32)])
    def test_both_sides_of_the_int16_bound(self, sides, dtype):
        knot = rectangle(*sides)
        assert knotdist.engine._Sweep(knot).coords.dtype == dtype
        assert [row.value for row in heatmap(knot)] == reference_heatmap_rows(knot)
        got, want = vertex_distortion(knot), reference_vertex_report(knot)
        # pairs_examined differs by design: the branch and bound skips bands
        assert (got.delta, got.witnesses, got._index_pairs) == (
            want.delta, want.witnesses, want._index_pairs)
        # the Euclidean step squares diffs of the kernel's dtype
        assert euclidean_vertex_lower_bound(knot) == reference_euclidean_descending(knot)

    @pytest.mark.parametrize("n, dtype", [(10_922, np.int16), (10_924, np.int32)])
    def test_taxicab_sums_of_3n_at_the_int16_bound(self, n, dtype):
        # not a knot, so built unchecked: distinct points on the main
        # diagonal, each axis spanning exactly n, so vertices 0 and n/2 are
        # 3n apart; an int16 kernel at n = 10,924 would wrap that 32,772
        i = np.arange(n)
        c = np.where(i <= n // 2, 2 * i, 2 * (n - i) - 1)
        knot = _valid_knot(np.stack([c, c, c], axis=1))
        assert np.abs(knot.coords[0] - knot.coords[n // 2]).sum() == 3 * n
        assert knotdist.engine._Sweep(knot).coords.dtype == dtype
        assert [row.value for row in heatmap(knot)] == reference_heatmap_rows(knot)


class TestEuclideanBound:
    def test_unit_square(self, unit_square):
        assert euclidean_vertex_lower_bound(unit_square) == 2

    def test_1x4_rectangle(self):
        assert euclidean_vertex_lower_bound(rectangle(1, 4)) == 25

    def test_against_reference(self, small_corpus):
        knots = small_corpus + [random_polygon(length, seed) for length in range(4, 121, 4)
                                for seed in range(3)]
        knots += [torus_knot(2, 3, s) for s in range(2, 5)]
        knots += [rectangle(1, k) for k in (1, 9, 50)] + list(exhaustive_small(10))
        knots += [transform(k, translate=(2**40, 2**40, 2**40)) for k in knots]
        for knot in knots:
            want = reference_euclidean_bound(knot.true_vertices())
            assert euclidean_vertex_lower_bound(knot) == want, knot

    def test_large_knots_against_the_descending_loop(self):
        knots = [rectangle(500, 500), torus_knot(2, 3, 40), torus_knot(2, 5, 20),
                 rectangle(1, 4999), random_polygon(2000, 0)]
        knots += [transform(k, translate=(2**40, 2**40, 2**40)) for k in knots]
        for knot in knots:
            assert euclidean_vertex_lower_bound(knot) == reference_euclidean_descending(knot), knot

    def test_band_values_are_floors_of_the_minima(self, small_corpus, band_log):
        # the interval bound holds for lower bounds on the band minima: a
        # value rounded up, even by one, may drop a band it should keep
        for knot in small_corpus + [torus_knot(2, 3, 4), random_polygon(200, 1)]:
            band_log.clear()
            euclidean_vertex_lower_bound(knot)
            c = knot.coords
            assert band_log, knot
            for d, m in band_log:
                diff = c - np.roll(c, d, axis=0)
                e2 = int((diff * diff).sum(axis=1).min())
                assert m * m <= e2 < (m + 1) ** 2, (knot, d)

    @pytest.mark.parametrize("knot, most", [(rectangle(2500, 2500), 60),
                                            (torus_knot(2, 3, 40), 80)])
    def test_few_bands(self, band_log, knot, most):
        # a descending loop evaluates 4,998 of 5,000 and 956 of 968 bands here
        euclidean_vertex_lower_bound(knot)
        assert 0 < len(band_log) <= most

    def test_dominates_squared_delta(self, small_corpus, trefoil):
        for knot in small_corpus + [trefoil]:
            delta = vertex_distortion(knot).delta
            assert euclidean_vertex_lower_bound(knot) >= delta * delta


class TestHeatmap:
    def test_unit_square_rows_all_one(self, unit_square):
        rows = heatmap(unit_square)
        assert [r.value for r in rows] == [Fraction(1)] * 4

    def test_max_row_equals_delta(self, small_corpus):
        for knot in small_corpus:
            rep, rows = vertex_distortion_with_heatmap(knot)
            assert max(r.value for r in rows) == rep.delta
            brute = brute_force_vm_distortion(knot, vertices_only=True)
            assert (rep.delta, rep.witnesses) == (brute.delta, brute.witnesses)

    def test_report_is_the_vertex_report(self, small_corpus):
        for knot in block_knots(small_corpus):
            rep, _ = vertex_distortion_with_heatmap(knot)
            want = vertex_distortion(knot)
            # field for field: delta, witnesses and pairs_examined
            assert rep == want, knot
            assert rep._index_pairs == want._index_pairs, knot

    def test_heatmap_runs_the_row_sweep_alone(self, monkeypatch, small_corpus):
        def refuse(*args):
            raise AssertionError("heatmap ran the branch and bound")

        want = [heatmap(knot) for knot in small_corpus]
        monkeypatch.setattr(knotdist.engine._Sweep, "_refine", refuse)
        assert [heatmap(knot) for knot in small_corpus] == want

    def test_1x4_peak_row(self):
        rows = heatmap(rectangle(1, 4))
        peak = {r.vertex.as_true(): r.value for r in rows}
        assert peak[(2, 0, 0)] == 5

    def test_record(self, trefoil):
        rep, heat = vertex_distortion_with_heatmap(trefoil)
        rows = tuple(heat)
        assert len(heat) == len(rows) == trefoil.n
        assert (heat[0], heat[-1], heat[3:7]) == (rows[0], rows[-1], rows[3:7])
        with pytest.raises(IndexError):
            heat[trefoil.n]
        assert [(r.index, r.vertex) for r in rows] == list(enumerate(trefoil.vertices))
        assert all(type(r.index) is int for r in rows)
        assert [r.value for r in rows] == [Fraction(p, q) for p, q in zip(heat.num, heat.den)]
        assert heat.num.dtype == heat.den.dtype == np.int64
        assert (np.gcd(heat.num, heat.den) == 1).all()
        assert not heat.num.flags.writeable and not heat.den.flags.writeable
        again = heatmap(trefoil)
        assert heat == again and hash(heat) == hash(again)
        assert heat != heatmap(rectangle(1, 1)) and heat != rows
        with pytest.raises(dataclasses.FrozenInstanceError):
            heat.num = heat.den

    def test_rows_match_bruteforce_rowmax(self, small_corpus):
        from knotdist import distortion_ratio

        for knot in small_corpus[:5]:
            rows = heatmap(knot)
            for r in rows:
                want = max(
                    distortion_ratio(knot, r.vertex, w)
                    for w in knot.vertices
                    if w != r.vertex
                )
                assert r.value == want


def block_knots(small_corpus):
    knots = list(small_corpus)
    knots += [random_polygon(n, seed) for n in (4, 10, 36, 120, 400) for seed in range(3)]
    knots += [torus_knot(2, 3, s) for s in range(2, 6)]
    return knots + [rectangle(1, k) for k in (1, 2, 9, 50, 99)]


def block_widths(knot):
    """Widths 1 to 5, one that leaves a short last block, and the default."""
    return (1, 2, 3, 4, 5, knot.n // 4 + 1, None)


def sweep_blocks(monkeypatch, knot, width, run):
    """run(knot) with blocks of the given width; also returns the blocks.

    A block is the bands d0 .. d1 - 1 of one kernel call, read off its
    partners: the window of band d0 starts at column n - d0 of the doubled
    coordinates, whose first column base starts at; so does the flat span
    of the branch and bound's band d0, which the spy checks against that
    band's distances.
    """
    blocks = []
    kernel = knotdist.engine._taxicab

    def spy(base, partners, diff, rows, dist):
        d0 = knot.n - (partners.ctypes.data - base.ctypes.data) // partners.itemsize
        blocks.append((d0, d0 + (len(dist) if dist.ndim == 2 else 1)))
        block = kernel(base, partners, diff, rows, dist)
        if dist.ndim == 1:
            # row i of np.roll(coords, d0) is the partner i - d0 (mod n)
            partner = np.roll(knot.coords, d0, axis=0)
            assert (block == np.abs(knot.coords - partner).sum(axis=1)).all(), d0
        return block

    with monkeypatch.context() as m:
        if width is not None:
            m.setattr(knotdist.engine, "BLOCK_ELEMENTS", width * knot.n)
        m.setattr(knotdist.engine, "_taxicab", spy)
        return run(knot), blocks


class TestBlockedSweep:
    def test_blocks_cover_every_band_once(self, monkeypatch):
        knot = random_polygon(120, 1)
        for width, want in ((1, 60), (2, 30), (7, 9), (31, 2), (60, 1), (500, 1)):
            _, blocks = sweep_blocks(monkeypatch, knot, width, heatmap)
            # bands 1 .. 60 each in exactly one block, in any order; only one block is short
            assert len(blocks) == want
            assert sorted(d for d0, d1 in blocks for d in range(d0, d1)) == list(range(1, 61))
            widths = sorted((d1 - d0 for d0, d1 in blocks), reverse=True)
            assert set(widths[:-1]) <= {min(width, 60)} and widths[-1] <= min(width, 60)

    def test_pruned_run_records_single_bands(self, band_log):
        # the branch and bound evaluates one band at a time: its record
        # lists each band once, and pairs_examined counts exactly those
        knot = random_polygon(120, 1)
        rep = vertex_distortion(knot)
        bands = [d for d, _ in band_log]
        assert len(set(bands)) == len(bands) == bands_evaluated(knot, rep)
        assert set(bands) <= set(range(1, 61))

    def test_kernel_blocks_are_contiguous_and_one_view_per_sweep(self, monkeypatch, trefoil):
        # a block written into strided rows halves the speed of the kernel's
        # adds, and a view made per block or per band adds Python to it;
        # neither changes a result, so only this test sees them
        contiguous, views = [], []
        kernel, view = knotdist.engine._taxicab, knotdist.engine.sliding_window_view

        def spy(base, partners, diff, rows, dist):
            block = kernel(base, partners, diff, rows, dist)
            contiguous.append(block.flags.c_contiguous)
            return block

        monkeypatch.setattr(knotdist.engine, "_taxicab", spy)
        monkeypatch.setattr(knotdist.engine, "sliding_window_view",
                            lambda *args, **kwargs: views.append(1) or view(*args, **kwargs))
        reports = (vertex_distortion, lambda k: certify_unknot(vertex_distortion(k)),
                   gromov1_distortion, euclidean_vertex_lower_bound, build_report)
        for knot in (trefoil, random_polygon(2000, 0), rectangle(1, 4999)):
            for run in (heatmap, vertex_distortion_with_heatmap) + reports:
                contiguous.clear()
                views.clear()
                run(knot)
                assert contiguous and all(contiguous), (knot, run)
                # the row sweep's coordinate windows and forward view; the
                # report path slices one band's partners and makes no view
                assert len(views) == (0 if run in reports else 2), (knot, run)

    def test_heatmap_rows_across_block_boundaries(self, monkeypatch, small_corpus):
        for knot in block_knots(small_corpus):
            brute = reference_row_maxima(knot)
            assert reference_heatmap_rows(knot) == brute, knot
            want = vertex_distortion(knot)
            for width in block_widths(knot):
                (rep, heat), _ = sweep_blocks(monkeypatch, knot, width,
                                              vertex_distortion_with_heatmap)
                assert [r.value for r in heat] == brute, (knot, width)
                assert rep == want, (knot, width)

    def test_sweeps_agree_across_block_boundaries(self, monkeypatch, small_corpus):
        for knot in block_knots(small_corpus):
            brute = brute_force_vm_distortion(knot, vertices_only=True)
            pruned = vertex_distortion(knot)
            assert (pruned.delta, pruned.witnesses) == (brute.delta, brute.witnesses), knot
            for width in block_widths(knot):
                full, _ = sweep_blocks(monkeypatch, knot, width, reference_vertex_report)
                assert full.delta == brute.delta, (knot, width)
                assert full.witnesses == brute.witnesses, (knot, width)
                assert full._index_pairs == pruned._index_pairs, (knot, width)


@st.composite
def inverse_ratio_pairs(draw):
    """Two inverse ratios c / 2d with c <= 2d <= 2^14, often nearly equal."""
    d1 = draw(st.integers(1, 2**13))
    c1 = draw(st.integers(1, 2 * d1))
    if draw(st.booleans()):
        d2 = draw(st.integers(1, 2**13))
    else:
        d2 = min(2**13, max(1, d1 + draw(st.integers(-3, 3))))
    c2 = min(2 * d2, max(1, c1 * d2 // d1 + draw(st.integers(-1, 1))))
    return c1, d1, c2, d2


def test_float32_keys_order_every_ratio_at_n_2046():
    # every band d <= 1,023 of a 2,046-edge knot at every distance c <= 2d,
    # keyed as the row sweep keys them: int16 c times the float32 fl(1 / 2d)
    n = 2046
    twice_d = np.arange(2, n + 1, 2)
    d = np.repeat(twice_d // 2, twice_d)
    c = (np.arange(len(d)) - np.repeat(np.cumsum(twice_d) - twice_d, twice_d) + 1)
    c = c.astype(np.int16)
    assert len(c) == 1_047_552 and (c >= 1).all() and (c <= 2 * d).all()
    key = c * (0.5 / np.arange(1, n // 2 + 1, dtype=np.float32))[d - 1]
    assert key.dtype == np.float32
    # along increasing keys the exact ratios c / 2d never fall, and equal
    # keys hold equal ratios: so distinct ratios get strictly ordered keys
    order = np.argsort(key, kind="stable")
    k, cs, ds = key[order], c[order].astype(np.int64), d[order]
    lhs, rhs = cs[:-1] * ds[1:], cs[1:] * ds[:-1]
    assert (lhs <= rhs).all()
    tie = k[:-1] == k[1:]
    assert (lhs[tie] == rhs[tie]).all()
    # the row sweep's recovery of 2d from c and the key
    assert (np.rint(c / key.astype(np.float64)) == 2 * d).all()


@pytest.mark.parametrize("n", [2046, 2048])
def test_heatmap_on_both_sides_of_the_float32_key(monkeypatch, n):
    # float32 keys while n^2 < 2^22, float64 keys from n = 2,048 on
    for knot in (random_polygon(n, 0), rectangle(511, n // 2 - 511)):
        assert knot.n == n
        brute = reference_row_maxima(knot)
        assert reference_heatmap_rows(knot) == brute, knot
        for width in block_widths(knot):
            heat, _ = sweep_blocks(monkeypatch, knot, width, heatmap)
            assert [r.value for r in heat] == brute, (knot, width)


def test_float64_keys_where_float32_keys_tie_distinct_ratios():
    # n = 3,808 is the least length at which float32 keys tie two distinct
    # inverse ratios: 3614 / (2 * 1893) and 3635 / (2 * 1904), in two blocks.
    # A point set built unchecked, as no knot has these distances, puts
    # vertices 1893 and 1904 at them from vertex 0 and every other vertex
    # at least 3n/2 away; every coordinate lies in [0, n]
    n = 3808
    far = [(n, y, z) for y in range(n // 2, n + 1) for z in (0, 1)]
    coords = np.array([(0, 0, 0)] + far[: n - 1], dtype=np.int64)
    coords[1893], coords[1904] = (3614, 0, 0), (0, 3635, 0)
    knot = _valid_knot(coords)
    rows = [row.value for row in heatmap(knot)]
    assert rows[0] == Fraction(2 * 1904, 3635) > Fraction(2 * 1893, 3614)
    assert rows == reference_heatmap_rows(knot)


@settings(max_examples=2000)
@given(inverse_ratio_pairs())
def test_heatmap_key_orders_ratios_exactly(pair):
    # the heatmap's key c * fl(1 / 2d) for band d at distance c, as the engine forms it
    c1, d1, c2, d2 = pair
    inverse = 0.5 / np.array([d1, d2])
    k1, k2 = c1 * inverse[0], c2 * inverse[1]
    if c1 * d2 < c2 * d1:
        assert k1 < k2
    if k1 == k2:
        assert c1 * d2 == c2 * d1
