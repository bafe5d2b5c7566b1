"""Acceptance suite.

Every criterion runs at its stated tolerance (exact rational equality
unless noted) over the standard corpus: all rectangles with sides up to
6, fifty seeded random polygons with lengths 4 through 40, and a
trefoil conformation.  One pass/fail line is printed per criterion; run
with `pytest tests/test_acceptance.py -v -s` to see them stream.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from knotdist import (
    THRESHOLD_LOW,
    KnotFileError,
    brute_force_vm_distortion,
    distortion_ratio,
    euclidean_vertex_lower_bound,
    exhaustive_small,
    lattice_isometries,
    parse_knot,
    random_polygon,
    rectangle,
    scale,
    torus_knot,
    transform,
    validate,
    vertex_distortion,
    vertex_distortion_with_heatmap,
)
from knotdist.report import ratio_doc, witness_docs
from conftest import classify_pair, dominating_vertex_pair
from conftest import reference_vertex_distortion, reference_vertex_report


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {num:2d} ({title}): PASS")


@pytest.fixture(scope="module")
def corpus():
    knots = {}
    for m in range(1, 7):
        for n in range(1, 7):
            knots[f"rectangle({m},{n})"] = rectangle(m, n)
    for i in range(50):
        length = 4 + 2 * (i % 19)  # even lengths 4..40
        knots[f"random(length={length}, seed={i})"] = random_polygon(length, i)
    knots["torus(2,3)"] = torus_knot(2, 3, 2)
    return knots


@pytest.fixture(scope="module")
def deltas(corpus):
    return {name: vertex_distortion(k).delta for name, k in corpus.items()}


@pytest.fixture(scope="module")
def doubled_deltas(corpus):
    return {name: vertex_distortion(scale(k, 2)).delta for name, k in corpus.items()}


def test_criterion_01_doubling_identity(corpus, doubled_deltas):
    with criterion(1, "doubling identity"):
        start = time.monotonic()
        for name, knot in corpus.items():
            assert brute_force_vm_distortion(knot).delta == doubled_deltas[name], name
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"doubling identity sweep took {elapsed:.1f}s"


def test_criterion_02_scale_stability(corpus, deltas, doubled_deltas):
    with criterion(2, "scale stability"):
        increases = []
        for name, knot in corpus.items():
            assert doubled_deltas[name] == vertex_distortion(scale(knot, 4)).delta, name
            if doubled_deltas[name] > deltas[name]:
                increases.append(name)
        assert "rectangle(1,1)" in increases  # unit square: 1 vs 2
        print(f"  [recorded] doubling raised distortion for {len(increases)} knots, "
              f"e.g. {increases[:4]}")


def test_criterion_03_nontriviality_bound():
    with criterion(3, "nontriviality bound"):
        for p, q in ((2, 3), (2, 5)):
            for s in (2, 3):
                knot = torus_knot(p, q, s)
                delta = vertex_distortion(knot).delta
                assert delta >= THRESHOLD_LOW, (p, q, s, delta)


def test_criterion_04_one_step_drop(corpus, deltas, doubled_deltas):
    with criterion(4, "one-step drop"):
        for name in corpus:
            assert deltas[name] >= doubled_deltas[name] - 1, name


def test_criterion_05_metric_sandwich(corpus, deltas):
    with criterion(5, "metric sandwich"):
        for name, knot in corpus.items():
            assert euclidean_vertex_lower_bound(knot) >= deltas[name] ** 2, name


def _fingerprint(report):
    return json.dumps({"delta": ratio_doc(report.delta), "witnesses": witness_docs(report)})


def test_criterion_06_algorithm_fidelity(corpus):
    with criterion(6, "pruning fidelity"):
        for name, knot in corpus.items():
            fast = vertex_distortion(knot)
            slow = reference_vertex_report(knot)
            assert _fingerprint(fast) == _fingerprint(slow), name
            # the heatmap report is the vertex report, field for field
            rep = vertex_distortion_with_heatmap(knot)[0]
            assert rep == fast and rep._index_pairs == fast._index_pairs, name
        # 10,000 edges each: a hairpin and a square
        for big in (rectangle(1, 4999), rectangle(2500, 2500)):
            start = time.monotonic()
            fast = vertex_distortion(big)
            elapsed = time.monotonic() - start
            assert elapsed < 5.0, f"pruned 10k-edge run took {elapsed:.2f}s"
            slow = reference_vertex_report(big)
            assert _fingerprint(fast) == _fingerprint(slow)
            print(f"  [recorded] pruned 10,000-edge rectangle in {elapsed*1000:.0f} ms, "
                  f"delta={fast.delta}")


def test_criterion_07_known_values():
    with criterion(7, "known values"):
        cases = [(rectangle(1, 1), Fraction(1)), (rectangle(1, 2), Fraction(3)),
                 (rectangle(2, 2), Fraction(2))]
        cases += [(rectangle(1, n), Fraction(n + 1)) for n in (2, 4, 6, 8, 10)]
        for knot, want in cases:
            ref_delta, ref_wit = reference_vertex_distortion(knot.true_vertices())
            oracle = reference_vertex_report(knot)
            assert ref_delta == oracle.delta == want
            got_wit = {
                tuple(sorted((tuple(c // 2 for c in a), tuple(c // 2 for c in b))))
                for a, b in oracle.witnesses
            }
            assert got_wit == ref_wit


def test_criterion_08_midpoint_structure(corpus, deltas):
    with criterion(8, "midpoint structure"):
        checked_pairs = 0
        for name, knot in corpus.items():
            if knot.n > 40:
                continue
            delta = deltas[name]
            pts = sorted(knot.offset_table.items(), key=lambda kv: kv[1])
            for (p, op), (q, oq) in itertools.combinations(pts, 2):
                checked_pairs += 1
                exceptional = False
                if op % 2 and oq % 2:
                    generic, antipodal, _ = classify_pair(knot, p, q)
                    exceptional = antipodal and not generic
                dominated = dominating_vertex_pair(knot, p, q)
                if distortion_ratio(knot, p, q) > delta:
                    assert exceptional, (name, p, q)
                    assert dominated is None, (name, p, q)
                elif not exceptional:
                    assert dominated is not None, (name, p, q)
        print(f"  [recorded] exhaustively checked {checked_pairs} point pairs")


def test_criterion_09_even_length(corpus):
    with criterion(9, "even length"):
        for moves in ("X", "XYX", "XXxYy", "XYZxyzX"):
            with pytest.raises(KnotFileError):
                parse_knot(f"latticeknot v1\nmoves: {moves}\n")
        odd_path = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 2, 0)]
        assert "odd_length" in validate(odd_path).codes()
        randoms = [k for name, k in corpus.items() if name.startswith("random")]
        assert len(randoms) == 50
        assert all(k.n % 2 == 0 for k in randoms)


def test_criterion_10_distortion_one_census(corpus):
    with criterion(10, "distortion-1 census"):
        census = {}
        ones = []
        for knot in exhaustive_small(10):
            delta = vertex_distortion(knot).delta
            census[knot.n] = census.get(knot.n, 0) + 1
            if delta == 1:
                ones.append(knot)
        assert len(ones) <= 2
        square_vertices = set(rectangle(1, 1).true_vertices())
        assert any(set(k.true_vertices()) == square_vertices for k in ones)
        print(f"  [recorded] classes by edge count: {census}; "
              f"distortion-1 classes: {len(ones)}")


def test_criterion_11_isometry_invariance(corpus, deltas):
    with criterion(11, "isometry invariance"):
        rng = random.Random("acceptance-criterion-11")
        isos = lattice_isometries()
        names = sorted(corpus)
        for _ in range(20):
            name = rng.choice(names)
            iso = rng.choice(isos)
            shift = tuple(rng.randint(-20, 20) for _ in range(3))
            moved = transform(corpus[name], iso, translate=shift)
            assert vertex_distortion(moved).delta == deltas[name], (name, iso, shift)
