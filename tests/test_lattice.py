"""Data model: validation, the knot contract, scaling, midpoints, isometries."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knotdist.lattice
from knotdist import (
    InvalidKnotError,
    Isometry,
    LatticeKnot,
    LatticePoint,
    certify_unknot,
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
)
from knotdist.engine import _gromov1_from_vertex_report
from knotdist.report import build_report
from conftest import (
    midpoint_points,
    reference_offset_table,
    reference_validate,
    reference_vertex_report,
)
from test_knotfile import peak_memory

UNIT_SQUARE = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
# boxes past int64: a unit square with one vertex moved far out, and the
# input of test_large_steps_do_not_wrap_to_a_unit_step
FAR_CORNER = [(0, 0, 0), (1, 0, 0), (2**30, 2**30, 2**30), (0, 1, 0)]
WRAPPING = [(2**62 - 1, 2**62 - 1, 0), (1 - 2**62, 1 - 2**62, 5), (1 - 2**62, 1 - 2**62, 6),
            (2**62 - 1, 2**62 - 1, 1)]


class TestValidate:
    def test_unit_square_ok(self):
        assert validate(UNIT_SQUARE).ok

    def test_open_path_not_closed(self):
        result = validate([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        assert not result.ok
        assert "not_closed" in result.codes()

    def test_repeated_vertex_not_embedded(self):
        result = validate([(0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 1, 0)])
        assert not result.ok
        assert "not_embedded" in result.codes()

    def test_too_short(self):
        result = validate([(0, 0, 0), (1, 0, 0)])
        assert "too_short" in result.codes()

    def test_odd_length_flagged(self):
        result = validate([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 2, 0)])
        assert "odd_length" in result.codes()

    def test_violations_carry_indices(self):
        result = validate([(0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 1, 0)])
        embedded = [v for v in result.violations if v.code == "not_embedded"]
        assert embedded[0].where == (0, 2)

    def test_from_true_raises_with_violations(self):
        with pytest.raises(InvalidKnotError) as err:
            LatticeKnot.from_true([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        assert not err.value.result.ok


class TestInt64Limits:
    """validate keys each vertex by one int64 only while the input's box
    (each axis's span plus 2, multiplied) stays below 2^63, so no key or
    key step can wrap; past it the key holds Python ints."""

    def test_large_steps_do_not_wrap_to_a_unit_step(self):
        # per axis |d| is 2^63 - 2, 2^63 - 2 and 5: their int64 sum wraps to 1
        a = 2**62 - 1
        vertices = [(a, a, 0), (-a, -a, 5), (-a, -a, 6), (a, a, 1)]
        result = validate(vertices)
        assert [(v.code, v.where) for v in result.violations] == [
            ("not_closed", (0, 1)),
            ("not_closed", (2, 3)),
        ]
        assert result == reference_validate(vertices)

    @pytest.mark.parametrize(
        "corner", [-(2**63), 2**62, -(2**62), 2**63, 2**64, -(2**64), 2**62 - 1, -(2**62) + 1]
    )
    def test_coordinate_range(self, corner):
        # a unit square reaching just past (or to) the doubled-coordinate limit
        step = 1 if corner < 0 else -1
        vertices = [(corner, 0, 0), (corner + step, 0, 0), (corner + step, 1, 0),
                    (corner, 1, 0)]
        result = validate(vertices)
        assert result == reference_validate(vertices)
        in_range = abs(corner) < 2**62
        assert result.ok == in_range
        if not in_range:
            assert result.violations[0] == (
                "out_of_range", (0,), "vertex 0 exceeds the coordinate range"
            )

    def test_int64_min_is_out_of_range(self):
        # np.abs(-2**63) is -2**63 in int64, so a range check by abs misses it
        vertices = [(-(2**63), 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
        result = validate(vertices)
        assert ("out_of_range", (0,)) in [(v.code, v.where) for v in result.violations]
        assert result == reference_validate(vertices)

    @pytest.mark.parametrize("corner", [2**62, 2**63 - 2, -(2**62), -(2**63)])
    def test_int64_input_past_the_range_keeps_the_int64_key(self, corner, key_dtypes):
        # x - lo_x lies in [0, s_x], so the int64 key holds values outside
        # +-_TRUE_LIMIT; the range check compares them one side at a time
        vertices = np.array([(corner + x, y, z) for x, y, z in UNIT_SQUARE], dtype=np.int64)
        result = validate(vertices)
        assert result == reference_validate(vertices)
        assert result.codes() == {"out_of_range"}
        assert key_dtypes == [np.dtype(np.int64)]

    def test_array_input(self):
        vertices = np.array(UNIT_SQUARE, dtype=np.int64)
        assert validate(vertices).ok
        assert validate(np.array(UNIT_SQUARE, dtype=object)).ok
        assert validate(np.empty((0, 3), dtype=np.int64)) == reference_validate([])
        far = [(2**64 - 2 + x, y, z) for x, y, z in UNIT_SQUARE]
        result = validate(np.array(far, dtype=np.uint64))
        assert not result.ok
        assert result == reference_validate(far)

    def test_input_is_left_unchanged(self):
        # validate builds its key in its own copy of the rows; the transpose
        # of an F-ordered or one-row array is contiguous, so only a copy
        # keeps the caller's array as it was
        square = np.asfortranarray(np.array(UNIT_SQUARE, dtype=np.int64))
        for vertices in (square, np.array([(5, -6, 7)]), square[::-1]):
            before = vertices.copy()
            assert validate(vertices) == reference_validate(vertices.tolist())
            assert np.array_equal(vertices, before)

    def test_key_radix_keeps_the_axes_apart(self):
        # with a radix of span + 1, the step (0, 0, 1) -> (0, 1, 0) would
        # move the key by 1 and pass as a unit step
        vertices = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
        result = validate(vertices)
        assert [(v.code, v.where) for v in result.violations] == [
            ("not_closed", (1, 2)),
            ("not_closed", (3, 0)),
        ]
        assert result == reference_validate(vertices)

    @pytest.mark.parametrize("vertices", [FAR_CORNER, WRAPPING], ids=["far_corner", "wrapping"])
    def test_box_past_int64_takes_the_python_int_key(self, vertices, key_dtypes):
        expected = reference_validate(vertices)
        assert not expected.ok
        assert validate(vertices) == expected
        assert validate(np.array(vertices, dtype=np.int64)) == expected
        assert key_dtypes == [np.dtype(object)] * 2

    @pytest.mark.parametrize("corner", [2**62 - 2, -(2**62) + 2, 2**63, -(2**64)])
    def test_closed_input_takes_the_int64_key(self, corner, key_dtypes):
        # a closed input spans at most n/2 per axis, wherever it lies, even
        # outside the coordinate range
        vertices = [(corner + x, y, z) for x, y, z in UNIT_SQUARE]
        assert validate(vertices) == reference_validate(vertices)
        assert key_dtypes == [np.dtype(np.int64)]


LARGE_OFFSET = st.sampled_from([0, 1, -1, 10**15, -(10**15), 2**62, -(2**63), 10**30])


@st.composite
def mutated_walks(draw):
    """A short random closed walk after one or two of: a vertex repeated,
    two swapped, one moved by a large offset, all shifted past +-2^62."""
    v = random_polygon(draw(st.sampled_from([4, 6, 8, 10, 14, 20])),
                       draw(st.integers(0, 10**6))).true_vertices()
    for kind in draw(st.lists(st.sampled_from(["repeat", "swap", "move", "shift"]),
                              min_size=1, max_size=2)):
        i, j = draw(st.integers(0, len(v) - 1)), draw(st.integers(0, len(v) - 1))
        if kind == "repeat":
            v.insert(j, v[i])
        elif kind == "swap":
            v[i], v[j] = v[j], v[i]
        elif kind == "move":
            offset = draw(st.tuples(LARGE_OFFSET, LARGE_OFFSET, LARGE_OFFSET))
            v[i] = tuple(c + d for c, d in zip(v[i], offset))
        else:
            shift = draw(st.sampled_from([1, -1])) * (2**62 - draw(st.integers(0, 8)))
            axes = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
            v = [tuple(c + shift * k for c, k in zip(p, axes)) for p in v]
    return v


@settings(max_examples=300, deadline=None)
@given(vertices=mutated_walks())
def test_validate_equals_the_reference_on_mutated_walks(vertices):
    expected = reference_validate(vertices)
    assert validate(vertices) == expected
    if all(-(2**63) <= c < 2**63 for p in vertices for c in p):
        assert validate(np.array(vertices, dtype=np.int64)) == expected


SMALL_KNOTS = tuple(exhaustive_small(8))


@st.composite
def mutated_small_knots(draw):
    """Twice the vertices of a knot of at most 8 edges, with one vertex
    moved by at most one unit per axis, copied over another, or deleted,
    or with one entry made odd."""
    knot = draw(st.sampled_from(SMALL_KNOTS))
    doubled = np.array(knot.coords)
    i, j = draw(st.integers(0, knot.n - 1)), draw(st.integers(0, knot.n - 1))
    kind = draw(st.sampled_from(["move", "copy", "delete", "odd"]))
    if kind == "move":
        doubled[i] += 2 * np.array(draw(st.tuples(*[st.integers(-1, 1)] * 3)))
    elif kind == "copy":
        doubled[j] = doubled[i]
    elif kind == "delete":
        doubled = np.delete(doubled, i, axis=0)
    else:
        doubled[i, draw(st.integers(0, 2))] += draw(st.sampled_from([1, -1]))
    return doubled


def construct_like_from_true(doubled):
    """LatticeKnot(doubled) against LatticeKnot.from_true(doubled // 2):
    'odd' when an entry is odd and the constructor refuses it, else
    'refused' or 'accepted', which both must agree on."""
    if (doubled % 2).any():
        with pytest.raises(ValueError, match="must be even"):
            LatticeKnot(doubled)
        return "odd"
    try:
        want = LatticeKnot.from_true(doubled // 2)
    except InvalidKnotError as error:
        with pytest.raises(InvalidKnotError) as refused:
            LatticeKnot(doubled)
        assert refused.value.result == error.result
        return "refused"
    got = LatticeKnot(doubled)
    assert got == want and got.coords.tolist() == doubled.tolist()
    return "accepted"


def test_validate_peak_memory():
    # one int64 key per vertex, sorted once: about 2.4x the input; the
    # three-row lexsort and compares it replaced reached 4.1x
    vertices = np.array(rectangle(1, 4999).true_vertices(), dtype=np.int64)
    assert peak_memory(validate, vertices) < 3 * vertices.nbytes


class TestNonIntegerInput:
    """Coordinates that are not integers are refused, never truncated."""

    ALMOST = [(0.9, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    HALF = [(0.5, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    TEXT = [("0", "0", "0"), ("1", "0", "0"), ("1", "1", "0"), ("0", "1", "0")]

    @pytest.mark.parametrize("vertices", [ALMOST, HALF, TEXT, [(1j, 0, 0)] + UNIT_SQUARE[1:],
                                          [(2**70, 0.5, 0)] + UNIT_SQUARE[1:]])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_from_true_and_validate(self, vertices, as_array):
        if as_array:
            vertices = np.array(vertices)
        for entry in (LatticeKnot.from_true, validate):
            with pytest.raises(ValueError, match="must be integers"):
                entry(vertices)

    @pytest.mark.parametrize("as_array", [False, True])
    def test_knot_from_doubled_coordinates(self, as_array):
        points = [(0.5, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)]
        with pytest.raises(ValueError, match="must be integers"):
            LatticeKnot(np.array(points) if as_array else points)

    @pytest.mark.parametrize("translate", [(0.5, 0, 0), (1.0, 0, 0), np.array([0, 0.5, 0])])
    def test_transform(self, translate):
        with pytest.raises(ValueError, match="must be integers"):
            transform(rectangle(1, 1), translate=translate)

    def test_integer_inputs_still_accepted(self):
        for vertices in (UNIT_SQUARE, np.array(UNIT_SQUARE, dtype=np.int8),
                         np.array(UNIT_SQUARE, dtype=np.uint16),
                         np.array(UNIT_SQUARE, dtype=object),
                         [tuple(np.int32(c) for c in v) for v in UNIT_SQUARE]):
            assert validate(vertices).ok
            assert LatticeKnot.from_true(vertices) == rectangle(1, 1)
        moved = transform(rectangle(1, 1), translate=(np.int64(1), 0, 0))
        assert moved.coords[0].tolist() == [2, 0, 0]

    def test_int64_array_passes_through(self):
        a = np.array(UNIT_SQUARE, dtype=np.int64)
        assert knotdist.lattice._coordinate_array(a) is a


class TestCoords:
    def test_from_true_seeds_read_only_coords(self):
        knot = LatticeKnot.from_true(np.array(UNIT_SQUARE))
        assert "coords" in vars(knot)
        assert knot.coords.dtype == np.int64
        assert not knot.coords.flags.writeable
        assert knot.coords.tolist() == [list(v) for v in knot.vertices]
        assert knot.vertices[1] == LatticePoint(2, 0, 0)
        assert type(knot.vertices[1]) is LatticePoint

    def test_from_true_checks_once_and_copies_once(self, monkeypatch):
        checked = []
        axis_extremes = knotdist.lattice._axis_extremes

        def counted(vertices):
            checked.append(len(vertices))
            return axis_extremes(vertices)

        def refuse(self):
            raise AssertionError("from_true copied its doubled coordinates again")

        monkeypatch.setattr(knotdist.lattice, "_axis_extremes", counted)
        monkeypatch.setattr(LatticeKnot, "__post_init__", refuse)
        a = np.array(UNIT_SQUARE)
        knot = LatticeKnot.from_true(a)
        assert checked == [4]
        assert not knot.coords.flags.writeable and not np.shares_memory(knot.coords, a)
        assert knot.coords.tolist() == (2 * a).tolist()

    def test_other_knots_compute_coords_on_use(self):
        moved = transform(rectangle(2, 3), translate=(5, -1, 2**40))
        assert not moved.coords.flags.writeable
        assert moved.coords.tolist() == [list(v) for v in moved.vertices]

    def test_sweeps_leave_coords_unchanged(self):
        moved = transform(rectangle(3, 5), translate=(7, -2, 2**40))
        knot = LatticeKnot.from_true(moved.true_vertices())
        before = knot.coords.copy()
        build_report(knot, with_heatmap=True)
        _gromov1_from_vertex_report(knot, reference_vertex_report(knot))
        heatmap(knot)
        assert np.array_equal(knot.coords, before)


class TestParity:
    def test_vertices_all_even(self, small_corpus):
        for knot in small_corpus:
            assert all(c % 2 == 0 for v in knot.vertices for c in v)

    def test_midpoints_exactly_one_odd(self, small_corpus):
        for knot in small_corpus:
            for m in midpoint_points(knot):
                assert sum(c % 2 for c in m) == 1

    def test_even_edge_count(self, small_corpus):
        for knot in small_corpus:
            assert knot.n % 2 == 0

    def test_axis_step_counts_balance(self, small_corpus):
        # closure forces equally many positive and negative edges per axis
        for knot in small_corpus:
            for steps in (np.roll(knot.coords, -1, axis=0) - knot.coords).T.tolist():
                assert sum(steps) == 0
                assert steps.count(2) == steps.count(-2)

    def test_signed_moves_sum_to_zero(self, small_corpus):
        for knot in small_corpus:
            total = [0, 0, 0]
            for a, b in zip(knot.vertices, knot.vertices[1:] + knot.vertices[:1]):
                for k in range(3):
                    total[k] += b[k] - a[k]
            assert total == [0, 0, 0]


class TestKnotContract:
    def test_equal_and_hash_equal_across_constructions(self):
        isos = lattice_isometries()
        knot = rectangle(2, 3)
        rebuilt = [
            LatticeKnot.from_true(knot.true_vertices()),
            LatticeKnot.from_true(np.array(knot.true_vertices())),
            LatticeKnot(knot.vertices),
            LatticeKnot(np.array(knot.vertices, dtype=np.int32)),
            scale(knot, 1),
            transform(transform(knot, translate=(3, -4, 2**40)), translate=(-3, 4, -2**40)),
        ]
        for iso in isos:
            inverse = next(
                inv for inv in isos
                if inv.apply(iso.apply(LatticePoint(2, 4, 6))) == LatticePoint(2, 4, 6)
            )
            rebuilt.append(transform(transform(knot, iso), inverse))
        for other in rebuilt:
            assert other == knot
            assert hash(other) == hash(knot)
        assert len(set(rebuilt)) == 1

    def test_other_types_are_unequal(self):
        knot = rectangle(1, 1)
        assert (knot == 5) is False
        assert knot != knot.coords.tolist()

    def test_repr(self):
        assert repr(transform(rectangle(1, 2), translate=(3, 0, -1))) == (
            "LatticeKnot(n=6, start=LatticePoint(3, 0, -1))"
        )

    def test_two_coordinate_points_rejected(self):
        flat = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
        with pytest.raises(ValueError, match="three coordinates"):
            validate(flat)
        with pytest.raises(ValueError, match="three coordinates"):
            LatticeKnot(flat)

    def test_rotated_start_is_unequal(self):
        knot = rectangle(2, 3)
        vs = knot.true_vertices()
        rotated = LatticeKnot.from_true(vs[1:] + vs[:1])
        assert rotated != knot

    def test_immutable(self):
        knot = rectangle(1, 2)
        with pytest.raises(AttributeError):
            knot.coords = np.zeros((6, 3), dtype=np.int64)
        assert not knot.coords.flags.writeable
        with pytest.raises(ValueError):
            knot.coords[0, 0] = 7
        # the constructor copies, so its argument stays the caller's
        doubled = np.array(knot.coords)
        copy = LatticeKnot(doubled)
        doubled[0, 0] = 7
        assert copy == knot

    def test_out_of_range_coordinate_raises_at_construction(self):
        pts = [(2**63, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)]
        with pytest.raises(OverflowError):
            LatticeKnot(pts)
        with pytest.raises(OverflowError):
            LatticeKnot(np.array(pts, dtype=np.uint64))

    def test_transform_overflow_raises(self):
        with pytest.raises(OverflowError):
            transform(rectangle(1, 1), translate=(2**62, 0, 0))
        far = transform(rectangle(1, 1), translate=(2**62 - 2, 0, 0))
        with pytest.raises(OverflowError):
            transform(far, translate=(1, 0, 0))
        # a valid knot's doubled coordinates lie within +-(2^63 - 2), so a flip
        # cannot overflow: the knot at the edge of the range flips exactly
        edge = transform(rectangle(1, 1), translate=(-(2**62 - 1), 0, 0))
        flip = next(iso for iso in lattice_isometries() if iso.signs == (-1, 1, 1))
        flipped = transform(edge, flip)
        assert flipped.coords.tolist() == [[-x, y, z] for x, y, z in edge.coords.tolist()]
        assert int(flipped.coords.max()) == 2**63 - 2
        assert LatticeKnot(flipped.coords) == flipped

    def test_transform_and_scale_match_the_points(self, small_corpus):
        isos = lattice_isometries()
        for i, knot in enumerate(small_corpus):
            iso, shift = isos[(5 * i) % 48], (2 * i, -i, 2**40)
            moved = transform(knot, iso, shift)
            assert moved.vertices == tuple(
                LatticePoint(*(c + 2 * t for c, t in zip(iso.apply(v), shift)))
                for v in knot.vertices
            )
            # vertex t of the run from a to b is ma + t(b - a)
            verts = knot.vertices
            assert scale(knot, 3).vertices == tuple(
                LatticePoint(*(3 * p + t * (q - p) for p, q in zip(a, b)))
                for a, b in zip(verts, verts[1:] + verts[:1])
                for t in range(3)
            )

    def test_empty_knot_is_refused(self):
        for empty in ([], np.empty((0, 3), dtype=np.int64)):
            with pytest.raises(InvalidKnotError) as refused:
                LatticeKnot(empty)
            assert refused.value.result.codes() == {"too_short"}

    def test_coincident_vertices_are_refused(self):
        # closed unit steps, but vertices 2 and 3 repeat vertices 0 and 1
        with pytest.raises(InvalidKnotError) as refused:
            LatticeKnot(np.array([(0, 0, 0), (2, 0, 0), (0, 0, 0), (2, 0, 0)]))
        assert refused.value.result.codes() == {"not_embedded"}

    def test_constructor_accepts_what_from_true_accepts(self):
        outcomes = set()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(doubled=mutated_small_knots())
        def check(doubled):
            outcomes.add(construct_like_from_true(doubled))

        check()
        assert outcomes == {"odd", "refused", "accepted"}

    def test_isometry_must_permute_the_axes(self):
        for perm, signs in (((0, 0, 1), (1, 1, 1)), ((0, 1, 2), (2, 1, 1)),
                            ((0, 1, 2), (1, 0, 1))):
            with pytest.raises(ValueError, match="not a lattice isometry"):
                transform(rectangle(1, 1), Isometry(perm, signs))

    def test_report_path_builds_no_points(self):
        knot = parse_knot(serialize(torus_knot(2, 3)))
        build_report(knot)
        certify_unknot(vertex_distortion(knot))
        gromov1_distortion(knot)
        assert "vertices" not in vars(knot)


class TestScale:
    def test_double_unit_square(self, unit_square):
        doubled = scale(unit_square, 2)
        assert doubled.n == 8
        assert set(doubled.true_vertices()) == {
            (0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0),
            (2, 2, 0), (1, 2, 0), (0, 2, 0), (0, 1, 0),
        }

    def test_identity(self, unit_square):
        assert scale(unit_square, 1) == unit_square

    def test_composition(self, small_corpus):
        for knot in small_corpus:
            assert scale(scale(knot, 2), 2) == scale(knot, 4)

    def test_scaled_knots_validate(self, small_corpus):
        for knot in small_corpus:
            for m in (2, 3, 5):
                scaled = scale(knot, m)
                assert validate(scaled.true_vertices()).ok
                assert scaled.n == m * knot.n

    def test_zero_rejected(self, unit_square):
        with pytest.raises(ValueError):
            scale(unit_square, 0)

    def test_overflow_reported(self):
        big = 2**61
        knot = transform(rectangle(1, 1), translate=(big, 0, 0))
        with pytest.raises(OverflowError):
            scale(knot, 8)


class TestMidpoints:
    def test_unit_square_midpoints(self, unit_square):
        got = {m.as_true() for m in midpoint_points(unit_square)}
        assert got == {(0.5, 0, 0), (1, 0.5, 0), (0.5, 1, 0), (0, 0.5, 0)}

    def test_far_halves_are_exact(self):
        # a float half-integer past 2**52 rounds to a neighbouring integer
        far = LatticePoint(2**61 + 1, -1, -4)
        assert far.as_true() == (Fraction(2**61 + 1, 2), Fraction(-1, 2), -2)
        assert repr(far) == "LatticePoint(1152921504606846976.5, -0.5, -2)"

    def test_count_equals_edges(self, small_corpus):
        for knot in small_corpus:
            assert len(set(midpoint_points(knot))) == knot.n
            assert len(knot.offset_table) == 2 * knot.n

    def test_doubling_sends_midpoints_to_odd_vertices(self, small_corpus):
        # vertices of 2K with an odd true coordinate are exactly the
        # doubled images of K's midpoints
        for knot in small_corpus:
            doubled = scale(knot, 2)
            odd_vertices = {
                v for v in doubled.true_vertices() if any(c % 2 for c in v)
            }
            images = {
                tuple(c for c in m) for m in midpoint_points(knot)
            }  # doubled coords of K are true coords of 2K
            assert odd_vertices == images


def point_table_knots(small_corpus):
    knots = list(small_corpus)
    knots += [random_polygon(n, seed) for n in (4, 10, 36, 120, 400) for seed in range(3)]
    knots += [torus_knot(2, 3, s) for s in range(2, 6)]
    return knots + [transform(k, translate=(2**40, -(2**40), 2**40)) for k in knots]


class TestPointTables:
    def test_match_the_per_vertex_builders(self, small_corpus):
        for knot in point_table_knots(small_corpus):
            table = reference_offset_table(knot)
            assert list(knot.offset_table.items()) == list(table.items())
            located = knot.coords_at(np.arange(2 * knot.n)).tolist()
            assert [table[LatticePoint(*p)] for p in located] == list(range(2 * knot.n))


class TestIsometries:
    def test_forty_eight(self):
        isos = lattice_isometries()
        assert len(isos) == 48
        images = {iso.apply(LatticePoint(2, 4, 6)) for iso in isos}
        assert len(images) == 48

    def test_transform_preserves_validity(self, small_corpus):
        isos = lattice_isometries()
        for i, knot in enumerate(small_corpus):
            iso = isos[(7 * i) % 48]
            moved = transform(knot, iso, translate=(i, -i, 2 * i))
            assert validate(moved.true_vertices()).ok


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_polygons_validate(seed):
    knot = random_polygon(14, seed)
    assert validate(knot.true_vertices()).ok
    assert knot.n == 14
