"""Tests for the diagram data model, file I/O and synthetic generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmdist import KIND_P_TO_DIAGONAL, TreeConfig, build_tree, greedy_match
from dgmdist.diagram import (
    DiagramParseError,
    GroundMetric,
    InvalidPointError,
    PDPoint,
    PersistenceDiagram,
    gen_gaussian,
    gen_uniform,
    load_diagram,
    save_diagram,
)

SQRT2 = math.sqrt(2.0)


def diagonal_target(p: PDPoint) -> tuple[float, float]:
    """Where greedy_match sends a lone point: the diagonal end of its pair."""
    first = PersistenceDiagram([(p.birth, p.death)])
    tree = build_tree(first.coords(), TreeConfig(seed=0))
    (pair,) = greedy_match(tree, first, PersistenceDiagram()).pairs
    assert pair.kind == KIND_P_TO_DIAGONAL and pair.source == (p.birth, p.death)
    return pair.target


def diagonal_distance(p: PDPoint, metric: GroundMetric) -> float:
    """GroundMetric.diagonal_distances of the one point p."""
    return metric.diagonal_distances(np.array([[p.birth, p.death]]))[0]


class TestPDPoint:
    def test_valid_point(self):
        p = PDPoint(1.0, 5.0, 2)
        assert p.lifetime == 4.0
        assert p.multiplicity == 2

    def test_death_must_exceed_birth(self):
        with pytest.raises(InvalidPointError):
            PDPoint(3.0, 1.0)
        with pytest.raises(InvalidPointError):
            PDPoint(1.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidPointError):
            PDPoint(0.0, math.inf)
        with pytest.raises(InvalidPointError):
            PDPoint(math.nan, 1.0)

    def test_multiplicity_at_least_one(self):
        with pytest.raises(InvalidPointError):
            PDPoint(0.0, 1.0, 0)


class TestDiagonalGeometry:
    def test_projection_is_midpoint(self):
        assert diagonal_target(PDPoint(1, 5)) == (3.0, 3.0)
        assert diagonal_target(PDPoint(0, 4)) == (2.0, 2.0)

    def test_projection_near_diagonal(self):
        eps = 1e-4
        px, py = diagonal_target(PDPoint(0.0, eps))
        assert px == py == pytest.approx(eps / 2)

    def test_projection_distance_l2(self):
        p = PDPoint(0, 4)
        proj = diagonal_target(p)
        assert GroundMetric.L2.distance((p.birth, p.death), proj) == pytest.approx(
            2 * SQRT2
        )

    @pytest.mark.parametrize(
        "metric,expected",
        [
            (GroundMetric.L2, 2 * SQRT2),
            (GroundMetric.LINF, 2.0),
            (GroundMetric.L1, 4.0),
        ],
    )
    def test_diagonal_distance(self, metric, expected):
        assert diagonal_distance(PDPoint(0, 4), metric) == pytest.approx(expected)

    def test_l2_diagonal_distance_is_lifetime_over_sqrt2(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            b = rng.uniform(-5, 5)
            d = b + rng.uniform(1e-6, 10)
            p = PDPoint(b, d)
            assert diagonal_distance(p, GroundMetric.L2) == pytest.approx(
                p.lifetime / SQRT2
            )

    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_rows_equal_diagonal_distance(self, metric):
        d = gen_gaussian(300, 4)
        rows = metric.diagonal_distances(d.coords())
        assert rows.tolist() == [p.lifetime * metric.diagonal_factor for p in d.points]
        assert metric.diagonal_distances(np.zeros((0, 2))).shape == (0,)


class TestPersistenceDiagram:
    def test_merges_duplicates(self):
        d = PersistenceDiagram([(0, 4), (0, 4), (1, 5)])
        assert len(d) == 2
        assert d.points[0].multiplicity == 2
        assert d.total_count == 3

    def test_sorted_lexicographically(self):
        rng = np.random.default_rng(1)
        pts = [(rng.uniform(0, 10), rng.uniform(11, 20)) for _ in range(40)]
        d = PersistenceDiagram(pts)
        keys = [(p.birth, p.death) for p in d]
        assert keys == sorted(keys)
        assert all(p.multiplicity >= 1 for p in d)

    def test_order_insensitive_equality(self):
        a = PersistenceDiagram([(1, 5), (0, 4)])
        b = PersistenceDiagram([(0, 4), (1, 5)])
        assert a == b
        assert hash(a) == hash(b)

    def test_empty(self):
        d = PersistenceDiagram()
        assert len(d) == 0
        assert d.total_count == 0
        assert d.coords().shape == (0, 2)

    def test_coords_read_only(self):
        d = PersistenceDiagram([(0, 4)])
        with pytest.raises(ValueError):
            d.coords()[0, 0] = 99.0


@st.composite
def point_rows(draw):
    """(birth, death, multiplicity) rows drawn from a small pool, so that
    duplicates are common; births may be -0.0 or 0.0 for the same point."""
    pool = draw(
        st.lists(
            st.tuples(st.sampled_from([0.0, 1.0, -2.5, 1e11]), st.floats(0.5, 9.0)),
            min_size=1,
            max_size=6,
        )
    )
    rows = []
    for _ in range(draw(st.integers(0, 15))):
        birth, life = draw(st.sampled_from(pool))
        if birth == 0.0 and draw(st.booleans()):
            birth = -0.0
        rows.append((birth, birth + life, draw(st.integers(1, 4))))
    return rows


def merged_reference(rows):
    """The multiset as a sorted list of (birth, death, multiplicity), each
    distinct point represented by its first occurrence."""
    merged = {}
    for birth, death, mult in rows:
        merged[(birth, death)] = merged.get((birth, death), 0) + mult
    return [(b, d, m) for (b, d), m in sorted(merged.items())]


class TestColumnarDiagram:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(point_rows())
    def test_array_and_point_construction_agree(self, rows):
        from_points = PersistenceDiagram([PDPoint(*row) for row in rows])
        from_arrays = PersistenceDiagram._from_columns(
            [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]
        )
        expected = merged_reference(rows)
        for d in (from_points, from_arrays):
            # repr keeps the sign of zero: the first occurrence is kept
            assert [repr(x) for x in d.coords().ravel().tolist()] == [
                repr(x) for b, dth, _ in expected for x in (b, dth)
            ]
            assert d.coords().shape == (len(expected), 2)
            assert d.multiplicities().tolist() == [m for _, _, m in expected]
            assert d.multiplicities().dtype == np.int64
            assert d.points == tuple(PDPoint(*row) for row in expected)
            assert list(d) == list(d.points)
            assert d.total_count == sum(r[2] for r in rows)
        assert from_points == from_arrays
        assert hash(from_points) == hash(from_arrays)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(point_rows())
    def test_sign_of_zero_does_not_matter(self, rows):
        flipped = [(-b if b == 0.0 else b, d, m) for b, d, m in rows]
        a, b = PersistenceDiagram(rows), PersistenceDiagram(flipped)
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_diagrams(self):
        a = PersistenceDiagram([(0, 4, 2)])
        assert a != PersistenceDiagram([(0, 4)])
        assert a != PersistenceDiagram([(0, 4, 2), (1, 5)])
        assert a != PersistenceDiagram()

    def test_loading_and_generating_build_no_points(self, tmp_path, monkeypatch):
        path = tmp_path / "d.txt"
        save_diagram(gen_uniform(50, 1), path)

        def refuse(self):
            raise AssertionError("PDPoint built")

        monkeypatch.setattr(PDPoint, "__post_init__", refuse)
        load_diagram(path)
        gen_uniform(50, 2)
        gen_gaussian(50, 3)
        with pytest.raises(AssertionError):
            load_diagram(path).points

    def test_merged_multiplicity_must_fit_int64(self):
        top = 2**63 - 1
        assert PersistenceDiagram([(0, 1, top - 5), (0, 1, 5)]).total_count == top
        with pytest.raises(OverflowError):
            PersistenceDiagram([(0, 1, top - 5), (0, 1, 6)])

    def test_empty_input(self):
        empty = PersistenceDiagram._from_columns([], [], [])
        assert empty == PersistenceDiagram() and hash(empty) == hash(PersistenceDiagram())
        assert empty.points == () and len(empty) == 0 and empty.total_count == 0
        assert empty.coords().shape == (0, 2)
        assert empty.multiplicities().shape == (0,)


class TestFileIO:
    def test_basic_file(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0 4\n1 5\n")
        d = load_diagram(path)
        assert d == PersistenceDiagram([(0, 4), (1, 5)])

    def test_duplicate_lines_merge(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0 4\n0 4\n")
        d = load_diagram(path)
        assert len(d) == 1
        assert d.points[0].multiplicity == 2

    def test_death_le_birth_reports_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("3 1\n")
        with pytest.raises(InvalidPointError, match="death <= birth at line 1"):
            load_diagram(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# header\n\n0 4  # inline note\n1 5 3\n")
        d = load_diagram(path)
        assert d.total_count == 4
        assert d.points[1].multiplicity == 3

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0 4\nnot a point\n")
        with pytest.raises(DiagramParseError, match="line 2"):
            load_diagram(path)

    def test_first_bad_line_is_reported(self, tmp_path):
        # an invalid point on line 2 precedes a malformed number on line 4
        path = tmp_path / "d.txt"
        path.write_text("0 4\n5 1\n1 5\n1 x\n")
        with pytest.raises(InvalidPointError, match="death <= birth at line 2"):
            load_diagram(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0 4 1 7\n")
        with pytest.raises(DiagramParseError, match="line 1"):
            load_diagram(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0 inf\n")
        with pytest.raises(InvalidPointError, match="non-finite"):
            load_diagram(path)

    def test_bad_multiplicity(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0 4 0\n")
        with pytest.raises(InvalidPointError, match="multiplicity"):
            load_diagram(path)
        path.write_text("0 4 x\n")
        with pytest.raises(DiagramParseError, match="multiplicity"):
            load_diagram(path)

    def test_round_trip_is_identity(self, tmp_path):
        rng = np.random.default_rng(7)
        pts = [
            (rng.uniform(0, 100), rng.uniform(101, 200), int(rng.integers(1, 4)))
            for _ in range(25)
        ]
        original = PersistenceDiagram(pts)
        path = tmp_path / "d.txt"
        save_diagram(original, path)
        assert load_diagram(path) == original

    def test_round_trip_full_precision(self, tmp_path):
        value = 0.1 + 0.2  # not representable exactly in decimal
        original = PersistenceDiagram([(value, value + 1e-9)])
        path = tmp_path / "d.txt"
        save_diagram(original, path)
        restored = load_diagram(path)
        assert restored.points[0].birth == original.points[0].birth
        assert restored.points[0].death == original.points[0].death

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "d.txt"
        save_diagram(PersistenceDiagram(), path)
        assert load_diagram(path) == PersistenceDiagram()


class TestGenerators:
    def test_uniform_points_in_triangle(self):
        d = gen_uniform(500, 3)
        for p in d:
            assert 0.0 <= p.birth <= 200.0
            assert p.birth < p.death <= 300.0

    def test_uniform_deterministic(self):
        assert gen_uniform(50, 9) == gen_uniform(50, 9)

    def test_uniform_seeds_differ(self):
        assert gen_uniform(50, 1) != gen_uniform(50, 2)

    def test_uniform_single_point(self):
        assert gen_uniform(1, 0).total_count == 1

    def test_uniform_rejects_bad_size(self):
        with pytest.raises(ValueError):
            gen_uniform(0, 0)

    def test_gaussian_strictly_above_diagonal(self):
        d = gen_gaussian(500, 4)
        assert all(p.death > p.birth for p in d)
        assert min(p.lifetime for p in d) >= 1e-9

    def test_gaussian_deterministic(self):
        assert gen_gaussian(80, 11) == gen_gaussian(80, 11)

    def test_gaussian_mean_lifetime(self):
        # lifetimes are |N(0,1)|, so the mean tends to sqrt(2/pi) ~ 0.7979
        d = gen_gaussian(100_000, 5)
        lifetimes = d.coords()[:, 1] - d.coords()[:, 0]
        assert abs(lifetimes.mean() - math.sqrt(2 / math.pi)) < 0.02
