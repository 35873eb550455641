"""Tests for the diagram data model, file I/O and synthetic generators."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgmdist.diagram
from dgmdist import KIND_P_TO_DIAGONAL, TreeConfig, build_tree, greedy_match
from dgmdist.diagram import (
    DiagramError,
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

import reference
from families import points

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

    def test_multiplicity_must_be_an_int64_integer(self):
        # as the file parser: a fraction, nan, inf or a count past int64 is
        # refused as an invalid point, naming the value given
        for bad in (1.9, 0.5, math.nan, math.inf, -math.inf, 2**63, float(2**63), "x"):
            with pytest.raises(InvalidPointError, match=re.escape(f"got {bad}") + "$"):
                PersistenceDiagram([(0, 1, bad)])
            with pytest.raises(InvalidPointError, match=re.escape(f"got {bad}") + "$"):
                PDPoint(0.0, 1.0, bad)
        top = 2**63 - 1
        for good, count in ((np.float64(3.0), 3), (np.int64(top), top), (2.0, 2), (top, top)):
            assert PDPoint(0.0, 1.0, good).multiplicity == count
            assert type(PDPoint(0.0, 1.0, good).multiplicity) is int
            assert PersistenceDiagram([(0, 1, good)]).total_count == count

    def test_coordinates_must_be_numbers(self):
        # a birth or death that float() refuses is an invalid point, named
        # as given
        for birth, death in (("x", 1.0), (None, 1.0), (0.0, "1 2"), (0.0, [1.0]), (10**400, 1.0)):
            given = re.escape(f"got ({birth!r}, {death!r})") + "$"
            with pytest.raises(InvalidPointError, match=given):
                PersistenceDiagram([(birth, death)])
            with pytest.raises(InvalidPointError, match=given):
                PDPoint(birth, death)


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

    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_pairwise_equals_cdist(self, metric):
        # the numpy matrix is scipy's cdist bit for bit, scales 1e-8 to 1e8,
        # offsets to 1e3, plus squares that underflow; where an L2 square
        # overflows in cdist (1e200), it is math.hypot's
        rng = np.random.default_rng(11)
        for trial in range(60):
            scale = 10.0 ** rng.integers(-8, 9)
            offset = rng.uniform(-1e3, 1e3)
            a = offset + scale * rng.normal(size=(int(rng.integers(0, 40)), 2))
            b = offset + scale * rng.normal(size=(int(rng.integers(1, 40)), 2))
            if trial % 10 == 0:
                a = np.vstack([a, [(1e200, -1e200), (5e-324, 1e-310)]])
                b = np.vstack([b, [(0.0, 0.0), (1e-320, 1e-311)]])
            got = metric.pairwise(a, b)
            assert got.shape == (len(a), len(b))
            cdist = reference.cdist_matrix(a, b, metric)
            large = np.zeros(got.shape, bool)
            if metric is GroundMetric.L2:
                large = reference.l2_overflow_mask(a, b)
                assert large.any() == (trial % 10 == 0)
                hypot = [math.hypot(*(a[i] - b[j])) for i, j in zip(*large.nonzero())]
                assert got[large].tolist() == hypot
            assert got[~large].tobytes() == cdist[~large].tobytes()

    def test_pairwise_past_the_l2_square_range(self):
        # every difference of the row reaches 2**511, where a square can
        # overflow: each entry is math.hypot's, and distance() reads the same
        rng = np.random.default_rng(3)
        dx = 2.0**511 * 2.0 ** rng.uniform(0.0, 511.0, 200)
        dy = dx * rng.choice([0.0, 1e-300, 0.5, 1.0, 2.0], 200) * rng.choice([-1.0, 1.0], 200)
        points = np.c_[dx, dy]
        row = GroundMetric.L2.pairwise(np.zeros((1, 2)), points)[0]
        hypot = [math.hypot(x, y) for x, y in points.tolist()]
        assert row.tolist() == hypot
        assert math.isfinite(max(hypot))
        origin = (0.0, 0.0)
        assert [GroundMetric.L2.distance(origin, p) for p in points] == hypot


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
    """(birth, death, multiplicity) rows drawn from a small pool of any
    family and a point born at 0.0, so that duplicates are common; births
    may be -0.0 or 0.0 for the same point."""
    pool = draw(points(max_points=6))
    pool.append((0.0, pool[0][1] - pool[0][0]))
    rows = []
    for _ in range(draw(st.integers(0, 15))):
        birth, death = draw(st.sampled_from(pool))
        if birth == 0.0 and draw(st.booleans()):
            birth = -0.0
        rows.append((birth, death, draw(st.integers(1, 4))))
    return rows


def merged_reference(rows):
    """The multiset as a sorted list of (birth, death, multiplicity), each
    distinct point represented by its first occurrence."""
    merged = {}
    for birth, death, mult in rows:
        merged[(birth, death)] = merged.get((birth, death), 0) + mult
    return [(b, d, m) for (b, d), m in sorted(merged.items())]


class TestColumnarDiagram:
    @settings(max_examples=200)
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

    @settings(max_examples=100)
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


# field separators inside a line: str.split() breaks at each, a line does not
SEPARATORS = (" ", "  ", "\t", "\x0c", "\x85", "\u3000")
# spellings float() and int() accept, and some they do not
NUMBERS = ("0", "-0", "1.5", "-2", "7", "1e3", "1_0", "\u0661\u0662", "\uff13", "nan", "inf",
           "-inf", "1e400", "x", "1__0")
MULTS = ("1", "0", "-1", "1_0", "\u0663", "3.0", "1e3", str(2**62), str(2**63), str(-2**63),
         str(10**30))
VALID_MULTS = ("2", "3", "1_0", "\u0663") * 3 + (str(2**62), str(2**63 - 1))


@st.composite
def file_line(draw, pool):
    """One line of a diagram file, without its newline: mostly valid
    points of pool (a birth of 0.0 maybe written -0.0), with blank lines,
    comments, points that break one rule and lines of any 1 to 4 tokens."""
    kinds = ("point",) * 12 + ("bad point",) * 2 + ("blank", "comment", "tokens")
    kind = draw(st.sampled_from(kinds))
    sep = st.sampled_from(SEPARATORS)
    if kind == "blank":
        return draw(st.sampled_from(("", " ", "\t", "\x0c", "\u3000")))
    if kind == "comment":
        return draw(st.sampled_from(("#", "# 1 2 3", "  # x y")))
    if kind == "tokens":
        fields = draw(st.lists(st.sampled_from(NUMBERS + MULTS), min_size=1, max_size=4))
    else:
        birth, death = draw(st.sampled_from(pool))
        if birth == 0.0 and draw(st.booleans()):
            birth = -0.0
        fields = [repr(birth), repr(death)]
        if draw(st.booleans()):
            fields.append(draw(st.sampled_from(VALID_MULTS)))
        if kind == "bad point":
            broken = draw(
                st.sampled_from(("birth", "death", "swap", "mult", "mult", "drop", "extra"))
            )
            if broken == "drop":
                del fields[1:]
            elif broken == "extra":
                fields += ["1", "2"]
            elif broken == "mult":
                fields[2:] = [draw(st.sampled_from(MULTS))]
            elif broken == "swap":
                # death = birth, or the two swapped
                fields[:2] = fields[draw(st.sampled_from((0, 1)))], fields[0]
            else:
                fields[0 if broken == "birth" else 1] = draw(st.sampled_from(NUMBERS))
    line = draw(sep).join(fields)
    if draw(st.booleans()):
        line = draw(sep) + line + draw(sep)
    if draw(st.sampled_from((False,) * 4 + (True,))):
        line += draw(st.sampled_from(("#", " # 5 4", "\t#\t#")))
    return line


@st.composite
def file_text(draw):
    """A whole file of the points of one family's pool: lines ended by LF,
    CRLF or lone CR, the last one maybe unterminated, with now and then a
    leading byte-order mark."""
    pool = draw(points(max_points=6))
    lines = draw(st.lists(file_line(pool), max_size=10))
    ends = st.sampled_from(("\n",) * 4 + ("\r\n", "\r"))
    text = "".join(line + draw(ends) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return draw(st.sampled_from(("",) * 19 + ("\ufeff",))) + text


def loaded(load, path):
    """The diagram's columns and total, or the error's type and message."""
    try:
        d = load(path)
    except DiagramError as exc:
        return type(exc), str(exc)
    return d.coords().tobytes(), d.multiplicities().tobytes(), d.total_count


@pytest.fixture
def no_line_scan(monkeypatch):
    """load_diagram with its line-by-line error report made to fail."""

    def refuse(name, text):
        raise AssertionError("line scan reached")

    monkeypatch.setattr(dgmdist.diagram, "_line_error", refuse)


class TestBulkParse:
    @settings(max_examples=400)
    @given(file_text())
    def test_same_diagram_or_error_as_the_line_scan(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("bulk") / "d.txt"
        path.write_bytes(text.encode("utf-8"))
        assert loaded(load_diagram, path) == loaded(reference.line_scan_diagram, path)

    @pytest.mark.parametrize(
        "text",
        [
            "0 4\n1\n",
            "0 4\n1\n5\n",
            "0 4 1 5\n",
            "0 4\n\n1 x 2\n",
            "# c\n0 inf\n",
            "0 4 # c\r\n3 1\r\n",
            "0 4\r0 4 3.0\r",
            "0 4 0\n5 1\n",
            f"0 4 {2**63}\n",
            f"0 4 {2**62}\n0 4 {2**62}\n",
            "\ufeff\ufeff0 4\n",
        ],
    )
    def test_each_rule_reports_as_the_line_scan(self, tmp_path, text):
        path = tmp_path / "d.txt"
        path.write_bytes(text.encode("utf-8"))
        outcome = loaded(load_diagram, path)
        assert outcome[0] in (DiagramParseError, InvalidPointError)
        assert outcome == loaded(reference.line_scan_diagram, path)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n \n# only a comment\n",
            "0 4\n1 5 3\n2 6\n",
            "# header\n0 4  # note\n\n1 5 2 # x\n",
            "0 4\r\n1 5 3\r\n",
            "0 4\r1 5\r",
            "0\x0c4\n1\x855\n1\u30005\t2",
            "\ufeff0 4\n",
            "\ufeff# header\n0 4\n",
        ],
    )
    def test_valid_files_skip_the_line_scan(self, tmp_path, no_line_scan, text):
        path = tmp_path / "d.txt"
        path.write_bytes(text.encode("utf-8"))
        assert load_diagram(path) == reference.line_scan_diagram(path)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # one leading BOM is not part of the first line; a byte that is not
        # UTF-8 is still named by its line in the file
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(b"0 1\n2 5 3\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_diagram(marked) == load_diagram(plain)
        assert reference.line_scan_diagram(marked) == load_diagram(plain)
        marked.write_bytes(b"\xef\xbb\xbf0 1\n\xff\n")
        with pytest.raises(DiagramParseError, match="^marked.txt: not UTF-8 text at line 2$"):
            load_diagram(marked)

    def test_round_trips_skip_the_line_scan(self, tmp_path, no_line_scan):
        rng = np.random.default_rng(3)
        for diagram in (gen_uniform(500, 1), gen_gaussian(300, 2)):
            coords = diagram.coords()
            with_mults = PersistenceDiagram._from_columns(
                coords[:, 0], coords[:, 1], rng.integers(1, 4, len(coords))
            )
            for original in (diagram, with_mults):
                path = tmp_path / "d.txt"
                save_diagram(original, path)
                assert load_diagram(path) == original


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
