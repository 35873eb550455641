"""Tests for shifted quadtree construction and its placement: cell
addressing and terminal classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgmdist import (
    GroundMetric,
    PersistenceDiagram,
    gen_gaussian,
    gen_uniform,
    multi_tree_estimate,
)
from dgmdist.quadtree import (
    MAX_LEVELS,
    OutsideRootError,
    ShiftedQuadtree,
    TreeConfig,
    build_tree,
    tree_geometry,
    union_coords,
)

import reference
from helpers import cells_at, pair_tree, placed_levels, random_pair


def manual_tree(origin=(0.0, 0.0), root_side=8.0, levels=4):
    """Fixed-geometry tree for addressing arithmetic (no randomness)."""
    return ShiftedQuadtree(
        origin=origin,
        root_side=root_side,
        level_hi=levels - 1,
        shift=(0.0, 0.0),
        spread=root_side,
        seed=0,
        ground_metric=GroundMetric.L2,
        min_separation=1.0,
    )


class TestConfig:
    def test_cap_validated(self):
        with pytest.raises(ValueError):
            TreeConfig(seed=0, max_levels_cap=1)

    def test_cap_bounded_by_deepest_indexable_tree(self):
        # the default cap fits; a cap the cell keys cannot index is refused
        # before any tree is built
        assert MAX_LEVELS >= TreeConfig(seed=0).max_levels_cap == 40
        TreeConfig(seed=0, max_levels_cap=MAX_LEVELS)
        for cap in (MAX_LEVELS + 1, 70):
            with pytest.raises(ValueError, match="max_levels_cap"):
                TreeConfig(seed=0, max_levels_cap=cap)

    def test_negative_seed_rejected(self):
        first, second = gen_uniform(5, 1), gen_uniform(5, 2)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            build_tree(union_coords((first, second)), TreeConfig(seed=-1))
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            multi_tree_estimate(first, second, GroundMetric.L2, seeds=[-1])

    def test_tree_levels_bounded(self):
        manual_tree(levels=MAX_LEVELS)
        with pytest.raises(ValueError, match="levels must lie"):
            manual_tree(levels=MAX_LEVELS + 1)


class TestBuildTree:
    def test_single_point(self):
        tree = build_tree([(0.0, 4.0)], TreeConfig(seed=1))
        assert tree.num_levels >= 2
        assert len(cells_at(tree, (0.0, 4.0))) == tree.num_levels
        assert tree.min_separation == pytest.approx(4 / math.sqrt(2))

    def test_deterministic_per_seed(self):
        pts = [(0.0, 4.0), (1.0, 5.0), (3.0, 9.0)]
        a = build_tree(pts, TreeConfig(seed=42))
        b = build_tree(pts, TreeConfig(seed=42))
        assert a.origin == b.origin
        assert a.shift == b.shift
        assert a.num_levels == b.num_levels
        assert a.signature == b.signature
        c = build_tree(pts, TreeConfig(seed=43))
        assert c.signature != a.signature

    def test_two_points_min_separation_and_depth(self):
        # pairwise distance 2 beats both diagonal distances under L2
        tree = build_tree([(0.0, 4.0), (0.0, 6.0)], TreeConfig(seed=5))
        assert tree.min_separation == pytest.approx(2.0)
        assert tree.side(0) < 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_tree([], TreeConfig(seed=0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            build_tree([(0.0, math.inf)], TreeConfig(seed=0))

    def test_on_diagonal_point_rejected(self):
        with pytest.raises(ValueError, match="separation"):
            build_tree([(2.0, 2.0)], TreeConfig(seed=0))

    def test_root_contains_all_points(self):
        for seed in range(20):
            first, second = random_pair(seed)
            tree = pair_tree(first, second, seed=seed)
            for diagram in (first, second):
                passes = placed_levels(tree, diagram.coords())  # no OutsideRootError
                assert len(passes) == tree.num_levels

    def test_cap_truncates_near_duplicates(self):
        # the far point sets the scale; the near-duplicate pair the depth
        pts = [(0.0, 4.0), (0.0, 4.0 + 1e-13), (100.0, 200.0)]
        tree = build_tree(pts, TreeConfig(seed=0, max_levels_cap=10))
        assert tree.truncated
        assert tree.num_levels == 10

    def test_not_truncated_normally(self):
        tree = build_tree([(0.0, 4.0), (1.0, 5.0)], TreeConfig(seed=0))
        assert not tree.truncated

    def test_finest_side_below_half_separation(self):
        for seed in range(15):
            first, second = random_pair(seed)
            tree = pair_tree(first, second, seed=seed)
            if not tree.truncated:
                assert tree.side(0) < 0.5 * tree.min_separation

    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_shared_geometry_gives_build_tree(self, metric):
        # every seed and cap shifts the same geometry into build_tree's tree
        pts = union_coords(random_pair(7)).tolist() + [(0.0, 4.0), (0.0, 4.0 + 1e-13)]
        geometry = tree_geometry(pts, metric)
        for seed in range(5):
            for cap in (2, 10, 40):
                config = TreeConfig(seed=seed, max_levels_cap=cap, ground_metric=metric)
                tree, expected = geometry.tree(config), build_tree(pts, config)
                assert tree.meta() == expected.meta()
                assert tree.signature == expected.signature

    @pytest.mark.parametrize(
        "pts,metrics",
        [
            # root side / separation is infinite: a subnormal separation
            # (under L2 the gap rounds to zero and is refused as such)
            ([(0.0, 16.0), (5e-324, 16.0), (1.0, 9.0)], [GroundMetric.L1, GroundMetric.LINF]),
            # the ratio is finite but the depth needs 2.0 ** 1024
            ([(0.0, 1e300), (3e-21, 1e300), (1e287, 1e300)], list(GroundMetric)),
        ],
    )
    def test_depth_overflow_is_value_error(self, pts, metrics):
        for metric in metrics:
            with pytest.raises(ValueError, match="tree depth overflows"):
                tree_geometry(pts, metric)

    def test_geometry_metric_must_match(self):
        geometry = tree_geometry([(0.0, 4.0), (1.0, 5.0)], GroundMetric.L2)
        with pytest.raises(ValueError, match="ground_metric"):
            geometry.tree(TreeConfig(seed=0, ground_metric=GroundMetric.L1))


def occupied_cells(tree, diagram):
    """{level: {(ix, iy): multiplicity-weighted count}} from the placement."""
    mults = diagram.multiplicities().tolist()
    counts = {}
    for level, ix, iy, _ in placed_levels(tree, diagram.coords()):
        cells = counts.setdefault(level, {})
        for cell, m in zip(zip(ix.tolist(), iy.tolist()), mults):
            cells[cell] = cells.get(cell, 0) + m
    return counts


class TestCellAddressing:
    def test_unit_cell_contains_interior_point(self):
        tree = manual_tree()
        assert cells_at(tree, (0.5, 0.5))[0][:2] == (0, 0)

    def test_left_bottom_boundary_belongs_to_cell(self):
        tree = manual_tree()
        assert cells_at(tree, (1.0, 0.5))[0][:2] == (1, 0)
        assert cells_at(tree, (0.5, 3.0))[0][:2] == (0, 3)

    def test_dyadic_parent(self):
        # each level's cell is the half-open square holding the point, and
        # the parent's indices halve the child's
        first, second = random_pair(8)
        tree = pair_tree(first, second, seed=2)
        coords = union_coords((first, second))
        ox, oy = tree.origin
        child = None
        for level, ix, iy, _ in placed_levels(tree, coords):
            side = tree.side(level)
            for x, y, cx, cy in zip(coords[:, 0], coords[:, 1], ix, iy):
                assert ox + cx * side <= x < ox + (cx + 1) * side
                assert oy + cy * side <= y < oy + (cy + 1) * side
            if child is not None:
                assert (ix == child[0] // 2).all() and (iy == child[1] // 2).all()
            child = (ix, iy)

    def test_outside_point_raises(self):
        tree = manual_tree()
        with pytest.raises(OutsideRootError):
            cells_at(tree, (9.0, 1.0))
        with pytest.raises(OutsideRootError):
            cells_at(tree, (-0.1, 1.0))

    def test_level_range_checked(self):
        tree = manual_tree(levels=3)
        with pytest.raises(ValueError):
            tree.side(3)
        with pytest.raises(ValueError):
            tree.side(-1)

    def test_side_doubles_per_level(self):
        tree = manual_tree(root_side=8.0, levels=4)
        assert [tree.side(lv) for lv in tree.levels()] == [1.0, 2.0, 4.0, 8.0]
        # a point in the top-left finest cell: each doubling halves its row
        assert [cells_at(tree, (0.5, 7.5))[lv][:2] for lv in tree.levels()] == [
            (0, 7), (0, 3), (0, 1), (0, 0)
        ]

    def test_far_root_edge_in_last_cell(self):
        tree = manual_tree(root_side=8.0, levels=4)
        assert cells_at(tree, (8.0, 8.0))[0][:2] == (7, 7)


class TestTerminalCells:
    def test_cell_straddling_diagonal(self):
        tree = manual_tree()
        assert cells_at(tree, (0.5, 0.5))[0][2]  # cell [0,1] x [0,1]

    def test_cell_far_from_diagonal(self):
        tree = manual_tree()
        assert not cells_at(tree, (5.5, 0.5))[0][2]  # [5,6] x [0,1]

    def test_touching_counts_as_terminal(self):
        tree = manual_tree()
        assert cells_at(tree, (1.5, 0.5))[0][2]  # [1,2] x [0,1] touches y=x at (1,1)
        assert cells_at(tree, (0.5, 1.5))[0][2]  # [0,1] x [1,2] touches at (1,1)
        assert not cells_at(tree, (0.5, 2.5))[0][2]  # [0,1] x [2,3] stays clear

    def test_terminal_level_is_first_terminal_test(self):
        # the float test need not be monotone up the tree (far from the
        # origin its roundings differ per level); place keeps the first hit
        first, second = random_pair(4)
        tree = pair_tree(first, second, seed=9)
        coords = union_coords((first, second))
        assert tree.place(coords)[2].tolist() == first_terminal_levels(tree, coords)

    def test_root_terminal_for_synthetic_data(self):
        for seed in range(25):
            first, second = random_pair(seed)
            tree = pair_tree(first, second, seed=seed)
            *_, (level, ix, iy, terminal) = placed_levels(
                tree, union_coords((first, second))
            )
            assert level == tree.level_hi
            assert (ix == 0).all() and (iy == 0).all() and terminal.all()

    def test_occupied_finest_cells_hold_one_point_and_are_clear(self):
        for seed in range(10):
            first, second = random_pair(seed, max_points=15)
            tree = pair_tree(first, second, seed=seed)
            if tree.truncated:
                continue
            coords = np.unique(union_coords((first, second)), axis=0)
            level, ix, iy, terminal = placed_levels(tree, coords)[0]
            assert level == 0
            assert not terminal.any()
            cells = set(zip(ix.tolist(), iy.tolist()))
            assert len(cells) == len(coords), "two distinct points share a finest cell"


def first_terminal_levels(tree, coords):
    """Each point's first level whose cell meets the diagonal, by the
    reference's cell formula and terminal test; level_hi + 1 for none."""
    levels = []
    for x, y in np.asarray(coords, dtype=float).tolist():
        first = tree.level_hi + 1
        for level in tree.levels():
            side, n = reference._grid(tree, level)
            if reference._terminal(tree, *reference._cell(tree, x, y, side, n), side):
                first = level
                break
        levels.append(first)
    return levels


@st.composite
def placed_points(draw):
    """(kind, tree, coords) under any ground metric, of one of three kinds:
    random pools at offsets up to 1e11, possibly with a near-duplicate that
    truncates a small-cap tree; pools with a point 1e-200 from the diagonal,
    which truncate the deepest (48-level) tree; and an unshifted grid with
    corners on the diagonal and points on a half-cell lattice, whose cells
    touch the diagonal at corners."""
    metric = draw(st.sampled_from(list(GroundMetric)))
    kind = draw(st.sampled_from(["pool", "deepest", "grid"]))
    if kind == "grid":
        levels = draw(st.integers(2, 8))
        side = 2.0 ** draw(st.integers(-3, 3))  # finest cell side
        steps = 2**levels  # half-cell steps across the root
        offset = draw(st.sampled_from([0.0, -8.0, 1e11]))
        tree = ShiftedQuadtree(
            origin=(offset, offset),
            root_side=steps * side / 2,
            level_hi=levels - 1,
            shift=(0.0, 0.0),
            spread=1.0,
            seed=0,
            ground_metric=metric,
            min_separation=side,
        )
        lattice = st.tuples(st.integers(0, steps), st.integers(0, steps))
        cells = draw(st.lists(lattice, min_size=1, max_size=20))
        return kind, tree, [(offset + i * side / 2, offset + j * side / 2) for i, j in cells]
    offset = 0.0 if kind == "deepest" else draw(st.sampled_from([0.0, -250.0, 3e4, 1e11]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    raw = draw(
        st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(1e-3, 1.0)), min_size=1, max_size=20)
    )
    pool = []
    for b, life in raw:
        birth = offset + scale * b
        pool.append((birth, birth + scale * life + abs(birth) * 1e-9))
    if kind == "deepest":
        pool.append((0.0, 1e-200))
        cap = MAX_LEVELS
    else:
        if draw(st.booleans()):
            birth, death = pool[0]
            pool.append((birth, math.nextafter(death, math.inf)))
        cap = draw(st.sampled_from([2, 3, 5, 12, 40, MAX_LEVELS]))
    config = TreeConfig(
        seed=draw(st.integers(0, 2**32 - 1)), max_levels_cap=cap, ground_metric=metric
    )
    return kind, build_tree(pool, config), pool


class TestPlace:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(placed_points())
    def test_agrees_with_reference_formula(self, instance):
        # the finest cells, and the first level at which the reference's
        # terminal test holds for a point's cell (level_hi + 1 when it never
        # does), each cell addressed by the reference's own formula
        kind, tree, coords = instance
        if kind == "deepest":
            assert tree.num_levels == MAX_LEVELS and tree.truncated
        ix, iy, terminal_level = tree.place(coords)
        side, n = reference._grid(tree, 0)
        assert list(zip(ix.tolist(), iy.tolist())) == [
            reference._cell(tree, x, y, side, n) for x, y in coords
        ]
        assert terminal_level.tolist() == first_terminal_levels(tree, coords)

    def test_cell_clear_of_the_diagonal_at_every_level(self):
        # a root far above the diagonal is refused; under a root that
        # touches it at one corner, cells clear of it below the root retire
        # their points at the root, and a cell at the corner at once
        with pytest.raises(ValueError, match="root square must meet the diagonal"):
            manual_tree(origin=(0.0, 20.0))
        tree = manual_tree(origin=(0.0, 8.0))
        ix, iy, terminal_level = tree.place([(0.5, 15.5), (3.0, 12.0), (7.0, 8.5)])
        assert ix.tolist() == [0, 3, 7] and iy.tolist() == [7, 4, 0]
        assert terminal_level.tolist() == [tree.level_hi, tree.level_hi, 0]

    def test_outside_point_raises(self):
        with pytest.raises(OutsideRootError):
            manual_tree().place([(1.0, 2.0), (9.0, 9.5)])


@st.composite
def off_diagonal_sets(draw):
    """(points, config): a single point or a cluster of up to 8, whose
    lifetimes may be far longer than its spread (so that its box misses the
    diagonal) or far shorter, at offsets up to 1e11, under any metric."""
    offset = draw(st.sampled_from([0.0, -250.0, 3e4, 1e11]))
    spread = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    lifetime = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6]))
    raw = draw(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1e-3, 1.0)), min_size=1, max_size=8)
    )
    points = []
    for u, w in raw:
        birth = offset + spread * u
        points.append((birth, birth + lifetime * w + abs(birth) * 1e-9))
    config = TreeConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        ground_metric=draw(st.sampled_from(list(GroundMetric))),
    )
    return points, config


class TestRootMeetsDiagonal:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(off_diagonal_sets())
    def test_every_point_retires_by_the_root(self, instance):
        # the tree builds, every point is terminal at the root at the latest,
        # and the reference walk leaves no mass for a fallback; a box that
        # meets the diagonal is the points' own
        points, config = instance
        tree = build_tree(points, config)
        assert (tree.place(points)[2] <= tree.level_hi).all()
        first = PersistenceDiagram(points[::2])
        second = PersistenceDiagram(points[1::2])
        _, _, residuals, root_fallback = reference.greedy_match(
            tree, first, second, config.ground_metric
        )
        assert residuals[-1] == (tree.level_hi, 0) and root_fallback is False
        pts = np.unique(np.asarray(points), axis=0)
        if pts[:, 1].min() <= pts[:, 0].max():
            geometry = tree_geometry(points, config.ground_metric)
            assert geometry.mins.tolist() == pts.min(axis=0).tolist()
            assert geometry.span == float((pts.max(axis=0) - pts.min(axis=0)).max())


class TestOccupiedCells:
    def test_single_point_counts_multiplicity(self):
        d = PersistenceDiagram([(0, 4, 3)])
        tree = build_tree(d.coords(), TreeConfig(seed=1))
        counts = occupied_cells(tree, d)
        assert sorted(counts) == list(tree.levels())
        for cells in counts.values():
            assert len(cells) == 1
            assert sum(cells.values()) == 3

    def test_coarsest_level_holds_everything(self):
        d = gen_uniform(40, 2)
        tree = build_tree(d.coords(), TreeConfig(seed=3))
        cells = occupied_cells(tree, d)[tree.level_hi]
        assert len(cells) == 1
        assert sum(cells.values()) == d.total_count

    def test_counts_sum_to_total_every_level(self):
        d = gen_gaussian(30, 6)
        tree = build_tree(d.coords(), TreeConfig(seed=4))
        for cells in occupied_cells(tree, d).values():
            assert sum(cells.values()) == d.total_count

    def test_point_outside_root_raises(self):
        d = PersistenceDiagram([(0, 4)])
        other = PersistenceDiagram([(50, 90)])
        tree = build_tree(d.coords(), TreeConfig(seed=1))
        with pytest.raises(OutsideRootError):
            occupied_cells(tree, other)


class TestShiftDistribution:
    def test_boundary_separation_probability(self):
        # Two points 0.5 apart horizontally; at the level with cell side 2
        # a vertical grid line falls between them with probability 0.5/2.
        # Their box [0, 4] x [3, 7] meets the diagonal, so it sets the root.
        pts = [(0.0, 3.0), (0.5, 3.0), (4.0, 7.0), (0.0, 7.0)]
        separated = 0
        trials = 2000
        level = None
        for seed in range(trials):
            tree = build_tree(pts, TreeConfig(seed=seed))
            if level is None:
                candidates = [lv for lv in tree.levels() if tree.side(lv) == 2.0]
                assert candidates, "expected a level with side 2"
                level = candidates[0]
            if cells_at(tree, pts[0])[level][0] != cells_at(tree, pts[1])[level][0]:
                separated += 1
        assert abs(separated / trials - 0.25) < 0.05
