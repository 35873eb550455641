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
from dgmdist._rows import group_rows
from dgmdist.quadtree import (
    _PAIRS_PER_POINT,
    MAX_LEVELS,
    OutsideRootError,
    ShiftedQuadtree,
    TreeConfig,
    _closest_pair,
    _geometries,
    _min_separation,
    _reach,
    build_tree,
    tree_geometry,
    union_coords,
)

import reference
from families import ANCHOR, CAPS, METRICS, SEEDS, aligned_grids, instances, points
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
        # a seed must be an integer: numpy integers are, integral floats are not
        assert TreeConfig(seed=np.int64(2)).seed == 2
        for seed in (1.5, np.float64(2.0)):
            with pytest.raises(ValueError, match=f"non-negative integer, got {seed}$"):
                TreeConfig(seed=seed)

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
            # the box's span passes the float range: refused as such, with
            # no overflow warning first (warnings are errors under pytest)
            ([(-1e308, -0.5e308), (1e308, 1.5e308)], list(GroundMetric)),
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
    a pool of any family on a tree with a level cap down to 2; the same pool
    with ANCHOR, which truncates the deepest (48-level) tree; and an aligned
    grid (families.aligned_grids) with points anywhere on its half-cell
    lattice, whose cells touch the diagonal at corners."""
    kind = draw(st.sampled_from(["pool", "deepest", "grid"]))
    if kind == "grid":
        tree, steps, at = draw(aligned_grids(8))
        lattice = st.tuples(st.integers(0, steps), st.integers(0, steps))
        return kind, tree, [at(i, j) for i, j in draw(st.lists(lattice, min_size=1, max_size=20))]
    pool = draw(points(max_points=20))
    if kind == "deepest":
        pool, cap = [*pool, ANCHOR], MAX_LEVELS
    else:
        cap = draw(st.sampled_from([*CAPS, MAX_LEVELS]))
    config = TreeConfig(draw(SEEDS), cap, draw(st.sampled_from(METRICS)))
    return kind, build_tree(pool, config), pool


class TestPlace:
    @settings(max_examples=300)
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


class TestRootMeetsDiagonal:
    @settings(max_examples=300)
    @given(instances(max_points=8))
    def test_every_point_retires_by_the_root(self, instance):
        # the tree builds, every point is terminal at the root at the latest,
        # and the reference walk leaves no mass for a fallback, on pools whose
        # box misses the diagonal (a single point, or lifetimes far longer
        # than the spread) or meets it; a box that meets the diagonal is the
        # points' own
        tree, points, metric = instance.tree(), instance.points, instance.metric
        assert (tree.place(points)[2] <= tree.level_hi).all()
        _, _, residuals, root_fallback = reference.greedy_match(
            tree, instance.first, instance.second, metric
        )
        assert residuals[-1] == (tree.level_hi, 0) and root_fallback is False
        pts = np.unique(np.asarray(points), axis=0)
        if pts[:, 1].min() <= pts[:, 0].max():
            geometry = tree_geometry(points, metric)
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


@st.composite
def geometry_batches(draw):
    """(point_sets, metric) for one _geometries call: 1 to 6 sets, each a
    pool of any family (near-duplicates past the default cap and large
    offsets among them), a single point of one, a uniform pool with points
    of an earlier set, or a uniform pool moved out to +-1e300, all under one
    metric, any of the three."""
    sets = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["pool", "single", "shared", "far"]))
        family = None if kind in ("pool", "single") else "uniform"
        pool = np.array(draw(points(family, max_points=40)))
        if kind == "single":
            pool = pool[:1]
        elif kind == "shared" and sets:
            pool = np.vstack([sets[draw(st.integers(0, len(sets) - 1))][::2], pool])
        elif kind == "far":
            offset = draw(st.sampled_from([1e300, -1e300]))
            pool = offset + pool * abs(offset) * 1e-6
        sets.append(pool)
    return sets, draw(st.sampled_from(METRICS))


class TestGeometryBatch:
    @settings(max_examples=200)
    @given(geometry_batches())
    def test_batch_equals_each_set_alone(self, batch):
        # the sets of one call never meet: each geometry is its set's own,
        # field by field, and so is every tree shifted from it
        point_sets, metric = batch
        batched = _geometries(point_sets, metric)
        assert len(batched) == len(point_sets)
        for points, geometry in zip(point_sets, batched):
            alone = tree_geometry(points, metric)
            assert geometry.ground_metric is alone.ground_metric is metric
            assert geometry.mins.tolist() == alone.mins.tolist()
            assert geometry.span == alone.span
            assert geometry.min_separation == alone.min_separation
            assert geometry.levels == alone.levels
            assert geometry.spread == alone.spread
            config = TreeConfig(seed=3, ground_metric=metric)
            assert geometry.tree(config).meta() == build_tree(points, config).meta()

    def test_near_duplicates_pass_the_cap(self):
        points = [(0.0, 4.0), (0.0, np.nextafter(4.0, 5.0)), (1.0, 3.0)]
        geometry, other = _geometries([points, points[2:]], GroundMetric.L2)
        assert geometry.levels > TreeConfig(seed=0).max_levels_cap
        assert geometry.tree(TreeConfig(seed=0)).truncated
        assert not other.tree(TreeConfig(seed=0)).truncated

    def test_l2_gap_that_squares_to_zero(self):
        # two distinct points whose L2 gap squares to 0: the geometry takes
        # the Linf separation and builds a (truncated) tree
        points = [(0.0, 0.001), (2.868943756372454e-207, 0.001), (0.0, 0.0010000000000000002)]
        l2, linf = (tree_geometry(points, m) for m in (GroundMetric.L2, GroundMetric.LINF))
        assert l2.min_separation == linf.min_separation == 2.868943756372454e-207
        assert l2.levels == linf.levels and l2.tree(TreeConfig(seed=0)).truncated

    def test_first_refused_set_raises(self):
        # the error is the one tree_geometry raises on the first set it
        # refuses, whatever the sets after it hold
        good, diagonal, empty = [(0.0, 4.0)], [(2.0, 2.0)], []
        with pytest.raises(ValueError, match="minimum separation is zero"):
            _geometries([good, diagonal, empty], GroundMetric.L2)
        with pytest.raises(ValueError, match="empty point set"):
            _geometries([good, empty, diagonal], GroundMetric.L2)
        with pytest.raises(ValueError, match="finite"):
            _geometries([good, [(0.0, math.nan)], diagonal], GroundMetric.L2)
        assert _geometries([], GroundMetric.L2) == []


def distinct_sorted(points):
    """The rows tree_geometry hands to _min_separation: distinct, sorted
    lexicographically."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    order, starts = group_rows(points[:, 0], points[:, 1])
    return points[order[starts]]


TINY = 5e-324


def closest_pair(points, metric):
    """_closest_pair of one set with no bound: its value and its count of
    candidate pairs."""
    values, counts = _closest_pair(points, metric, np.array([math.inf]), np.zeros(1, int))
    return float(values[0]), int(counts[0])


def min_separation(points, metric):
    """_min_separation of one set."""
    return float(_min_separation(points, metric, np.zeros(1, int))[0])


@st.composite
def separation_sets(draw):
    """Point sets that stress the closest-pair search: pools of any family
    (one-ulp near-duplicates among them), clusters, vertical and horizontal
    lines, huge offsets and subnormal gaps, from 1 point up."""
    kind = draw(
        st.sampled_from(
            ["family", "clustered", "vertical", "horizontal", "offset", "subnormal", "interleaved"]
        )
    )
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(SEEDS))
    if kind == "family":
        pts = np.array(draw(points(max_points=80)))
    elif kind == "clustered":
        centres = rng.uniform(0.0, 100.0, (3, 2))
        spread = 10.0 ** draw(st.integers(-12, 0))
        pts = centres[rng.integers(0, 3, n)] + rng.normal(0.0, spread, (n, 2))
    elif kind in ("vertical", "horizontal"):
        lines = rng.choice([0.0, 1.0, 1e9], n)
        along = rng.uniform(0.0, 5.0, n)
        pts = np.c_[lines, along] if kind == "vertical" else np.c_[along, lines]
    elif kind == "offset":
        offset = draw(st.sampled_from([1e11, 1e300, -1e300]))
        pts = offset + rng.uniform(0.0, 1.0, (n, 2)) * abs(offset) * 1e-6
        pts = np.vstack([pts, rng.uniform(0.0, 1.0, (draw(st.integers(0, 3)), 2))])
    elif kind == "subnormal":
        units = rng.integers(0, 40, (n, 2)).astype(float)
        pts = units * TINY * draw(st.sampled_from([1.0, 2.0**30, 2.0**537, 2.0**560]))
    else:
        # consecutive rows alternate between two far rows, so the first
        # bound is far above the answer
        xs = np.arange(n) * 10.0 ** draw(st.integers(-12, -3))
        pts = np.c_[xs, (np.arange(n) % 2) * rng.uniform(1.0, 1e6)]
    return distinct_sorted(pts)


class TestMinSeparation:
    @settings(max_examples=300)
    @given(separation_sets())
    def test_equals_brute_force(self, points):
        shuffled = points[np.random.default_rng(0).permutation(len(points))]
        for metric in GroundMetric:
            expected = reference.min_separation(points, metric)
            assert min_separation(points, metric) == expected
            # cKDTree's L2 squares overflow where the library takes math.hypot
            overflow = reference.l2_overflow_mask(points, points).any()
            if metric is not GroundMetric.L2 or not overflow:
                assert reference.kd_min_separation(points, metric) == expected
            assert closest_pair(points, metric)[0] == reference.closest_pair(points, metric)
            assert closest_pair(shuffled, metric)[0] == reference.closest_pair(points, metric)

    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_one_and_two_points(self, metric):
        for pts in ([(0.0, 4.0)], [(0.0, 4.0), (0.0, 6.0)], [(0.0, 4.0), (TINY, 4.0)]):
            points = distinct_sorted(pts)
            assert min_separation(points, metric) == reference.min_separation(points, metric)

    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_reach_bounds_the_gap(self, metric):
        # the cover lemma: a pair's larger coordinate difference is within
        # the reach of its computed distance, at every scale, including L2
        # squares that are subnormal or underflow to 0
        rng = np.random.default_rng(2)
        dx = rng.uniform(1.0, 2.0, 20000) * 2.0 ** rng.integers(-1074, 1000, 20000)
        dy = dx * rng.choice([0.0, 1e-9, 0.5, 1.0], 20000)
        dist = metric.combine(dx.copy(), dy.copy())
        for gap, d in zip(np.maximum(dx, dy).tolist(), dist.tolist()):
            # an infinite distance needs no cover: it is never below a bound
            assert gap <= _reach(metric, d) or d == math.inf

    def test_run_wider_than_the_float_range(self):
        # consecutive values 4e307 apart make one run that spans 2.4e308
        xs = np.arange(-3.0, 4.0) * 4e307
        points = distinct_sorted(np.c_[xs, np.arange(7.0)])
        for metric in GroundMetric:
            assert closest_pair(points, metric)[0] == reference.closest_pair(points, metric)

    def test_subnormal_l2_gap_reads_zero(self):
        # the square of a subnormal gap underflows, as in cdist and cKDTree
        points = distinct_sorted([(0.0, 16.0), (TINY, 16.0), (1.0, 9.0)])
        assert min_separation(points, GroundMetric.L2) == 0.0
        assert min_separation(points, GroundMetric.L1) == TINY


def adversarial_sets():
    rng = np.random.default_rng(5)
    lattice = np.array([(1e3 * i, 1e3 * j) for i in range(30) for j in range(30)])
    # a near-duplicate that sorts far from its twin
    lattice = np.vstack([lattice, [(np.nextafter(1e4, math.inf), 2e4)]])
    cluster = np.vstack([rng.uniform(0.0, 1e-6, (800, 2)), [(1e6, 2e6)]])
    lines = np.c_[np.repeat([0.0, 1e9], 400), rng.uniform(0.0, 1.0, 800)]
    interleaved = np.c_[np.arange(800) * 1e-9, (np.arange(800) % 2) * 1e3]
    # under L2 every gap of the y = 5 row squares to 0, far below the first
    # bound set by the rows alternating with y = 7
    subnormal = np.c_[np.arange(600) * TINY, np.where(np.arange(600) % 2, 7.0, 5.0)]
    return {
        "lattice": lattice,
        "cluster": cluster,
        "lines": lines,
        "interleaved": interleaved,
        "subnormal": subnormal,
    }


class TestCandidateBound:
    @pytest.mark.parametrize("metric", list(GroundMetric))
    @pytest.mark.parametrize("name", sorted(adversarial_sets()))
    def test_candidates_within_packing_bound(self, name, metric):
        points = distinct_sorted(adversarial_sets()[name])
        value, candidates = closest_pair(points, metric)
        assert value == reference.closest_pair(points, metric)
        assert candidates <= _PAIRS_PER_POINT * len(points)

    def test_bound_binds_on_interleaved_rows(self):
        # the first grid holds every pair; the search halves its way down
        points = distinct_sorted(adversarial_sets()["interleaved"])
        n = len(points)
        assert n * (n - 1) // 2 > _PAIRS_PER_POINT * n
        value, candidates = closest_pair(points, GroundMetric.L2)
        assert value == reference.closest_pair(points, GroundMetric.L2)
        assert 0 < candidates <= _PAIRS_PER_POINT * n
