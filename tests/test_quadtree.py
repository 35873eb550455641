"""Tests for shifted quadtree construction and its level pass: cell
addressing and terminal classification."""

import math

import numpy as np
import pytest

from dgmdist import GroundMetric, PersistenceDiagram, gen_gaussian, gen_uniform
from dgmdist.quadtree import (
    OutsideRootError,
    ShiftedQuadtree,
    TreeConfig,
    build_tree,
    union_coords,
)

from helpers import cells_at, pair_tree, random_pair


def manual_tree(origin=(0.0, 0.0), root_side=8.0, levels=4):
    """Fixed-geometry tree for addressing arithmetic (no randomness)."""
    return ShiftedQuadtree(
        origin=origin,
        root_side=root_side,
        level_lo=0,
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
        assert tree.side(tree.level_lo) < 1.0

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
                passes = list(tree.level_pass(diagram.coords()))  # no OutsideRootError
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
                assert tree.side(tree.level_lo) < 0.5 * tree.min_separation


def occupied_cells(tree, diagram):
    """{level: {(ix, iy): multiplicity-weighted count}} from the level pass."""
    mults = diagram.multiplicities().tolist()
    counts = {}
    for level, _, ix, iy, _ in tree.level_pass(diagram.coords()):
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
        for level, side, ix, iy, _ in tree.level_pass(coords):
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
        assert [side for _, side, *_ in tree.level_pass([(0.5, 1.5)])] == [
            1.0, 2.0, 4.0, 8.0
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

    def test_terminality_monotone_up_the_tree(self):
        # a terminal cell's parent is terminal (cells nest)
        first, second = random_pair(4)
        tree = pair_tree(first, second, seed=9)
        was_terminal = None
        for *_, terminal in tree.level_pass(union_coords((first, second))):
            if was_terminal is not None:
                assert (terminal | ~was_terminal).all()
            was_terminal = terminal

    def test_root_terminal_for_synthetic_data(self):
        for seed in range(25):
            first, second = random_pair(seed)
            tree = pair_tree(first, second, seed=seed)
            *_, (level, _, ix, iy, terminal) = tree.level_pass(
                union_coords((first, second))
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
            level, _, ix, iy, terminal = next(tree.level_pass(coords))
            assert level == tree.level_lo
            assert not terminal.any()
            cells = set(zip(ix.tolist(), iy.tolist()))
            assert len(cells) == len(coords), "two distinct points share a finest cell"


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
        pts = [(0.0, 10.0), (0.5, 10.0), (4.0, 10.0), (0.0, 14.0)]
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
