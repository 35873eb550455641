"""Tests for the sparse cell-count embedding, its L1 distance and the
embedding distance rows of PlacedDiagrams."""

import math
from fractions import Fraction

import numpy as np
import pytest

import dgmdist.flowtree
from dgmdist import (
    GroundMetric,
    PersistenceDiagram,
    PlacedDiagrams,
    TreeConfig,
    build_tree,
    exact_distance,
    gen_gaussian,
    gen_uniform,
    greedy_match,
    union_coords,
)
from dgmdist.embedding import (
    TreeMismatchError,
    embed,
    l1_distance,
    read_vector,
    write_vector,
)
from dgmdist.quadtree import MAX_LEVELS

import reference
from helpers import cells_at, pair_tree, placed_levels, random_pair


class TestEmbed:
    def test_single_point_entry_per_clear_level(self):
        d = PersistenceDiagram([(0.0, 100.0, 3)])
        tree = build_tree(d.coords(), TreeConfig(seed=2))
        vec = embed(tree, d)
        by_level = dict(zip(vec.cells[:, 0].tolist(), vec.values.tolist()))
        for level, (ix, iy, terminal) in cells_at(tree, (0.0, 100.0)).items():
            if terminal:
                assert level not in by_level
            else:
                assert by_level[level] == pytest.approx(tree.side(level) * 3)

    def test_entries_only_below_first_terminal_ancestor(self):
        # a point counts no more from its first cell meeting the diagonal up
        first, second = random_pair(6)
        tree = pair_tree(first, second, seed=3)
        vec = embed(tree, first)
        levels_present = sorted(set(vec.cells[:, 0].tolist()))
        assert levels_present == list(range(len(levels_present)))

    def test_deterministic(self):
        first, second = random_pair(2)
        tree = pair_tree(first, second, seed=1)
        a, b = embed(tree, first), embed(tree, first)
        assert a.cells.tolist() == b.cells.tolist()
        assert a.values.tolist() == b.values.tolist()

    def test_entries_sorted_no_zero_no_terminal(self):
        # the cells are exactly the occupied clear cells, sorted and unique
        first, second = random_pair(9)
        tree = pair_tree(first, second, seed=4)
        vec = embed(tree, first)
        keys = [tuple(c) for c in vec.cells.tolist()]
        assert keys == sorted(set(keys))
        assert (vec.values > 0).all()
        clear = set()
        for level, ix, iy, terminal in placed_levels(tree, first.coords()):
            clear.update(
                (level, x, y)
                for x, y, t in zip(ix.tolist(), iy.tolist(), terminal.tolist())
                if not t
            )
        assert set(keys) == clear

    def test_total_mass_recorded(self):
        first, _ = random_pair(5)
        tree = pair_tree(first, first, seed=2)
        assert embed(tree, first).total_mass == first.total_count

    def test_outside_point_rejected(self):
        small = PersistenceDiagram([(0, 4)])
        far = PersistenceDiagram([(50, 90)])
        tree = build_tree(small.coords(), TreeConfig(seed=0))
        with pytest.raises(ValueError):
            embed(tree, far)

    def test_empty_diagram_embeds_to_nothing(self):
        d = PersistenceDiagram([(0, 4)])
        tree = build_tree(d.coords(), TreeConfig(seed=0))
        vec = embed(tree, PersistenceDiagram())
        assert len(vec) == 0
        assert vec.cells.shape == (0, 3)


class TestL1Distance:
    def test_identity(self):
        first, second = random_pair(3)
        tree = pair_tree(first, second, seed=5)
        assert l1_distance(embed(tree, first), embed(tree, first)) == 0.0

    def test_symmetry(self):
        first, second = random_pair(7)
        tree = pair_tree(first, second, seed=6)
        va, vb = embed(tree, first), embed(tree, second)
        assert l1_distance(va, vb) == l1_distance(vb, va)

    def test_triangle_inequality(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            a = gen_uniform(int(rng.integers(1, 12)), seed)
            b = gen_uniform(int(rng.integers(1, 12)), seed + 100)
            c = gen_uniform(int(rng.integers(1, 12)), seed + 200)
            tree = build_tree(union_coords((a, b, c)), TreeConfig(seed=seed))
            va, vb, vc = embed(tree, a), embed(tree, b), embed(tree, c)
            assert l1_distance(va, vc) <= (
                l1_distance(va, vb) + l1_distance(vb, vc) + 1e-9
            )

    def test_multiplicity_gap_is_side_sum_over_clear_ancestors(self):
        heavy = PersistenceDiagram([(0, 4, 2)])
        light = PersistenceDiagram([(0, 4, 1)])
        tree = build_tree([(0.0, 4.0)], TreeConfig(seed=8))
        expected = sum(
            tree.side(level)
            for level, (_, _, terminal) in cells_at(tree, (0.0, 4.0)).items()
            if not terminal
        )
        d = l1_distance(embed(tree, heavy), embed(tree, light))
        assert d == pytest.approx(expected)

    def test_tree_mismatch_rejected(self):
        first, second = random_pair(1)
        tree_a = pair_tree(first, second, seed=1)
        tree_b = pair_tree(first, second, seed=2)
        with pytest.raises(TreeMismatchError):
            l1_distance(embed(tree_a, first), embed(tree_b, second))

    def test_matches_greedy_residual_accounting(self):
        # sum over levels of side * unmatched-mass-after-level equals the
        # embedding distance, for every instance
        for seed in range(20):
            first, second = random_pair(seed, max_points=5)
            tree = pair_tree(first, second, seed=seed + 50)
            matching = greedy_match(tree, first, second)
            residual_cost = math.fsum(
                tree.side(level) * residual
                for level, residual in matching.level_residuals
            )
            d = l1_distance(embed(tree, first), embed(tree, second))
            assert residual_cost == pytest.approx(d, abs=1e-9)


class TestStatisticalUpperBound:
    def test_mean_tracks_exact_within_log_spread_factor(self):
        # averaged over many shifts, the embedding distance stays within a
        # generous log(spread) factor of the exact distance
        first = gen_uniform(8, 1)
        second = gen_uniform(8, 2)
        d_true = exact_distance(first, second, GroundMetric.L2)
        values = []
        spreads = []
        for seed in range(60):
            tree = pair_tree(first, second, seed=seed)
            values.append(l1_distance(embed(tree, first), embed(tree, second)))
            spreads.append(tree.spread)
        mean = sum(values) / len(values)
        bound = 4.0 * max(1.0, math.log2(max(2.0, max(spreads)))) * d_true
        assert mean <= bound


class TestEmbeddingIndex:
    """PlacedDiagrams.embedding_row: the embedding distances of one placement
    of several diagrams, read from the flowtree walk."""

    def dataset(self):
        diagrams = [gen_gaussian(4 + 9 * i, seed=80 + i) for i in range(6)]
        diagrams += [PersistenceDiagram(), diagrams[2], gen_uniform(12, seed=3)]
        return diagrams

    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_vectors_equal_embed(self, metric):
        # embed's vector of every diagram of the set, the empty one
        # included, is the reference embedding on the shared tree
        diagrams = self.dataset()
        tree = build_tree(union_coords(diagrams), TreeConfig(seed=4, ground_metric=metric))
        assert len(PlacedDiagrams(tree, diagrams)) == len(diagrams)
        for diagram in diagrams:
            vector = embed(tree, diagram)
            expected = reference.embed(tree, diagram)
            assert vector.cells.tolist() == [list(cell) for cell, _ in expected]
            assert vector.values.tolist() == [value for _, value in expected]
            assert vector.total_mass == diagram.total_count

    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_rows_equal_l1_distance(self, metric):
        # each row is the exact embedding distance, rounded once, which the
        # float L1 of the stored vectors meets up to rounding; any order,
        # repeats and the row's own diagram; identical diagrams (2 and 7,
        # and each with itself) are at distance 0.0
        diagrams = self.dataset()
        tree = build_tree(union_coords(diagrams), TreeConfig(seed=5, ground_metric=metric))
        placed = PlacedDiagrams(tree, diagrams)
        vectors = [embed(tree, d) for d in diagrams]
        js = [8, 0, 3, 3, 7, 1, 2, 6, 4, 5]
        for i in range(len(diagrams)):
            row = placed.embedding_row(i, js)
            assert row == [reference.embedding_cost(tree, diagrams[i], diagrams[j]) for j in js]
            assert row == pytest.approx(
                [l1_distance(vectors[i], vectors[j]) for j in js], rel=1e-14, abs=0.0
            )
            assert placed.embedding_row(i, [i]) == [0.0]
        assert placed.embedding_row(2, [7]) == [0.0]
        assert placed.embedding_row(0, []) == []
        for bad in ([-1], [len(diagrams)]):
            with pytest.raises(IndexError):
                placed.embedding_row(0, bad)

    def test_diagram_index_out_of_range_rejected(self):
        diagrams = self.dataset()[:3]
        tree = build_tree(union_coords(diagrams), TreeConfig(seed=5))
        placed = PlacedDiagrams(tree, diagrams)
        for bad in (-1, len(diagrams)):
            with pytest.raises(IndexError, match=r"range\(3\)"):
                placed.embedding_row(bad, [0])
            with pytest.raises(IndexError, match=r"range\(3\)"):
                placed.embedding_row(0, [bad])
        # a non-integral index is rejected, not truncated to a neighbour
        with pytest.raises(TypeError):
            placed.flowtree_row(0, [1.7])
        with pytest.raises(TypeError):
            placed.embedding_row(0, [2.9])
        with pytest.raises(TypeError):
            placed.flowtree_row(1.5, [2])
        assert placed.flowtree_row(True, [2]) == placed.flowtree_row(1, [2])

    def test_rows_equal_exact_residual_cost(self, monkeypatch):
        # on criterion 3's instances a two-diagram row is the greedy
        # matching's sum of side * residual over the levels, rounded once
        for seed in range(200):
            first, second = random_pair(seed, max_points=20)
            tree = pair_tree(first, second, seed=1000 + seed)
            residuals = greedy_match(tree, first, second).level_residuals
            exact = sum(Fraction(tree.side(level)) * r for level, r in residuals)
            row = PlacedDiagrams(tree, [first, second]).embedding_row(0, [1])
            assert row == [float(exact)], seed
        # and so is every entry of a row over more pairs than one walk
        # batch holds on a 48-level tree, the row's own diagram, repeats
        # and an empty diagram among them
        diagrams = [
            gen_gaussian(12, seed=5),
            gen_uniform(9, seed=6),
            PersistenceDiagram(),
            PersistenceDiagram([(0.0, 1e-200), (1.0, 3.0, 2)]),
            gen_gaussian(7, seed=8),
        ]
        config = TreeConfig(seed=3, max_levels_cap=MAX_LEVELS)
        tree = build_tree(union_coords(diagrams), config)
        assert tree.num_levels == MAX_LEVELS
        walks = []
        walk = dgmdist.flowtree._walk

        def counting(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(dgmdist.flowtree, "_walk", counting)
        js = [0, 1, 2, 3, 4, 1, 3] * 10
        row = PlacedDiagrams(tree, diagrams).embedding_row(0, js)
        assert len(walks) > 1
        expected = {}
        for j in set(js):
            residuals = greedy_match(tree, diagrams[0], diagrams[j]).level_residuals
            expected[j] = float(sum(Fraction(tree.side(level)) * r for level, r in residuals))
        assert row == [expected[j] for j in js]

    def test_no_diagrams(self):
        tree = build_tree([(0.0, 1.0)], TreeConfig(seed=0))
        placed = PlacedDiagrams(tree, [])
        assert len(placed) == 0
        with pytest.raises(IndexError, match=r"range\(0\)"):
            placed.embedding_row(0, [])


class TestVectorFiles:
    def test_round_trip_preserves_distance(self, tmp_path):
        first, second = random_pair(11)
        tree = pair_tree(first, second, seed=7)
        va, vb = embed(tree, first), embed(tree, second)
        write_vector(va, tmp_path / "a.vec")
        write_vector(vb, tmp_path / "b.vec")
        ra, rb = read_vector(tmp_path / "a.vec"), read_vector(tmp_path / "b.vec")
        assert ra.tree_signature == tree.signature
        assert l1_distance(ra, rb) == l1_distance(va, vb)

    def test_written_bytes_deterministic(self, tmp_path):
        first, second = random_pair(12)
        tree = pair_tree(first, second, seed=9)
        vec = embed(tree, first)
        write_vector(vec, tmp_path / "one.vec")
        write_vector(vec, tmp_path / "two.vec")
        assert (tmp_path / "one.vec").read_bytes() == (tmp_path / "two.vec").read_bytes()

    def test_missing_header_rejected(self, tmp_path):
        (tmp_path / "bad.vec").write_text("")
        with pytest.raises(ValueError):
            read_vector(tmp_path / "bad.vec")

    @pytest.mark.parametrize(
        "entry", ["-1 0 0 1.0", "48 0 0 1.0", "0 -1 0 1.0", "0 0 140737488355328 1.0"]
    )
    def test_cell_outside_every_tree_rejected(self, tmp_path, entry):
        # the largest cell index of a MAX_LEVELS-level tree is 2**47 - 1
        path = tmp_path / "bad.vec"
        path.write_text(f"qt:0:abc\n0 140737488355327 0 2.0\n{entry}\n")
        with pytest.raises(ValueError, match="out of range at line 3"):
            read_vector(path)

    @pytest.mark.parametrize(
        "entry,problem",
        [
            ("0 1 2 nan", "value not finite and non-negative"),
            ("0 1 2 inf", "value not finite and non-negative"),
            ("0 1 2 -1.0", "value not finite and non-negative"),
            ("0 1 1 1.0", "cell repeated or out of order"),
            ("0 0 5 1.0", "cell repeated or out of order"),
            ("0 1.5 2 3.0", "malformed entry"),
            ("0 1 2 x", "malformed entry"),
        ],
    )
    def test_malformed_entry_rejected(self, tmp_path, entry, problem):
        # write_vector never writes these: read_vector names file and line
        path = tmp_path / "bad.vec"
        path.write_text(f"qt:0:abc\n0 1 1 2.0\n{entry}\n")
        with pytest.raises(ValueError, match=f"^bad.vec: {problem} at line 3$"):
            read_vector(path)
