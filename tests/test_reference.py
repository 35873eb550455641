"""The columnar embedding, L1 distance, embedding distance rows and greedy
matching against the pure-Python reference oracles in reference.py,
compared with exact ==."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from families import ANCHOR, CAPS, aligned_grids, instances
from dgmdist import (
    MAX_LEVELS,
    GroundMetric,
    PersistenceDiagram,
    PlacedDiagrams,
    TreeConfig,
    build_tree,
    embed,
    greedy_match,
    knn_distances,
    l1_distance,
    multi_tree_estimate,
    union_coords,
    write_matching,
    write_vector,
)


def pair_tuple(p):
    return (p.source, p.target, p.mass, p.kind, p.level, p.distance)


def assert_matches_reference(tree, first, second, metric):
    va, vb = embed(tree, first), embed(tree, second)
    ra, rb = reference.embed(tree, first), reference.embed(tree, second)
    for vec, ref in ((va, ra), (vb, rb)):
        assert vec.cells.tolist() == [list(cell) for cell, _ in ref]
        assert vec.values.tolist() == [value for _, value in ref]
    assert l1_distance(va, vb) == reference.l1_distance(ra, rb)

    matching = greedy_match(tree, first, second)
    pairs, cost, residuals, root_fallback = reference.greedy_match(
        tree, first, second, metric
    )
    assert matching.cost == cost
    assert matching.level_residuals == residuals
    assert root_fallback is False
    assert sorted(map(pair_tuple, matching.pairs)) == sorted(pairs)


def trees(**bounds):
    """(tree, first, second, metric): a pair of one family's pool on a tree
    over the pool with a level cap down to 2."""
    return instances(caps=CAPS, **bounds).map(
        lambda instance: (instance.tree(), instance.first, instance.second, instance.metric)
    )


@settings(max_examples=300)
@given(trees())
def test_matches_reference(instance):
    assert_matches_reference(*instance)


@settings(max_examples=150)
@given(trees(max_mults=(10**6,)))
def test_matches_reference_with_large_multiplicities(instance):
    # unequal masses up to 10^6 per point: a point's mass is split over
    # several cross pairs and several levels, and the surplus side changes
    # from cell to cell
    assert_matches_reference(*instance)


def assert_index_matches_reference(tree, diagrams):
    # every embedding row of one placement is the exact reference cost, bit
    # for bit, and every vector the reference's; equal diagrams are at
    # distance 0.0
    placed = PlacedDiagrams(tree, diagrams)
    counts = [reference.counts(tree, d) for d in diagrams]
    js = range(len(diagrams))
    for i, diagram in enumerate(diagrams):
        vector, expected = embed(tree, diagram), reference.embed(tree, diagram)
        assert vector.cells.tolist() == [list(cell) for cell, _ in expected]
        assert vector.values.tolist() == [value for _, value in expected]
        row = placed.embedding_row(i, js)
        assert row == [reference.count_distance(tree, counts[i], counts[j]) for j in js]
        assert all(row[j] == 0.0 for j in js if diagrams[j] == diagram)


def assert_embedding_distance_is_exact(tree, first, second, metric):
    # the embedding row, dist's estimate on one tree and a knn row each
    # equal the exact cost rounded once; the float L1 of the two stored
    # vectors is within 2**-50 of their value norms of it
    exact = reference.embedding_cost(tree, first, second)
    assert PlacedDiagrams(tree, [first, second]).embedding_row(0, [1]) == [exact]
    va, vb = embed(tree, first), embed(tree, second)
    norms = math.fsum(va.values.tolist()) + math.fsum(vb.values.tolist())
    assert abs(l1_distance(va, vb) - exact) <= 2**-50 * norms

    if first.total_count == second.total_count == 0:
        expected = 0.0
    else:
        config = TreeConfig(seed=tree.seed, ground_metric=metric)
        own_tree = build_tree(union_coords((first, second)), config)
        expected = reference.embedding_cost(own_tree, first, second)
    value, _ = multi_tree_estimate(first, second, metric, [tree.seed], method="embedding")
    assert value == expected
    assert knn_distances([first], [second], "embedding", metric, seed=tree.seed) == [
        [expected]
    ]


@settings(max_examples=300)
@given(trees(max_mults=(3, 10**6)))
def test_embedding_distance_is_exact(instance):
    assert_embedding_distance_is_exact(*instance)


@pytest.mark.parametrize("metric", list(GroundMetric))
def test_embedding_distance_is_exact_past_int64_totals(metric):
    # each diagram's total exceeds 2**62, so the sum of the two overflows an
    # int64; the cells they share, and the ones they do not, still count
    first = PersistenceDiagram([(0.0, 4.0, 2**62 + 7), (1.0, 9.0, 3), (2.0, 2.5)])
    second = PersistenceDiagram([(0.5, 4.5, 2**62 + 1), (1.0, 9.0, 2**61), (6.0, 6.25, 2)])
    assert first.total_count > 2**62 and second.total_count > 2**62
    tree = build_tree(union_coords((first, second)), TreeConfig(seed=23, ground_metric=metric))
    assert_embedding_distance_is_exact(tree, first, second, metric)


@st.composite
def index_instances(draw):
    """(tree, diagrams): 2 to 6 diagrams of one family's pool, with
    multiplicities up to 3 or up to 10^6, and up to 4 exact repeats, in any
    order. The tree is the pool's, with a level cap down to 2, or one with
    MAX_LEVELS levels over the diagrams' points, truncated when they hold a
    near-duplicate."""
    instance = draw(instances(count=2, max_count=6, max_mults=(3, 10**6), caps=CAPS))
    diagrams = list(instance.diagrams)
    repeats = draw(st.lists(st.sampled_from(diagrams), max_size=4))
    diagrams = draw(st.permutations(diagrams + repeats))
    points = union_coords(diagrams)
    if len(points) and draw(st.booleans()):
        config = TreeConfig(instance.config.seed, MAX_LEVELS, instance.metric)
        return build_tree(points, config), diagrams
    return instance.tree(), diagrams


@settings(max_examples=200)
@given(index_instances())
def test_index_matches_reference(instance):
    assert_index_matches_reference(*instance)


@st.composite
def aligned_instances(draw):
    """(tree, first, second, metric) on an aligned grid of up to 6 levels
    (families.aligned_grids), the points on its half-cell lattice above the
    diagonal, with multiplicities up to 3."""
    tree, steps, at = draw(aligned_grids(6))

    def diagram():
        rows = []
        for _ in range(draw(st.integers(0, 10))):
            i = draw(st.integers(0, steps - 1))
            rows.append((*at(i, draw(st.integers(i + 1, steps))), draw(st.integers(1, 3))))
        return PersistenceDiagram(rows)

    return tree, diagram(), diagram(), tree.ground_metric


@settings(max_examples=200)
@given(aligned_instances())
def test_matches_reference_on_aligned_grid(instance):
    assert_matches_reference(*instance)


def forty_level_instance(offset, metric):
    """A near-duplicate pair under the default cap: 40 levels, 2^39 cells
    per axis at the finest level."""
    first = PersistenceDiagram(
        [(offset, offset + 4.0, 2), (offset + 1e8, offset + 2e8)]
    )
    second = PersistenceDiagram(
        [(offset, math.nextafter(offset + 4.0, math.inf)), (offset + 1.0, offset + 9.0, 3)]
    )
    tree = build_tree(
        union_coords((first, second)), TreeConfig(seed=17, ground_metric=metric)
    )
    return tree, first, second


@pytest.mark.parametrize("metric", list(GroundMetric))
@pytest.mark.parametrize("offset", [0.0, 1e11])
def test_forty_level_tree_matches_reference(offset, metric):
    tree, first, second = forty_level_instance(offset, metric)
    assert tree.num_levels == 40 and tree.truncated
    assert_matches_reference(tree, first, second, metric)


@pytest.mark.parametrize("metric", list(GroundMetric))
def test_deepest_tree_matches_reference(metric):
    # a point 1e-200 from the diagonal truncates the deepest tree a config
    # allows: 2^(MAX_LEVELS - 1) cells per axis at the finest level
    first = PersistenceDiagram([(0.0, 1e-200), (3.0, 5.0, 2), (1e-300, 4.0)])
    second = PersistenceDiagram([(1e-100, 3e-100, 3), (2.0, 7.0)])
    config = TreeConfig(seed=5, max_levels_cap=MAX_LEVELS, ground_metric=metric)
    tree = build_tree(union_coords((first, second)), config)
    assert tree.num_levels == MAX_LEVELS and tree.truncated
    assert_matches_reference(tree, first, second, metric)


@settings(max_examples=150)
@given(instances("lattice", max_mults=(10**6,), caps=(MAX_LEVELS,)))
def test_deep_spread_matches_reference(instance):
    # the deepest tree a config allows, truncated by a point 1e-200 from the
    # diagonal, over lattice points far from the diagonal compared with its
    # finest cells: they stay live into the coarse half of the 48 levels and
    # meet the other diagram only there, where cells differ in the high bits
    # of their indices
    tree = build_tree([ANCHOR, *instance.points], instance.config)
    first, second, metric = instance.first, instance.second, instance.metric
    assert tree.num_levels == MAX_LEVELS and tree.truncated
    assert_matches_reference(tree, first, second, metric)
    placed = PlacedDiagrams(tree, [first, second])
    costs = [reference.greedy_match(tree, a, b, metric)[1] for a, b in
             ((first, second), (second, first), (first, first))]
    assert placed.flowtree_row(0, [1]) + placed.flowtree_row(1, [0, 1]) == [
        costs[0],
        costs[1],
        0.0,
    ]


@pytest.mark.parametrize("metric", list(GroundMetric))
def test_deep_tree_index_matches_reference(metric):
    # the 40-level instances and the deepest tree, each with repeats, a
    # merged diagram and an empty one
    for offset in (0.0, 1e11):
        tree, first, second = forty_level_instance(offset, metric)
        merged = PersistenceDiagram(list(first) + list(second))
        assert_index_matches_reference(
            tree, [first, second, merged, PersistenceDiagram(), second, first]
        )

    first = PersistenceDiagram([(0.0, 1e-200), (3.0, 5.0, 2), (1e-300, 4.0)])
    second = PersistenceDiagram([(1e-100, 3e-100, 10**6), (2.0, 7.0)])
    config = TreeConfig(seed=5, max_levels_cap=MAX_LEVELS, ground_metric=metric)
    tree = build_tree(union_coords((first, second)), config)
    assert tree.num_levels == MAX_LEVELS and tree.truncated
    assert_index_matches_reference(tree, [first, second, first, PersistenceDiagram()])


@pytest.mark.parametrize("offset", [0.0, 1e11])
def test_export_files_match_reference(tmp_path, offset):
    # vector files are byte-identical; matching files list the same lines
    tree, first, second = forty_level_instance(offset, GroundMetric.L2)
    write_vector(embed(tree, first), tmp_path / "a.vec")
    expected = [tree.signature] + [
        f"{level} {ix} {iy} {value!r}"
        for (level, ix, iy), value in reference.embed(tree, first)
    ]
    assert (tmp_path / "a.vec").read_text() == "\n".join(expected) + "\n"

    write_matching(greedy_match(tree, first, second), tmp_path / "m.match")
    pairs = reference.greedy_match(tree, first, second, GroundMetric.L2)[0]
    expected = [
        f"{kind} {s[0]!r} {s[1]!r} {t[0]!r} {t[1]!r} {mass} {mass * dist!r}"
        for s, t, mass, kind, _, dist in pairs
    ]
    lines = (tmp_path / "m.match").read_text().splitlines()
    assert sorted(lines) == sorted(expected)


def test_matching_file_is_byte_stable(tmp_path):
    # the same seed writes the same matching file, line for line
    first = PersistenceDiagram([(0.0, 4.0, 10**6), (1.0, 9.0, 3), (2.0, 2.5)])
    second = PersistenceDiagram([(0.5, 4.5, 999_999), (1.0, 8.0, 7), (6.0, 6.25, 2)])
    texts = []
    for run in range(2):
        tree = build_tree(union_coords((first, second)), TreeConfig(seed=23))
        write_matching(greedy_match(tree, first, second), tmp_path / f"{run}.match")
        texts.append((tmp_path / f"{run}.match").read_bytes())
    assert texts[0] == texts[1] and texts[0]
