"""The columnar embedding, L1 distance, embedding index and greedy matching
against the pure-Python reference oracles in reference.py, compared with
exact ==."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from dgmdist import (
    MAX_LEVELS,
    GroundMetric,
    PersistenceDiagram,
    PlacedDiagrams,
    ShiftedQuadtree,
    TreeConfig,
    build_tree,
    embed,
    embed_all,
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
    assert matching.root_fallback == root_fallback
    assert sorted(map(pair_tuple, matching.pairs)) == sorted(pairs)


@st.composite
def instances(draw, max_mult=3):
    """(tree, first, second, metric) over a shared pool of points.

    The pool sits at an offset up to 1e11 and may contain a near-duplicate,
    which with a small level cap truncates the tree. Diagrams draw pool
    points with multiplicities up to max_mult and may be empty or hold a
    single point.
    """
    offset = draw(st.sampled_from([0.0, -250.0, 3e4, 1e11]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    raw = draw(
        st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(1e-3, 1.0)),
            min_size=1,
            max_size=10,
        )
    )
    pool = []
    for b, life in raw:
        birth = offset + scale * b
        pool.append((birth, birth + scale * life + abs(birth) * 1e-9))
    if draw(st.booleans()):
        birth, death = pool[0]
        pool.append((birth, math.nextafter(death, math.inf)))

    def diagram():
        picks = draw(
            st.lists(
                st.tuples(st.integers(0, len(pool) - 1), st.integers(1, max_mult)),
                max_size=12,
            )
        )
        return PersistenceDiagram([(*pool[i], m) for i, m in picks])

    first, second = diagram(), diagram()
    metric = draw(st.sampled_from(list(GroundMetric)))
    config = TreeConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        max_levels_cap=draw(st.sampled_from([2, 3, 5, 12, 40])),
        ground_metric=metric,
    )
    return build_tree(pool, config), first, second, metric


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instances())
def test_matches_reference(instance):
    assert_matches_reference(*instance)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(instances(max_mult=10**6))
def test_matches_reference_with_large_multiplicities(instance):
    # unequal masses up to 10^6 per point: a point's mass is split over
    # several cross pairs and several levels, and the surplus side changes
    # from cell to cell
    assert_matches_reference(*instance)


def assert_index_matches_reference(tree, diagrams):
    # every row of the index is the exact reference cost, bit for bit;
    # equal diagrams are at distance 0.0
    index = embed_all(tree, diagrams)
    vectors = [embed(tree, d) for d in diagrams]
    counts = [reference.counts(tree, d) for d in diagrams]
    js = range(len(diagrams))
    for i, diagram in enumerate(diagrams):
        assert index.vector(i) == vectors[i]
        row = index.l1_row(i, js)
        assert row == [reference.count_distance(tree, counts[i], counts[j]) for j in js]
        assert all(row[j] == 0.0 for j in js if diagrams[j] == diagram)


def assert_embedding_distance_is_exact(tree, first, second, metric):
    # the index row, dist's estimate on one tree and a knn row each equal the
    # exact cost rounded once; the float L1 of the two stored vectors is
    # within 2**-50 of their value norms of it
    exact = reference.embedding_cost(tree, first, second)
    assert embed_all(tree, [first, second]).l1_row(0, [1]) == [exact]
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([3, 10**6]).flatmap(lambda max_mult: instances(max_mult=max_mult)))
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


def assert_residual_identity(tree, first, second, metric):
    # the two-diagram row is the greedy walk's sum of side * residual over
    # the levels, rounded once, and the reference's embedding cost
    residuals = greedy_match(tree, first, second).level_residuals
    walk = float(sum(Fraction(tree.side(level)) * r for level, r in residuals))
    row = embed_all(tree, [first, second]).l1_row(0, [1])[0]
    assert row == walk
    assert row == reference.embedding_cost(tree, first, second)


@pytest.mark.parametrize(
    "metric,birth,death,seed",
    [
        (GroundMetric.L1, 1e11, 1e11 + 1e-4, 33),
        (GroundMetric.L2, 1e9, 1e9 + 1e-6, 53),
        (GroundMetric.LINF, 1e11, 1e11 + 1e-4, 136),
    ],
)
def test_residual_identity_far_from_the_origin(metric, birth, death, seed):
    # a point a few ulps above the diagonal: on these trees its cell is
    # terminal at some level and clear again at the next by the float test,
    # which must not count it again after the walk has retired it
    first = PersistenceDiagram([(birth, death)])
    second = PersistenceDiagram([(birth, death, 2)])
    tree = build_tree(union_coords((first, second)), TreeConfig(seed, ground_metric=metric))
    assert not tree.truncated
    assert_residual_identity(tree, first, second, metric)


@st.composite
def far_offset_instances(draw):
    """(tree, first, second, metric) at offsets 1e9 and +-1e11, where a
    cell's float terminal test can fail above a level at which it held.
    Lifetimes run from 1 ulp of the birth up to 16 times the pool's spread,
    and the tree is built over the two diagrams, the first of which is
    non-empty."""
    offset = draw(st.sampled_from([1e9, 1e11, -1e11]))
    scale = draw(st.sampled_from([1e-4, 1.0, 1e3]))
    raw = draw(
        st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.integers(1, 16), st.booleans()),
            min_size=1,
            max_size=6,
        )
    )
    pool = []
    for b, steps, short in raw:
        birth = offset + scale * b
        life = steps * math.ulp(birth) if short else scale * steps
        pool.append((birth, birth + life))

    def diagram(min_size):
        picks = draw(
            st.lists(
                st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 3)),
                min_size=min_size,
                max_size=6,
            )
        )
        return PersistenceDiagram([(*pool[i], m) for i, m in picks])

    first, second = diagram(1), diagram(0)
    metric = draw(st.sampled_from(list(GroundMetric)))
    config = TreeConfig(seed=draw(st.integers(0, 2**32 - 1)), ground_metric=metric)
    return build_tree(union_coords((first, second)), config), first, second, metric


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(far_offset_instances())
def test_residual_identity_at_any_offset(instance):
    assert_residual_identity(*instance)


@st.composite
def index_instances(draw):
    """(tree, diagrams): the pair of instances() and 0-8 candidates, each an
    exact repeat of an earlier diagram or drawn from the pair's points, with
    multiplicities up to 10^6. The tree is either the instance's or one
    with MAX_LEVELS levels over the diagrams' points, truncated when they
    hold the near-duplicate."""
    max_mult = draw(st.sampled_from([3, 10**6]))
    tree, first, second, metric = draw(instances(max_mult=max_mult))
    diagrams = [first, second]
    points = first.coords().tolist() + second.coords().tolist()
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()) or not points:
            diagrams.append(draw(st.sampled_from(diagrams)))
            continue
        picks = draw(
            st.lists(
                st.tuples(st.sampled_from(points), st.integers(1, max_mult)),
                max_size=12,
            )
        )
        diagrams.append(PersistenceDiagram([(b, d, m) for (b, d), m in picks]))
    if points and draw(st.booleans()):
        config = TreeConfig(
            seed=draw(st.integers(0, 2**32 - 1)),
            max_levels_cap=MAX_LEVELS,
            ground_metric=metric,
        )
        tree = build_tree(union_coords(diagrams), config)
    return tree, diagrams


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(index_instances())
def test_index_matches_reference(instance):
    assert_index_matches_reference(*instance)


@st.composite
def aligned_instances(draw):
    """(tree, first, second, metric) on an unshifted grid whose corners lie
    on the diagonal, with points on a half-cell lattice: cells touch the
    diagonal at corners, and points sit on cell edges and the root's far
    edge."""
    levels = draw(st.integers(2, 6))
    side = 2.0 ** draw(st.integers(-3, 3))  # finest cell side
    steps = 2**levels  # half-cell steps across the root
    offset = draw(st.sampled_from([0.0, -8.0, 1e11]))
    metric = draw(st.sampled_from(list(GroundMetric)))
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

    def diagram():
        points = []
        for _ in range(draw(st.integers(0, 10))):
            i = draw(st.integers(0, steps - 1))
            j = draw(st.integers(i + 1, steps))
            m = draw(st.integers(1, 3))
            points.append((offset + i * side / 2, offset + j * side / 2, m))
        return PersistenceDiagram(points)

    return tree, diagram(), diagram(), metric


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
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


@st.composite
def deep_spread_instances(draw):
    """(tree, first, second, metric) on the deepest tree a config allows,
    truncated by a point 1e-200 from the diagonal, with the diagrams' points
    spread far from the diagonal: they stay live into the coarse half of the
    48 levels and meet the other diagram only there, where cells differ in
    the high bits of their indices."""
    metric = draw(st.sampled_from(list(GroundMetric)))
    steps = st.integers(0, 512)  # a 1/64 lattice: no two points closer

    def diagram():
        points = []
        for _ in range(draw(st.integers(0, 12))):
            x = draw(steps) / 64
            y = x + 2.0 + draw(steps) / 64
            points.append((x, y, draw(st.integers(1, 10**6))))
        return PersistenceDiagram(points)

    first, second = diagram(), diagram()
    pool = [(0.0, 1e-200), (0.0, 16.0), *union_coords((first, second)).tolist()]
    config = TreeConfig(
        seed=draw(st.integers(0, 2**32 - 1)), max_levels_cap=MAX_LEVELS, ground_metric=metric
    )
    tree = build_tree(pool, config)
    assert tree.num_levels == MAX_LEVELS and tree.truncated
    return tree, first, second, metric


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(deep_spread_instances())
def test_deep_spread_matches_reference(instance):
    assert_matches_reference(*instance)
    tree, first, second, metric = instance
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
