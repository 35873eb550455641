"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np

from dgmdist import (
    GroundMetric,
    embed,
    error_suite,
    exact_distance,
    flowtree_distance,
    gen_gaussian,
    gen_uniform,
    greedy_match,
    knn_distances,
    l1_distance,
    load_diagram,
    multi_tree_estimate,
    recall_at_m,
    runtime_bench,
    save_diagram,
    write_matching,
    write_vector,
)

from helpers import pair_tree, random_pair, tiny_pair
from reference import brute_force_distance, ot_augmented

L2 = GroundMetric.L2
SQRT2 = math.sqrt(2.0)
METRICS = list(GroundMetric)


def report(criterion, elapsed, budget, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE PASS criterion {criterion}: {elapsed:.1f}s < {budget}s{suffix}")


def ramp_dataset(generator, count, max_size, seed):
    """Size-ramped synthetic family: file i capped at max_size*(i+1)/count."""
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, count)]
    return [
        generator(max(1, round(max_size * (i + 1) / count)), seeds[i])
        for i in range(count)
    ]


def test_criterion_1_oracle_self_consistency():
    budget = 10.0
    t0 = time.perf_counter()
    checked = 0
    for seed in range(200):
        first, second = tiny_pair(seed)
        for metric in METRICS:
            lhs = exact_distance(first, second, metric)
            rhs = brute_force_distance(first, second, metric)
            assert abs(lhs - rhs) <= 1e-9, (seed, metric, lhs, rhs)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    report(1, elapsed, budget, f"{checked} comparisons")


def test_criterion_2_sandwich_inequalities():
    budget = 60.0
    t0 = time.perf_counter()
    combos = 0
    for pair_seed in range(100):
        first, second = random_pair(pair_seed, max_points=30)
        d_true = exact_distance(first, second, L2)
        for tree_offset in range(5):
            tree = pair_tree(first, second, seed=pair_seed * 5 + tree_offset)
            d_flow = flowtree_distance(tree, first, second)
            d_embed = l1_distance(embed(tree, first), embed(tree, second))
            assert d_true <= d_flow + 1e-9, (pair_seed, tree_offset)
            assert d_flow <= 2 * SQRT2 * d_embed + 1e-9, (pair_seed, tree_offset)
            assert d_true <= 2 * SQRT2 * d_embed + 1e-9, (pair_seed, tree_offset)
            combos += 1
    assert combos == 500
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    report(2, elapsed, budget, "500 (pair, seed) combinations")


def test_criterion_3_residual_identity():
    budget = 30.0
    t0 = time.perf_counter()
    for seed in range(200):
        first, second = random_pair(seed, max_points=20)
        tree = pair_tree(first, second, seed=1000 + seed)
        matching = greedy_match(tree, first, second)
        residual_cost = math.fsum(
            tree.side(level) * residual
            for level, residual in matching.level_residuals
        )
        d_embed = l1_distance(embed(tree, first), embed(tree, second))
        assert abs(residual_cost - d_embed) <= 1e-9, seed
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    report(3, elapsed, budget, "200 instances")


def test_criterion_4_augmented_transport_bound():
    budget = 30.0
    t0 = time.perf_counter()
    for seed in range(200):
        first, second = tiny_pair(seed + 5000)
        ot = ot_augmented(first, second, L2)
        d_true = exact_distance(first, second, L2)
        assert ot <= 2 * d_true + 1e-9, seed
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    report(4, elapsed, budget, "200 instances")


def test_criterion_5_error_statistics_on_uniform_family():
    budget = 600.0
    t0 = time.perf_counter()
    dataset = ramp_dataset(gen_uniform, count=100, max_size=300, seed=42)
    result = error_suite(
        dataset,
        methods=["flowtree", "embedding"],
        metrics=[L2],
        seed=7,
        n_pairs=120,
    )
    assert result.skipped_pairs == 0
    by_method = {s.method: s for s in result.stats}
    flow_mean = by_method["flowtree"].mean_rel_error
    embed_mean = by_method["embedding"].mean_rel_error
    assert 0.05 <= flow_mean <= 0.60, flow_mean
    assert 1.0 <= embed_mean <= 6.0, embed_mean
    assert flow_mean < embed_mean
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    report(
        5,
        elapsed,
        budget,
        f"flowtree mean {flow_mean:.4f}, embedding mean {embed_mean:.4f}",
    )


def test_criterion_6_runtime_scaling():
    budget = 300.0
    t0 = time.perf_counter()

    approx_rows = runtime_bench(
        [1000, 2000, 4000, 8000], ["flowtree", "embedding"], seed=1, reps=3
    )
    slopes = {}
    for method in ("flowtree", "embedding"):
        rows = [r for r in approx_rows if r.method == method]
        sizes = [r.size for r in rows]
        times = [r.median_seconds for r in rows]
        slopes[method] = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
        assert slopes[method] < 1.3, (method, slopes[method])

    exact_rows = runtime_bench([100, 200, 400], ["exact"], seed=2, reps=5)
    times = [r.median_seconds for r in exact_rows]
    exact_slope = float(
        np.polyfit(np.log([r.size for r in exact_rows]), np.log(times), 1)[0]
    )
    assert exact_slope > 2.3, exact_slope

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    report(
        6,
        elapsed,
        budget,
        f"flowtree {slopes['flowtree']:.2f}, embedding {slopes['embedding']:.2f}, "
        f"exact {exact_slope:.2f}",
    )


def test_criterion_7_recall_on_gaussian_family():
    budget = 300.0
    t0 = time.perf_counter()
    dataset = ramp_dataset(gen_gaussian, count=100, max_size=60, seed=77)
    rng = np.random.default_rng(9)
    order = rng.permutation(len(dataset))
    queries = [dataset[i] for i in order[:10]]
    candidates = [dataset[i] for i in order[10:]]

    true_rows = knn_distances(queries, candidates, "exact", L2)
    for method in ("embedding", "flowtree"):
        approx_rows = knn_distances(queries, candidates, method, L2, seed=5)
        curve, skipped = recall_at_m(true_rows, approx_rows, method)
        assert skipped == 0
        assert curve.m_values[-1] == 90
        assert all(a <= b for a, b in zip(curve.recall, curve.recall[1:]))
        assert curve.recall[-1] == 1.0

    exact_rows = knn_distances(queries, candidates, "exact", L2, seed=5)
    exact_curve, _ = recall_at_m(true_rows, exact_rows, "exact")
    assert exact_curve.recall[0] == 1.0

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    report(7, elapsed, budget, "10/90 split of 100 diagrams")


def test_criterion_8_determinism(tmp_path):
    first, second = random_pair(3, max_points=20)

    # distances
    d1, _ = multi_tree_estimate(first, second, L2, seeds=[1, 2, 3], reduce="mean")
    d2, _ = multi_tree_estimate(first, second, L2, seeds=[1, 2, 3], reduce="mean")
    assert d1 == d2

    # vector files
    for run in ("a", "b"):
        tree = pair_tree(first, second, seed=11)
        write_vector(embed(tree, first), tmp_path / f"{run}.vec")
    assert (tmp_path / "a.vec").read_bytes() == (tmp_path / "b.vec").read_bytes()

    # matchings
    for run in ("a", "b"):
        tree = pair_tree(first, second, seed=12)
        write_matching(greedy_match(tree, first, second), tmp_path / f"{run}.match")
    assert (tmp_path / "a.match").read_bytes() == (tmp_path / "b.match").read_bytes()

    # CSV bodies
    from dgmdist.evaluate import write_csv

    dataset = [gen_uniform(4 + i, seed=i) for i in range(8)]
    fields = ["pair_index", "left", "right", "method", "ground_metric",
              "d_true", "d_approx", "rel_error"]
    for run in ("a", "b"):
        suite = error_suite(dataset, ["flowtree"], [L2], seed=21, n_pairs=5)
        write_csv(tmp_path / f"{run}.csv", fields, suite.rows)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    # on-disk diagrams round-tripped through the file format
    save_diagram(first, tmp_path / "first.txt")
    assert load_diagram(tmp_path / "first.txt") == first

    report(8, 0.0, math.inf, "distances, vectors, matchings, CSV bodies")


def test_criterion_9_multiplicity_equivalence(tmp_path):
    listed_twice = tmp_path / "twice.txt"
    listed_twice.write_text("5 9\n5 9\n1 2\n")
    with_multiplicity = tmp_path / "mult.txt"
    with_multiplicity.write_text("5 9 2\n1 2\n")
    a = load_diagram(listed_twice)
    b = load_diagram(with_multiplicity)
    assert a == b

    other = gen_uniform(6, seed=31)
    assert exact_distance(a, other, L2) == exact_distance(b, other, L2)
    for seed in range(20):
        tree_a = pair_tree(a, other, seed=seed)
        tree_b = pair_tree(b, other, seed=seed)
        assert flowtree_distance(tree_a, a, other) == flowtree_distance(
            tree_b, b, other
        )
        assert l1_distance(embed(tree_a, a), embed(tree_a, other)) == l1_distance(
            embed(tree_b, b), embed(tree_b, other)
        )
    report(9, 0.0, math.inf, "20 seeds")
