"""Shared instance generators for the test suite.

Everything here is a pure function of its seed so failures replay exactly.
"""

from __future__ import annotations

import numpy as np

from dgmdist import (
    GroundMetric,
    TreeConfig,
    build_tree,
    gen_gaussian,
    gen_uniform,
    union_coords,
)
from families import pick


def tiny_pair(seed: int, max_units: int = 8):
    """A pair of gen_uniform points with multiplicities up to 2, at most
    max_units units together (the brute-force regime); either may be empty."""
    rng = np.random.default_rng(seed)
    pool = gen_uniform(max(max_units, 1), seed).coords().tolist()

    def choices():
        count = int(rng.integers(0, max_units + 1))
        return zip(rng.integers(0, len(pool), count), rng.integers(0, 2, count))

    first, budget = pick(pool, choices(), max_units)
    return first, pick(pool, choices(), budget)[0]


def random_pair(seed: int, max_points: int = 30):
    """Synthetic pair mixing the uniform and near-diagonal generators."""
    rng = np.random.default_rng(seed)
    size_a = int(rng.integers(1, max_points + 1))
    size_b = int(rng.integers(1, max_points + 1))
    seed_a = int(rng.integers(0, 2**31 - 1))
    seed_b = int(rng.integers(0, 2**31 - 1))
    if seed % 3 == 0:
        return gen_gaussian(size_a, seed_a), gen_gaussian(size_b, seed_b)
    if seed % 3 == 1:
        return gen_uniform(size_a, seed_a), gen_gaussian(size_b, seed_b)
    return gen_uniform(size_a, seed_a), gen_uniform(size_b, seed_b)


def pair_tree(first, second, seed: int, metric: GroundMetric = GroundMetric.L2):
    return build_tree(
        union_coords((first, second)), TreeConfig(seed=seed, ground_metric=metric)
    )


def placed_levels(tree, coords):
    """[(level, ix, iy, terminal)] per level, finest first, read off
    tree.place: the cell k levels up is the finest index shifted right by
    k, and a point is terminal from its first terminal level on."""
    ix, iy, terminal_level = tree.place(coords)
    return [
        (level, ix >> k, iy >> k, terminal_level <= level)
        for k, level in enumerate(tree.levels())
    ]


def cells_at(tree, point):
    """{level: (ix, iy, terminal)} for one point, read off tree.place."""
    return {
        level: (int(ix[0]), int(iy[0]), bool(terminal[0]))
        for level, ix, iy, terminal in placed_levels(tree, [point])
    }
