"""Tests for the exact solver, and for the brute-force, dense-assignment and
augmented-transport oracles it is checked against."""

import importlib.machinery
import importlib.metadata
import importlib.util
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from dgmdist import GroundMetric, PDPoint, PersistenceDiagram, gen_gaussian
from dgmdist.exact import SizeCapError, exact_distance

from families import instances
from helpers import tiny_pair
from reference import (
    brute_force_distance,
    build_assignment,
    dense_distance,
    ot_augmented,
)

SQRT2 = math.sqrt(2.0)
METRICS = list(GroundMetric)


class TestBuildAssignment:
    def test_two_singletons_matrix(self):
        first = PersistenceDiagram([(0, 4)])
        second = PersistenceDiagram([(0, 6)])
        problem = build_assignment(first, second, GroundMetric.L2)
        expected = np.array([[2.0, 2 * SQRT2], [3 * SQRT2, 0.0]])
        np.testing.assert_allclose(problem.cost, expected)
        assert problem.size == 2

    def test_empty_versus_singleton(self):
        problem = build_assignment(
            PersistenceDiagram(), PersistenceDiagram([(0, 6)]), GroundMetric.L2
        )
        np.testing.assert_allclose(problem.cost, [[3 * SQRT2]])

    def test_multiplicity_expands_to_identical_rows(self):
        first = PersistenceDiagram([(0, 4, 2)])
        second = PersistenceDiagram([(1, 5)])
        problem = build_assignment(first, second, GroundMetric.L2)
        assert problem.size == 3
        np.testing.assert_allclose(problem.cost[0], problem.cost[1])

    def test_diagonal_block_zero(self):
        first = PersistenceDiagram([(0, 4), (2, 9)])
        second = PersistenceDiagram([(1, 5)])
        problem = build_assignment(first, second, GroundMetric.L1)
        np.testing.assert_allclose(problem.cost[2:, 1:], 0.0)

    def test_size_cap(self):
        first = PersistenceDiagram([(0, 4, 3)])
        second = PersistenceDiagram([(1, 5, 3)])
        with pytest.raises(SizeCapError):
            build_assignment(first, second, GroundMetric.L2, size_cap=5)


class TestExactDistance:
    def test_two_singletons(self):
        # cross match costs 2; both-to-diagonal costs 5*sqrt(2)
        first = PersistenceDiagram([(0, 4)])
        second = PersistenceDiagram([(0, 6)])
        assert exact_distance(first, second, GroundMetric.L2) == pytest.approx(2.0)

    def test_forced_diagonal(self):
        first = PersistenceDiagram([(0, 4)])
        assert exact_distance(
            first, PersistenceDiagram(), GroundMetric.L2
        ) == pytest.approx(2 * SQRT2)

    def test_partial_diagonal(self):
        # best structure keeps (0,4) matched and sends (10,14) to the diagonal
        first = PersistenceDiagram([(0, 4), (10, 14)])
        second = PersistenceDiagram([(0, 4)])
        assert exact_distance(first, second, GroundMetric.L2) == pytest.approx(
            2 * SQRT2
        )

    def test_both_empty(self):
        assert exact_distance(
            PersistenceDiagram(), PersistenceDiagram(), GroundMetric.L2
        ) == 0.0

    @pytest.mark.parametrize("metric", METRICS)
    def test_metric_axioms(self, metric):
        for seed in range(12):
            a, b = tiny_pair(seed + 300)
            c, _ = tiny_pair(seed + 600)
            assert exact_distance(a, a, metric) == pytest.approx(0.0, abs=1e-12)
            d_ab = exact_distance(a, b, metric)
            assert d_ab == pytest.approx(exact_distance(b, a, metric), abs=1e-9)
            d_ac = exact_distance(a, c, metric)
            d_cb = exact_distance(c, b, metric)
            assert d_ab <= d_ac + d_cb + 1e-9

    def test_adding_point_moves_distance_by_at_most_its_diagonal_cost(self):
        for seed in range(15):
            first, second = tiny_pair(seed + 900, max_units=6)
            rng = np.random.default_rng(seed)
            birth = float(rng.uniform(0, 10))
            extra = PDPoint(birth, birth + float(rng.uniform(0.1, 5)))
            grown = PersistenceDiagram(list(first.points) + [extra])
            base = exact_distance(first, second, GroundMetric.L2)
            moved = exact_distance(grown, second, GroundMetric.L2)
            slack = extra.lifetime / SQRT2 + 1e-9
            assert abs(moved - base) <= slack


class TestSolverModule:
    @pytest.mark.parametrize("content", [None, "linear_sum_assignment = None\n"])
    def test_missing_extension_raises(self, tmp_path, monkeypatch, content):
        # scipy located at an optimize/ directory that is empty, or holds a
        # source _lsap.py: the first solve raises and imports no scipy.optimize
        (tmp_path / "optimize").mkdir()
        if content is not None:
            (tmp_path / "optimize" / "_lsap.py").write_text(content)
        fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        fake.submodule_search_locations = [str(tmp_path)]
        find_spec = importlib.util.find_spec
        monkeypatch.setattr(
            importlib.util, "find_spec",
            lambda name, package=None: fake if name == "scipy" else find_spec(name, package),
        )
        for name in ("scipy.optimize", "scipy.optimize._lsap"):
            monkeypatch.delitem(sys.modules, name, raising=False)
        first, second = PersistenceDiagram([(0, 4)]), PersistenceDiagram([(1, 6)])
        with pytest.raises(ImportError) as raised:
            exact_distance(first, second, GroundMetric.L2)
        message = str(raised.value)
        assert str(tmp_path / "optimize") in message
        assert importlib.metadata.version("scipy") in message
        assert "scipy.optimize" not in sys.modules
        assert "scipy.optimize._lsap" not in sys.modules


class TestBruteForce:
    def test_self_distance_zero(self):
        d = PersistenceDiagram([(3, 7)])
        assert brute_force_distance(d, d, GroundMetric.L2) == 0.0

    def test_disjoint_singletons_two_candidate_matchings(self):
        first = PersistenceDiagram([(0, 4)])
        second = PersistenceDiagram([(6, 8)])
        cross = GroundMetric.L2.distance((0, 4), (6, 8))
        diagonal_sum = 4 / SQRT2 + 2 / SQRT2
        assert brute_force_distance(first, second, GroundMetric.L2) == pytest.approx(
            min(cross, diagonal_sum)
        )

    def test_size_bound(self):
        first = PersistenceDiagram([(0, 4, 5)])
        second = PersistenceDiagram([(1, 5, 4)])
        with pytest.raises(SizeCapError):
            brute_force_distance(first, second, GroundMetric.L2)


class TestAugmentedTransport:
    def test_bounded_by_twice_exact(self):
        for seed in range(40):
            first, second = tiny_pair(seed + 1500)
            for metric in METRICS:
                ot = ot_augmented(first, second, metric)
                d = exact_distance(first, second, metric)
                assert ot <= 2 * d + 1e-9

    def test_identical_diagrams_give_zero(self):
        d = PersistenceDiagram([(0, 4), (1, 6, 2)])
        assert ot_augmented(d, d, GroundMetric.L2) == pytest.approx(0.0, abs=1e-12)

    def test_singleton_versus_empty(self):
        first = PersistenceDiagram([(0, 4)])
        assert ot_augmented(
            first, PersistenceDiagram(), GroundMetric.L2
        ) == pytest.approx(2 * SQRT2)

    def test_both_empty(self):
        assert ot_augmented(
            PersistenceDiagram(), PersistenceDiagram(), GroundMetric.L2
        ) == 0.0


def diagonal_sum(diagram, metric):
    return math.fsum(
        (p.death - p.birth) * metric.diagonal_factor
        for p in diagram.points
        for _ in range(p.multiplicity)
    )


class TestReducedAssignment:
    """exact_distance against the dense (m+n)² augmented assignment and its
    own invariants (brute force and symmetry: test_invariants.py)."""

    @given(instances(max_units=400, max_points=68, max_picks=38))
    @settings(max_examples=150)
    def test_equals_dense_reference(self, instance):
        first, second, metric = instance.first, instance.second, instance.metric
        assert exact_distance(first, second, metric) == pytest.approx(
            dense_distance(first, second, metric), rel=1e-12
        )

    @given(instances("lattice", max_mults=(1000,), max_units=2100, max_points=41, max_picks=21))
    @settings(max_examples=15)
    def test_equals_dense_reference_with_large_multiplicities(self, instance):
        first, second, metric = instance.first, instance.second, instance.metric
        assert exact_distance(first, second, metric) == pytest.approx(
            dense_distance(first, second, metric), rel=1e-12
        )

    @given(instances(max_units=400, max_points=68, max_picks=38))
    @settings(max_examples=150)
    def test_self_distance_is_exactly_zero(self, instance):
        assert exact_distance(instance.first, instance.first, instance.metric) == 0.0

    @given(instances(max_units=400, max_points=68, max_picks=38))
    @settings(max_examples=150)
    def test_added_points_cost_exactly_their_diagonal_distances(self, instance):
        base, extra, metric = instance.first, instance.second, instance.metric
        grown = PersistenceDiagram(list(base.points) + list(extra.points))
        expected = diagonal_sum(extra, metric)
        assert exact_distance(base, grown, metric) == expected
        assert exact_distance(grown, base, metric) == expected

    @pytest.mark.parametrize("metric", METRICS)
    def test_near_duplicate_self_distance_pinned(self, metric):
        # two points one ulp apart: d - δ rounds to -δ, so without the
        # cancellation of the shared multiset the assignment may cross them
        # and return one ulp of distance
        diagram = PersistenceDiagram(
            [
                (-7.1828825199953386, 0.7944328371222267, 1),
                (-7.1828825199953386, 0.7944328371222268, 2),
            ]
        )
        assert exact_distance(diagram, diagram, metric) == 0.0

    def test_gaussian_1600_pinned(self):
        # value of the dense (m+n)² augmented assignment on this pair
        first, second = gen_gaussian(1600, 1), gen_gaussian(1600, 2)
        assert exact_distance(first, second, GroundMetric.L2) == pytest.approx(
            598.1102246600467, rel=1e-12
        )
