"""Differential tests pinning the ranking aggregation to scipy.

The footrule aggregation is a min-cost perfect matching (the paper's
place × rank flow problem) solved by our dense shortest-augmenting-path
assignment routine; scipy's ``linear_sum_assignment`` (Jonker–Volgenant)
solves the same assignment problem by a different algorithm, which makes
it an ideal cross-implementation oracle:

* on random float and integer cost matrices of size 1–40, the routine's
  matching must be a permutation whose total cost equals the scipy
  optimum (and the exhaustive optimum on tiny matrices),
* on random ranking collections, the aggregate produced by
  :func:`aggregate_footrule` must *achieve* the scipy-optimal footrule
  cost (not just approximate it — the constraint matrix is totally
  unimodular, so the LP optimum is integral and attained),
* the footrule aggregate's weighted Kemeny distance stays within the
  theoretical 2× of the exact (brute-force) Kemeny optimum on ≤6
  places.

Run with ``--hypothesis-seed=0`` in CI for reproducibility.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.core.ranking import (
    Ranking,
    aggregate_footrule,
    brute_force_kemeny,
    weighted_kemeny_distance,
)
from repro.core.ranking.aggregate import (
    _min_cost_assignment,
    footrule_cost_matrix,
    footrule_cost_matrix_reference,
)
from repro.core.ranking.distances import weighted_footrule_distance


def _assignment_cost(cost: np.ndarray) -> float:
    """Total cost of our routine's matching, checked to be a permutation."""
    columns = _min_cost_assignment(cost)
    assert sorted(columns.tolist()) == list(range(cost.shape[0]))
    return float(cost[np.arange(cost.shape[0]), columns].sum())


def _scipy_cost(cost: np.ndarray) -> float:
    rows, columns = linear_sum_assignment(cost)
    return float(cost[rows, columns].sum())


def cost_matrices(max_size: int = 7):
    @st.composite
    def build(draw):
        size = draw(st.integers(min_value=1, max_value=max_size))
        values = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=size * size,
                max_size=size * size,
            )
        )
        return np.array(values).reshape(size, size)

    return build()


def ranking_collections(max_items: int = 6, max_rankings: int = 5):
    @st.composite
    def build(draw):
        num_items = draw(st.integers(min_value=1, max_value=max_items))
        num_rankings = draw(st.integers(min_value=1, max_value=max_rankings))
        items = [f"place-{index}" for index in range(num_items)]
        collection = []
        for _ in range(num_rankings):
            order = draw(st.permutations(items))
            collection.append(Ranking(order))
        weights = draw(
            st.lists(
                st.integers(min_value=1, max_value=9),
                min_size=num_rankings,
                max_size=num_rankings,
            )
        )
        return collection, [float(weight) for weight in weights]

    return build()


def weighted_ranking_collections(max_items: int = 6, max_rankings: int = 5):
    """Like :func:`ranking_collections` but with irrational-ish float
    weights, so any accumulation-order difference between the vectorized
    cost matrix and the scalar reference would actually show up."""

    @st.composite
    def build(draw):
        collection, _ = draw(ranking_collections(max_items, max_rankings))
        weights = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=10.0, allow_nan=False,
                          allow_infinity=False),
                min_size=len(collection),
                max_size=len(collection),
            )
        )
        return collection, weights

    return build()


class TestVectorizedCostMatrixBitwise:
    """The vectorized footrule cost matrix is pinned *bitwise* to the
    scalar reference loop — same contract as the scheduling backends."""

    @given(case=weighted_ranking_collections())
    @settings(max_examples=80, deadline=None)
    def test_vectorized_equals_reference_bitwise(self, case):
        collection, weights = case
        vectorized, items_v = footrule_cost_matrix(collection, weights)
        reference, items_r = footrule_cost_matrix_reference(collection, weights)
        assert items_v == items_r
        assert np.array_equal(vectorized, reference)  # bitwise, not approx

    def test_known_small_instance(self):
        collection = [Ranking(["a", "b", "c"]), Ranking(["c", "a", "b"])]
        weights = [0.3, 0.7]
        vectorized, items = footrule_cost_matrix(collection, weights)
        reference, _ = footrule_cost_matrix_reference(collection, weights)
        assert items == ("a", "b", "c")
        assert np.array_equal(vectorized, reference)
        # Spot-check one entry by hand: item "a" at rank 1 costs
        # 0.3·|1−1| + 0.7·|2−1| = 0.7.
        assert vectorized[0, 0] == pytest.approx(0.7)


class TestFlowMatchesScipy:
    """The paper's place × rank flow problem, solved as a dense
    assignment, against scipy's solver."""

    @given(cost=cost_matrices())
    @settings(max_examples=60, deadline=None)
    def test_min_cost_matching_equals_linear_sum_assignment(self, cost):
        assert _assignment_cost(cost) == pytest.approx(
            _scipy_cost(cost), rel=1e-9, abs=1e-9
        )

    @given(
        size=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        integral=st.booleans(),
    )
    @example(size=1, seed=0, integral=False)
    @example(size=40, seed=0, integral=True)
    @settings(max_examples=60, deadline=None)
    def test_random_up_to_40_match_scipy(self, size, seed, integral):
        rng = np.random.default_rng(seed)
        if integral:  # small integers make equal-cost optima common
            cost = rng.integers(0, 50, size=(size, size)).astype(float)
        else:
            cost = rng.uniform(0.0, 100.0, size=(size, size))
        assert _assignment_cost(cost) == pytest.approx(
            _scipy_cost(cost), rel=1e-9, abs=1e-9
        )

    def test_matches_exhaustive_small(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        best = min(
            sum(cost[i, p[i]] for i in range(3))
            for p in itertools.permutations(range(3))
        )
        assert _assignment_cost(cost) == pytest.approx(best)

    @given(case=ranking_collections())
    @settings(max_examples=40, deadline=None)
    def test_aggregate_achieves_scipy_optimal_footrule_cost(self, case):
        collection, weights = case
        cost, _ = footrule_cost_matrix(collection, weights)
        rows, columns = linear_sum_assignment(cost)
        optimum = float(cost[rows, columns].sum())
        aggregate = aggregate_footrule(collection, weights)
        achieved = weighted_footrule_distance(aggregate, collection, weights)
        assert achieved == pytest.approx(optimum, rel=1e-9, abs=1e-9)


class TestKemenyGuarantee:
    @given(case=ranking_collections(max_items=6, max_rankings=4))
    @settings(max_examples=25, deadline=None)
    def test_footrule_within_twice_brute_force_kemeny(self, case):
        collection, weights = case
        optimum = brute_force_kemeny(collection, weights)
        optimum_value = weighted_kemeny_distance(optimum, collection, weights)
        aggregate = aggregate_footrule(collection, weights)
        achieved = weighted_kemeny_distance(aggregate, collection, weights)
        assert achieved <= 2.0 * optimum_value + 1e-9
