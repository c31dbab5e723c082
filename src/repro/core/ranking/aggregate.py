"""Step 3 of Algorithm 2: rank aggregation.

The footrule-optimal aggregation is a min-cost perfect matching between
places and ranks: assigning place i to final rank r costs
``Σ_j w_j · |π(i, R_j) − r|`` (the paper's edge cost on its auxiliary
flow graph). That matching is a square assignment problem, which we
solve directly on the dense cost matrix with the shortest-augmenting-path
Hungarian method. The result minimizes the weighted footrule distance
κ_f and therefore 2-approximates the weighted Kemeny optimum.

Also here: exhaustive weighted-Kemeny search (reference for tests),
Borda count (a cheap baseline for the ablation bench), and an
adjacent-swap local search that can only improve the Kemeny objective
of any starting ranking.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Sequence

import numpy as np

from repro.common.errors import RankingError
from repro.core.ranking.distances import (
    check_collection,
    weighted_footrule_distance,
    weighted_kemeny_distance,
)
from repro.core.ranking.types import Ranking
from repro.obs import MetricsRegistry, get_metrics

#: Buckets for the total footrule cost of one aggregation — spans the
#: tiny test instances (< 1) up to paper-scale weighted collections.
_FOOTRULE_COST_BUCKETS = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0,
)


def _check_inputs(collection: Sequence[Ranking], weights: Sequence[float]) -> None:
    if not collection:
        raise RankingError("need at least one individual ranking")
    check_collection(collection[0], collection, weights)


def _position_matrix(
    collection: Sequence[Ranking],
) -> tuple[np.ndarray, tuple[Hashable, ...]]:
    """``P[j, i] = π(item_i, R_j)`` and the shared item order."""
    items = collection[0].items
    positions = np.array(
        [[ranking.position(item) for item in items] for ranking in collection],
        dtype=float,
    )
    return positions, items


def footrule_cost_matrix(
    collection: Sequence[Ranking], weights: Sequence[float]
) -> tuple[np.ndarray, tuple[Hashable, ...]]:
    """Cost[i][r] = Σ_j w_j · |π(item_i, R_j) − (r+1)| and the item order.

    One broadcasted ``w_j · |P[j, i] − r|`` tensor reduced over the
    ranking axis with :func:`np.add.reduce`, whose slice-by-slice
    accumulation order matches the scalar reference's ``total += …``
    loop — the two are bitwise identical (pinned by the differential
    suite), like the scheduling backends.
    """
    _check_inputs(collection, weights)
    positions, items = _position_matrix(collection)
    count = len(items)
    ranks = np.arange(1, count + 1, dtype=float)
    weight_vector = np.asarray(weights, dtype=float)
    # terms[j, i, r] = w_j · |π(item_i, R_j) − r|
    terms = weight_vector[:, None, None] * np.abs(
        positions[:, :, None] - ranks[None, None, :]
    )
    return np.add.reduce(terms, axis=0), items


def footrule_cost_matrix_reference(
    collection: Sequence[Ranking], weights: Sequence[float]
) -> tuple[np.ndarray, tuple[Hashable, ...]]:
    """The O(N²·J) scalar spec of :func:`footrule_cost_matrix`.

    Kept as the oracle for the differential test; the vectorized path
    must reproduce it bitwise.
    """
    _check_inputs(collection, weights)
    positions, items = _position_matrix(collection)
    count = len(items)
    weight_vector = [float(weight) for weight in weights]
    cost = np.zeros((count, count))
    for item_index in range(count):
        for rank_index in range(count):
            total = 0.0
            for ranking_index, weight in enumerate(weight_vector):
                total += weight * abs(
                    positions[ranking_index, item_index] - float(rank_index + 1)
                )
            cost[item_index, rank_index] = total
    return cost, items


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """The column assigned to each row in a min-cost perfect matching.

    Shortest-augmenting-path Hungarian method with dual potentials,
    O(N³): rows join the matching one at a time, in index order, each
    along a cheapest augmenting path found by Dijkstra over reduced
    costs, with the scan over the columns vectorized. ``argmin`` breaks
    ties between equally distant columns towards the lowest index.
    """
    if not np.isfinite(cost).all():
        raise RankingError("footrule costs overflow to a non-finite value")
    count = cost.shape[0]
    row_potential = np.zeros(count)
    column_potential = np.zeros(count)
    row_of = np.full(count, -1)  # row matched to each column
    column_of = np.full(count, -1)  # column matched to each row
    for start in range(count):
        distance = np.full(count, np.inf)  # to each column, over reduced costs
        via = np.zeros(count, dtype=int)  # row each column is reached from
        closed = np.zeros(count)  # inf once a column's distance is final
        row, reached = start, 0.0
        while True:
            reduced = cost[row] - column_potential
            reduced += reached - row_potential[row]
            reduced += closed
            via[reduced < distance] = row
            np.minimum(distance, reduced, out=distance)
            column = int(np.argmin(distance + closed))
            reached = float(distance[column])
            closed[column] = np.inf
            if row_of[column] < 0:
                break
            row = int(row_of[column])
        # Keep every reduced cost non-negative and the matched ones zero.
        visited = closed > 0
        column_potential[visited] -= reached - distance[visited]
        matched = visited & (row_of >= 0)
        row_potential[row_of[matched]] += reached - distance[matched]
        row_potential[start] += reached
        while True:  # flip the matching along the augmenting path
            row = int(via[column])
            row_of[column] = row
            column_of[row], column = column, column_of[row]
            if row == start:
                break
    return column_of


def aggregate_footrule(
    collection: Sequence[Ranking],
    weights: Sequence[float],
    *,
    metrics: MetricsRegistry | None = None,
) -> Ranking:
    """The footrule-optimal aggregated ranking (a min-cost assignment).

    Equal-cost optima are common, so which one is returned is part of
    the contract: places are inserted into the matching in the first
    ranking's item order, each along a cheapest augmenting path, and
    equal reduced costs go to the lowest rank index. With all weights
    zero the first ranking is therefore returned unchanged, and
    ``[ABC, CBA]`` with weights ``[1, 1]`` aggregates to ``ABC``.
    """
    registry = metrics if metrics is not None else get_metrics()
    cost, items = footrule_cost_matrix(collection, weights)
    count = len(items)
    assignment = _min_cost_assignment(cost)
    registry.counter(
        "sor_ranking_aggregations_total",
        "footrule aggregations solved as a min-cost assignment",
    ).inc()
    registry.gauge(
        "sor_ranking_matching_size",
        "items matched to ranks in the most recent aggregation",
    ).set(count)
    registry.histogram(
        "sor_ranking_footrule_cost",
        "total weighted footrule cost of each aggregation",
        buckets=_FOOTRULE_COST_BUCKETS,
    ).observe(float(cost[np.arange(count), assignment].sum()))
    return Ranking([items[index] for index in np.argsort(assignment)])


def brute_force_kemeny(
    collection: Sequence[Ranking], weights: Sequence[float], *, max_items: int = 8
) -> Ranking:
    """Exact weighted-Kemeny-optimal ranking by exhaustive permutation.

    Only for small item sets; used as the ground truth in tests and the
    aggregation-quality ablation.
    """
    _check_inputs(collection, weights)
    items = collection[0].items
    if len(items) > max_items:
        raise RankingError(
            f"brute force limited to {max_items} items, got {len(items)}"
        )
    best_ranking: Ranking | None = None
    best_value = float("inf")
    for permutation in itertools.permutations(items):
        candidate = Ranking(permutation)
        value = weighted_kemeny_distance(candidate, collection, weights)
        if value < best_value - 1e-12:
            best_value = value
            best_ranking = candidate
    assert best_ranking is not None
    return best_ranking


def borda_count(collection: Sequence[Ranking], weights: Sequence[float]) -> Ranking:
    """Weighted Borda count: order by weighted mean position.

    A popular cheap aggregation heuristic; included as the baseline the
    ablation bench compares the footrule aggregation against.
    """
    _check_inputs(collection, weights)
    items = collection[0].items
    scores = {
        item: sum(
            weight * ranking.position(item)
            for ranking, weight in zip(collection, weights)
        )
        for item in items
    }
    # Stable: ties keep the item order of the first individual ranking.
    ordered = sorted(items, key=lambda item: scores[item])
    return Ranking(ordered)


def refine_by_adjacent_swaps(
    start: Ranking, collection: Sequence[Ranking], weights: Sequence[float]
) -> Ranking:
    """Local search: swap adjacent items while κ_K strictly improves.

    Starting from the footrule solution this can only lower the weighted
    Kemeny distance, tightening the 2-approximation in practice (this is
    the classic "local Kemenization" post-processing step).
    """
    _check_inputs(collection, weights)
    start.require_same_items(collection[0])
    current = list(start.items)
    current_value = weighted_kemeny_distance(Ranking(current), collection, weights)
    improved = True
    while improved:
        improved = False
        for index in range(len(current) - 1):
            candidate = list(current)
            candidate[index], candidate[index + 1] = (
                candidate[index + 1],
                candidate[index],
            )
            value = weighted_kemeny_distance(Ranking(candidate), collection, weights)
            if value < current_value - 1e-12:
                current = candidate
                current_value = value
                improved = True
    return Ranking(current)


def aggregation_quality(
    ranking: Ranking, collection: Sequence[Ranking], weights: Sequence[float]
) -> dict[str, float]:
    """Both objective values of a candidate aggregation (for reports)."""
    return {
        "weighted_kemeny": weighted_kemeny_distance(ranking, collection, weights),
        "weighted_footrule": weighted_footrule_distance(ranking, collection, weights),
    }
