"""Ranking distances: Kemeny (Kendall tau) and Spearman's footrule.

Definitions follow the paper's Section IV-B: the Kemeny distance counts
pairwise order violations between two rankings (Definition 2); the
footrule distance sums absolute rank displacements (equation (9)) and
satisfies ``d_K ≤ d_f ≤ 2·d_K`` (Diaconis–Graham, equation (10)).
Weighted variants against a collection of individual rankings implement
equations (7) and (11).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.common.errors import RankingError
from repro.core.ranking.types import Ranking


def kemeny_distance(first: Ranking, second: Ranking) -> int:
    """Number of item pairs the two rankings order oppositely.

    The paper's double sum (equation (5)) counts each violated pair
    twice — once as (i, i′) and once as (i′, i) — but its worked example
    (d_K = 2 for two violations) counts unordered pairs, so we count
    unordered pairs.
    """
    first.require_same_items(second)
    items = first.items
    violations = 0
    for index_a in range(len(items)):
        for index_b in range(index_a + 1, len(items)):
            item_a, item_b = items[index_a], items[index_b]
            first_order = first.position(item_a) - first.position(item_b)
            second_order = second.position(item_a) - second.position(item_b)
            if first_order * second_order < 0:
                violations += 1
    return violations


def footrule_distance(first: Ranking, second: Ranking) -> int:
    """Spearman's footrule ``Σ_i |π(i, R1) − π(i, R2)|``."""
    first.require_same_items(second)
    return sum(
        abs(first.position(item) - second.position(item)) for item in first.items
    )


def check_collection(
    ranking: Ranking, collection: Sequence[Ranking], weights: Sequence[float]
) -> None:
    """Raise :class:`RankingError` unless ``collection`` and ``weights``
    pair up, every weight is finite and non-negative (the error names
    the first bad index), and every ranking has ``ranking``'s items."""
    if len(collection) != len(weights):
        raise RankingError(
            f"{len(collection)} rankings but {len(weights)} weights"
        )
    for index, weight in enumerate(weights):
        if not (math.isfinite(weight) and weight >= 0):
            raise RankingError(
                f"weight {index} must be finite and non-negative, got {weight!r}"
            )
    for individual in collection:
        ranking.require_same_items(individual)


def weighted_kemeny_distance(
    ranking: Ranking, collection: Sequence[Ranking], weights: Sequence[float]
) -> float:
    """κ_K(R, Ω) = Σ_j w_j · d_K(R, R_j) (equation (7))."""
    check_collection(ranking, collection, weights)
    return sum(
        weight * kemeny_distance(ranking, individual)
        for individual, weight in zip(collection, weights)
    )


def weighted_footrule_distance(
    ranking: Ranking, collection: Sequence[Ranking], weights: Sequence[float]
) -> float:
    """κ_f(R, Ω) = Σ_j w_j · d_f(R, R_j) (equation (11))."""
    check_collection(ranking, collection, weights)
    return sum(
        weight * footrule_distance(ranking, individual)
        for individual, weight in zip(collection, weights)
    )
