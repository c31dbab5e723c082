"""Multi-feature coverage: one schedule serving several kernels.

The paper assigns "a large σ … for those sensing features whose readings
do not change drastically over time (such as temperature, humidity) …
a small σ … for those whose readings may change quickly (such as
acceleration, orientation)" — but its formulation optimizes a single
kernel per application. When one application senses several features in
the same burst (as SOR's scripts do), the natural objective is the
weighted sum of per-feature coverages:

    f(Ψ) = Σ_f w_f · Σ_j p_f(t_j, Ψ)

Each term is monotone submodular, and non-negative weighted sums of
monotone submodular functions are monotone submodular, so the greedy
1/2-approximation carries over unchanged. This module provides that
objective with the same incremental interface as
:class:`~repro.core.scheduling.objective.CoverageObjective`, plus a
scheduler wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.core.scheduling.coverage import CoverageKernel
from repro.core.scheduling.greedy import (
    argmax_tied_low,
    stochastic_sample_size,
    validate_greedy_options,
)
from repro.core.scheduling.objective import DEFAULT_BACKEND, make_objective
from repro.core.scheduling.problem import Schedule, SchedulingPeriod, SchedulingProblem


@dataclass(frozen=True)
class FeatureKernel:
    """One sensed feature's kernel and its importance weight."""

    name: str
    kernel: CoverageKernel
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("feature name is required")
        if self.weight < 0:
            raise ValidationError("feature weight must be non-negative")


class MultiKernelObjective:
    """Weighted sum of per-feature coverage objectives."""

    def __init__(
        self,
        period: SchedulingPeriod,
        features: list[FeatureKernel],
        *,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        if not features:
            raise ValidationError("need at least one feature kernel")
        names = [feature.name for feature in features]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate feature names")
        self.period = period
        self.features = list(features)
        self.backend = backend
        self._objectives = [
            make_objective(period, feature.kernel, backend) for feature in features
        ]

    @property
    def chosen(self) -> frozenset[int]:
        return self._objectives[0].chosen

    def value(self) -> float:
        """Current blended objective value."""
        return sum(
            feature.weight * objective.value()
            for feature, objective in zip(self.features, self._objectives)
        )

    def per_feature_coverage(self) -> dict[str, float]:
        """Average coverage each feature ends up with."""
        return {
            feature.name: objective.average_coverage()
            for feature, objective in zip(self.features, self._objectives)
        }

    def gain(self, instant_index: int) -> float:
        """Weighted marginal gain of adding ``instant_index``."""
        return sum(
            feature.weight * objective.gain(instant_index)
            for feature, objective in zip(self.features, self._objectives)
        )

    def gains_fast(self) -> np.ndarray:
        """Vectorized weighted marginal gains for every instant."""
        total = np.zeros(self.period.num_instants)
        for feature, objective in zip(self.features, self._objectives):
            if feature.weight > 0:
                total += feature.weight * objective.gains_fast()
        return total

    def add(self, instant_index: int) -> float:
        """Add an instant to every feature objective; returns its gain."""
        gain = self.gain(instant_index)
        for objective in self._objectives:
            objective.add(instant_index)
        return gain


class MultiKernelGreedyScheduler:
    """Greedy over the blended objective (same matroid constraint)."""

    def __init__(
        self,
        features: list[FeatureKernel],
        *,
        min_gain: float = 1e-12,
        backend: str = DEFAULT_BACKEND,
        mode: str = "exact",
        sample_epsilon: float = 0.1,
        seed: int = 2014,
    ) -> None:
        if not features:
            raise ValidationError("need at least one feature kernel")
        validate_greedy_options(mode, sample_epsilon)
        self.features = list(features)
        self.min_gain = min_gain
        self.backend = backend
        self.mode = mode
        self.sample_epsilon = sample_epsilon
        self.seed = seed

    def solve(self, problem: SchedulingProblem) -> Schedule:
        """Schedule ``problem``'s users against the blended objective.

        ``problem.kernel`` is ignored — coverage comes from the feature
        kernels this scheduler was built with. In ``mode="stochastic"``
        each pick evaluates the blended gain only at a seeded sample of
        the still-available instants, with the exact full sweep as the
        dry-sample fallback.
        """
        stochastic = self.mode == "stochastic"
        rng = np.random.default_rng(self.seed) if stochastic else None
        objective = MultiKernelObjective(
            problem.period, self.features, backend=self.backend
        )
        remaining = [user.budget for user in problem.users]
        available = np.zeros(problem.period.num_instants, dtype=np.int64)
        for user_index in range(len(problem.users)):
            if remaining[user_index] > 0:
                lo, hi = problem.user_window(user_index)
                available[lo:hi] += 1
        assigned: dict[int, set[int]] = {
            user_index: set() for user_index in range(len(problem.users))
        }
        sample_size = stochastic_sample_size(
            problem.period.num_instants,
            problem.total_budget(),
            self.sample_epsilon,
        )
        while available.max(initial=0) > 0:
            best: int | None = None
            if stochastic:
                feasible = np.flatnonzero(available > 0)
                draws = rng.integers(
                    0, feasible.size, size=min(sample_size, int(feasible.size))
                )
                candidates = np.unique(feasible[draws])
                gains = np.array(
                    [objective.gain(int(c)) for c in candidates]
                )
                pick = argmax_tied_low(gains)
                if gains[pick] >= self.min_gain:
                    best = int(candidates[pick])
            if best is None:
                # exact mode, or a dry stochastic sample: exact sweep.
                gains = objective.gains_fast()
                masked = np.where(available > 0, gains, -np.inf)
                best = argmax_tied_low(masked)
                if masked[best] < self.min_gain:
                    break
            user_index = self._pick_user(problem, best, remaining, assigned)
            if user_index is None:
                # Everyone covering the best instant holds it already;
                # zero it out and continue with the next best.
                available[best] = 0
                continue
            objective.add(best)
            assigned[user_index].add(best)
            remaining[user_index] -= 1
            if remaining[user_index] == 0:
                lo, hi = problem.user_window(user_index)
                available[lo:hi] -= 1
        schedule = Schedule(
            problem=problem,
            assignments={
                problem.users[user_index].user_id: sorted(instants)
                for user_index, instants in assigned.items()
            },
            objective_value=objective.value(),
        )
        schedule.validate()
        self.last_per_feature_coverage = objective.per_feature_coverage()
        return schedule

    @staticmethod
    def _pick_user(
        problem: SchedulingProblem,
        instant_index: int,
        remaining: list[int],
        assigned: dict[int, set[int]],
    ) -> int | None:
        best: int | None = None
        for user_index in range(len(problem.users)):
            if remaining[user_index] <= 0:
                continue
            if not problem.user_can_sense_at(user_index, instant_index):
                continue
            if instant_index in assigned[user_index]:
                continue
            if best is None or (
                (-remaining[user_index], problem.users[user_index].arrival, user_index)
                < (-remaining[best], problem.users[best].arrival, best)
            ):
                best = user_index
        return best
