"""Figure 14: performance of the sensing scheduling algorithm.

The paper's setup (Section V-C): a 3-hour scheduling period divided into
1080 instants (10 s spacing); user arrivals uniform in [0, 10800] with
departures uniform in [arrival, 10800]; Gaussian coverage kernel with
μ = 0, σ = 10 s; the baseline senses every 10 s from arrival for the
budget; every point is the mean over 10 runs.

* Fig. 14(a): users ∈ {10, 15, …, 50}, budget fixed at 17.
* Fig. 14(b): budget ∈ {15, 16, …, 25}, users fixed at 40.

Shapes to hold: greedy dominates the baseline everywhere; coverage rises
with users and budget; the baseline sits near 0.5 at 40 users where
greedy exceeds 0.8; the average improvement is on the order of the
paper's reported 65%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ValidationError
from repro.core.scheduling import (
    DEFAULT_BACKEND,
    GaussianKernel,
    GreedyScheduler,
    PeriodicBaselineScheduler,
    SchedulingPeriod,
    SchedulingProblem,
)
from repro.sim.arrivals import uniform_arrivals

PERIOD_S = 10_800.0
NUM_INSTANTS = 1080
SIGMA_S = 10.0
BASELINE_INTERVAL_S = 10.0
DEFAULT_RUNS = 10

USER_SWEEP = list(range(10, 51, 5))
FIXED_BUDGET = 17
BUDGET_SWEEP = list(range(15, 26))
FIXED_USERS = 40


@dataclass
class SweepPoint:
    """One x-axis point: mean and std over the runs, both algorithms."""

    x: int
    greedy_mean: float
    greedy_std: float
    baseline_mean: float
    baseline_std: float

    @property
    def improvement(self) -> float:
        """Relative improvement of greedy over the baseline."""
        if self.baseline_mean == 0:
            return float("inf")
        return (self.greedy_mean - self.baseline_mean) / self.baseline_mean


@dataclass
class SweepResult:
    """A full Fig. 14 panel."""

    x_label: str
    points: list[SweepPoint] = field(default_factory=list)

    @property
    def mean_improvement(self) -> float:
        return float(np.mean([point.improvement for point in self.points]))

    def greedy_series(self) -> list[tuple[int, float]]:
        """The greedy curve as (x, mean coverage) pairs."""
        return [(point.x, point.greedy_mean) for point in self.points]

    def baseline_series(self) -> list[tuple[int, float]]:
        """The baseline curve as (x, mean coverage) pairs."""
        return [(point.x, point.baseline_mean) for point in self.points]


def _one_point(
    *, x: int, users_count: int, budget: int, runs: int, seed: int,
    backend: str,
) -> SweepPoint:
    if runs < 1:
        raise ValidationError(f"runs must be at least 1, got {runs}")
    period = SchedulingPeriod(0.0, PERIOD_S, NUM_INSTANTS)
    kernel = GaussianKernel(sigma=SIGMA_S)
    greedy = GreedyScheduler(backend=backend)
    baseline = PeriodicBaselineScheduler(interval_s=BASELINE_INTERVAL_S)
    greedy_values = []
    baseline_values = []
    for run in range(runs):
        rng = np.random.default_rng(seed + run)
        users = uniform_arrivals(users_count, PERIOD_S, budget, rng)
        problem = SchedulingProblem(period, users, kernel)
        greedy_values.append(greedy.solve(problem).average_coverage)
        baseline_values.append(baseline.solve(problem).average_coverage)
    return SweepPoint(
        x=x,
        greedy_mean=float(np.mean(greedy_values)),
        greedy_std=float(np.std(greedy_values)),
        baseline_mean=float(np.mean(baseline_values)),
        baseline_std=float(np.std(baseline_values)),
    )


def run_fig14a(
    *, runs: int = DEFAULT_RUNS, seed: int = 0, backend: str = DEFAULT_BACKEND
) -> SweepResult:
    """Fig. 14(a): average coverage vs number of mobile users."""
    result = SweepResult(x_label="number of mobile users")
    for users_count in USER_SWEEP:
        result.points.append(
            _one_point(
                x=users_count,
                users_count=users_count,
                budget=FIXED_BUDGET,
                runs=runs,
                seed=seed,
                backend=backend,
            )
        )
    return result


def run_fig14b(
    *, runs: int = DEFAULT_RUNS, seed: int = 0, backend: str = DEFAULT_BACKEND
) -> SweepResult:
    """Fig. 14(b): average coverage vs sensing budget."""
    result = SweepResult(x_label="budget")
    for budget in BUDGET_SWEEP:
        result.points.append(
            _one_point(
                x=budget,
                users_count=FIXED_USERS,
                budget=budget,
                runs=runs,
                seed=seed,
                backend=backend,
            )
        )
    return result


def format_sweep(result: SweepResult, title: str) -> str:
    """Render a panel as the series the paper plots."""
    lines = [
        title,
        f"{result.x_label:>24}  {'greedy':>10}  {'(std)':>8}  "
        f"{'baseline':>10}  {'(std)':>8}  {'improv.':>8}",
    ]
    for point in result.points:
        lines.append(
            f"{point.x:>24}  {point.greedy_mean:>10.4f}  {point.greedy_std:>8.4f}  "
            f"{point.baseline_mean:>10.4f}  {point.baseline_std:>8.4f}  "
            f"{point.improvement * 100:>7.1f}%"
        )
    lines.append(f"mean improvement: {result.mean_improvement * 100:.1f}%")
    return "\n".join(lines)
