"""The per-user-sum objective (the paper's equation (2)) — an
alternative reading of the scheduling problem.

The paper first writes the objective as ``Σ_j Σ_k p(t_j, Φ_k)``
(equation (2)): each user's schedule covers instants *independently* and
coverages add across users. Its reformulation (4) then pools all
measurements into one set Ψ, where a second user measuring an
already-covered instant adds (almost) nothing. The two differ exactly
when users overlap in time.

Equation (2) is separable: the total is maximized by optimizing each
user's own coverage independently, which this scheduler does (greedy per
user over their window — optimal-per-user up to the usual greedy bound,
identical machinery to the pooled case). The simulation numbers the
paper reports (average coverage ≤ 1, "almost 100% with 55 users") only
make sense under the pooled objective, which is why
:class:`~repro.core.scheduling.greedy.GreedyScheduler` is the default;
this module exists to quantify the difference (see
:func:`repro.experiments.ablations.run_objective_ablation`).
"""

from __future__ import annotations

import numpy as np

from repro.core.scheduling.greedy import (
    argmax_tied_low,
    stochastic_sample_size,
    validate_greedy_options,
)
from repro.core.scheduling.objective import DEFAULT_BACKEND, make_objective
from repro.core.scheduling.problem import Schedule, SchedulingProblem


def per_user_sum_value(schedule: Schedule, *, backend: str = DEFAULT_BACKEND) -> float:
    """Evaluate a schedule under equation (2): Σ_k f(Φ_k)."""
    problem = schedule.problem
    total = 0.0
    for user in problem.users:
        objective = make_objective(problem.period, problem.kernel, backend)
        for instant in schedule.assignments.get(user.user_id, []):
            objective.add(instant)
        total += objective.value()
    return total


class PerUserGreedyScheduler:
    """Greedy for the separable equation-(2) objective.

    Each user maximizes their own coverage in isolation: spread your own
    budget over your own window, ignoring everyone else. Overlapping
    users therefore pick the *same* well-spread instants instead of
    interleaving — the behaviour the pooled objective avoids.
    """

    def __init__(
        self,
        *,
        min_gain: float = 1e-12,
        backend: str = DEFAULT_BACKEND,
        mode: str = "exact",
        sample_epsilon: float = 0.1,
        seed: int = 2014,
    ) -> None:
        validate_greedy_options(mode, sample_epsilon)
        self.min_gain = min_gain
        self.backend = backend
        self.mode = mode
        self.sample_epsilon = sample_epsilon
        self.seed = seed

    def solve(self, problem: SchedulingProblem) -> Schedule:
        """Schedule every user independently; returns the combined plan.

        ``objective_value`` on the result is the equation-(2) total. In
        ``mode="stochastic"`` each pick samples candidates from the
        user's window (seeded rng, one stream shared across users) and
        falls back to the exact window sweep on a dry sample.
        """
        stochastic = self.mode == "stochastic"
        rng = np.random.default_rng(self.seed) if stochastic else None
        assignments: dict[str, list[int]] = {}
        total = 0.0
        for user_index, user in enumerate(problem.users):
            lo, hi = problem.user_window(user_index)
            objective = make_objective(problem.period, problem.kernel, self.backend)
            sample_size = stochastic_sample_size(
                hi - lo, user.budget, self.sample_epsilon
            )
            chosen: list[int] = []
            for _ in range(user.budget):
                if hi <= lo:
                    break
                gains = objective.gains_fast()[lo:hi]
                for instant in chosen:
                    gains[instant - lo] = -np.inf
                if stochastic:
                    draws = rng.integers(0, hi - lo, size=sample_size)
                    positions = np.unique(draws)
                    sampled = gains[positions]
                    best = int(positions[argmax_tied_low(sampled)])
                    if gains[best] < self.min_gain:
                        # Dry sample — decide with the exact window sweep.
                        best = argmax_tied_low(gains)
                else:
                    best = argmax_tied_low(gains)
                if gains[best] < self.min_gain:
                    break
                objective.add(lo + best)
                chosen.append(lo + best)
            assignments[user.user_id] = sorted(chosen)
            total += objective.value()
        schedule = Schedule(
            problem=problem, assignments=assignments, objective_value=total
        )
        schedule.validate()
        return schedule
